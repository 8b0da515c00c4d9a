"""Exception hierarchy for the simulation substrate."""


class SimError(Exception):
    """Base class for all simulation-level errors."""


class CancelledError(SimError):
    """A task or future was cancelled.

    Deliberately *not* Python's built-in ``asyncio.CancelledError`` so that
    simulated code cannot confuse kernel cancellation with host-level
    asyncio, and so it is catchable as a :class:`SimError`.
    """


class InvalidStateError(SimError):
    """An operation was attempted on a future in the wrong state."""


class SimTimeoutError(SimError):
    """A ``wait_for`` deadline elapsed before the awaitable completed."""


class KernelStopped(SimError):
    """The kernel was asked to do work after :meth:`Kernel.stop`."""
