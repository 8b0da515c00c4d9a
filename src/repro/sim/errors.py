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
    """A simulated deadline elapsed before the awaited work completed."""
