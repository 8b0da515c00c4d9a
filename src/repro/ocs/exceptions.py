"""OCS exception hierarchy.

The split that matters to availability code is :class:`ServiceUnavailable`
vs everything else: the paper's client library (section 8.2) rebinds
through the name service exactly when an invocation fails because the
implementor is gone -- not when the application itself raised an error.

The errors a runtime raises on a caller's behalf are registered for the
wire, so the caller materialises the same class; ``Overloaded`` is
decoded by the runtime itself, since it carries ``retry_after``.
"""

from repro.idl.types import register_exception


class OCSError(Exception):
    """Base class for all OCS-level errors."""


class ServiceUnavailable(OCSError):
    """The invoked object cannot currently provide service.

    Subclasses distinguish *why*, but the recovery action is the same:
    obtain a fresh object reference from the name service and retry.
    """


class CommFailure(ServiceUnavailable):
    """No reply: host down, network partition, or message loss."""


class CallTimeout(CommFailure):
    """The per-call deadline elapsed with no reply."""


@register_exception
class InvalidObjectReference(ServiceUnavailable):
    """The reference's implementor has died or unexported the object.

    Raised when the destination port is unbound (process exited), the
    incarnation timestamp is stale (process restarted), or the object id
    is no longer exported (section 3.2.1).
    """


@register_exception
class StaleReference(InvalidObjectReference):
    """The endpoint is alive but the reference's incarnation is old.

    The implementor process was restarted (new incarnation timestamp)
    since this reference was minted, so the reference names a previous
    life of the object.  This is the signal the paper's lazy validation
    scheme (section 3.2.1) relies on: references may be cached
    indefinitely because a stale one raises on next use, at which point
    the client drops its cached binding and re-resolves.
    """


class DiskWedged(ServiceUnavailable):
    """The servant's host disk is wedged (PR 8 storage fault model).

    Shares its name with ``repro.sim.host.DiskWedged`` on purpose: when a
    servant's storage I/O raises the sim-level error, the wire form is
    keyed by the exception class *name*, and the client side materialises
    this class instead -- so a caller sees a wedged replica as just
    another retryable unavailability and rebinds elsewhere, exactly the
    recovery the paper's client library prescribes for a gone
    implementor.  (Registered in ``repro.core.replication`` alongside
    ``NotPrimary``.)
    """


class Overloaded(ServiceUnavailable):
    """The servant's admission gate shed this call (PR 4, paper section 5.1).

    The replica is alive but saturated: its inflight + queued work is at
    capacity.  ``retry_after`` is the server's hint for how long a client
    should cool down before retrying *this* replica; the rebind layer
    uses it to steer the retry at a different replica instead.
    """

    def __init__(self, detail: str = "", retry_after: float = 0.0):
        super().__init__(detail)
        self.retry_after = retry_after


@register_exception
class DeadlineExceeded(OCSError):
    """The invocation's absolute deadline passed before useful work ran.

    Deliberately *not* a :class:`ServiceUnavailable`: rebinding to a
    different replica cannot help a caller whose time budget is already
    spent.  Raised client-side when the budget expires before send and
    server-side when expired work is rejected at or after dequeue.
    """


class RemoteException(OCSError):
    """The servant raised an exception type not registered for the wire."""


@register_exception
class AuthError(OCSError):
    """The call's credentials failed verification (section 3.3)."""
