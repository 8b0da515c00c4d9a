"""OCS object exchange layer: distributed objects over the simulated net.

This is the base of the paper's Object Communication System (section 3.2):
object references that uniquely identify an object and die with their
implementing process, ``OCSRuntime.invoke`` that turns a named operation
into a remote invocation checked against the IDL, and server-side
dispatch with per-call caller identity.
"""

# The transport names the application layer (services/, settop/) is
# allowed to touch.  Linter rule D006 forbids those packages importing
# repro.net directly; everything they legitimately need -- the datagram
# type, the network handle they are handed at construction, reservation
# failures, and the neighborhood topology helper -- is re-exported here
# as part of the object layer's sanctioned surface.
from repro.net.address import neighborhood_of
from repro.net.link import ReservationError
from repro.net.message import Message
from repro.net.network import Network, Segment
from repro.ocs.admission import AdmissionGate
from repro.ocs.exceptions import (
    AuthError,
    CallTimeout,
    CommFailure,
    DeadlineExceeded,
    InvalidObjectReference,
    OCSError,
    Overloaded,
    RemoteException,
    ServiceUnavailable,
    StaleReference,
)
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext, OCSRuntime

__all__ = [
    "AdmissionGate",
    "AuthError",
    "CallContext",
    "CallTimeout",
    "CommFailure",
    "DeadlineExceeded",
    "InvalidObjectReference",
    "Message",
    "Network",
    "OCSError",
    "OCSRuntime",
    "ObjectRef",
    "Overloaded",
    "RemoteException",
    "ReservationError",
    "Segment",
    "ServiceUnavailable",
    "StaleReference",
    "neighborhood_of",
]
