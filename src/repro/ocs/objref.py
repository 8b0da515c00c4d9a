"""Object references (paper section 3.2.1).

The deployed system's remote representation contained exactly these
fields; the comments quote the paper's own description of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# Wildcard incarnation for persistent, restart-surviving references.  The
# paper: "With a few exceptions, notably the name service, object
# references are only good as long as the implementor of the object
# reference is alive."  Name-service bootstrap references (the IP handed
# to a settop at boot) use this wildcard so they remain valid across name
# service restarts.
ANY_INCARNATION: Tuple[float, int] = (-1.0, -1)


@dataclass(frozen=True)
class ObjectRef:
    """Denotes a particular object; identifies the same object each use."""

    # "IP address and port number of the server process implementing the
    # object"
    ip: str
    port: int
    # "timestamp, used to prevent use of this reference after the
    # implementing process dies" -- our incarnation is (boot time, pid).
    incarnation: Tuple[float, int]
    # "object type identifier, used to determine the object's type at
    # runtime"
    type_id: str
    # "object id, which identifies this object amongst those defined by
    # the implementing process.  Typically the object id is null, because
    # most services export only one object."
    object_id: str = ""

    # Marshaled size hint consumed by repro.idl.types.estimated_size.
    wire_size = 64

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        oid = f"/{self.object_id}" if self.object_id else ""
        return f"<ObjectRef {self.type_id}@{self.ip}:{self.port}{oid}>"
