"""Network datagrams exchanged between OCS transports."""

from __future__ import annotations

from typing import Any, Optional, Tuple

# Fixed per-message overhead: headers, authentication signature, marshaled
# call frame.  Calls are signed by default (paper section 3.3), so every
# message carries the signature cost.
HEADER_BYTES = 256

# Absolute-deadline envelope field (PR 4 overload work): one float64 on
# the wire.  Charged explicitly so deadline propagation shows up in the
# byte accounting rather than hiding in HEADER_BYTES.
DEADLINE_BYTES = 8

# At-most-once request identity (PR 9): every two-way call envelope
# carries a ``(client_id, call_seq)`` pair so a retry is recognizable as
# the same logical request.  Charged as a fixed-width field (an 8-byte
# client hash plus an 8-byte sequence number) like DEADLINE_BYTES.
REQUEST_ID_BYTES = 16

# Payload checksum (PR 9): one CRC32 over the marshaled frame, so a
# receiver can reject a corrupted datagram instead of dispatching it.
CHECKSUM_BYTES = 4


class Message:
    """One datagram: source/destination endpoints plus an opaque payload.

    ``size_bytes`` drives link serialization delay; the payload itself is
    passed by reference (the simulation does not literally serialize
    Python objects, it charges for the bytes they would occupy).

    Slotted rather than a dataclass: the network allocates one of these
    per datagram, and a per-instance ``__dict__`` is the single biggest
    allocation on the send path.
    """

    __slots__ = ("src", "dst", "kind", "payload", "payload_bytes", "msg_id",
                 "deadline", "corrupted")

    def __init__(self, src: Tuple[str, int], dst: Tuple[str, int], kind: str,
                 payload: Any = None, payload_bytes: int = 0,
                 msg_id: Optional[int] = None,
                 deadline: Optional[float] = None,
                 corrupted: bool = False):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.payload_bytes = payload_bytes
        # None until a network sends it: the run's Network numbers it.
        self.msg_id = msg_id
        # Absolute (virtual-clock) deadline for the work this datagram
        # asks for; None means "no deadline" (replies, raw datagrams).
        self.deadline = deadline
        # A corrupt fault flipped bits in this copy's frame: the payload
        # checksum no longer verifies.  The payload object itself is
        # shared with any clean copies, so the damage is a flag, not a
        # mutation (a duplicated datagram corrupts independently).
        self.corrupted = corrupted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.kind == other.kind and self.payload == other.payload
                and self.payload_bytes == other.payload_bytes
                and self.msg_id == other.msg_id
                and self.deadline == other.deadline
                and self.corrupted == other.corrupted)

    __hash__ = None  # type: ignore[assignment] - dataclass(eq=True) semantics

    @property
    def size_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.msg_id} {self.kind} "
                f"{self.src[0]}:{self.src[1]} -> {self.dst[0]}:{self.dst[1]} "
                f"{self.size_bytes}B>")
