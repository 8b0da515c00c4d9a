"""Marshaling cost model and the wire-exception registry.

The simulation never literally serializes Python objects; it charges the
network for the bytes a CORBA marshaler would have produced.
:func:`estimated_size` is that cost model.

Remote exceptions: a servant raising an application exception must
surface as the *same* exception type at the client (CORBA user
exceptions).  Exception classes register here by name; the OCS reply path
looks them up to re-raise the proper type, falling back to a generic
``RemoteException`` for unregistered ones.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Type

# Marshaled sizes, in bytes, approximating CDR encoding.
_SCALAR_SIZE = 8
_REF_SIZE = 64          # ip + port + timestamp + type id + object id
_STRING_OVERHEAD = 4
_CONTAINER_OVERHEAD = 4

#: Exact type -> its fixed marshaled size.  Seeded with the atoms;
#: ``estimated_size`` adds a class the first time it sees one whose
#: ``wire_size`` hint is an ``int`` class attribute (``ObjectRef``,
#: ``Ticket``).  A ``wire_size`` property (``Blob``) varies per instance
#: and is never entered.
_FIXED_SIZE: Dict[type, int] = {
    int: _SCALAR_SIZE, float: _SCALAR_SIZE, bool: 1, type(None): 1,
}
_fixed_size = _FIXED_SIZE.get


def estimated_size(value: Any) -> int:
    """Bytes this value would occupy on the wire, CDR-style."""
    # Exact types first: one table probe for a fixed-size value, and an
    # exact container walks its items here, calling back only for an
    # item that is neither fixed-size nor an ASCII str.  Subclasses
    # (IntEnum, namedtuples, str subclasses), sets, bytearray and
    # wire_size hints take the isinstance chain below.
    kind = type(value)
    size = _fixed_size(kind)
    if size is not None:
        return size
    if kind is str:
        if value.isascii():
            return _STRING_OVERHEAD + len(value)
        return _STRING_OVERHEAD + len(value.encode("utf-8"))
    if kind is bytes:
        return _CONTAINER_OVERHEAD + len(value)
    if kind is tuple or kind is list or kind is dict:
        total = _CONTAINER_OVERHEAD
        for item in [*value, *value.values()] if kind is dict else value:
            item_kind = type(item)
            size = _fixed_size(item_kind)
            if size is None:
                if item_kind is str and item.isascii():
                    size = _STRING_OVERHEAD + len(item)
                else:
                    size = estimated_size(item)
            total += size
        return total
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _SCALAR_SIZE
    if isinstance(value, str):
        return _STRING_OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _CONTAINER_OVERHEAD + len(value)
    if isinstance(value, (list, tuple, set)):
        return _CONTAINER_OVERHEAD + sum(estimated_size(v) for v in value)
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            estimated_size(k) + estimated_size(v) for k, v in value.items())
    # Object references and small structs: use their own hint if provided.
    hint = getattr(value, "wire_size", None)
    if hint is None:
        return _REF_SIZE
    fixed = getattr(kind, "wire_size", None)
    if type(fixed) is int:
        _FIXED_SIZE[kind] = fixed       # one class attribute: one size
    return int(hint)


_exception_registry: Dict[str, Type[BaseException]] = {}


def register_exception(cls: Type[BaseException]) -> Type[BaseException]:
    """Class decorator: make an exception type re-raisable across OCS.

    The wire form is ``(registered name, str(exception))``; the client
    side reconstructs the registered class with the message.
    """
    _exception_registry[cls.__name__] = cls
    return cls


def resolve_exception(name: str) -> Optional[Type[BaseException]]:
    return _exception_registry.get(name)
