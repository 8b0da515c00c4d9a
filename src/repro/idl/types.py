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


def estimated_size(value: Any) -> int:
    """Bytes this value would occupy on the wire, CDR-style."""
    # Exact built-in types first: no isinstance walk, and a container is
    # summed in C.  bool, subclasses (IntEnum, namedtuples), sets,
    # bytearray and wire_size hints take the general chain below.
    kind = type(value)
    if kind is str:
        if value.isascii():
            return _STRING_OVERHEAD + len(value)
        return _STRING_OVERHEAD + len(value.encode("utf-8"))
    if kind is int or kind is float:
        return _SCALAR_SIZE
    if kind is tuple or kind is list:
        return _CONTAINER_OVERHEAD + sum(map(estimated_size, value))
    if kind is dict:
        return (_CONTAINER_OVERHEAD + sum(map(estimated_size, value))
                + sum(map(estimated_size, value.values())))
    if kind is bytes:
        return _CONTAINER_OVERHEAD + len(value)
    if value is None:
        return 1
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
    if hint is not None:
        return int(hint)
    return _REF_SIZE


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
