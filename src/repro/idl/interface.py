"""Interface definitions: the Python stand-in for IDL files.

An :class:`InterfaceDef` declares a named object type with typed
operations and an optional base interface (single inheritance, like IDL).
Definitions register globally by type id so a call on an
:class:`~repro.ocs.objref.ObjectRef` arriving over the wire is checked
against its type -- the "object type identifier, used to determine the
object's type at runtime" of paper section 3.2.1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional, Tuple

from repro.idl.errors import (
    DuplicateInterface,
    NoSuchMethod,
    SignatureError,
    UnknownInterface,
)


@dataclass(frozen=True)
class MethodDef:
    """One operation in an interface.

    ``params`` are parameter names (checked by count at call time);
    ``oneway`` operations expect no reply (used for notifications);
    ``idempotent`` operations are safe to re-execute on a retry, so the
    server-side reply cache lets them bypass at-most-once dedup;
    ``doc`` mirrors the comment block an IDL file would carry.
    """

    name: str
    params: Tuple[str, ...] = ()
    oneway: bool = False
    doc: str = ""
    idempotent: bool = False

    def check_args(self, args: tuple) -> None:
        if len(args) != len(self.params):
            raise SignatureError(
                f"{self.name}() takes {len(self.params)} argument(s) "
                f"({', '.join(self.params)}), got {len(args)}")


class CallPlan(NamedTuple):
    """What an IDL compiler fixed in a stub before its first call: the
    operation, its wire kind and its arity."""

    method: MethodDef
    kind: str
    arity: int


@dataclass
class InterfaceDef:
    """A named object type: the unit the IDL compiler consumed."""

    name: str
    methods: Dict[str, MethodDef] = field(default_factory=dict)
    base: Optional["InterfaceDef"] = None
    doc: str = ""
    #: the module whose ``register_interface`` call declared it.
    module: str = ""
    #: operation name -> its memoised :class:`CallPlan`, inherited
    #: operations included; filled by :meth:`plan`.
    plans: Dict[str, CallPlan] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def plan(self, name: str) -> CallPlan:
        """The call plan for operation ``name``, built on first use;
        raises :class:`NoSuchMethod` like :meth:`method`."""
        plan = self.plans.get(name)
        if plan is None:
            mdef = self.method(name)
            plan = self.plans[name] = CallPlan(
                mdef, f"rpc.call.{self.name}.{name}", len(mdef.params))
        return plan

    def method(self, name: str) -> MethodDef:
        """Look up an operation, searching base interfaces."""
        iface: Optional[InterfaceDef] = self
        while iface is not None:
            if name in iface.methods:
                return iface.methods[name]
            iface = iface.base
        raise NoSuchMethod(f"interface {self.name} has no operation {name!r}")

    def all_methods(self) -> Dict[str, MethodDef]:
        """Operations including inherited ones (derived-most wins)."""
        chain = []
        iface: Optional[InterfaceDef] = self
        while iface is not None:
            chain.append(iface)
            iface = iface.base
        merged: Dict[str, MethodDef] = {}
        for iface in reversed(chain):
            merged.update(iface.methods)
        return merged

    def is_a(self, type_name: str) -> bool:
        """Subtype check: does this interface derive from ``type_name``?"""
        iface: Optional[InterfaceDef] = self
        while iface is not None:
            if iface.name == type_name:
                return True
            iface = iface.base
        return False


interface_registry: Dict[str, InterfaceDef] = {}


def register_interface(name: str, methods: Dict[str, Tuple],
                       base: Optional[str] = None, doc: str = "",
                       idempotent: Tuple[str, ...] = ()) -> InterfaceDef:
    """Declare and register an interface.

    ``methods`` maps operation name to a tuple of parameter names (or to a
    :class:`MethodDef` for oneway/documented operations).  ``idempotent``
    names the operations that are safe to execute more than once under a
    retried request id (reads, status probes, absolute-value writes); all
    others get at-most-once dedup from the server's reply cache.
    Re-registering the same name with identical content is idempotent so
    test modules can import service modules repeatedly.
    """
    base_def = lookup_interface(base) if base is not None else None
    unknown = [m for m in idempotent if m not in methods]
    if unknown:
        raise SignatureError(
            f"interface {name}: idempotent declares unknown operation(s) "
            f"{unknown}")
    method_defs: Dict[str, MethodDef] = {}
    for mname, spec in methods.items():
        if isinstance(spec, MethodDef):
            mdef = spec
            if mname in idempotent and not mdef.idempotent:
                mdef = replace(mdef, idempotent=True)
            method_defs[mname] = mdef
        else:
            method_defs[mname] = MethodDef(name=mname, params=tuple(spec),
                                           idempotent=mname in idempotent)
    iface = InterfaceDef(name=name, methods=method_defs, base=base_def,
                         doc=doc, module=sys._getframe(1).f_globals.get(
                             "__name__", ""))
    existing = interface_registry.get(name)
    if existing is not None:
        if (existing.methods == iface.methods
                and (existing.base.name if existing.base else None)
                == (base_def.name if base_def else None)):
            return existing
        raise DuplicateInterface(f"conflicting redefinition of interface {name}")
    interface_registry[name] = iface
    return iface


def lookup_interface(name: str) -> InterfaceDef:
    iface = interface_registry.get(name)
    if iface is None:
        raise UnknownInterface(f"no interface registered as {name!r}")
    return iface
