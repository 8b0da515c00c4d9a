"""Naming context servants: the objects clients actually invoke.

Every context in the tree is one object ("the name service ... creates
one object for every context", section 9.2).  A replica exports only its
root's :class:`ContextServant`; any other context's servant is built per
call from the tree (``NameReplicaProcess._activate``).  Servants are
thin: they make the client's relative name absolute and delegate to the
replica, which owns traversal, selector invocation, and update
forwarding.
"""

from __future__ import annotations

from typing import Any

from repro.core.naming.store import join_name, split_name
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext


def _normalize_selector_spec(spec: Any) -> tuple:
    """Accept a policy name, an ObjectRef, or an explicit spec tuple."""
    if spec is None:
        return ("builtin", "first")
    if isinstance(spec, str):
        return ("builtin", spec)
    if isinstance(spec, ObjectRef):
        return ("object", spec)
    if isinstance(spec, tuple) and len(spec) == 2:
        return spec
    raise ValueError(f"bad selector spec: {spec!r}")


class ContextServant:
    """Implements the ``NamingContext`` IDL against one tree node (one
    servant per context: its path is per-object state)."""

    def __init__(self, replica, path: str):
        self._replica = replica
        self._path = path

    def _abs(self, name: str) -> str:
        rel = split_name(name)
        base = split_name(self._path)
        return join_name(base + rel)

    # -- lookups --------------------------------------------------------

    async def resolve(self, ctx: CallContext, name: str):
        return await self._replica.op_resolve(self._abs(name), ctx.caller_ip)

    async def resolveFor(self, ctx: CallContext, name: str, caller_ip: str):
        return await self._replica.op_resolve(self._abs(name), caller_ip)

    async def list(self, ctx: CallContext, name: str):
        return await self._replica.op_list(self._abs(name), ctx.caller_ip)

    async def listRepl(self, ctx: CallContext, name: str):
        return await self._replica.op_list_repl(self._abs(name), ctx.caller_ip)

    # -- updates ------------------------------------------------------------

    async def bind(self, ctx: CallContext, name: str, obj: ObjectRef):
        await self._replica.op_mutate(("bind", self._abs(name), obj))

    async def unbind(self, ctx: CallContext, name: str):
        await self._replica.op_mutate(("unbind", self._abs(name)))

    async def bindNewContext(self, ctx: CallContext, name: str):
        await self._replica.op_mutate(("mkcontext", self._abs(name)))

    async def bindReplContext(self, ctx: CallContext, name: str, selector=None):
        spec = _normalize_selector_spec(selector)
        await self._replica.op_mutate(("mkrepl", self._abs(name), spec))

    async def setSelector(self, ctx: CallContext, name: str, spec):
        await self._replica.op_mutate(
            ("setselector", self._abs(name), _normalize_selector_spec(spec)))

    # -- local-only (not replicated) ------------------------------------------

    async def reportLoadBatch(self, ctx: CallContext, entries):
        # The SSC's coalesced per-server report.  Selector state
        # is per-replica and advisory, so this is deliberately not a
        # replicated mutation.
        for name, member, load in entries:
            self._replica.selector_state.report_load(self._abs(name), member,
                                                     load)
