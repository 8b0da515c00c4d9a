"""Client-side name service library.

Wraps the bootstrap information every process has -- the IP address of a
name-service replica (settops receive it in the boot broadcast, section
3.4.1; server processes use their local replica) -- into typed helpers
with the retry behaviour services actually need during cluster start-up.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import repro.core.naming.interfaces  # noqa: F401 - registers IDL types
from repro.core.naming.cache import BindingCache
from repro.core.naming.errors import NamingError
from repro.core.params import NS_PORT, Params
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.objref import ANY_INCARNATION, ObjectRef
from repro.ocs.runtime import OCSRuntime
from repro.sim.errors import SimTimeoutError


def ns_root_ref(ip: str) -> ObjectRef:
    """The persistent bootstrap reference to a replica's root context."""
    return ObjectRef(ip=ip, port=NS_PORT, incarnation=ANY_INCARNATION,
                     type_id="NamingContext", object_id="")


class NameClient:
    """A process's handle on the cluster name space.

    ``ns_ip`` may be a single replica address or a list; with a list, a
    replica that stops answering rotates the client to the next one --
    the availability the per-server replication exists to provide
    (section 4.6).  A settop's list comes from its boot parameters.

    ``cache`` plugs in the host's shared :class:`BindingCache` (PR 5):
    ``resolve()`` then answers repeats from the cache and coalesces
    concurrent misses into one name-service call.  Coherence is by
    exception -- callers report bad bindings via :meth:`invalidate`
    when a use raises.  Server-side clients (binding watchdogs,
    replica-conflict resolution, settle probes) stay uncached because
    they exist to observe the *real* name-space state.
    """

    def __init__(self, runtime: OCSRuntime, ns_ip,
                 params: Optional[Params] = None,
                 cache: Optional[BindingCache] = None):
        self.runtime = runtime
        self.params = params or Params()
        ips = [ns_ip] if isinstance(ns_ip, str) else list(ns_ip)
        if not ips:
            raise ValueError("NameClient needs at least one replica address")
        self._roots = [ns_root_ref(ip) for ip in ips]
        self._current = 0
        self.cache = cache

    @property
    def root(self) -> ObjectRef:
        return self._roots[self._current]

    async def _invoke(self, method: str, args: tuple):
        last_error: Optional[Exception] = None
        for attempt in range(len(self._roots)):
            try:
                return await self.runtime.invoke(self.root, method, args,
                                                 timeout=self.params.call_timeout)
            except ServiceUnavailable as err:
                last_error = err
                self._current = (self._current + 1) % len(self._roots)
        raise last_error

    async def resolve(self, name: str) -> ObjectRef:
        if self.cache is not None:
            return await self.cache.resolve(name, self._resolve_direct)
        return await self._resolve_direct(name)

    async def _resolve_direct(self, name: str) -> ObjectRef:
        return await self._invoke("resolve", (name,))

    def invalidate(self, name: str, ref: Optional[ObjectRef] = None) -> None:
        """Report a cached binding bad (a use raised StaleReference /
        InvalidObjectReference / Overloaded); no-op when uncached."""
        if self.cache is not None:
            self.cache.invalidate(name, ref)

    async def bind(self, name: str, ref: ObjectRef) -> None:
        await self._invoke("bind", (name, ref))

    async def unbind(self, name: str) -> None:
        await self._invoke("unbind", (name,))

    async def bind_new_context(self, name: str) -> None:
        await self._invoke("bindNewContext", (name,))

    async def bind_repl_context(self, name: str, selector: str = "first") -> None:
        await self._invoke("bindReplContext", (name, selector))

    async def set_selector(self, name: str, spec) -> None:
        await self._invoke("setSelector", (name, spec))

    async def list(self, name: str) -> List[Tuple[str, str, Optional[ObjectRef]]]:
        return await self._invoke("list", (name,))

    async def list_repl(self, name: str) -> List[Tuple[str, str, Optional[ObjectRef]]]:
        return await self._invoke("listRepl", (name,))

    # -- start-up helpers ------------------------------------------------

    async def ensure_context(self, name: str, replicated: bool = False,
                             selector: str = "first") -> None:
        """Create a context if missing; tolerate races with other creators."""
        from repro.core.naming.errors import AlreadyBound
        try:
            if replicated:
                await self.bind_repl_context(name, selector)
            else:
                await self.bind_new_context(name)
        except AlreadyBound:
            pass

    async def wait_resolve(self, name: str, timeout: float = 60.0,
                           poll: float = 0.5) -> ObjectRef:
        """Poll until ``name`` resolves (another service's start-up race)."""
        kernel = self.runtime.kernel
        deadline = kernel.now + timeout
        while True:
            try:
                return await self.resolve(name)
            except (NamingError, ServiceUnavailable):
                if kernel.now >= deadline:
                    raise SimTimeoutError(f"{name!r} never became resolvable")
                await kernel.sleep(poll)
