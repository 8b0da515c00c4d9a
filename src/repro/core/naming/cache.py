"""Per-host binding cache with singleflight resolves (PR 5).

The paper's object model validates references *lazily*: "the client will
detect this on the next attempt to use the object reference" (section
3.2.1).  Because a stale reference raises on use and the client rebinds,
clients may cache name-service bindings indefinitely without any
coherence protocol -- coherence is by exception, not by invalidation
messages.  That property is the system's scaling mechanism: resolution
traffic stays proportional to *failures*, not to *calls*, so a
population of settops stops resolving once per call (ROADMAP's "heavy
traffic from millions of users").

One :class:`BindingCache` exists per simulated host and is shared by
every :class:`~repro.core.naming.client.NameClient` on that host that
opts in (settop-side clients do; server-side service clients do not,
because binding watchdogs and replica-conflict resolution must observe
the real name-space state).

Singleflight: when N components on one host resolve the same name
concurrently -- the rebind thundering herd after a primary kill -- only
the first issues a name-service call; the rest ride its answer.  Waiters
are completed in FIFO arrival order, so the schedule stays
deterministic.
"""

from __future__ import annotations

from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.ocs.objref import ObjectRef
from repro.sim.kernel import Future, Kernel

Resolver = Callable[[str], Awaitable[ObjectRef]]


class CacheEntry:
    """One cached binding: the ref (with its incarnation) plus usage."""

    __slots__ = ("ref", "cached_at", "hits")

    def __init__(self, ref: ObjectRef, cached_at: float):
        self.ref = ref
        self.cached_at = cached_at
        self.hits = 0


class BindingCache:
    """Name -> ObjectRef cache for one host, with singleflight resolves.

    Entries are never expired by time: they are dropped only when a user
    reports the binding bad (:meth:`invalidate`, driven by
    ``StaleReference``/``InvalidObjectReference``/``Overloaded`` on use)
    or replaced by a fresh resolve after such an invalidation.  The
    chaos ``cache_coherence`` monitor checks the flip side: a cache must
    not keep *serving* a dead binding past the audit bound.
    """

    def __init__(self, kernel: Kernel, owner: str = "?"):
        self.kernel = kernel
        self.owner = owner  # host ip; names the hb pseudo-actor
        self._entries: Dict[str, CacheEntry] = {}
        # name -> FIFO list of waiter futures behind the in-flight
        # leader resolve for that name.
        self._inflight: Dict[str, List[Future]] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.invalidations = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def for_host(cls, host) -> "BindingCache":
        """The shared cache for ``host``, created on first use."""
        cache = getattr(host, "binding_cache", None)
        if cache is None:
            cache = cls(host.kernel, owner=host.ip)
            host.binding_cache = cache
        return cache

    def _hb_write(self, name: str, ver: str) -> None:
        # Cache state is host-private: writes land on a per-host
        # pseudo-actor so the write-order oracle sees install/invalidate
        # chains without manufacturing cross-host race pairs.
        hb = self.kernel.hb_log
        if hb is not None:
            hb.emit("hb", "write", actor=f"{self.owner}/cache",
                    var=f"cache:{self.owner}:{name}", ver=ver)

    # -- resolution -----------------------------------------------------

    def lookup(self, name: str) -> Optional[ObjectRef]:
        """Peek at the cached ref for ``name`` without counting a hit."""
        entry = self._entries.get(name)
        return entry.ref if entry is not None else None

    async def resolve(self, name: str, resolver: Resolver) -> ObjectRef:
        """Return the cached ref for ``name``, resolving on a miss.

        Concurrent misses for the same name coalesce onto one
        ``resolver`` call; the leader's result (or exception) is fanned
        out to every waiter in arrival order.
        """
        entry = self._entries.get(name)
        if entry is not None:
            entry.hits += 1
            self.hits += 1
            return entry.ref
        waiters = self._inflight.get(name)
        if waiters is not None:
            self.coalesced += 1
            fut = self.kernel.create_future()
            waiters.append(fut)
            return await fut
        self.misses += 1
        self._inflight[name] = []
        try:
            ref = await resolver(name)
        except BaseException as err:
            for fut in self._inflight.pop(name):
                if not fut.done():
                    fut.set_exception(err)
            raise
        # A resolve that lost a race with an invalidation of a *newer*
        # entry cannot happen: entries are keyed by name and the leader
        # installs before any waiter observes the result.
        self._entries[name] = CacheEntry(ref, self.kernel.now)
        self._hb_write(name, repr(ref))
        for fut in self._inflight.pop(name):
            if not fut.done():
                fut.set_result(ref)
        return ref

    # -- invalidation ---------------------------------------------------

    def invalidate(self, name: str, ref: Optional[ObjectRef] = None) -> bool:
        """Drop the cached binding for ``name``.

        When ``ref`` is given, the entry is dropped only if it still
        holds that exact ref -- a failure report against an old ref must
        not evict a binding someone already refreshed.
        """
        entry = self._entries.get(name)
        if entry is None:
            return False
        if ref is not None and entry.ref != ref:
            return False
        del self._entries[name]
        self.invalidations += 1
        self._hb_write(name, "<invalidated>")
        return True

    def clear(self) -> None:
        self._entries.clear()

    # -- introspection --------------------------------------------------

    def entries(self) -> List[Tuple[str, CacheEntry]]:
        """Snapshot of (name, entry), sorted for deterministic probes."""
        return [(name, self._entries[name])
                for name in sorted(self._entries)]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


def cache_for(host, params) -> Optional[BindingCache]:
    """The host's shared cache, or ``None`` when caching is disabled."""
    if params is not None and not params.binding_cache:
        return None
    return BindingCache.for_host(host)
