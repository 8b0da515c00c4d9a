"""Population-scale settop workload (experiment E15).

Drives *thousands* of lightweight settop sessions through the real
OCS/NS/VOD path to measure what the paper only claims (sections 5.1,
9.6): that resolution traffic stays sublinear in settop count because
clients cache bindings and revalidate lazily.

Each population settop is one bare host + one process + one OCS runtime
-- no boot broadcast, no full application stack -- but every operation
is a genuine remote call: a fresh :class:`NameClient` +
:class:`RebindingProxy` per "tune" (modelling the Application Manager
starting a fresh app on every channel change, each with its own name
client), resolving ``svc/vod`` through the name service's neighborhood
selector and invoking real VOD servant methods.  With the per-host
:class:`BindingCache` the fresh client's resolve is answered locally
after the first tune; without it (``cached=False``, the E15 control
row) every tune is a name-service round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.naming.cache import BindingCache
from repro.core.naming.client import NameClient
from repro.core.rebind import RebindingProxy
from repro.ocs.exceptions import OCSError, ServiceUnavailable
from repro.ocs.runtime import OCSRuntime
from repro.sim.rand import SeededRandom

#: titles the population leans on; bookmarks are per-settop so any
#: subset works, these just exist in the default content set.
TITLES = ["T2", "Casablanca", "Toy Story", "The Fugitive"]


@dataclass
class PopulationResult:
    """Aggregate numbers for one population run (one E15 table row)."""

    settops: int = 0
    duration: float = 0.0
    cached: bool = True
    ops: int = 0
    op_failures: int = 0
    tunes: int = 0
    #: client-side resolve() calls issued by population proxies
    client_resolves: int = 0
    #: delta of resolves actually served by the NS replicas (includes
    #: cluster background traffic: watchdogs, audits, SSC loops)
    ns_resolves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_coalesced: int = 0
    #: total OCS calls sent by population runtimes (per-settop wire cost)
    calls_sent: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def resolves_per_settop(self) -> float:
        return self.ns_resolves / self.settops if self.settops else 0.0

    @property
    def msgs_per_settop(self) -> float:
        return self.calls_sent / self.settops if self.settops else 0.0

    def row(self) -> dict:
        """Table-ready summary (E15 / ``repro population``)."""
        return {
            "settops": self.settops,
            "cached": self.cached,
            "ops": self.ops,
            "failures": self.op_failures,
            "ns_resolves": self.ns_resolves,
            "resolves_per_settop": round(self.resolves_per_settop, 2),
            "hit_rate": round(self.hit_rate, 4),
            "msgs_per_settop": round(self.msgs_per_settop, 1),
        }


class PopulationEngine:
    """Runs ``count`` lightweight settop sessions against a cluster."""

    def __init__(self, cluster, count: int, seed: int = 0,
                 think: tuple = (12.0, 24.0), cached: bool = True):
        self.cluster = cluster
        self.count = count
        self.think = think
        self.cached = cached
        self.rng = SeededRandom(seed).stream("population")
        self.hosts = cluster.add_population(count)
        self.result = PopulationResult(settops=count, cached=cached)
        self._runtimes: List[OCSRuntime] = []
        self._caches: List[BindingCache] = []

    # -- one settop -----------------------------------------------------

    def _cache_on(self, host) -> Optional[BindingCache]:
        if not self.cached:
            return None
        cache = BindingCache.for_host(host)
        if cache not in self._caches:
            self._caches.append(cache)
        return cache

    async def _settop_session(self, index: int, host, end: float) -> None:
        kernel = self.cluster.kernel
        rng = self.rng.stream(f"settop-{index}")
        proc = host.spawn("stb")
        runtime = OCSRuntime(proc, self.cluster.net,
                             principal=f"pop@{host.ip}")
        self._runtimes.append(runtime)
        cache = self._cache_on(host)
        # Spread name-service load the way boot params would: each
        # settop starts its replica rotation at a different server.
        ips = list(self.cluster.server_ips)
        start = index % len(ips)
        ns_ips = ips[start:] + ips[:start]
        title = TITLES[index % len(TITLES)]
        # Stagger arrivals so the population does not phase-lock.
        await kernel.sleep(rng.uniform(0.0, self.think[1]))
        while kernel.now < end:
            # A "tune": the AM starts a fresh app, which builds its own
            # name client + proxy (exactly what settop/apps/base.py
            # does).  The host's binding cache is what persists.
            names = NameClient(runtime, ns_ips, self.cluster.params,
                               cache=cache)
            vod = RebindingProxy(runtime, names, "svc/vod",
                                 self.cluster.params, rng=rng,
                                 give_up_after=15.0)
            self.result.tunes += 1
            await self._one_op(vod, rng, title)
            self.result.client_resolves += vod.resolve_calls
            await kernel.sleep(rng.uniform(*self.think))

    async def _one_op(self, vod: RebindingProxy, rng: SeededRandom,
                      title: str) -> None:
        roll = rng.random()
        try:
            if roll < 0.45:
                await vod.call("getBookmark", title)
            elif roll < 0.80:
                await vod.call("reportPosition", title,
                               round(rng.uniform(0.0, 200.0), 1))
            else:
                await vod.call("catalog")
            self.result.ops += 1
        except (ServiceUnavailable, OCSError):
            self.result.op_failures += 1

    # -- the run --------------------------------------------------------

    def _ns_resolves_served(self) -> int:
        total = 0
        for host in self.cluster.servers:
            proc = host.find_process("ns")
            if proc is None:
                continue
            replica = proc.attachments.get("ns_replica")
            if replica is not None:
                total += replica.resolves_served
        return total

    def run(self, duration: float, grace: float = 30.0) -> PopulationResult:
        """Drive every settop for ``duration`` simulated seconds."""
        kernel = self.cluster.kernel
        end = kernel.now + duration
        before = self._ns_resolves_served()
        for index, host in enumerate(self.hosts):
            proc = host.spawn("pop-launch")
            proc.create_task(self._settop_session(index, host, end),
                             name=f"pop-{index}").detach()
        # The grace lets stragglers (ops started just before ``end``)
        # finish so their resolves and failures are counted.
        self.cluster.run_for(duration + grace)
        self.result.duration = duration
        self.result.ns_resolves = self._ns_resolves_served() - before
        self.result.calls_sent = sum(r.calls_sent for r in self._runtimes)
        for cache in self._caches:
            self.result.cache_hits += cache.hits
            self.result.cache_misses += cache.misses
            self.result.cache_coalesced += cache.coalesced
        return self.result


def run_population(settops: int = 2000, duration: float = 240.0,
                   n_servers: int = 3, neighborhoods_per_server: int = 4,
                   seed: int = 0, cached: bool = True,
                   think: tuple = (12.0, 24.0),
                   params=None) -> PopulationResult:
    """Build a full cluster and run one population experiment on it.

    The cluster is built with ``binding_cache`` matching ``cached`` so
    the control row really is cache-free end to end.
    """
    from repro.cluster.builder import build_full_cluster
    from repro.core.params import Params

    params = (params or Params()).with_overrides(binding_cache=cached)
    cluster = build_full_cluster(n_servers=n_servers,
                                 neighborhoods_per_server=neighborhoods_per_server,
                                 params=params, seed=seed)
    engine = PopulationEngine(cluster, settops, seed=seed, think=think,
                              cached=cached)
    return engine.run(duration)
