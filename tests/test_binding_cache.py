"""PR 5: the per-host binding cache against the live cluster.

Four properties the population-scale design stands on:

- singleflight: N concurrent resolves of one name on a host issue one
  name-service call (unit, and during a real post-kill rebind herd);
- coherence by exception: killing a primary invalidates exactly the dead
  binding -- cached bindings for live services are untouched;
- the name-service audit still converges within its bound with caching
  on, and the audit does not evict live cached bindings;
- the ``cache_coherence`` chaos monitor is falsifiable, and the
  rebinding proxy's params-supplied ``give_up_after`` budget genuinely
  bounds the retry loop (the PR 5 regression fix).
"""

import pytest

from repro.core.naming.cache import BindingCache, cache_for
from repro.core.naming.client import NameClient
from repro.core.naming.errors import NamingError
from repro.core.params import Params
from repro.core.rebind import RebindError, RebindingProxy
from repro.ocs import OCSRuntime
from repro.sim import Kernel, SeededRandom
from repro.sim.kernel import gather
from tests.helpers import StubNames, client_runtime, small_world


# ---------------------------------------------------------------------------
# Singleflight (unit)
# ---------------------------------------------------------------------------


class _CountingResolver:
    def __init__(self, kernel, ref, latency=0.5, error=None):
        self.kernel = kernel
        self.ref = ref
        self.latency = latency
        self.error = error
        self.calls = 0

    async def __call__(self, name):
        self.calls += 1
        await self.kernel.sleep(self.latency)
        if self.error is not None:
            raise self.error
        return self.ref


class TestSingleflight:
    def test_concurrent_resolves_issue_one_ns_call(self):
        kernel = Kernel()
        cache = BindingCache(kernel)
        resolver = _CountingResolver(kernel, ref="the-ref")

        async def run():
            return await gather(
                kernel, [cache.resolve("svc/x", resolver) for _ in range(5)])

        results = kernel.run_until_complete(run())
        assert results == ["the-ref"] * 5
        assert resolver.calls == 1
        assert cache.misses == 1 and cache.coalesced == 4
        assert cache.hits == 0

    def test_waiters_complete_in_arrival_order(self):
        kernel = Kernel()
        cache = BindingCache(kernel)
        resolver = _CountingResolver(kernel, ref="r")
        order = []

        async def one(tag):
            await cache.resolve("svc/x", resolver)
            order.append(tag)

        async def run():
            await gather(kernel, [one(i) for i in range(4)])

        kernel.run_until_complete(run())
        # Leader (0) finishes first, then waiters in FIFO arrival order.
        assert order == [0, 1, 2, 3]

    def test_leader_failure_fans_out_and_caches_nothing(self):
        kernel = Kernel()
        cache = BindingCache(kernel)
        boom = NamingError("ns down")
        resolver = _CountingResolver(kernel, ref=None, error=boom)

        async def run():
            return await gather(
                kernel, [cache.resolve("svc/x", resolver) for _ in range(3)],
                return_exceptions=True)

        results = kernel.run_until_complete(run())
        assert all(r is boom for r in results)
        assert resolver.calls == 1
        assert cache.lookup("svc/x") is None
        # The herd can retry: a later resolve is a fresh leader.
        resolver.error = None
        resolver.ref = "r2"
        assert kernel.run_until_complete(
            cache.resolve("svc/x", resolver)) == "r2"
        assert resolver.calls == 2

    def test_invalidate_requires_ref_match(self):
        kernel = Kernel()
        cache = BindingCache(kernel)
        resolver = _CountingResolver(kernel, ref="new", latency=0.0)
        kernel.run_until_complete(cache.resolve("svc/x", resolver))
        # A failure report against some older ref must not evict.
        assert not cache.invalidate("svc/x", ref="old")
        assert cache.lookup("svc/x") == "new"
        assert cache.invalidate("svc/x", ref="new")
        assert cache.lookup("svc/x") is None
        assert cache.invalidations == 1


# ---------------------------------------------------------------------------
# Cluster: rebind herd, audit interplay, monitor falsifiability
# ---------------------------------------------------------------------------


def _cached_vod_clients(cluster, settop_host, n=3):
    """``n`` processes on one settop host, sharing the host cache."""
    clients = []
    for i in range(n):
        runtime = OCSRuntime(settop_host.spawn(f"app-{i}"), cluster.net)
        names = NameClient(runtime, cluster.server_ips, cluster.params,
                           cache=cache_for(settop_host, cluster.params))
        proxy = RebindingProxy(runtime, names, "svc/vod", cluster.params,
                               rng=SeededRandom(100 + i),
                               give_up_after=30.0)
        clients.append(proxy)
    return clients


@pytest.fixture()
def vod_cluster():
    from repro.cluster.builder import build_full_cluster
    cluster = build_full_cluster(n_servers=2, seed=55)
    settop = cluster.add_settop(cluster.neighborhoods[0])
    return cluster, settop


class TestRebindHerd:
    def test_rebind_after_kill_is_one_resolve_per_host(self, vod_cluster):
        cluster, settop = vod_cluster
        proxies = _cached_vod_clients(cluster, settop, n=3)
        cache = settop.binding_cache

        # Warm: every app tunes once; one miss, the rest hit or coalesce.
        for proxy in proxies:
            assert cluster.run_async(proxy.call("catalog"))["titles"]
        vod_ref = cache.lookup("svc/vod")
        assert vod_ref is not None
        assert cache.misses == 1

        # A second name on the same cache, to prove it stays untouched.
        other = cluster.run_async(proxies[0]._names.resolve("svc/shopping"))
        assert cache.lookup("svc/shopping") == other

        # Kill the serving replica and let the SSC restart it, so the
        # first re-resolve round already finds a live binding.
        index = cluster.server_ips.index(vod_ref.ip)
        assert cluster.kill_service(index, "vod")
        cluster.run_for(30.0)
        fresh = cluster.servers[index].find_process("vod")
        assert fresh is not None
        assert fresh.incarnation != vod_ref.incarnation

        misses, coalesced, invalidations = (cache.misses, cache.coalesced,
                                            cache.invalidations)
        results = cluster.run_async(gather(
            cluster.kernel, [p.call("catalog") for p in proxies]))
        assert all(r["titles"] for r in results)

        # The herd re-bound with exactly ONE name-service round trip:
        # the first failure invalidated the dead binding, the three
        # concurrent re-resolves coalesced onto one leader.
        assert cache.misses == misses + 1
        assert cache.coalesced == coalesced + 2
        assert cache.invalidations == invalidations + 1
        # The live service's binding was never touched.
        assert cache.lookup("svc/shopping") == other
        # And the repaired entry points at the new incarnation.
        assert cache.lookup("svc/vod").incarnation == fresh.incarnation


class TestAuditWithCachingOn:
    def test_audit_converges_and_leaves_live_bindings_alone(self, vod_cluster):
        cluster, settop = vod_cluster
        (proxy,) = _cached_vod_clients(cluster, settop, n=1)
        cache = settop.binding_cache
        assert cluster.run_async(proxy.call("catalog"))["titles"]
        vod_ref = cache.lookup("svc/vod")
        serving = cluster.server_ips.index(vod_ref.ip)
        dead_ip = cluster.server_ips[1 - serving]

        # Crash the *other* server: nothing restarts or rebinds there,
        # so only the audit can clean its bindings out of the NS.
        cluster.crash_server(1 - serving)
        cluster.run_for(cluster.params.chaos_audit_bound)

        survivor = cluster.servers[serving].find_process("ns")
        replica = survivor.attachments["ns_replica"]
        assert replica.audit_removals > 0
        leaked = [(path, ref) for path, ref in replica.leaf_bindings()
                  if ref.ip == dead_ip]
        assert leaked == [], \
            f"audit bound missed with caching on: {leaked}"

        # The audit removed only dead bindings: the cached live binding
        # still works without a re-resolve.
        misses = cache.misses
        assert cluster.run_async(proxy.call("catalog"))["titles"]
        assert cache.misses == misses
        assert cache.lookup("svc/vod") == vod_ref


class TestCacheCoherenceMonitor:
    def test_dead_entry_held_quietly_is_legal(self, vod_cluster):
        from repro.chaos.monitors import CacheCoherenceMonitor
        cluster, settop = vod_cluster
        (proxy,) = _cached_vod_clients(cluster, settop, n=1)
        assert cluster.run_async(proxy.call("catalog"))["titles"]
        vod_ref = settop.binding_cache.lookup("svc/vod")
        cluster.settops.append(settop)

        monitor = CacheCoherenceMonitor()
        monitor.bind(cluster, None, cluster.params, {})
        cluster.crash_server(cluster.server_ips.index(vod_ref.ip))
        assert monitor.check() == []   # first sighting just timestamps
        cluster.run_for(cluster.params.chaos_audit_bound + 10.0)
        # Dead but unused: holding it lazily is the design, not a bug.
        assert monitor.check() == []
        assert monitor.finish() == []

    def test_serving_a_dead_entry_past_the_bound_is_caught(self, vod_cluster):
        from repro.chaos.monitors import CacheCoherenceMonitor
        cluster, settop = vod_cluster
        (proxy,) = _cached_vod_clients(cluster, settop, n=1)
        assert cluster.run_async(proxy.call("catalog"))["titles"]
        cache = settop.binding_cache
        vod_ref = cache.lookup("svc/vod")
        cluster.settops.append(settop)

        monitor = CacheCoherenceMonitor()
        monitor.bind(cluster, None, cluster.params, {})
        cluster.crash_server(cluster.server_ips.index(vod_ref.ip))
        assert monitor.check() == []
        cluster.run_for(cluster.params.chaos_audit_bound + 10.0)
        # Sabotage: a client that keeps hitting the dead binding without
        # ever invalidating -- the monitor must be able to see this.
        dict(cache.entries())["svc/vod"].hits += 3
        violations = monitor.check()
        assert len(violations) == 1
        assert violations[0].monitor == "cache_coherence"
        assert "svc/vod" in violations[0].detail


# ---------------------------------------------------------------------------
# RebindingProxy give_up_after via params (regression fix)
# ---------------------------------------------------------------------------


class TestGiveUpAfterFromParams:
    def test_params_budget_bounds_the_loop_without_deadline(self):
        # Regression: with ``deadline=None`` and the budget supplied via
        # Params, the cooldown/backoff sleeps must still be clamped --
        # the loop gives up at the params budget, not after the default
        # 60s (or never).
        kernel, net, hosts = small_world(2)
        client = client_runtime(net, hosts[1])
        params = Params().with_overrides(rebind_give_up_after=3.0)
        proxy = RebindingProxy(client, StubNames([NamingError("not bound")]),
                               "svc/gone", params=params,
                               rng=SeededRandom(5))
        with pytest.raises(RebindError):
            kernel.run_until_complete(proxy.call("echo", "hi"))
        assert 2.9 <= kernel.now <= 3.6, \
            f"loop ended at t={kernel.now}, budget was 3.0"

    def test_explicit_give_up_after_still_wins(self):
        kernel, net, hosts = small_world(2)
        client = client_runtime(net, hosts[1])
        params = Params().with_overrides(rebind_give_up_after=50.0)
        proxy = RebindingProxy(client, StubNames([NamingError("not bound")]),
                               "svc/gone", params=params,
                               rng=SeededRandom(5), give_up_after=2.0)
        with pytest.raises(RebindError):
            kernel.run_until_complete(proxy.call("echo", "hi"))
        assert kernel.now <= 2.6
