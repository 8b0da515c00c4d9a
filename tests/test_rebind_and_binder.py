"""Unit-level tests for the rebinding proxy and the primary/backup binder."""

import pytest

from repro.cluster import build_cluster
from repro.core.control.ssc import ssc_ref
from repro.core.rebind import RebindError, RebindingProxy
from repro.core.params import Params
from repro.ocs import Overloaded
from repro.sim import SeededRandom
from repro.sim.kernel import gather

from tests.helpers import (
    PBPingService,
    PingService,
    StubNames,
    client_runtime,
    small_gate,
    small_world,
    start_echo,
)


def cluster_with_ping(seed=161, **params_kw):
    cluster = build_cluster(n_servers=3, seed=seed,
                            params=Params(**params_kw) if params_kw else None)
    cluster.registry.register("ping", PingService)
    cluster.registry.register("pbping", PBPingService)
    return cluster


def start_service(cluster, index, name):
    client = cluster.client_on(cluster.servers[0], name="admin")
    cluster.run_async(client.runtime.invoke(
        ssc_ref(cluster.servers[index].ip), "startService", (name,)))
    return client


class TestRebindingProxy:
    def test_first_call_resolves_then_caches(self):
        cluster = cluster_with_ping()
        start_service(cluster, 0, "ping")
        target = f"svc/ping/{cluster.servers[0].ip}"
        assert cluster.settle(extra_names=[target])
        client = cluster.client_on(cluster.servers[1], name="c")
        proxy = RebindingProxy(client.runtime, client.names, target,
                               cluster.params)
        assert proxy.ref is None
        cluster.run_async(proxy.call("ping"))
        assert proxy.ref is not None
        assert proxy.resolve_calls == 1
        for _ in range(5):
            cluster.run_async(proxy.call("ping"))
        # Section 3.4.2: the reference is cached after the first resolve.
        assert proxy.resolve_calls == 1

    def test_invalidate_forces_re_resolve(self):
        cluster = cluster_with_ping(seed=162)
        start_service(cluster, 0, "ping")
        target = f"svc/ping/{cluster.servers[0].ip}"
        assert cluster.settle(extra_names=[target])
        client = cluster.client_on(cluster.servers[1], name="c")
        proxy = RebindingProxy(client.runtime, client.names, target,
                               cluster.params)
        cluster.run_async(proxy.call("ping"))
        proxy.invalidate()
        assert proxy.ref is None
        cluster.run_async(proxy.call("ping"))
        assert proxy.resolve_calls == 2

    def test_waits_out_unbound_name(self):
        """A proxy created before the service exists succeeds once the
        service binds (start-up ordering tolerance)."""
        cluster = cluster_with_ping(seed=163)
        target = f"svc/ping/{cluster.servers[0].ip}"
        client = cluster.client_on(cluster.servers[1], name="c")
        proxy = RebindingProxy(client.runtime, client.names, target,
                               cluster.params, give_up_after=60.0)
        start_service(cluster, 0, "ping")
        result = cluster.run_async(proxy.call("ping"))
        assert result == "pong"

    def test_give_up_raises_rebind_error(self):
        cluster = cluster_with_ping(seed=164)
        client = cluster.client_on(cluster.servers[1], name="c")
        proxy = RebindingProxy(client.runtime, client.names, "svc/never",
                               cluster.params, give_up_after=5.0)
        with pytest.raises(RebindError):
            cluster.run_async(proxy.call("ping"))
        # Give-up is prompt: roughly the configured budget, not unbounded.
        assert cluster.now <= 20.0


class TestOverlappingCalls:
    """Two calls in flight on one proxy (ISSUE 14 bugfix): each attempt
    works on the ref it was issued with, so one call dropping the shared
    ref cannot pull it out from under the other."""

    def _two_calls(self, refs_for_names, shed_on):
        kernel, net, hosts = small_world(n_hosts=2)
        runtimes = [start_echo(kernel, net, host, f"echo-{i}")
                    for i, host in enumerate(hosts)]
        for i in shed_on:
            runtimes[i][0].admission = small_gate(max_inflight=0,
                                                  max_queue=1)
        refs = [ref for _runtime, ref in runtimes]
        names = StubNames([refs[i] for i in refs_for_names])
        proxy = RebindingProxy(client_runtime(net, hosts[0]), names,
                               "svc/echo", params=Params(),
                               rng=SeededRandom(5), give_up_after=30.0)
        results = kernel.run_until_complete(gather(
            kernel, [proxy.call("echo", "a"), proxy.call("echo", "b")],
            return_exceptions=True))
        return proxy, names, refs, results

    def test_both_shed_calls_end_in_overloaded(self):
        """Parent: the second call's Overloaded arm found ``_ref`` None
        and died with AttributeError inside ``_note_shed``."""
        proxy, names, refs, results = self._two_calls([0], shed_on=[0])
        assert [type(r) for r in results] == [Overloaded, Overloaded]
        assert proxy.sheds_seen == 2
        # The shared ref was reported bad once, by whichever call got
        # there first -- not once per call.
        assert names.invalidated == [("svc/echo", refs[0])]

    def test_both_calls_follow_the_rebind_to_a_healthy_replica(self):
        proxy, names, refs, results = self._two_calls([0, 1], shed_on=[0])
        assert results == ["a", "b"]
        assert proxy.sheds_seen == 2 and proxy.resolve_calls == 2
        assert proxy.ref is refs[1]
        assert names.invalidated == [("svc/echo", refs[0])]


class TestBinderDemotion:
    def test_operator_unbind_demotes_primary(self):
        """If the primary's binding is removed while it lives (operator
        move or spurious audit), it demotes and rejoins the race."""
        cluster = cluster_with_ping(seed=165)
        start_service(cluster, 0, "pbping")
        start_service(cluster, 1, "pbping")
        assert cluster.settle(extra_names=["svc/pbping"])
        # Find the primary's service object.
        binders = []
        for host in cluster.servers[:2]:
            proc = host.find_process("pbping")
            runtime = proc.attachments["ocs"]
            binders.append(runtime)
        client = cluster.client_on(cluster.servers[2], name="op")
        old = cluster.run_async(client.names.resolve("svc/pbping"))
        # Operator removes the binding out from under the primary.
        cluster.run_async(client.names.unbind("svc/pbping"))
        cluster.run_for(3 * cluster.params.backup_bind_retry)
        new = cluster.run_async(client.names.resolve("svc/pbping"))
        # Someone owns the name again (possibly the other replica), and
        # exactly one replica believes it is primary.
        assert new is not None
        demotions = cluster.trace.select("pbping", "demoted")
        promotions = cluster.trace.select("pbping", "promoted")
        assert len(promotions) >= 2  # initial + post-unbind winner
        assert len(demotions) >= 1 or new != old


class TestLossyPlant:
    def test_rpc_traffic_survives_plant_noise(self):
        """Calls under 20% inbound loss at the client still complete via
        timeouts + retries (the rebinding proxy's normal machinery)."""
        from repro.sim.rand import SeededRandom
        cluster = cluster_with_ping(seed=271)
        start_service(cluster, 0, "ping")
        target = f"svc/ping/{cluster.servers[0].ip}"
        assert cluster.settle(extra_names=[target])
        settop = cluster.add_settop(1)
        from repro.ocs import OCSRuntime
        from repro.core.naming.client import NameClient
        proc = settop.spawn("noisy-client")
        runtime = OCSRuntime(proc, cluster.net)
        names = NameClient(runtime, cluster.server_ips, cluster.params)
        proxy = RebindingProxy(runtime, names, target, cluster.params,
                               give_up_after=120.0)
        cluster.net.set_loss(settop.ip, 0.2, SeededRandom(9))
        completed = 0
        for _ in range(20):
            assert cluster.run_async(proxy.call("ping")) == "pong"
            completed += 1
        assert completed == 20
        assert cluster.net.messages_lost > 0
