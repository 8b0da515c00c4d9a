"""Integration tests: SSC + RAS + name service working together.

These exercise the paper's availability machinery end to end: automatic
restart (section 8.1), audit removal of dead objects (section 4.7),
primary/backup fail-over through the bind race (section 5.2), and client
rebinding (section 8.2).
"""

import pytest

from repro.cluster import build_cluster
from repro.core.control.ssc import ServerServiceController, ssc_ref
from repro.core.naming.errors import NameNotFound, SelectorFailed
from repro.core.rebind import RebindingProxy
from repro.ocs import ServiceUnavailable

from tests.helpers import PBPingService, PingService


@pytest.fixture(scope="module")
def base_cluster():
    return build_cluster(n_servers=3, seed=11)


def fresh_cluster(**kwargs):
    kwargs.setdefault("seed", 23)
    return build_cluster(n_servers=3, **kwargs)


class TestClusterBringup:
    def test_base_services_running_everywhere(self, base_cluster):
        services = base_cluster.running_services()
        for host_name, procs in services.items():
            assert "ssc" in procs
            assert "ns" in procs
            assert "ras" in procs
            assert "settopmgr" in procs

    def test_ras_resolvable_per_server(self, base_cluster):
        cluster = base_cluster
        client = cluster.client_on(cluster.servers[1], name="t-ras")
        ref = cluster.run_async(client.names.resolve("svc/ras"))
        # sameserver selector: a client on server 1 gets server 1's RAS.
        assert ref.ip == cluster.servers[1].ip

    def test_ssc_ping(self, base_cluster):
        cluster = base_cluster
        client = cluster.client_on(cluster.servers[0], name="t-ssc")
        info = cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[0].ip), "ping", ()))
        assert "ns" in info["services"]


class TestAutomaticRestart:
    def test_ssc_restarts_crashed_service(self):
        cluster = fresh_cluster()
        assert cluster.kill_service(0, "ras")
        cluster.run_for(5.0)
        proc = cluster.find_service(0, "ras")
        assert proc is not None and proc.alive

    def test_init_restarts_crashed_ssc(self):
        cluster = fresh_cluster()
        ssc_proc = cluster.servers[0].find_process("ssc")
        children = [p.name for p in ssc_proc.children]
        assert "ns" in children
        ssc_proc.kill()
        # Children die with the SSC (section 6.1 footnote).
        assert cluster.servers[0].find_process("ns") is None
        cluster.run_for(10.0)
        assert cluster.servers[0].find_process("ssc") is not None
        assert cluster.servers[0].find_process("ns") is not None

    def test_reboot_restores_base_services(self):
        cluster = fresh_cluster()
        cluster.crash_server(2)
        cluster.run_for(5.0)
        assert cluster.servers[2].processes == []
        cluster.reboot_server(2)
        cluster.run_for(20.0)
        names = sorted(p.name for p in cluster.servers[2].processes)
        assert "ssc" in names and "ns" in names and "ras" in names


class TestAudit:
    def test_dead_service_binding_removed(self):
        """Section 4.7: dead objects leave the name space within seconds."""
        cluster = fresh_cluster()
        cluster.registry.register("ping", PingService)
        client = cluster.client_on(cluster.servers[0], name="t-audit")
        cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[0].ip), "startService", ("ping",)))
        assert cluster.settle(extra_names=[f"svc/ping/{cluster.servers[0].ip}"])
        # Kill the service *and* prevent restart, so the binding goes stale.
        cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[0].ip), "stopService", ("ping",)))
        t_dead = cluster.now
        deadline = t_dead + 3 * cluster.params.max_failover
        removed_at = None
        while cluster.now < deadline:
            cluster.run_for(1.0)
            try:
                cluster.run_async(
                    client.names.resolve(f"svc/ping/{cluster.servers[0].ip}"))
            except (NameNotFound, SelectorFailed):
                # Gone: either the member binding vanished (NameNotFound
                # via another member) or the context emptied entirely.
                removed_at = cluster.now
                break
        assert removed_at is not None
        # Name service audit poll (10s) + RAS freshness: within ~2 polls.
        assert removed_at - t_dead <= (cluster.params.ns_audit_poll
                                       + cluster.params.ras_peer_poll + 5.0)


class TestPrimaryBackup:
    def start_pbping(self, cluster, indices=(0, 1)):
        cluster.registry.register("pbping", PBPingService)
        client = cluster.client_on(cluster.servers[0], name="t-pb")
        for i in indices:
            cluster.run_async(client.runtime.invoke(
                ssc_ref(cluster.servers[i].ip), "startService", ("pbping",)))
        assert cluster.settle(extra_names=["svc/pbping"])
        return client

    def whois_primary(self, cluster, client):
        ref = cluster.run_async(client.names.resolve("svc/pbping"))
        return ref.ip

    def test_first_binder_becomes_primary(self):
        cluster = fresh_cluster()
        client = self.start_pbping(cluster)
        primary_ip = self.whois_primary(cluster, client)
        assert primary_ip in (cluster.servers[0].ip, cluster.servers[1].ip)

    def test_process_crash_fails_over_within_bound(self):
        """Section 9.7: fail-over completes within 25 seconds."""
        cluster = fresh_cluster()
        client = self.start_pbping(cluster)
        primary_ip = self.whois_primary(cluster, client)
        primary_index = cluster.server_ips.index(primary_ip)
        backup_index = 1 if primary_index == 0 else 0
        # Stop (not crash) so the SSC does not restart it: the backup on
        # the other server must take over.
        cluster.run_async(client.runtime.invoke(
            ssc_ref(primary_ip), "stopService", ("pbping",)))
        t_fail = cluster.now
        new_primary = None
        while cluster.now < t_fail + 2 * cluster.params.max_failover:
            cluster.run_for(0.5)
            try:
                ip = self.whois_primary(cluster, client)
            except Exception:  # noqa: BLE001 - transient window
                continue
            if ip != primary_ip:
                new_primary = ip
                break
        assert new_primary == cluster.servers[backup_index].ip
        assert cluster.now - t_fail <= cluster.params.max_failover + 1.0

    def test_server_crash_fails_over(self):
        cluster = fresh_cluster()
        client = self.start_pbping(cluster)
        primary_ip = self.whois_primary(cluster, client)
        primary_index = cluster.server_ips.index(primary_ip)
        cluster.crash_server(primary_index)
        t_fail = cluster.now
        new_primary = None
        while cluster.now < t_fail + 3 * cluster.params.max_failover:
            cluster.run_for(0.5)
            try:
                ip = self.whois_primary(cluster, client)
            except Exception:  # noqa: BLE001
                continue
            if ip != primary_ip:
                new_primary = ip
                break
        assert new_primary is not None
        assert new_primary != primary_ip


class TestRebinding:
    def test_proxy_survives_service_restart(self):
        cluster = fresh_cluster()
        cluster.registry.register("ping", PingService)
        client = cluster.client_on(cluster.servers[1], name="t-rebind")
        cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[0].ip), "startService", ("ping",)))
        assert cluster.settle(extra_names=[f"svc/ping/{cluster.servers[0].ip}"])
        proxy = RebindingProxy(client.runtime, client.names,
                               f"svc/ping/{cluster.servers[0].ip}",
                               cluster.params)
        assert cluster.run_async(proxy.call("ping")) == "pong"
        # Kill the service; the SSC restarts it; the proxy rebinds.
        cluster.kill_service(0, "ping")
        cluster.run_for(0.1)
        result = cluster.run_async(proxy.call("ping"))
        assert result == "pong"
        assert proxy.rebinds >= 1

    def test_proxy_gives_up_eventually(self):
        cluster = fresh_cluster()
        client = cluster.client_on(cluster.servers[0], name="t-giveup")
        proxy = RebindingProxy(client.runtime, client.names, "svc/ghost",
                               cluster.params, give_up_after=10.0)
        from repro.core.rebind import RebindError
        with pytest.raises(RebindError):
            cluster.run_async(proxy.call("ping"))


class TestCrashLoopBackoff:
    def test_crash_looping_service_backs_off(self):
        """A service dying at start restarts with escalating delays
        instead of hammering the server."""
        cluster = fresh_cluster(seed=241)

        class DoomedService:
            def __init__(self, env, process):
                self.process = process

            async def run(self):
                raise RuntimeError("bad binary")

        cluster.registry.register("doomed", DoomedService)
        client = cluster.client_on(cluster.servers[0], name="cl")
        cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[0].ip), "startService", ("doomed",)))
        cluster.run_for(60.0)
        restarts = cluster.trace.select("ssc", "service_restarted",
                                        service="doomed")
        # Without backoff: ~60 restarts in 60 s.  With doubling backoff
        # capped at 30 s: far fewer.
        assert 3 <= len(restarts) <= 12, len(restarts)

    def test_healthy_service_restart_stays_fast(self):
        """Backoff only punishes crash loops, not one-off failures."""
        cluster = fresh_cluster(seed=242)
        cluster.run_for(30.0)   # ras has been up for a while
        t0 = cluster.now
        cluster.kill_service(0, "ras")
        while cluster.now - t0 < 30.0:
            cluster.run_for(0.5)
            proc = cluster.find_service(0, "ras")
            if proc is not None and proc.alive:
                break
        # Restarted within the plain restart delay (+1s slack).
        assert cluster.now - t0 <= ServerServiceController.SSC_RESTART_DELAY + 1.5
