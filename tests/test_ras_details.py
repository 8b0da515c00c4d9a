"""Detailed tests for the Resource Audit Service (section 7.2)."""

import pytest

from repro.cluster import build_cluster
from repro.core.params import RAS_CALL_TIMEOUT
from repro.core.ras.client import RAS_CLIENT_POLL, AuditClient
from repro.ocs import ObjectRef

from tests.helpers import PingService


def make_cluster(seed=91):
    cluster = build_cluster(n_servers=3, seed=seed)
    cluster.registry.register("ping", PingService)
    return cluster


def local_ras_call(cluster, client, entities):
    async def call():
        ras = await client.names.resolve("svc/ras")
        return await client.runtime.invoke(ras, "checkStatus", (entities,))

    return cluster.run_async(call())


def ping_ref(cluster, client, index=0):
    async def get():
        return await client.names.resolve(
            f"svc/ping/{cluster.servers[index].ip}")

    return cluster.run_async(get())


def start_ping(cluster, client, index=0):
    from repro.core.control.ssc import ssc_ref
    cluster.run_async(client.runtime.invoke(
        ssc_ref(cluster.servers[index].ip), "startService", ("ping",)))
    assert cluster.settle(
        extra_names=[f"svc/ping/{cluster.servers[index].ip}"])


class TestStatusSources:
    def test_local_object_alive(self):
        cluster = make_cluster()
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 0)
        ref = ping_ref(cluster, client, 0)
        assert local_ras_call(cluster, client, [ref]) == ["alive"]

    def test_local_object_dead_after_kill(self):
        cluster = make_cluster(seed=92)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 0)
        ref = ping_ref(cluster, client, 0)
        proc = cluster.find_service(0, "ping")
        proc.kill()
        cluster.run_for(1.0)  # SSC callback propagates
        assert local_ras_call(cluster, client, [ref]) == ["dead"]

    def test_stale_incarnation_is_dead(self):
        """A restarted service's old refs audit as dead (section 3.2.1)."""
        cluster = make_cluster(seed=93)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 0)
        old_ref = ping_ref(cluster, client, 0)
        cluster.kill_service(0, "ping")
        cluster.run_for(25.0)  # SSC restarts; new incarnation binds
        new_ref = ping_ref(cluster, client, 0)
        assert new_ref != old_ref
        statuses = local_ras_call(cluster, client, [old_ref, new_ref])
        assert statuses == ["dead", "alive"]

    def test_remote_object_unknown_then_resolved(self):
        """Remote entities start unknown and converge via peer polls."""
        cluster = make_cluster(seed=94)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 1)   # runs on server 1
        ref = ping_ref(cluster, client, 1)
        first = local_ras_call(cluster, client, [ref])   # asked of RAS(0)
        assert first == ["unknown"]
        cluster.run_for(2 * cluster.params.ras_peer_poll + 2.0)
        assert local_ras_call(cluster, client, [ref]) == ["alive"]

    def test_remote_server_crash_marks_dead(self):
        cluster = make_cluster(seed=95)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 1)
        ref = ping_ref(cluster, client, 1)
        local_ras_call(cluster, client, [ref])     # start watching
        cluster.run_for(2 * cluster.params.ras_peer_poll + 2.0)
        cluster.crash_server(1)
        cluster.run_for(cluster.params.ras_peer_poll
                        + RAS_CALL_TIMEOUT + 3.0)
        assert local_ras_call(cluster, client, [ref]) == ["dead"]

    def test_never_seen_settop_unknown(self):
        cluster = make_cluster(seed=96)
        client = cluster.client_on(cluster.servers[0], name="c")
        assert local_ras_call(cluster, client, ["10.0.1.99"]) == ["unknown"]


class TestStatelessRecovery:
    def test_ras_restart_rebuilds_from_questions(self):
        """Section 7.2: 'After failure it can recover state automatically
        as clients ask it questions.'"""
        cluster = make_cluster(seed=97)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 0)
        ref = ping_ref(cluster, client, 0)
        assert local_ras_call(cluster, client, [ref]) == ["alive"]
        cluster.kill_service(0, "ras")
        cluster.run_for(10.0)  # SSC restarts the RAS; it knows nothing yet
        # First question after restart re-seeds the state; the local SSC
        # callback gives an immediate answer for local objects.
        assert local_ras_call(cluster, client, [ref]) == ["alive"]

    def test_answers_do_not_block(self):
        """'Any call to the RAS returns immediately' -- even about an
        unreachable remote server, the answer is the cached one."""
        cluster = make_cluster(seed=98)
        client = cluster.client_on(cluster.servers[0], name="c")
        start_ping(cluster, client, 1)
        ref = ping_ref(cluster, client, 1)
        cluster.crash_server(1)
        t0 = cluster.now
        local_ras_call(cluster, client, [ref])
        # The call completed without waiting out any peer-poll timeout.
        assert cluster.now - t0 < 1.0


class TestAuditClientLibrary:
    def test_callback_fires_once_on_death(self):
        cluster = make_cluster(seed=99)
        client = cluster.client_on(cluster.servers[0], name="watcher")
        start_ping(cluster, client, 0)
        ref = ping_ref(cluster, client, 0)
        audit = AuditClient(client.runtime, client.names)
        deaths = []
        audit.watch(ref, deaths.append)
        audit.start(client.process)
        cluster.run_for(RAS_CLIENT_POLL + 2.0)
        assert deaths == []
        proc = cluster.find_service(0, "ping")
        proc.kill()
        cluster.run_for(2 * RAS_CLIENT_POLL + 2.0)
        assert deaths == [ref]
        assert not audit.watching(ref)
        # No duplicate callbacks on later polls.
        cluster.run_for(2 * RAS_CLIENT_POLL)
        assert len(deaths) == 1

    def test_unwatch_stops_callbacks(self):
        cluster = make_cluster(seed=100)
        client = cluster.client_on(cluster.servers[0], name="watcher")
        start_ping(cluster, client, 0)
        ref = ping_ref(cluster, client, 0)
        audit = AuditClient(client.runtime, client.names)
        deaths = []
        audit.watch(ref, deaths.append)
        audit.start(client.process)
        audit.unwatch(ref)
        cluster.find_service(0, "ping").kill()
        cluster.run_for(3 * RAS_CLIENT_POLL)
        assert deaths == []
