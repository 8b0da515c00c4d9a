"""Detailed service-level tests: Settop Manager, Connection Manager,
MDS, RDS, boot services."""

import pytest

from repro.cluster import build_full_cluster
from repro.services.connection_manager import (
    BandwidthUnavailable,
    NoSuchConnection,
)
from repro.services.mds import DiskStreamsExhausted, NoSuchTitle
from repro.services.mms import MovieUnavailable
from repro.services.rds import NoSuchData
from repro.services.settop_manager import SETTOP_DEAD_AFTER
from repro.settop.kernel import SETTOP_HEARTBEAT


@pytest.fixture(scope="module")
def cluster():
    return build_full_cluster(n_servers=3, seed=121)


def resolve(cluster, client, name):
    return cluster.run_async(client.names.resolve(name))


class TestSettopManager:
    def test_heartbeats_keep_settop_up(self, cluster):
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        client = cluster.client_on(cluster.servers[0], name="sm1")
        mgr = resolve(cluster, client, "svc/settopmgr/1")
        cluster.run_for(20.0)
        status = cluster.run_async(client.runtime.invoke(
            mgr, "getStatus", ([stk.host.ip],)))
        assert status == ["up"]

    def test_crashed_settop_goes_down_after_missed_heartbeats(self, cluster):
        stk = cluster.add_settop_kernel(2)
        assert cluster.boot_settops([stk])
        client = cluster.client_on(cluster.servers[0], name="sm2")
        mgr = resolve(cluster, client, "svc/settopmgr/2")
        stk.crash()
        cluster.run_for(SETTOP_DEAD_AFTER + 2.0)
        status = cluster.run_async(client.runtime.invoke(
            mgr, "getStatus", ([stk.host.ip],)))
        assert status == ["down"]

    def test_unknown_settop(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="sm3")
        mgr = resolve(cluster, client, "svc/settopmgr/1")
        status = cluster.run_async(client.runtime.invoke(
            mgr, "getStatus", (["10.0.1.250"],)))
        assert status == ["unknown"]

    def test_state_rebuilds_after_restart(self, cluster):
        """Stateless recovery: heartbeats repopulate the table."""
        stk = cluster.add_settop_kernel(3)
        assert cluster.boot_settops([stk])
        server = cluster.server_for_neighborhood(3)
        index = cluster.servers.index(server)
        cluster.kill_service(index, "settopmgr")
        cluster.run_for(SETTOP_HEARTBEAT * 4 + 5.0)
        client = cluster.client_on(cluster.servers[0], name="sm4")
        mgr = resolve(cluster, client, "svc/settopmgr/3")
        status = cluster.run_async(client.runtime.invoke(
            mgr, "getStatus", ([stk.host.ip],)))
        assert status == ["up"]


class TestConnectionManager:
    def test_allocate_reserves_and_deallocate_releases(self, cluster):
        settop = cluster.add_settop(1)
        client = cluster.client_on(cluster.servers[0], name="cm1")
        cmgr = resolve(cluster, client, "svc/cmgr/1")
        conn = cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 2_000_000)))
        assert cluster.net.downlink_of(settop.ip).reserved_bps == 2_000_000
        cluster.run_async(client.runtime.invoke(cmgr, "deallocate", (conn,)))
        assert cluster.net.downlink_of(settop.ip).reserved_bps == 0

    def test_admission_control(self, cluster):
        settop = cluster.add_settop(1)
        client = cluster.client_on(cluster.servers[0], name="cm2")
        cmgr = resolve(cluster, client, "svc/cmgr/1")
        cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 5_000_000)))
        with pytest.raises(BandwidthUnavailable):
            cluster.run_async(client.runtime.invoke(
                cmgr, "allocate",
                (settop.ip, cluster.servers[0].ip, 5_000_000)))

    def test_unknown_connection_rejected(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="cm3")
        cmgr = resolve(cluster, client, "svc/cmgr/1")
        with pytest.raises(NoSuchConnection):
            cluster.run_async(client.runtime.invoke(cmgr, "deallocate",
                                                    ("bogus",)))

    def test_state_pushed_to_peer_replicas(self, cluster):
        settop = cluster.add_settop(2)
        client = cluster.client_on(cluster.servers[0], name="cm4")
        cmgr = resolve(cluster, client, "svc/cmgr/2")
        conn = cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 1_000_000)))
        cluster.run_for(2.0)
        listing = cluster.run_async(client.names.list_repl("svc/cmgr-all"))
        aware = 0
        for _member, _kind, ref in listing:
            conns = cluster.run_async(client.runtime.invoke(
                ref, "connections", ()))
            if conn in conns:
                aware += 1
        assert aware == 3
        cluster.run_async(client.runtime.invoke(cmgr, "deallocate", (conn,)))

    def test_neighborhood_failover_releases_foreign_circuit(self):
        """A promoted backup cmgr can release circuits it never allocated
        (the switch state outlives the process)."""
        cluster = build_full_cluster(n_servers=3, seed=122)
        settop = cluster.add_settop(1)
        client = cluster.client_on(cluster.servers[0], name="cm5")
        cmgr = resolve(cluster, client, "svc/cmgr/1")
        conn = cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 1_000_000)))
        # Crash the neighbourhood's server; a backup replica takes over.
        home = cluster.servers.index(cluster.server_for_neighborhood(1))
        cluster.crash_server(home)
        cluster.run_for(cluster.params.max_failover + 10.0)
        client2 = cluster.client_on(
            cluster.servers[(home + 1) % 3], name="cm6")
        new_cmgr = resolve(cluster, client2, "svc/cmgr/1")
        assert new_cmgr.ip != cluster.servers[home].ip
        cluster.run_async(client2.runtime.invoke(new_cmgr, "deallocate",
                                                 (conn,)))
        assert cluster.net.downlink_of(settop.ip).reserved_bps == 0


class TestMDS:
    def test_list_titles_reflects_disk(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="mds1")
        mds = resolve(cluster, client, f"svc/mds/{cluster.servers[0].name}")
        titles = cluster.run_async(client.runtime.invoke(mds, "listTitles", ()))
        assert "T2" in titles or "Casablanca" in titles

    def test_open_unknown_title(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="mds2")
        mds = resolve(cluster, client, f"svc/mds/{cluster.servers[0].name}")
        settop = cluster.add_settop(1)
        with pytest.raises(NoSuchTitle):
            cluster.run_async(client.runtime.invoke(
                mds, "open", ("No Such Film", settop.ip, "c1", 9999)))

    def test_disk_stream_budget(self):
        from repro.core.params import Params
        cluster = build_full_cluster(
            n_servers=1, params=Params(mds_disk_streams=2), seed=123)
        client = cluster.client_on(cluster.servers[0], name="mds3")
        mds = resolve(cluster, client, f"svc/mds/{cluster.servers[0].name}")
        titles = cluster.run_async(client.runtime.invoke(mds, "listTitles", ()))
        settops = [cluster.add_settop(1) for _ in range(3)]
        for i in range(2):
            cluster.run_async(client.runtime.invoke(
                mds, "open", (titles[0], settops[i].ip, f"c{i}", 9000 + i)))
        with pytest.raises(DiskStreamsExhausted):
            cluster.run_async(client.runtime.invoke(
                mds, "open", (titles[0], settops[2].ip, "c9", 9999)))

    def test_full_is_not_missing(self):
        """With every carrier of a title at its stream budget the MMS
        says the replicas are full; a title nobody carries is missing."""
        from repro.core.params import Params
        from tests.helpers import booted_cluster
        cluster, kernels = booted_cluster(
            n_servers=2, seed=5, params=Params(mds_disk_streams=1),
            settops=3)
        vods = []
        for stk in kernels:
            cluster.run_async(stk.app_manager.tune(5))
            vods.append(stk.app_manager.current_app)
        for vod in vods[:2]:
            assert cluster.run_async(vod.play("T2")) == "playing"
        with pytest.raises(MovieUnavailable,
                           match="every MDS replica carrying 'T2' is full"):
            cluster.run_async(vods[2].play("T2"))
        with pytest.raises(MovieUnavailable,
                           match="no live MDS replica carries 'Nowhere'"):
            cluster.run_async(vods[2].play("Nowhere"))

    def test_movie_object_lifecycle(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="mds4")
        mds_name = f"svc/mds/{cluster.servers[0].name}"
        mds = resolve(cluster, client, mds_name)
        titles = cluster.run_async(client.runtime.invoke(mds, "listTitles", ()))
        settop = cluster.add_settop(1)
        cluster.net.downlink_of(settop.ip).reserve("test-conn", 3_000_000)
        movie = cluster.run_async(client.runtime.invoke(
            mds, "open", (titles[0], settop.ip, "test-conn", 9100)))
        info = cluster.run_async(client.runtime.invoke(movie, "info", ()))
        assert info["state"] == "open"
        cluster.run_async(client.runtime.invoke(movie, "close", ()))
        from repro.ocs import InvalidObjectReference
        with pytest.raises(InvalidObjectReference):
            cluster.run_async(client.runtime.invoke(movie, "info", ()))
        cluster.net.downlink_of(settop.ip).release("test-conn")


class TestRDS:
    def test_open_data_returns_blob(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="rds1")
        rds = resolve(cluster, client, "svc/rds/1")
        blob = cluster.run_async(client.runtime.invoke(
            rds, "openData", ("fonts/helvetica",), timeout=10.0))
        assert blob.size == 180_000

    def test_missing_data(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="rds2")
        rds = resolve(cluster, client, "svc/rds/1")
        with pytest.raises(NoSuchData):
            cluster.run_async(client.runtime.invoke(rds, "openData",
                                                    ("nope",)))

    def test_list_data(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="rds3")
        rds = resolve(cluster, client, "svc/rds/1")
        names = cluster.run_async(client.runtime.invoke(rds, "listData", ()))
        assert "apps/vod" in names


class TestBootServices:
    def test_boot_info_contents(self, cluster):
        client = cluster.client_on(cluster.servers[0], name="boot1")
        boot = resolve(cluster, client, "svc/boot")
        info = cluster.run_async(client.runtime.invoke(boot, "bootInfo", (1,)))
        assert info["ns_ips"][0] == cluster.server_for_neighborhood(1).ip
        assert 5 in info["channels"]
        assert len(info["ns_ips"]) == 3

    def test_kbs_single_broadcaster(self, cluster):
        """Primary/backup: only one kernel broadcaster at a time."""
        broadcasting = []
        for host in cluster.servers:
            proc = host.find_process("kbs")
            if proc is not None and any("kbs-broadcast" in t.name
                                        for t in proc._tasks):
                broadcasting.append(host.name)
        assert len(broadcasting) == 1
