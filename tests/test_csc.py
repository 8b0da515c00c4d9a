"""Tests for the Cluster Service Controller (section 6.2-6.3)."""

import pytest

from repro.cluster import build_full_cluster
from repro.core.control.csc import CSC_PING_INTERVAL, NotPrimary
from repro.core.control.tools import OperatorConsole


@pytest.fixture(scope="module")
def cluster():
    return build_full_cluster(n_servers=3, seed=71)


def console_on(cluster, index=2, name="op"):
    client = cluster.client_on(cluster.servers[index], name=name)
    return client, OperatorConsole(client.runtime, client.names,
                                   cluster.params)


class TestPlacementDriven:
    def test_csc_started_services_per_placement(self, cluster):
        services = cluster.running_services()
        for host in cluster.servers:
            assert "mds" in services[host.name]
            assert "rds" in services[host.name]
        mms_hosts = [h for h, procs in services.items() if "mms" in procs]
        assert len(mms_hosts) == 2

    def test_placement_query(self, cluster):
        _client, console = console_on(cluster, name="op-pq")
        placement = cluster.run_async(console.placement())
        assert set(placement["mds"]) == set(cluster.server_ips)
        assert len(placement["mms"]) == 2

    def test_cluster_state_lists_running(self, cluster):
        _client, console = console_on(cluster, name="op-cs")
        state = cluster.run_async(console.cluster_state())
        for ip in cluster.server_ips:
            assert "mds" in state[ip]


class TestDirectedOperations:
    def test_move_service(self):
        cluster = build_full_cluster(n_servers=3, seed=72)
        _client, console = console_on(cluster)
        src, dst = cluster.server_ips[0], cluster.server_ips[2]
        # kbs runs on servers 0 and 1; move the replica 0 -> 2.
        cluster.run_async(console.move_service("kbs", src, dst))
        cluster.run_for(10.0)
        services = cluster.running_services()
        assert "kbs" not in services["server-0"]
        assert "kbs" in services["server-2"]
        placement = cluster.run_async(console.placement())
        assert dst in placement["kbs"] and src not in placement["kbs"]

    def test_stop_sticks_across_reconcile(self):
        cluster = build_full_cluster(n_servers=3, seed=73)
        _client, console = console_on(cluster)
        cluster.run_async(console.stop_service("game",
                                               cluster.server_ips[1]))
        cluster.run_for(3 * CSC_PING_INTERVAL)
        assert "game" not in cluster.running_services()["server-1"]

    def test_backup_refuses_directed_ops(self):
        cluster = build_full_cluster(n_servers=3, seed=74)
        # Find the backup CSC process and invoke it directly.
        client = cluster.client_on(cluster.servers[0], name="direct")
        primary_ref = cluster.run_async(client.names.resolve("svc/csc"))
        backup = None
        for host in cluster.servers:
            proc = host.find_process("csc")
            if proc is None:
                continue
            runtime = proc.attachments["ocs"]
            if runtime.port != primary_ref.port or host.ip != primary_ref.ip:
                from repro.ocs.objref import ObjectRef
                backup = ObjectRef(ip=host.ip, port=runtime.port,
                                   incarnation=proc.incarnation,
                                   type_id="ClusterController",
                                   object_id="")
                break
        assert backup is not None
        with pytest.raises(NotPrimary):
            cluster.run_async(client.runtime.invoke(
                backup, "startServiceOn", ("game", cluster.server_ips[0])))


class TestRecovery:
    def test_csc_failover_discovers_state(self):
        """Section 6.2: a promoted backup queries each SSC."""
        cluster = build_full_cluster(n_servers=3, seed=75)
        client, console = console_on(cluster, index=2)
        primary_ref = cluster.run_async(client.names.resolve("svc/csc"))
        primary_index = cluster.server_ips.index(primary_ref.ip)
        cluster.crash_server(primary_index)
        # The crashed server may also host the name-service master, so
        # allow re-election + audit restart + the CSC bind race.
        cluster.run_for(2 * cluster.params.max_failover + 20.0)
        status = cluster.run_async(console.server_status())
        assert status[primary_ref.ip] is False
        state = cluster.run_async(console.cluster_state())
        live = [ip for ip, services in state.items() if services]
        assert len(live) == 2

    def test_rebooted_server_gets_services_back(self):
        """Section 6.3: the CSC detects the new SSC and re-places."""
        cluster = build_full_cluster(n_servers=3, seed=76)
        cluster.crash_server(2)
        cluster.run_for(10.0)
        cluster.reboot_server(2)
        cluster.run_for(60.0)
        services = cluster.running_services()["server-2"]
        for svc in ("mds", "rds", "cmgr", "vod"):
            assert svc in services, services
