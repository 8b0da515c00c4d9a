"""Tests for the database service: persistence, replication, fail-over."""

import pytest

from repro.cluster import build_cluster
from repro.core.rebind import RebindingProxy
from repro.db.service import NoSuchKey, read_row


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(n_servers=3, seed=61)


def db_client(cluster, server_index=0, name="db-client"):
    client = cluster.client_on(cluster.servers[server_index], name=name)
    return RebindingProxy(client.runtime, client.names, "svc/db",
                          cluster.params)


class TestBasicOperations:
    def test_put_get(self, cluster):
        db = db_client(cluster, name="c1")
        cluster.run_async(db.call("put", "t", "k", {"v": 1}))
        assert cluster.run_async(db.call("get", "t", "k")) == {"v": 1}

    def test_get_missing_raises(self, cluster):
        db = db_client(cluster, name="c2")
        with pytest.raises(NoSuchKey):
            cluster.run_async(db.call("get", "t", "ghost"))

    def test_get_or_default(self, cluster):
        # A caller defaults a missing row by catching the typed error,
        # as VODService.getBookmark does.
        db = db_client(cluster, name="c3")

        async def get_or(default):
            try:
                return await db.call("get", "t", "ghost")
            except NoSuchKey:
                return default

        assert cluster.run_async(get_or(7)) == 7

    def test_delete(self, cluster):
        db = db_client(cluster, name="c4")
        cluster.run_async(db.call("put", "t", "gone", 1))
        cluster.run_async(db.call("delete", "t", "gone"))
        with pytest.raises(NoSuchKey):
            cluster.run_async(db.call("get", "t", "gone"))

    def test_scan(self, cluster):
        db = db_client(cluster, name="c5")
        cluster.run_async(db.call("put", "scan_t", "a", 1))
        cluster.run_async(db.call("put", "scan_t", "b", 2))
        assert cluster.run_async(db.call("scan", "scan_t")) == {"a": 1, "b": 2}

    def test_config_table_seeded(self, cluster):
        db = db_client(cluster, name="c6")
        nbhds = cluster.run_async(
            db.call("get", "config", "neighborhoods_by_server"))
        assert nbhds == cluster.neighborhoods_by_server


class TestDurabilityAndFailover:
    def test_data_survives_db_process_crash(self):
        cluster = build_cluster(n_servers=3, seed=62)
        db = db_client(cluster)
        cluster.run_async(db.call("put", "orders", "o1", {"item": "mug"}))
        for i in range(3):
            cluster.kill_service(i, "db")
        cluster.run_for(10.0)  # SSCs restart the replicas from disk
        assert (cluster.run_async(db.call("get", "orders", "o1"))
                == {"item": "mug"})

    def test_writes_replicated_to_backup_disks(self):
        cluster = build_cluster(n_servers=3, seed=63)
        db = db_client(cluster)
        cluster.run_async(db.call("put", "bm", "k", "v"))
        cluster.run_for(2.0)  # replication pushes land
        on_disk = sum(1 for host in cluster.servers
                      if read_row(host.disk, "bm", "k") == "v")
        assert on_disk == 3

    def test_primary_failover_serves_replicated_data(self):
        cluster = build_cluster(n_servers=3, seed=64)
        db = db_client(cluster)
        cluster.run_async(db.call("put", "fo", "k", 42))
        cluster.run_for(2.0)
        # Find and crash the whole server hosting the primary.
        finder = cluster.client_on(cluster.servers[0], name="find")
        ref = cluster.run_async(finder.names.resolve("svc/db"))
        primary_index = cluster.server_ips.index(ref.ip)
        cluster.crash_server(primary_index)
        cluster.run_for(cluster.params.max_failover + 10.0)
        survivor = (primary_index + 1) % 3
        db2 = db_client(cluster, server_index=survivor, name="after")
        assert cluster.run_async(db2.call("get", "fo", "k")) == 42
