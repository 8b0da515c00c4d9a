"""Tests for section 7.3: resource limits and accounting for buggy clients."""

import pytest

from repro.cluster import build_full_cluster
from repro.core.params import Params
from repro.core.rebind import RebindingProxy
from repro.db.service import NoSuchKey
from repro.services.connection_manager import ResourceLimitExceeded


@pytest.fixture(scope="module")
def cluster():
    # Generous bandwidth so the *quota*, not the downlink, binds.
    return build_full_cluster(
        n_servers=2, seed=131,
        params=Params(max_connections_per_settop=2))


def cmgr_for(cluster, client, nbhd=1):
    return cluster.run_async(client.names.resolve(f"svc/cmgr/{nbhd}"))


class TestConnectionQuota:
    def test_quota_denies_buggy_client(self, cluster):
        """Paper: "either its request is denied or one of the previously
        allocated resources is freed" -- we deny."""
        settop = cluster.add_settop(1, downstream_bps=50_000_000)
        client = cluster.client_on(cluster.servers[0], name="q1")
        cmgr = cmgr_for(cluster, client)
        for _ in range(2):
            cluster.run_async(client.runtime.invoke(
                cmgr, "allocate", (settop.ip, cluster.servers[0].ip,
                                   1_000_000)))
        with pytest.raises(ResourceLimitExceeded):
            cluster.run_async(client.runtime.invoke(
                cmgr, "allocate", (settop.ip, cluster.servers[0].ip,
                                   1_000_000)))

    def test_release_frees_quota(self, cluster):
        settop = cluster.add_settop(1, downstream_bps=50_000_000)
        client = cluster.client_on(cluster.servers[0], name="q2")
        cmgr = cmgr_for(cluster, client)
        conns = [cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 1_000_000)))
            for _ in range(2)]
        cluster.run_async(client.runtime.invoke(cmgr, "deallocate",
                                                (conns[0],)))
        # Quota freed: a new allocation succeeds.
        cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 1_000_000)))

    def test_quota_is_per_settop(self, cluster):
        a = cluster.add_settop(1, downstream_bps=50_000_000)
        b = cluster.add_settop(1, downstream_bps=50_000_000)
        client = cluster.client_on(cluster.servers[0], name="q3")
        cmgr = cmgr_for(cluster, client)
        for settop in (a, b):
            for _ in range(2):
                cluster.run_async(client.runtime.invoke(
                    cmgr, "allocate",
                    (settop.ip, cluster.servers[0].ip, 1_000_000)))
        # Both settops at quota independently; neither blocked the other.


class TestResourceAccounting:
    def test_usage_recorded_on_release(self, cluster):
        settop = cluster.add_settop(2, downstream_bps=50_000_000)
        client = cluster.client_on(cluster.servers[0], name="acct")
        cmgr = cmgr_for(cluster, client, nbhd=2)
        conn = cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 2_000_000)))
        cluster.run_for(30.0)
        cluster.run_async(client.runtime.invoke(cmgr, "deallocate", (conn,)))
        cluster.run_for(2.0)
        db = RebindingProxy(client.runtime, client.names, "svc/db",
                            cluster.params)
        usage = cluster.run_async(db.call("get", "usage", settop.ip))
        assert usage["connections"] == 1
        assert usage["connection_seconds"] == pytest.approx(30.0, abs=1.0)
        assert usage["megabit_seconds"] == pytest.approx(60.0, rel=0.05)

    def test_usage_accumulates(self, cluster):
        settop = cluster.add_settop(2, downstream_bps=50_000_000)
        client = cluster.client_on(cluster.servers[0], name="acct2")
        cmgr = cmgr_for(cluster, client, nbhd=2)
        for _ in range(3):
            conn = cluster.run_async(client.runtime.invoke(
                cmgr, "allocate",
                (settop.ip, cluster.servers[0].ip, 1_000_000)))
            cluster.run_for(5.0)
            cluster.run_async(client.runtime.invoke(cmgr, "deallocate",
                                                    (conn,)))
            cluster.run_for(1.0)
        db = RebindingProxy(client.runtime, client.names, "svc/db",
                            cluster.params)
        usage = cluster.run_async(db.call("get", "usage", settop.ip))
        assert usage["connections"] == 3

    def test_accounting_can_be_disabled(self):
        cluster = build_full_cluster(
            n_servers=2, seed=132,
            params=Params(resource_accounting=False))
        settop = cluster.add_settop(1)
        client = cluster.client_on(cluster.servers[0], name="acct3")
        cmgr = cmgr_for(cluster, client)
        conn = cluster.run_async(client.runtime.invoke(
            cmgr, "allocate", (settop.ip, cluster.servers[0].ip, 1_000_000)))
        cluster.run_for(5.0)
        cluster.run_async(client.runtime.invoke(cmgr, "deallocate", (conn,)))
        cluster.run_for(2.0)
        db = RebindingProxy(client.runtime, client.names, "svc/db",
                            cluster.params)
        with pytest.raises(NoSuchKey):
            cluster.run_async(db.call("get", "usage", settop.ip))
