"""Paper-fidelity tests: the exact message flows of Figures 3 and 4.

These assert not just the outcomes but the *wire traffic*: which
interfaces were invoked, in the paper's order, with the paper's caching
behaviour ("Most of the name resolutions occur only the first time a
movie is opened").
"""

import pytest

from repro.cluster import build_full_cluster
from repro.core.ras.client import RAS_CLIENT_POLL


@pytest.fixture(scope="module")
def itv():
    cluster = build_full_cluster(n_servers=3, seed=201)
    stk = cluster.add_settop_kernel(1)
    assert cluster.boot_settops([stk])
    return cluster, stk


def kind_count(cluster, kind):
    return cluster.net.sent_by_kind.get(kind, 0)


class TestFigure3Flow:
    """Downloading an application: AM -> name service -> RDS."""

    def test_download_traffic_shape(self, itv):
        cluster, stk = itv
        open_data = "rpc.call.RDS.openData"
        before = kind_count(cluster, open_data)
        cluster.run_async(stk.app_manager.tune(5))
        assert kind_count(cluster, open_data) == before + 1

    def test_rds_reference_cached_across_downloads(self, itv):
        """Section 3.4.2: the AM contacts the name service only for the
        first download; later downloads reuse the RDS reference."""
        cluster, stk = itv
        resolves_before = stk.app_manager.rds.resolve_calls
        cluster.run_async(stk.app_manager.tune(6))
        cluster.run_async(stk.app_manager.tune(7))
        assert stk.app_manager.rds.resolve_calls == resolves_before

    def test_rds_failure_triggers_single_rebind(self, itv):
        """Paper: "If at some point the RDS reference stops working, the
        AM will obtain a new object reference and retry the download."
        """
        cluster, stk = itv
        home = cluster.server_for_neighborhood(1)
        index = cluster.servers.index(home)
        rebinds_before = stk.app_manager.rds.rebinds
        cluster.kill_service(index, "rds")
        cluster.run_for(3.0)  # SSC restarts it
        # Next download succeeds through a rebind.
        target = 5 if stk.app_manager.current_app.name != "vod" else 6
        cluster.run_async(stk.app_manager.tune(target))
        assert stk.app_manager.rds.rebinds >= rebinds_before + 1


class TestFigure4Flow:
    """Opening a movie: the ten numbered steps."""

    def test_open_invokes_each_party_once(self):
        cluster = build_full_cluster(n_servers=3, seed=202)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app

        counts_before = {
            "open": kind_count(cluster, "rpc.call.MMS.open"),
            "allocate": kind_count(cluster,
                                   "rpc.call.ConnectionManager.allocate"),
            "mds_open": kind_count(cluster, "rpc.call.MDS.open"),
            "play": kind_count(cluster, "rpc.call.Movie.playFrom"),
        }
        cluster.run_async(vod.play("T2"))
        # Step 2: app -> MMS.open, exactly once.
        assert kind_count(cluster, "rpc.call.MMS.open") == \
            counts_before["open"] + 1
        # Step 4: MMS -> ConnectionManager.allocate, exactly once.
        assert kind_count(cluster, "rpc.call.ConnectionManager.allocate") == \
            counts_before["allocate"] + 1
        # Step 6: MMS -> MDS.open, exactly once.
        assert kind_count(cluster, "rpc.call.MDS.open") == \
            counts_before["mds_open"] + 1
        # Step 8: settop -> movie.playFrom.
        assert kind_count(cluster, "rpc.call.Movie.playFrom") == \
            counts_before["play"] + 1

    def test_steps_9_10_ras_polling_follows(self):
        """Steps 9-10: the MMS polls the RAS about the settop."""
        cluster = build_full_cluster(n_servers=3, seed=203)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        cluster.run_async(vod.play("T2"))
        before = kind_count(cluster, "rpc.call.RAS.checkStatus")
        cluster.run_for(3 * RAS_CLIENT_POLL)
        polls = kind_count(cluster, "rpc.call.RAS.checkStatus") - before
        # At least the MMS's periodic polls landed (the NS audit also
        # uses checkStatus, so >=).
        assert polls >= 2

    def test_data_flows_over_reserved_circuit_not_rpc(self):
        """Movie data rides the CBR circuit, not the datagram path."""
        cluster = build_full_cluster(n_servers=3, seed=204)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        before = kind_count(cluster, "mds.stream")
        cluster.run_async(vod.play("T2"))
        chunks = vod.chunks_received
        cluster.run_for(10.0)
        assert 8 <= vod.chunks_received - chunks <= 12  # ~1 per chunk second
        # ... carried by one segment datagram while the path is quiet.
        assert kind_count(cluster, "mds.stream") - before <= 2

    def test_close_deallocates_once(self):
        cluster = build_full_cluster(n_servers=3, seed=205)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        cluster.run_async(vod.play("T2"))
        before = kind_count(cluster, "rpc.call.ConnectionManager.deallocate")
        cluster.run_async(vod.stop())
        assert kind_count(cluster,
                          "rpc.call.ConnectionManager.deallocate") == before + 1
