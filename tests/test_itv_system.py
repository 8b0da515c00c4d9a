"""System tests: the full ITV stack, replaying the paper's flows.

Covers Figure 3 (downloading an application), Figure 4 (opening a
movie), and the section 3.5 failure scenarios.
"""

import pytest

from repro.cluster import build_full_cluster
from repro.cluster.media import movie_locations
from repro.core.params import MOVIE_BITRATE_BPS
from repro.core.ras.client import RAS_CLIENT_POLL
from repro.services.connection_manager import BandwidthUnavailable
from repro.services.settop_manager import SETTOP_DEAD_AFTER


@pytest.fixture(scope="module")
def itv():
    """One full cluster + booted settop shared by read-only tests."""
    cluster = build_full_cluster(n_servers=3, seed=42)
    stk = cluster.add_settop_kernel(1)
    assert cluster.boot_settops([stk])
    return cluster, stk


def fresh_itv(seed=77, neighborhood=1, n_servers=3):
    cluster = build_full_cluster(n_servers=n_servers, seed=seed)
    stk = cluster.add_settop_kernel(neighborhood)
    assert cluster.boot_settops([stk])
    return cluster, stk


def tune(cluster, stk, channel):
    cluster.run_async(stk.app_manager.tune(channel))
    return stk.app_manager.current_app


def play_movie(cluster, app, title="T2", resume=True):
    cluster.run_async(app.play(title, resume=resume))


class TestBootAndDownload:
    def test_settop_boots_from_broadcast(self, itv):
        cluster, stk = itv
        assert stk.state == "booted"
        assert stk.boot_params["ns_ips"][0] == cluster.server_for_neighborhood(1).ip

    def test_navigator_loaded_first(self, itv):
        """Figure 3 + section 3.4.2: the AM's first download is the navigator."""
        _cluster, stk = itv
        assert stk.app_manager.current_app.name in ("navigator", "vod",
                                                    "shopping", "game")

    def test_app_download_takes_2_to_4_seconds(self):
        """Section 9.3: rich apps start in 2-4 s at settop bandwidth."""
        cluster, stk = fresh_itv(seed=101)
        for channel, low, high in [(5, 2.0, 4.5), (6, 2.5, 5.0)]:
            tune(cluster, stk, channel)
            t = stk.app_manager.last_tune
            assert low <= t["download_time"] <= high, t

    def test_cover_beats_download(self, itv):
        """Viewers see a response within 0.5 s (section 9.3)."""
        _cluster, stk = itv
        t = stk.app_manager.last_tune
        assert t["cover_at"] == 0.5
        assert t["cover_at"] < t["download_time"]

    def test_tune_to_same_channel_is_noop(self):
        cluster, stk = fresh_itv(seed=102)
        tune(cluster, stk, 5)
        before = stk.app_manager.last_tune
        tune(cluster, stk, 5)
        assert stk.app_manager.last_tune is before

    def test_unknown_channel_rejected(self, itv):
        cluster, stk = itv
        with pytest.raises(KeyError):
            cluster.run_async(stk.app_manager.tune(99))


class TestMoviePlayback:
    def test_open_reserves_bandwidth(self):
        """Figure 4 step 4: the Connection Manager reserves the circuit."""
        cluster, stk = fresh_itv(seed=103)
        vod = tune(cluster, stk, 5)
        downlink = cluster.net.downlink_of(stk.host.ip)
        before = downlink.reserved_bps
        play_movie(cluster, vod)
        assert downlink.reserved_bps == before + MOVIE_BITRATE_BPS

    def test_chunks_flow_and_position_advances(self):
        cluster, stk = fresh_itv(seed=104)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod)
        cluster.run_for(20.0)
        assert vod.chunks_received >= 18
        assert 18.0 <= vod.position <= 22.0

    def test_close_releases_resources(self):
        """Section 3.4.5: closing lets the MMS reclaim circuit + stream."""
        cluster, stk = fresh_itv(seed=105)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod)
        cluster.run_for(5.0)
        cluster.run_async(vod.stop())
        downlink = cluster.net.downlink_of(stk.host.ip)
        assert downlink.reserved_bps == 0
        client = cluster.client_on(cluster.servers[0], name="t-close")

        async def sessions():
            ref = await client.names.resolve("svc/mms")
            return await client.runtime.invoke(ref, "openCount", ())

        assert cluster.run_async(sessions()) == 0

    def test_admission_control_limits_streams(self):
        """Two 3 Mbit/s streams fill a 6 Mbit/s downlink; a third fails."""
        cluster, stk = fresh_itv(seed=106)
        vod = tune(cluster, stk, 5)
        client = cluster.client_on(cluster.servers[0], name="t-adm")

        async def open_direct(title):
            ref = await client.names.resolve("svc/mms")
            # Impersonate more streams to the same settop via the MMS's
            # caller-ip logic: open on behalf of the settop by calling
            # from the settop's own app.
            return ref

        play_movie(cluster, vod, "T2")
        # Open a second stream from the same settop via a raw invocation.
        from repro.ocs import OCSRuntime
        proc = stk.host.spawn("second-app")
        runtime = OCSRuntime(proc, cluster.net)
        from repro.core.naming.client import NameClient
        names = NameClient(runtime, stk.boot_params["ns_ips"], cluster.params)

        async def open_more(title):
            mms = await names.resolve("svc/mms")
            port = runtime.network.allocate_port()
            return await runtime.invoke(mms, "open", (title, port),
                                        timeout=5.0)

        cluster.run_async(open_more("Casablanca"))
        from repro.services.connection_manager import ResourceLimitExceeded
        from repro.services.mms import MovieUnavailable
        # The third stream is denied: either by the per-settop connection
        # quota (section 7.3) or by bandwidth admission control -- the
        # quota (2) and the downlink (6/3 Mbit/s) bind at the same point.
        with pytest.raises((BandwidthUnavailable, MovieUnavailable,
                            ResourceLimitExceeded)):
            cluster.run_async(open_more("Sneakers"))

    def test_movie_plays_to_completion(self):
        cluster, stk = fresh_itv(seed=107)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "Toy Story")   # 200 s
        cluster.run_for(230.0)
        assert vod.finished
        assert not vod.playing
        assert cluster.net.downlink_of(stk.host.ip).reserved_bps == 0

    def test_pause_stops_chunks(self):
        cluster, stk = fresh_itv(seed=108)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod)
        cluster.run_for(5.0)
        cluster.run_async(vod.pause())
        got = vod.chunks_received
        cluster.run_for(10.0)
        assert vod.chunks_received == got


class TestFailureScenarios:
    """Section 3.5: the three crash cases, plus server-grain variants."""

    def test_mds_crash_recovered_by_reopen(self):
        """Section 3.5.2: app detects the stall, closes, reopens."""
        cluster, stk = fresh_itv(seed=109)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "T2")
        cluster.run_for(10.0)
        pos_before = vod.position
        # Find and kill the MDS serving this movie; keep it dead a while
        # by stopping it through its SSC (no auto-restart).
        serving = [i for i, h in enumerate(cluster.servers)
                   if any(p.name == "mds" and p.alive and any(
                       "pump" in (t.name or "") for t in p._tasks)
                       for p in h.processes)]
        # Fallback: kill every MDS that has open streams.
        killed = False
        for i, host in enumerate(cluster.servers):
            proc = host.find_process("mds")
            if proc is None:
                continue
            svc_tasks = [t for t in proc._tasks if "pump" in t.name]
            if svc_tasks:
                cluster.kill_service(i, "mds")
                killed = True
                break
        assert killed, "no MDS had an active pump"
        cluster.run_for(60.0)
        assert vod.interruptions, "app never noticed the stall"
        assert vod.playing, "app did not recover playback"
        assert vod.position >= pos_before

    def test_mms_crash_backup_takes_over_with_state(self):
        """Section 3.5.3 + 10.1.1: backup MMS rebuilds state from MDSs."""
        cluster, stk = fresh_itv(seed=110)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "T2")
        cluster.run_for(5.0)
        client = cluster.client_on(cluster.servers[2], name="t-mms")

        async def mms_status():
            ref = await client.names.resolve("svc/mms")
            return await client.runtime.invoke(ref, "status", ())

        primary = cluster.run_async(mms_status())
        primary_index = next(i for i, h in enumerate(cluster.servers)
                             if h.name == primary["host"])
        # Stop it through the CSC (operator tool): plain SSC stop would be
        # undone by the CSC's reconcile loop restarting the service.
        from repro.core.control.tools import OperatorConsole
        console = OperatorConsole(client.runtime, client.names, cluster.params)
        cluster.run_async(console.stop_service(
            "mms", cluster.servers[primary_index].ip))
        # Wait out fail-over; playback continues meanwhile (data path is
        # independent of the MMS).
        chunks_before = vod.chunks_received
        cluster.run_for(cluster.params.max_failover + 10.0)
        assert vod.chunks_received > chunks_before
        status = cluster.run_async(mms_status())
        assert status["host"] != primary["host"]
        assert status["sessions"] == 1  # recovered by querying the MDSs

    def test_settop_crash_reclaims_resources(self):
        """Section 3.5.1: MMS polls the RAS and closes orphaned movies."""
        cluster, stk = fresh_itv(seed=111)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "T2")
        cluster.run_for(5.0)
        downlink = cluster.net.downlink_of(stk.host.ip)
        assert downlink.reserved_bps > 0
        stk.crash()
        # SETTOP_DEAD_AFTER (15 s) + RAS settop poll + MMS client poll.
        budget = (SETTOP_DEAD_AFTER
                  + cluster.params.ras_peer_poll
                  + RAS_CLIENT_POLL + 15.0)
        cluster.run_for(budget)
        assert downlink.reserved_bps == 0, "circuit leaked after settop crash"
        client = cluster.client_on(cluster.servers[0], name="t-settop")

        async def sessions():
            ref = await client.names.resolve("svc/mms")
            return await client.runtime.invoke(ref, "openCount", ())

        assert cluster.run_async(sessions()) == 0

    def test_mds_server_crash_movie_reopens_on_replica(self):
        """Section 3.5.2: movies are replicated, so a whole-server crash
        is covered by reopening from another server."""
        cluster, stk = fresh_itv(seed=112)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "T2")
        cluster.run_for(5.0)
        locations = movie_locations(cluster, "T2")
        assert len(locations) >= 2
        # Crash the server whose MDS is pumping.
        serving_index = None
        for i, host in enumerate(cluster.servers):
            proc = host.find_process("mds")
            if proc is not None and any("pump" in t.name for t in proc._tasks):
                serving_index = i
                break
        assert serving_index is not None
        cluster.crash_server(serving_index)
        cluster.run_for(90.0)
        assert vod.playing, "playback did not resume on a surviving replica"


class TestShoppingAndGames:
    def test_order_flow(self):
        cluster, stk = fresh_itv(seed=113)
        shop = tune(cluster, stk, 6)
        catalog = cluster.run_async(shop.browse())
        assert "mug" in catalog
        order_id = cluster.run_async(shop.buy("mug", 2))
        status = cluster.run_async(shop.check_order(order_id))
        assert status["status"] == "accepted"
        assert status["quantity"] == 2

    def test_orders_survive_shopping_service_crash(self):
        cluster, stk = fresh_itv(seed=114)
        shop = tune(cluster, stk, 6)
        order_id = cluster.run_async(shop.buy("cap"))
        # Kill every shopping replica; SSCs restart them.
        for i in range(len(cluster.servers)):
            cluster.kill_service(i, "shopping")
        cluster.run_for(10.0)
        status = cluster.run_async(shop.check_order(order_id))
        assert status["item"] == "cap"

    def test_game_round_trip(self):
        cluster, stk = fresh_itv(seed=115)
        game = tune(cluster, stk, 7)
        outcome = cluster.run_async(game.play_round(50))
        assert outcome["result"] in ("correct", "higher", "lower")

    def test_game_state_recovered_from_client(self):
        """Section 9.4: game state is regenerated from client rejoins."""
        cluster, stk = fresh_itv(seed=116)
        game = tune(cluster, stk, 7)
        game.score = 3  # pretend some wins happened
        cluster.run_async(game.join())
        # Kill the game replica serving this neighbourhood.
        server = cluster.server_for_neighborhood(1)
        index = cluster.servers.index(server)
        cluster.kill_service(index, "game")
        cluster.run_for(5.0)  # SSC restarts it, with empty state
        outcome = cluster.run_async(game.play_round(42))
        assert game.rejoins >= 1
        assert outcome["state"]["players"][game.player] >= 3


class TestVODBookmarks:
    def test_resume_position_survives_app_restart(self):
        """Section 10.1.1: the VOD service holds the resume point."""
        cluster, stk = fresh_itv(seed=117)
        vod = tune(cluster, stk, 5)
        play_movie(cluster, vod, "Casablanca")
        cluster.run_for(30.0)
        cluster.run_async(vod.stop())
        pos = vod.position
        assert pos >= 25.0
        # Channel-surf away and back: new app process, no local state.
        tune(cluster, stk, 6)
        vod2 = tune(cluster, stk, 5)
        assert vod2 is not vod
        play_movie(cluster, vod2, "Casablanca")
        assert vod2.position >= pos - 1.0
