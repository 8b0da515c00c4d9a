"""Settop partition recovery and genuine multiplayer games."""

import pytest

from repro.cluster import build_full_cluster
from repro.core.params import MOVIE_BITRATE_BPS
from repro.core.ras.client import RAS_CLIENT_POLL
from repro.services.settop_manager import SETTOP_DEAD_AFTER


class TestSettopPartition:
    def test_playback_survives_transient_partition(self):
        """A settop cut off from the plant stalls, then recovers on heal."""
        cluster = build_full_cluster(n_servers=3, seed=231)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(10.0)
        chunks = vod.chunks_received
        # Cut the settop off from every server for 20 s.
        cluster.net.partition({stk.host.ip}, set(cluster.server_ips))
        cluster.run_for(20.0)
        assert vod.chunks_received == chunks  # nothing got through
        cluster.net.heal_partitions()
        cluster.run_for(60.0)
        assert vod.playing
        assert vod.chunks_received > chunks
        # The app noticed and recovered (stall -> reopen), and the old
        # session was superseded rather than doubled.
        assert vod.interruptions
        downlink = cluster.net.downlink_of(stk.host.ip)
        assert downlink.reserved_bps == MOVIE_BITRATE_BPS

    def test_long_partition_reclaims_resources(self):
        """If the settop stays unreachable past the liveness horizon, the
        system treats it as dead and reclaims (section 3.5.1)."""
        cluster = build_full_cluster(n_servers=3, seed=232)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(10.0)
        cluster.net.partition({stk.host.ip}, set(cluster.server_ips))
        budget = (SETTOP_DEAD_AFTER
                  + cluster.params.ras_peer_poll
                  + RAS_CLIENT_POLL + 20.0)
        cluster.run_for(budget)
        client = cluster.client_on(cluster.servers[0], name="part")

        async def sessions():
            ref = await client.names.resolve("svc/mms")
            return await client.runtime.invoke(ref, "openCount", ())

        assert cluster.run_async(sessions()) == 0
        downlink = cluster.net.downlink_of(stk.host.ip)
        assert downlink.reserved_bps == 0


class TestMultiplayer:
    def test_two_settops_share_a_lobby(self):
        """Settops in one neighbourhood land in the same game instance."""
        cluster = build_full_cluster(n_servers=3, seed=233)
        a = cluster.add_settop_kernel(1)
        b = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([a, b])
        cluster.run_async(a.app_manager.tune(7))
        cluster.run_async(b.app_manager.tune(7))
        game_a = a.app_manager.current_app
        game_b = b.app_manager.current_app
        assert game_a.game_id == game_b.game_id
        state = cluster.run_async(game_a.game.call("gameState",
                                                   game_a.game_id))
        assert set(state["players"]) == {game_a.player, game_b.player}
        # Rounds played by either player advance the shared game.
        cluster.run_async(game_a.play_round(50))
        cluster.run_async(game_b.play_round(25))
        state = cluster.run_async(game_b.game.call("gameState",
                                                   game_b.game_id))
        assert state["rounds"] == 2

    def test_different_neighborhoods_different_lobbies(self):
        cluster = build_full_cluster(n_servers=3, seed=234)
        a = cluster.add_settop_kernel(1)
        b = cluster.add_settop_kernel(2)
        assert cluster.boot_settops([a, b])
        cluster.run_async(a.app_manager.tune(7))
        cluster.run_async(b.app_manager.tune(7))
        assert (a.app_manager.current_app.game_id
                != b.app_manager.current_app.game_id)


class TestPersistentContextRefs:
    def test_context_ref_survives_ns_restart(self):
        """Section 9.2: "name service context objects are persistent so
        that they can be activated on demand" -- a held context reference
        still works after its name-service replica restarts."""
        cluster = build_full_cluster(n_servers=2, seed=235)
        client = cluster.client_on(cluster.servers[0], name="pctx")
        ctx_ref = cluster.run_async(client.names.resolve("svc"))
        assert ctx_ref.type_id == "NamingContext"
        # Works before...
        cluster.run_async(client.runtime.invoke(ctx_ref, "resolve", ("ras",)))
        cluster.kill_service(0, "ns")
        cluster.run_for(15.0)  # SSC restarts; replica refetches state
        # ...and after: the bootstrap-style incarnation survives restart.
        result = cluster.run_async(
            client.runtime.invoke(ctx_ref, "resolve", ("ras",)))
        assert result is not None
