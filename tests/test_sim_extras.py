"""Additional substrate coverage: trace log, kernel edges, settop power."""

import pytest

from repro.core.ras.client import RAS_CLIENT_POLL
from repro.services.settop_manager import SETTOP_DEAD_AFTER
from repro.sim import CancelledError, Kernel, SimTimeoutError, gather
from repro.sim.errors import KernelStopped
from repro.sim.trace import TraceLog


@pytest.fixture
def kernel():
    return Kernel()


class TestTraceLog:
    def test_emit_and_select(self, kernel):
        trace = TraceLog(kernel)
        trace.emit("ns", "update", path="svc/mms")
        kernel.run(until=5.0)
        trace.emit("ns", "audit_removed", path="svc/mms")
        trace.emit("mms", "opened", title="T2")
        assert trace.count("ns") == 2
        assert trace.count("ns", "update") == 1
        assert trace.select("mms")[0].fields["title"] == "T2"

    def test_select_by_field(self, kernel):
        trace = TraceLog(kernel)
        trace.emit("svc", "x", host="a")
        trace.emit("svc", "x", host="b")
        assert len(trace.select("svc", "x", host="a")) == 1

    def test_timestamps_recorded(self, kernel):
        trace = TraceLog(kernel)
        kernel.run(until=3.0)
        trace.emit("t", "now")
        assert trace.last("t").time == 3.0

    def test_disabled_log_is_silent(self, kernel):
        trace = TraceLog(kernel, enabled=False)
        trace.emit("x", "y")
        assert len(trace) == 0

    def test_last_returns_none_when_empty(self, kernel):
        assert TraceLog(kernel).last("nope") is None


class TestKernelEdges:
    def test_stop_halts_run(self, kernel):
        seen = []
        kernel.call_later(1.0, seen.append, "a")
        kernel.call_later(2.0, kernel.stop)
        kernel.call_later(3.0, seen.append, "b")
        kernel.run()
        assert seen == ["a"]

    def test_schedule_after_stop_raises(self, kernel):
        kernel.stop()
        with pytest.raises(KernelStopped):
            kernel.call_later(1.0, lambda: None)

    def test_pending_events_counts_uncancelled(self, kernel):
        h1 = kernel.call_later(1.0, lambda: None)
        kernel.call_later(2.0, lambda: None)
        h1.cancel()
        assert kernel.pending_events() == 1

    def test_run_one_processes_single_event(self, kernel):
        seen = []
        kernel.call_later(1.0, seen.append, 1)
        kernel.call_later(2.0, seen.append, 2)
        kernel.run_one()
        assert seen == [1]
        assert kernel.now == 1.0

    def test_run_until_complete_dry_loop_raises(self, kernel):
        fut = kernel.create_future()
        with pytest.raises(RuntimeError, match="ran dry"):
            kernel.run_until_complete(fut)

    def test_run_until_complete_cancelled_timer_is_still_dry(self, kernel):
        # A cancelled shell still sits in the timer backend; only a live
        # timer may keep the loop waiting.
        kernel.call_later(5.0, lambda: None).cancel()
        fut = kernel.create_future()
        with pytest.raises(RuntimeError, match="ran dry"):
            kernel.run_until_complete(fut)
        assert kernel.now == 0.0

    def test_wait_for_wraps_coroutines(self, kernel):
        async def slow():
            await kernel.sleep(10.0)
            return "late"

        async def main():
            try:
                return await kernel.wait_for(slow(), timeout=1.0)
            except SimTimeoutError:
                return "timeout"

        assert kernel.run_until_complete(main()) == "timeout"

    def test_gather_empty(self, kernel):
        async def main():
            return await gather(kernel, [])

        assert kernel.run_until_complete(main()) == []

    def test_nested_wait_for(self, kernel):
        async def inner():
            await kernel.sleep(0.5)
            return "ok"

        async def outer():
            return await kernel.wait_for(
                kernel.wait_for(inner(), timeout=2.0), timeout=3.0)

        assert kernel.run_until_complete(outer()) == "ok"

    def test_task_cancelling_itself_via_future(self, kernel):
        async def main():
            fut = kernel.create_future()
            kernel.call_later(1.0, fut.cancel)
            try:
                await fut
            except CancelledError:
                return "cancelled"

        assert kernel.run_until_complete(main()) == "cancelled"


class TestSettopPowerCycle:
    def test_power_off_then_on_reboots(self):
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=141)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        first_boot = stk.booted_at
        stk.power_off()
        assert stk.state == "off"
        cluster.run_for(5.0)
        stk.power_on()
        assert cluster.boot_settops([stk], timeout=60.0)
        assert stk.booted_at > first_boot
        # The Application Manager came back with the navigator.
        assert stk.app_manager.current_app is not None

    def test_settop_manager_sees_power_cycle(self):
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=142)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        client = cluster.client_on(cluster.servers[0], name="pc")
        mgr = cluster.run_async(client.names.resolve("svc/settopmgr/1"))

        def status():
            return cluster.run_async(client.runtime.invoke(
                mgr, "getStatus", ([stk.host.ip],)))[0]

        cluster.run_for(10.0)
        assert status() == "up"
        stk.power_off()
        cluster.run_for(SETTOP_DEAD_AFTER + 5.0)
        assert status() == "down"
        stk.power_on()
        assert cluster.boot_settops([stk], timeout=60.0)
        cluster.run_for(10.0)
        assert status() == "up"


class TestAppCrashRestart:
    def test_am_restarts_crashed_application(self):
        """Section 3: "people don't expect TVs to crash" -- the AM
        restarts a crashed application on the current channel."""
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=221)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        app_proc = stk.host.find_process("vod-app")
        assert app_proc is not None
        app_proc.kill(status="segfault")
        cluster.run_for(15.0)
        # A fresh VOD app instance is running on the same channel.
        new_app = stk.app_manager.current_app
        assert new_app is not None and new_app is not vod
        assert new_app.name == "vod"
        assert stk.host.find_process("vod-app") is not None
        crashes = cluster.trace.select("am", "app_crashed")
        assert len(crashes) == 1

    def test_channel_change_not_treated_as_crash(self):
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=222)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        cluster.run_async(stk.app_manager.tune(6))
        cluster.run_for(10.0)
        assert stk.app_manager.current_app.name == "shopping"
        assert cluster.trace.select("am", "app_crashed") == []


class TestGracefulPowerOff:
    def test_shutdown_report_marks_down_immediately(self):
        """A clean power-off skips the missed-heartbeat horizon."""
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=261)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        client = cluster.client_on(cluster.servers[0], name="gp")
        mgr = cluster.run_async(client.names.resolve("svc/settopmgr/1"))
        cluster.run_for(10.0)
        stk.power_off()
        cluster.run_for(2.0)  # well inside SETTOP_DEAD_AFTER (15 s)
        status = cluster.run_async(client.runtime.invoke(
            mgr, "getStatus", ([stk.host.ip],)))
        assert status == ["down"]
        assert stk.state == "off"
        assert not stk.host.up

    def test_power_off_speeds_reclamation(self):
        """Movie resources come back faster than after a crash."""
        from repro.cluster import build_full_cluster
        cluster = build_full_cluster(n_servers=2, seed=262)
        stk = cluster.add_settop_kernel(1)
        assert cluster.boot_settops([stk])
        cluster.run_async(stk.app_manager.tune(5))
        vod = stk.app_manager.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(5.0)
        downlink = cluster.net.downlink_of(stk.host.ip)
        assert downlink.reserved_bps > 0
        stk.power_off()
        # Crash-grade budget includes SETTOP_DEAD_AFTER (15 s); a clean
        # power-off only needs the RAS + MMS polling pipeline.
        t0 = cluster.now
        budget = (cluster.params.ras_peer_poll
                  + RAS_CLIENT_POLL + 10.0)
        while downlink.reserved_bps > 0 and cluster.now - t0 < budget:
            cluster.run_for(1.0)
        assert downlink.reserved_bps == 0
        assert cluster.now - t0 <= budget
