"""The settop's two watchdogs sleep to the tick that can fire.

``VODApp._watchdog`` (stall detection, section 3.5.2) and
``AppManager._app_watchdog`` (crashed-application restart, section 3)
used to wake on every tick of a fixed grid on every settop.  They now
sleep straight to the first grid tick at which their check could act,
and a change of state that could make it act sooner wakes them.

The oracle is the poll loop itself: ``_PollingVODApp`` and
``_PollingAppManager`` below keep the loops as they were, and each
scenario drives one settop through the cluster twice, once with each
pair, and compares the whole cluster trace and the VOD app's
``interruptions``.  The wake-count tests run the watchdogs on a bare
kernel, where every timer armed is theirs.
"""

from types import SimpleNamespace

import pytest

from repro.core.params import STREAM_CHUNK_SECONDS, Params
from repro.net import Network, server_ip, settop_ip
from repro.ocs.exceptions import InvalidObjectReference
from repro.settop import app_manager as app_manager_module
from repro.settop.app_manager import APP_WATCHDOG_TICK, AppManager
from repro.settop.apps import APP_CLASSES
from repro.settop.apps.game import GameApp
from repro.settop.apps.vod import STALL_FACTOR, VODApp
from repro.sim import Host, Kernel
from tests.helpers import EventRecorder, booted_cluster

VOD_CHANNEL = 5
SHOPPING_CHANNEL = 6


class _PollingVODApp(VODApp):
    """The stall watchdog as it was: wake on every chunk tick."""

    async def _watchdog(self) -> None:
        stall_after = STREAM_CHUNK_SECONDS * STALL_FACTOR
        while True:
            await self.kernel.sleep(STREAM_CHUNK_SECONDS)
            if self._needs_recovery and not self.playing and not self.finished:
                await self._recover()
                continue
            if not self.playing or self._last_chunk is None:
                continue
            gap = self.kernel.now - self._last_chunk
            if gap < stall_after:
                continue
            stalled_at = self.kernel.now
            self.emit("stall_detected", title=self.title,
                      position=round(self.position, 1))
            await self._recover()
            self.interruptions.append({
                "title": self.title, "at": stalled_at,
                "outage": self.kernel.now - stalled_at + gap,
                "recovered": self.playing,
            })


class _PollingAppManager(AppManager):
    """The crash watchdog as a poll loop: wake every 2 s, and retry a
    failed restart on each wake until a tune succeeds."""

    async def _app_watchdog(self) -> None:
        while True:
            await self.kernel.sleep(2.0)
            if (self._app_process is not None
                    and not self._app_process.alive
                    and self._app_process.exit_status != "channel change"):
                crashed = self.current_app.name if self.current_app else "?"
                self._emit("app_crashed", app=crashed)
                self.current_app = None
                self._app_process = None
                self._restart_pending = True
            if self._restart_pending:
                self._restart_pending = False
                try:
                    await self.tune(self.current_channel or "navigator")
                except Exception:  # noqa: BLE001 - the reference loop
                    self._restart_pending = True


# ---------------------------------------------------------------------------
# scenarios: each drives a booted settop that runs the VOD channel
# ---------------------------------------------------------------------------


def _pumping_mds(cluster):
    for i, host in enumerate(cluster.servers):
        proc = host.find_process("mds")
        if proc is not None and any("pump" in t.name for t in proc._tasks):
            return i
    raise AssertionError("no MDS is pumping")


def _mds_killed_mid_play(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(10.0)
    cluster.kill_service(_pumping_mds(cluster), "mds")
    cluster.run_for(40.0)
    assert vod.interruptions and vod.interruptions[-1]["recovered"]


def _seek_on_dead_movie(cluster, am):
    """The seek fails, recovery fails while every MMS keeps dying (the
    proxy gives up after 5 s here), then succeeds."""
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(5.0)
    cluster.kill_service(_pumping_mds(cluster), "mds")
    cluster.run_async(vod.seek(50.0))
    for _ in range(24):
        for i in range(len(cluster.servers)):
            cluster.kill_service(i, "mms")
        cluster.run_for(0.5)
    cluster.run_for(40.0)
    events = [e.event for e in cluster.trace.select("app.vod")]
    assert "recovery_failed" in events and "recovered" in events
    assert vod.playing


def _pause(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(5.0)
    cluster.run_async(vod.pause())
    cluster.run_for(30.0)
    cluster.run_async(vod.seek(vod.position))
    cluster.run_for(10.0)
    assert vod.playing and not vod.interruptions


def _end_of_file(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(3.0)
    cluster.run_async(vod.seek(296.0))
    cluster.run_for(15.0)
    assert vod.finished and not vod.playing
    cluster.run_async(vod.play("T2", resume=False))
    cluster.run_for(10.0)
    assert vod.playing and not vod.interruptions


def _pending_recovery_then(action):
    """Pause or stop with a recovery pending (the state a viewer's play()
    leaves when it wins the race with a failing recovery): the next tick
    re-opens the movie."""
    def scenario(cluster, am):
        vod = am.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(5.0)
        vod._needs_recovery = True
        cluster.run_async(getattr(vod, action)())
        cluster.run_for(10.0)
        assert vod.playing and not vod._needs_recovery
    return scenario


def _play_after_eof_with_recovery_pending(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(3.0)
    cluster.run_async(vod.seek(296.0))
    cluster.run_for(15.0)
    assert vod.finished
    vod._needs_recovery = True
    for i in range(len(cluster.servers)):   # the open waits out a restart
        cluster.kill_service(i, "mms")

    async def play():
        # The recovery the next tick starts races this open and closes
        # the movie it opened, so the viewer's play() fails.
        with pytest.raises(InvalidObjectReference):
            await vod.play("T2", resume=False)

    cluster.run_async(play())
    cluster.run_for(10.0)
    assert vod.playing and not vod._needs_recovery


def _segfault(cluster, am):
    am.current_app.process.kill(status="segfault")
    cluster.run_for(10.0)
    assert am.current_app is not None and am.current_app.name == "vod"
    assert [e.event for e in cluster.trace.select("am")][-2:] == [
        "app_crashed", "tuned"]


def _channel_change(cluster, am):
    cluster.run_async(am.tune(SHOPPING_CHANNEL))
    cluster.run_for(10.0)
    assert am.current_app.name == "shopping"
    assert not cluster.trace.select("am", "app_crashed")


def _crash_while_rds_down(cluster, am):
    """The restart's download waits out an RDS that keeps dying."""
    for i in range(len(cluster.servers)):
        cluster.kill_service(i, "rds")
    am.current_app.process.kill(status="segfault")
    for _ in range(20):
        for i in range(len(cluster.servers)):
            cluster.kill_service(i, "rds")
        cluster.run_for(0.5)
    cluster.run_for(30.0)
    assert am.current_app is not None and am.current_app.name == "vod"


def _crash_with_the_binary_gone(cluster, am):
    """The restart's download fails (openData raises NoSuchData) until
    the binary returns: the restart stays pending, is retried on every
    tick, and the first tick after the binary is back brings the
    application back."""
    binaries = [host.disk.read("rdsdata/apps/vod") for host in cluster.servers]
    for host in cluster.servers:
        host.disk.delete("rdsdata/apps/vod")
    am.current_app.process.kill(status="segfault")
    cluster.run_for(10.0)
    assert am.current_app is None
    restored_at = cluster.now
    for host, binary in zip(cluster.servers, binaries):
        host.disk.write("rdsdata/apps/vod", binary)
    cluster.run_for(20.0)
    assert am.current_app is not None and am.current_app.name == "vod"
    tuned = cluster.trace.select("am", "tuned")[-1]
    started = tuned.time - am.last_tune["total_time"]
    assert restored_at < started <= restored_at + APP_WATCHDOG_TICK
    assert len(cluster.trace.select("am", "app_crashed")) == 1


SHORT_REBIND = {"rebind_give_up_after": 5.0}

SCENARIOS = {
    "mds-killed-mid-play": (_mds_killed_mid_play, {}),
    "seek-on-dead-movie": (_seek_on_dead_movie, SHORT_REBIND),
    "pause": (_pause, {}),
    "end-of-file": (_end_of_file, {}),
    "pause-with-recovery-pending": (_pending_recovery_then("pause"), {}),
    "stop-with-recovery-pending": (_pending_recovery_then("stop"), {}),
    "play-after-eof-with-recovery-pending":
        (_play_after_eof_with_recovery_pending, {}),
    "segfault": (_segfault, {}),
    "channel-change": (_channel_change, {}),
    "crash-while-rds-down": (_crash_while_rds_down, {}),
    "crash-with-the-binary-gone": (_crash_with_the_binary_gone, {}),
}


def _run(scenario, overrides, polling, monkeypatch):
    with monkeypatch.context() as patch:
        if polling:
            patch.setitem(APP_CLASSES, "vod", _PollingVODApp)
            patch.setattr(app_manager_module, "AppManager", _PollingAppManager)
        params = Params().with_overrides(**overrides)
        cluster, (stk,) = booted_cluster(n_servers=2, seed=5, params=params)
        am = stk.app_manager
        cluster.run_async(am.tune(VOD_CHANNEL))
        vod = am.current_app
        assert isinstance(vod, _PollingVODApp) == polling
        assert isinstance(am, _PollingAppManager) == polling
        scenario(cluster, am)
        trace = [(e.time, e.category, e.event, e.fields)
                 for e in cluster.trace.events]
        return trace, list(vod.interruptions)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_same_trace_as_the_poll_loops(name, monkeypatch):
    scenario, overrides = SCENARIOS[name]
    ref_trace, ref_interruptions = _run(scenario, overrides, True, monkeypatch)
    trace, interruptions = _run(scenario, overrides, False, monkeypatch)
    first = next((i for i, (a, b) in enumerate(zip(trace, ref_trace))
                  if a != b), None)
    assert first is None, (first, trace[first], ref_trace[first])
    assert len(trace) == len(ref_trace)
    assert interruptions == ref_interruptions


# ---------------------------------------------------------------------------
# wake counts on a bare kernel: every timer armed is the watchdog's
# ---------------------------------------------------------------------------


def _bare_settop():
    kernel = Kernel()
    net = Network(kernel)
    host = Host(kernel, "settop-1-0", kind="settop")
    net.attach(host, settop_ip(1, 0))
    settop = SimpleNamespace(params=Params(), network=net, host=host,
                             trace=None)
    return kernel, settop


def _bare_vod(cls):
    kernel, settop = _bare_settop()
    am = SimpleNamespace(params=settop.params, settop=settop,
                         boot_params={"ns_ips": [server_ip(0)]})
    app = cls(am, settop.host.spawn("vod-app"))
    return kernel, app


def _timers(rec):
    return [name for name in rec.armed if name != "call_soon"]


@pytest.mark.parametrize("cls, expected", [(VODApp, 0),
                                           (_PollingVODApp, 601)])
def test_idle_vod_app_arms_no_watchdog_timer(cls, expected):
    kernel, app = _bare_vod(cls)
    rec = EventRecorder(kernel)
    app.process.create_task(app._watchdog(), name="vod-watchdog").detach()
    kernel.run(until=600.0)
    assert len(_timers(rec)) == expected


def test_playing_vod_app_arms_one_timer_per_stall_window():
    kernel, app = _bare_vod(VODApp)
    app.playing = True
    app._last_chunk = 0.0

    def chunk():
        app._last_chunk = kernel.now

    for k in range(600):            # armed before the recorder sees them
        kernel.call_at(k * STREAM_CHUNK_SECONDS + 0.25, chunk)
    rec = EventRecorder(kernel)
    app.process.create_task(app._watchdog(), name="vod-watchdog").detach()
    kernel.run(until=600.0)
    window = STREAM_CHUNK_SECONDS * STALL_FACTOR
    # Armed at 0 and then at every third tick: 3, 6, ... 600.
    assert 0 < len(_timers(rec)) <= 600.0 / window + 1
    assert app.playing and not app.interruptions


def test_app_manager_watchdog_arms_nothing_while_its_app_lives():
    kernel, settop = _bare_settop()
    am = AppManager(settop, settop.host.spawn("appmgr"),
                    {"ns_ips": [server_ip(0)]})
    tunes = []

    async def tune(channel):
        tunes.append((kernel.now, channel))
        am._app_process = settop.host.spawn("vod-app", parent=am.process)
        am._app_process.on_exit(am._poke)

    am.tune = tune
    am.current_channel = VOD_CHANNEL
    kernel.run_until_complete(tune(VOD_CHANNEL))
    rec = EventRecorder(kernel)
    am.process.create_task(am._app_watchdog(), name="am-watchdog").detach()
    kernel.run(until=600.3)
    assert _timers(rec) == []
    am._app_process.kill(status="channel change")   # not a crash
    am._app_process = settop.host.spawn("vod-app", parent=am.process)
    am._app_process.on_exit(am._poke)
    kernel.run(until=700.3)
    assert _timers(rec) == [] and len(tunes) == 1
    am._app_process.kill(status="segfault")
    kernel.run(until=1300.0)
    # One timer, to the 2 s grid tick after the crash; the restarted
    # application lives, so nothing more.
    assert _timers(rec) == ["call_at"]
    assert tunes[1:] == [(702.0, VOD_CHANNEL)]


# ---------------------------------------------------------------------------
# a cancelled channel change is not swallowed by the outgoing app's cleanup
# ---------------------------------------------------------------------------


class _BlockedApp:
    """An outgoing application whose shutdown never finishes."""

    name = "navigator"

    def __init__(self, kernel):
        self.never = kernel.create_future()

    async def shutdown(self):
        await self.never


@pytest.mark.parametrize("outgoing", ["app", "game"])
def test_a_cancelled_tune_propagates_out_of_shutdown(outgoing):
    kernel, settop = _bare_settop()
    am = AppManager(settop, settop.host.spawn("appmgr"),
                    {"ns_ips": [server_ip(0)], "neighborhood": 1})
    blob = SimpleNamespace(size=1)

    async def open_data(*_args, **_kwargs):
        return blob

    am.rds = SimpleNamespace(call=open_data)
    am._app_process = settop.host.spawn("old-app", parent=am.process)
    if outgoing == "game":
        app = GameApp(am, am._app_process)
        never = kernel.create_future()

        async def call(*_args, **_kwargs):
            await never

        app.game = SimpleNamespace(call=call)   # leave() blocks
    else:
        app = _BlockedApp(kernel)
    am.current_app = app
    task = am.process.create_task(am.tune("vod"), name="tune")
    kernel.run(until=1.0)
    assert not task.done()
    task.cancel()
    kernel.run(until=2.0)
    assert task.cancelled()
    assert am.current_app is app and am._app_process.alive
