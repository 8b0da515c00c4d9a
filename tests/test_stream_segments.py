"""A playing movie is one segment datagram, not one datagram per chunk.

``MovieServant`` sends the rest of a movie as one ``Network.send_stream``
segment while nothing on its path can change, and ``VODApp`` reads the
segment's later chunks off the clock (``_sync``).  Each chunk must still
leave, arrive and move the settop exactly as a per-chunk stream does.

The oracle is the per-chunk stream itself: ``_PerChunkMovieServant`` and
``_PerChunkVODApp`` below keep the pump and the receiver as they were
(one datagram per ``STREAM_CHUNK_SECONDS``, one kernel event per chunk).
Each scenario drives one settop through the cluster twice, once with
each pair, and compares the whole cluster trace, the VOD app's
``interruptions`` and ``(now, position, _last_chunk, chunks_received)``
at every position report and stall detection.
"""

import random

import pytest

from repro.core.params import STREAM_CHUNK_SECONDS, Params
from repro.net import server_ip
from repro.ocs import Message, Segment
from repro.services import mds as mds_module
from repro.settop.apps import APP_CLASSES
from repro.settop.apps.vod import VODApp
from repro.sim import Host
from tests.helpers import booted_cluster
from tests.test_settop_watchdogs import SCENARIOS as WATCHDOG_SCENARIOS
from tests.test_settop_watchdogs import SHORT_REBIND, VOD_CHANNEL, _bare_vod


class _PerChunkMovieServant:
    """The movie object as it was: the pump sends one chunk per wake."""

    def __init__(self, mds, object_id, title, info, settop_ip, conn_id,
                 data_port):
        self.mds = mds
        self.object_id = object_id
        self.title = title
        self.duration = info["duration"]
        self.bitrate = info["bitrate"]
        self.settop_ip = settop_ip
        self.conn_id = conn_id
        self.data_port = data_port
        self.ref = None
        self.state = "open"
        self.pos = 0.0
        self._pump = None

    async def play(self, ctx):
        self._start_pump()

    async def playFrom(self, ctx, position):
        self.pos = max(0.0, min(float(position), self.duration))
        self._start_pump()

    async def pause(self, ctx):
        self.state = "paused"
        self._stop_pump()

    async def position(self, ctx):
        return self.pos

    async def info(self, ctx):
        return {"title": self.title, "duration": self.duration,
                "bitrate": self.bitrate, "state": self.state,
                "position": self.pos}

    async def close(self, ctx):
        self.mds.close_movie(self.object_id)

    def _start_pump(self):
        self.state = "playing"
        if self._pump is None or self._pump.done():
            self._pump = self.mds.process.create_task(
                self._pump_loop(), name=f"pump-{self.title}")

    def _stop_pump(self):
        if self._pump is not None:
            self._pump.cancel()
            self._pump = None

    def halt(self):
        self.state = "done"
        self._stop_pump()

    async def _pump_loop(self):
        kernel = self.mds.kernel
        while self.state == "playing" and self.pos < self.duration:
            span = min(STREAM_CHUNK_SECONDS, self.duration - self.pos)
            msg = Message(
                src=(self.mds.host.ip, self.mds.runtime.port),
                dst=(self.settop_ip, self.data_port),
                kind="mds.stream",
                payload={"title": self.title, "position": self.pos,
                         "span": span, "eof": False},
                payload_bytes=int(self.bitrate * span / 8))
            self.mds.env.network.send_reserved(msg, self.conn_id)
            self.pos += span
            await kernel.sleep(span)
        if self.state == "playing":
            self.state = "done"
            msg = Message(
                src=(self.mds.host.ip, self.mds.runtime.port),
                dst=(self.settop_ip, self.data_port), kind="mds.stream",
                payload={"title": self.title, "position": self.pos,
                         "span": 0.0, "eof": True},
                payload_bytes=64)
            self.mds.env.network.send_reserved(msg, self.conn_id)


class _Probed(VODApp):
    """Records what a viewer could read at every position report and
    stall detection."""

    def _probe(self, what):
        self.probes.append((what, self.kernel.now, self.position,
                            self._last_chunk, self.chunks_received))

    async def _report_position(self):
        self._probe("report")
        await super()._report_position()

    def emit(self, event, **fields):
        if event == "stall_detected":
            self._probe(event)
        super().emit(event, **fields)


class _SegmentVODApp(_Probed):
    pass


class _PerChunkVODApp(_Probed):
    """The receiver as it was: one chunk per datagram.  It registers no
    segment, so its watchdog plans from the last chunk that arrived."""

    def _on_chunk(self, msg):
        payload = msg.payload
        if payload.get("title") != self.title:
            return
        self._last_chunk = self.kernel.now
        self.chunks_received += 1
        if payload.get("eof"):
            self.playing = False
            self.finished = True
            self.emit("finished", title=self.title)
            self.process.create_task(self._finish(),
                                     name="vod-finish").detach()
            return
        self.position = payload["position"] + payload["span"]


# ---------------------------------------------------------------------------
# scenarios beyond the watchdog ones
# ---------------------------------------------------------------------------


def _open_movies(cluster):
    """``(server index, servant)`` for every open movie object."""
    for i, host in enumerate(cluster.servers):
        proc = host.find_process("mds")
        runtime = proc.attachments.get("ocs") if proc is not None else None
        for export in (runtime._exports.values() if runtime else ()):
            if hasattr(export.servant, "conn_id"):
                yield i, export.servant


def _serving_server(cluster, vod):
    """The server whose MDS streams the settop's movie, and the servant."""
    for i, servant in _open_movies(cluster):
        if (servant.data_port == vod.data_port
                and servant.state == "playing"):
            return i, servant
    raise AssertionError("no MDS streams to this settop")


def _just_after_a_send(cluster, vod, skew=0.002):
    """Run to ``skew`` seconds after the next chunk's send instant: that
    chunk is then in flight (the settop link's latency is 5 ms)."""
    latency = cluster.net.downlink_of(vod.host.ip).latency
    due = vod._last_chunk - latency + STREAM_CHUNK_SECONDS + skew
    cluster.run_for(due - cluster.now)


def _fault(arm, heal, target="settop"):
    def scenario(cluster, am):
        vod = am.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(10.0)
        server, _ = _serving_server(cluster, vod)
        ip = vod.host.ip if target == "settop" else cluster.servers[server].ip
        _just_after_a_send(cluster, vod)
        arm(cluster, ip)
        cluster.run_for(7.3)
        heal(cluster, ip)
        cluster.run_for(25.0)
        assert vod.chunks_received > 20
    return scenario


def _rng():
    return random.Random(11)


FAULTS = {
    "loss": (lambda c, ip: c.net.set_loss(ip, 0.6, _rng()),
             lambda c, ip: c.net.set_loss(ip, 0.0, None)),
    "delay": (lambda c, ip: c.net.set_delay(ip, 4.0),
              lambda c, ip: c.net.set_delay(ip, 0.0)),
    "duplicate": (lambda c, ip: c.net.set_duplicate(ip, 0.5, _rng()),
                  lambda c, ip: c.net.set_duplicate(ip, 0.0, None)),
    "reorder": (lambda c, ip: c.net.set_reorder(ip, 0.7, 1.5, _rng()),
                lambda c, ip: c.net.set_reorder(ip, 0.0, 1.0, None)),
    "corrupt": (lambda c, ip: c.net.set_corrupt(ip, 0.5, _rng()),
                lambda c, ip: c.net.set_corrupt(ip, 0.0, None)),
    "partition": (lambda c, ip: c.net.partition(
                      {ip}, {host.ip for host in c.servers}),
                  lambda c, ip: c.net.heal_partitions()),
}


def _circuit_released(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(10.0)
    _, servant = _serving_server(cluster, vod)
    _just_after_a_send(cluster, vod)
    assert cluster.net.downlink_of(vod.host.ip).release(servant.conn_id)
    cluster.run_for(30.0)
    assert vod.interruptions and vod.interruptions[-1]["recovered"]


def _killed_in_flight(crash):
    def scenario(cluster, am):
        vod = am.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(10.0)
        server, _ = _serving_server(cluster, vod)
        _just_after_a_send(cluster, vod)
        chunks = vod.chunks_received
        if crash:
            cluster.crash_server(server)
        else:
            cluster.kill_service(server, "mds")
        cluster.run_for(0.01)
        assert vod.chunks_received == chunks + 1    # the one in flight
        cluster.run_for(40.0)
        assert cluster.trace.select("app.vod", "stall_detected")
    return scenario


def _transport(cluster, am):
    """Pause, seek while paused, playFrom while playing, stop, replay."""
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(5.7)
    cluster.run_async(vod.pause())
    cluster.run_for(4.0)
    cluster.run_async(vod.seek(40.0))
    cluster.run_for(6.3)
    cluster.run_async(vod.seek(120.0))       # playFrom while playing
    cluster.run_for(12.0)
    cluster.run_async(vod.seek(vod.position - 30.0))
    cluster.run_for(3.5)
    cluster.run_async(vod.stop())
    cluster.run_for(5.0)
    cluster.run_async(vod.play("T2"))
    cluster.run_for(15.0)
    assert vod.playing and not vod.interruptions


def _reopen_while_old_stream_runs(cluster, am):
    """play() again with every MMS down: the old movie's close fails, so
    its stream still runs until the re-open supersedes it."""
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(8.0)

    async def replay():
        await vod.play("T2", resume=False)

    cluster.kernel.create_task(replay(), name="replay").detach()
    for _ in range(400):
        if cluster.trace.select("app.vod", "stopped"):
            break
        for i in range(len(cluster.servers)):
            cluster.kill_service(i, "mms")
        cluster.run_for(0.05)
    cluster.run_for(20.0)
    assert cluster.trace.select("mms", "superseded")
    assert vod.playing


def _whole_movie(cluster, am):
    """Play to end of file twice, on two grids: hundreds of chunk
    instants, each a float addition away from the one before."""
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(310.0)
    assert vod.finished
    cluster.run_for(0.37)
    cluster.run_async(vod.play("T2", resume=False))
    cluster.run_for(310.0)
    assert vod.finished and not vod.interruptions


def _hb_traced(cluster, am):
    vod = am.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(12.0)
    cluster.kill_service(_serving_server(cluster, vod)[0], "mds")
    cluster.run_for(30.0)
    assert vod.interruptions


SCENARIOS = dict(WATCHDOG_SCENARIOS)
SCENARIOS.update({f"{name}-armed-and-healed": (_fault(arm, heal), {})
                  for name, (arm, heal) in FAULTS.items()})
SCENARIOS.update({
    "gray-armed-and-healed": (_fault(lambda c, ip: c.net.set_gray(ip, 2.5),
                                     lambda c, ip: c.net.set_gray(ip, 0.0),
                                     target="server"), {}),
    "circuit-released": (_circuit_released, {}),
    "mds-killed-in-flight": (_killed_in_flight(crash=False), {}),
    "server-crashed-in-flight": (_killed_in_flight(crash=True), {}),
    "transport": (_transport, {}),
    "whole-movie": (_whole_movie, {}),
    "reopen-while-old-stream-runs": (_reopen_while_old_stream_runs,
                                     SHORT_REBIND),
    "hb-traced": (_hb_traced, {"hb_trace": True}),
})


def _run(scenario, overrides, per_chunk, monkeypatch):
    with monkeypatch.context() as patch:
        if per_chunk:
            patch.setattr(mds_module, "MovieServant", _PerChunkMovieServant)
        patch.setitem(APP_CLASSES, "vod",
                      _PerChunkVODApp if per_chunk else _SegmentVODApp)
        params = Params().with_overrides(**overrides)
        cluster, (stk,) = booted_cluster(n_servers=2, seed=5, params=params)
        am = stk.app_manager
        cluster.run_async(am.tune(VOD_CHANNEL))
        vod = am.current_app
        vod.probes = []
        scenario(cluster, am)
        trace = [(e.time, e.category, e.event, e.fields)
                 for e in cluster.trace.events]
        sent = cluster.net.sent_by_kind.get("mds.stream", 0)
        return trace, list(vod.interruptions), vod.probes, sent


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_same_stream_as_per_chunk_delivery(name, monkeypatch):
    scenario, overrides = SCENARIOS[name]
    ref_trace, ref_interruptions, ref_probes, _ = _run(
        scenario, overrides, True, monkeypatch)
    trace, interruptions, probes, _ = _run(
        scenario, overrides, False, monkeypatch)
    first = next((i for i, (a, b) in enumerate(zip(trace, ref_trace))
                  if a != b), None)
    assert first is None, (first, trace[first], ref_trace[first])
    assert len(trace) == len(ref_trace)
    assert interruptions == ref_interruptions
    assert probes == ref_probes


def test_a_fault_free_play_is_one_segment_and_eof(monkeypatch):
    def play_to_the_end(cluster, am):
        vod = am.current_app
        cluster.run_async(vod.play("T2"))
        cluster.run_for(320.0)
        assert vod.finished and vod.chunks_received >= 300

    _, _, _, sent = _run(play_to_the_end, {}, False, monkeypatch)
    assert sent <= 2
    _, _, _, ref_sent = _run(play_to_the_end, {}, True, monkeypatch)
    assert ref_sent >= 300


def test_live_segments_apply_in_arrival_order():
    """Two streams of one title interleave chunk by chunk, as two
    per-chunk streams would; a cut stream stops at its cut."""
    kernel, app = _bare_vod(VODApp)
    app.title = "T"
    net = app.am.settop.network
    ip = app.host.ip
    downlink = net.downlink_of(ip)
    downlink.reserve("a", 1.0)
    downlink.reserve("b", 1.0)
    server = Host(kernel, "server-0", kind="server")
    net.attach(server, server_ip(0))
    net.bind_port(ip, app.data_port, app._on_chunk)
    streams = []

    def send(key, pos):
        streams.append(net.send_stream(Segment(
            (server.ip, 1), (ip, app.data_port), "mds.stream", key, "T",
            8.0, 10.0, STREAM_CHUNK_SECONDS, kernel.now, pos)))

    kernel.call_at(0.25, send, "a", 0.0)
    kernel.call_at(0.75, send, "b", 5.5)
    kernel.call_at(6.9, lambda: downlink.release("a"))
    seen = []
    for k in range(1, 50):
        kernel.run(until=k * 0.25)
        seen.append((app.chunks_received, app.position, app._last_chunk))
    a_arrivals = [0.25 + i + 0.005 for i in range(7)]    # cut at 6.9
    b_arrivals = [0.75 + i + 0.005 for i in range(5)]    # 5.5 .. 10.0
    expected = []
    for k in range(1, 50):
        now = k * 0.25
        got = sorted([(t, 0.0 + i + 1.0) for i, t in enumerate(a_arrivals)
                      if t <= now]
                     + [(t, min(5.5 + i + 1.0, 10.0))
                        for i, t in enumerate(b_arrivals) if t <= now])
        expected.append((len(got), got[-1][1] if got else 0.0,
                         got[-1][0] if got else None))
    assert [(n, p) for n, p, _ in seen] == [(n, p) for n, p, _ in expected]
    assert all(t is None or t == pytest.approx(u)
               for (_, _, t), (_, _, u) in zip(seen, expected))
    assert net.sent_by_kind["mds.stream"] == 2
    assert streams[0].count == 7 and streams[0].end == 7.25


def test_chunk_instants_are_the_pumps_own_additions():
    """From this start, ``s_0 + i * chunk`` drifts from the pump's
    repeated additions by chunk 7: the segment must follow the additions."""
    kernel, app = _bare_vod(VODApp)
    app.title = "T"
    net = app.am.settop.network
    ip = app.host.ip
    net.downlink_of(ip).reserve("a", 1.0)
    server = Host(kernel, "server-0", kind="server")
    net.attach(server, server_ip(0))
    net.bind_port(ip, app.data_port, app._on_chunk)
    start = 1.8295834679570706
    sent = []
    kernel.call_at(start, lambda: sent.append(net.send_stream(Segment(
        (server.ip, 1), (ip, app.data_port), "mds.stream", "a", "T", 8.0,
        20.0, STREAM_CHUNK_SECONDS, kernel.now, 0.0))))
    latency = net.downlink_of(ip).latency
    s, drifted = start, False
    for i in range(20):
        kernel.run(until=s + latency)
        assert app._last_chunk == s + latency
        assert app.chunks_received == i + 1
        drifted = drifted or s != start + i * STREAM_CHUNK_SECONDS
        s += STREAM_CHUNK_SECONDS
    assert drifted and sent[0].end == s
