"""The settop VOD application (Figure 4 client side, sections 3.5.2,
10.1.1).

Opens movies through the MMS, receives the CBR stream on a private data
port, and keeps its own play position so that "if either the settop or
the service fails, the other can supply the information needed to start
the MDS at the point where the movie stopped".

Failure recovery is the paper's own recipe: "If the MDS ... crashes
while the settop is playing a movie, the application detects the failure
when it stops receiving data.  The application recovers by closing the
original movie and then asking MMS to open the movie again."
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.params import INTERACTIVE_DEADLINE, STREAM_CHUNK_SECONDS
from repro.ocs import Message
from repro.ocs.exceptions import (
    DeadlineExceeded,
    OCSError,
    Overloaded,
    ServiceUnavailable,
)
from repro.ocs.objref import ObjectRef
from repro.services.mms import MovieUnavailable
from repro.settop.apps.base import SettopApp

STALL_FACTOR = 3.0      # chunks missed before declaring the stream dead


def _synced(slot: str) -> property:
    """A VODApp attribute that segment chunks move as they arrive: every
    read or write first applies those arrived by now (VODApp._sync)."""
    def get(app):
        app._sync()
        return getattr(app, slot)

    def put(app, value) -> None:
        app._sync()
        setattr(app, slot, value)
    return property(get, put)


class VODApp(SettopApp):
    name = "vod"
    position = _synced("_position")
    chunks_received = _synced("_chunks")
    _last_chunk = _synced("_arrived_at")

    def __init__(self, am, process):
        super().__init__(am, process)
        self.mms = None
        self.vod = None
        self.movie: Optional[ObjectRef] = None
        self.title: Optional[str] = None
        # [segment, next chunk, its send instant, its position]
        self._streams: List[list] = []
        self._position = 0.0
        self.playing = False
        self.finished = False
        self._arrived_at: Optional[float] = None     # _last_chunk
        self.data_port = self.runtime.network.allocate_port()
        self.interruptions: List[dict] = []
        self._chunks = 0
        self._needs_recovery = False
        self._wake = None       # what the watchdog sleeps on; see _poke

    async def start(self) -> None:
        self.mms = self.proxy("svc/mms")
        self.vod = self.proxy("svc/vod")
        self.am.settop.network.bind_port(self.host.ip, self.data_port,
                                         self._on_chunk)
        self.process.on_exit(
            lambda _p: self.am.settop.network.unbind_port(self.host.ip,
                                                          self.data_port))
        self.process.create_task(self._watchdog(), name="vod-watchdog").detach()
        self.process.create_task(self._position_reporter(), name="vod-pos").detach()

    # -- viewer operations -----------------------------------------------

    async def play(self, title: str, resume: bool = True) -> str:
        """Open and start a movie (Figure 4 steps 1-8).

        Returns ``"playing"``, or ``"degraded"`` when the delivery path
        is shedding load: rather than erroring the session, the app
        fetches the VOD service's (possibly low-bitrate) catalog answer
        so the viewer keeps a browsable screen and can retry shortly.
        """
        if self.movie is not None:
            await self.stop()
        # Viewer patience for the whole open sequence: past this the
        # app degrades instead of letting the proxy retry for a minute.
        budget = self.kernel.now + INTERACTIVE_DEADLINE
        start_at = 0.0
        if resume:
            try:
                start_at = await self.vod.call("getBookmark", title,
                                               deadline=budget)
            except (ServiceUnavailable, OCSError):
                start_at = self.position if self.title == title else 0.0
        self._sync()    # chunks that arrived so far judged by the old title
        self.title = title
        self.position = start_at
        self.finished = False
        self._poke()
        try:
            await self._open_and_play(start_at, deadline=budget)
        except (Overloaded, DeadlineExceeded):
            try:
                answer = await self.vod.call("catalog")
            except (ServiceUnavailable, OCSError):
                answer = {"titles": [], "degraded": True}
            self.emit("degraded", title=title,
                      titles=len(answer.get("titles") or []))
            return "degraded"
        return "playing"

    async def _open_and_play(self, from_position: float,
                             deadline: Optional[float] = None) -> None:
        # No deadline on the recovery path: a stalled stream is worth
        # waiting out a fail-over for (section 3.5.2), unlike a fresh
        # viewer-facing open.
        movie = await self.mms.call("open", self.title, self.data_port,
                                    deadline=deadline)
        await self.runtime.invoke(movie, "playFrom", (from_position,),
                                  timeout=self.params.call_timeout,
                                  deadline=deadline)
        self.movie = movie
        self.playing = True
        self._last_chunk = self.kernel.now
        self._poke()
        self.emit("playing", title=self.title, position=from_position)

    async def seek(self, position: float) -> None:
        """VCR-style jump (the paper's "few seconds required for VCR
        operations" expectation): restart the stream at ``position``."""
        if self.movie is None:
            return
        self.position = max(0.0, position)
        try:
            await self.runtime.invoke(self.movie, "playFrom",
                                      (self.position,),
                                      timeout=self.params.call_timeout)
            self.playing = True
            self._last_chunk = self.kernel.now
            self.emit("seek", title=self.title, position=self.position)
        except (ServiceUnavailable, OCSError):
            # The movie object died under us; the watchdog path recovers.
            self._needs_recovery = True
            self.playing = False
        self._poke()

    async def pause(self) -> None:
        if self.movie is None:
            return
        self.playing = False
        self._poke()
        try:
            await self.runtime.invoke(self.movie, "pause", (),
                                      timeout=self.params.call_timeout)
        except (ServiceUnavailable, OCSError):
            pass
        await self._report_position()

    async def stop(self) -> None:
        """Close the movie (section 3.4.5): lets the MMS reclaim resources."""
        if self.movie is None:
            return
        movie, self.movie = self.movie, None
        self.playing = False
        self._poke()
        try:
            await self.mms.call("close", movie)
        except (ServiceUnavailable, OCSError):
            pass
        await self._report_position()
        self.emit("stopped", title=self.title, position=round(self.position, 1))

    async def shutdown(self) -> None:
        await self.stop()

    # -- stream handling -----------------------------------------------------

    def _on_chunk(self, msg: Message) -> None:
        payload = msg.payload
        segment = payload.get("segment")
        if segment is not None and segment.lazy > 1:
            # Later chunks arrive on the clock (_sync); a cut pokes.
            self._streams.append([segment, 1,
                                  segment.start + payload["span"],
                                  segment.pos + payload["span"]])
            segment.watchers.append(self._poke)
        if payload.get("title") != self.title:
            return
        self._last_chunk = self.kernel.now
        self.chunks_received += 1
        if payload.get("eof"):
            self.playing = False
            self.finished = True
            self.emit("finished", title=self.title)
            self.process.create_task(self._finish(), name="vod-finish").detach()
            return
        self.position = payload["position"] + payload["span"]

    def _sync(self) -> None:
        """Apply every registered segment chunk that has arrived by now,
        in arrival order, as :meth:`_on_chunk` would have.  A segment
        runs until another's next chunk is due (with one, the common
        case, that is one walk); the title cannot change between calls
        (play() syncs first), so one check covers a walk's chunks."""
        now = self.kernel.now
        streams = self._streams
        while streams:
            entry = min(streams, key=lambda e: e[2] + e[0].delay)
            seg, i, s, p = entry
            upto = min([now] + [e[2] + e[0].delay for e in streams
                                if e is not entry])
            n = 0
            while i < seg.lazy and s + seg.delay <= upto:
                arrived, span = s + seg.delay, min(seg.chunk, seg.duration - p)
                s, p, i, n = s + span, p + span, i + 1, n + 1
            if i >= seg.lazy:
                streams.remove(entry)
            elif not n:
                return
            entry[1:] = i, s, p
            if n and seg.title == self.title:
                self._arrived_at, self._position = arrived, p
                self._chunks += n

    async def _finish(self) -> None:
        await self.stop()
        try:
            await self.vod.call("clearBookmark", self.title)
        except (ServiceUnavailable, OCSError):
            pass

    async def _watchdog(self) -> None:
        """Detect stream stalls and re-open through the MMS (section 3.5.2).

        The check runs on a grid of chunk ticks (advanced by addition, as
        a ``sleep`` loop would), but the task sleeps to the first tick at
        which it could act; :meth:`_poke` wakes it to plan again.
        """
        step = STREAM_CHUNK_SECONDS
        stall_after = step * STALL_FACTOR
        while True:
            due = self.kernel.now + step    # the grid restarts at a check
            while True:
                if self._needs_recovery and not self.playing and not self.finished:
                    self._wake = self.kernel.sleep_until(due)
                elif self.playing and self._last_chunk is not None:
                    # Arrivals only delay it; segments promise theirs
                    # (a cut, breaking that, pokes).
                    tick, last = due, max([self._last_chunk] + [
                        entry[0].last_arrival for entry in self._streams
                        if entry[0].title == self.title])
                    while tick - last < stall_after:
                        tick += step
                    self._wake = self.kernel.sleep_until(tick)
                else:
                    self._wake = self.kernel.create_future()
                await self._wake
                while due < self.kernel.now:
                    due += step
                if due == self.kernel.now:
                    break       # else poked between ticks: plan again
            if self._needs_recovery and not self.playing and not self.finished:
                # An earlier recovery attempt failed (e.g. the replacement
                # replica had not failed over yet); keep trying.
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

    def _poke(self) -> None:
        """``playing``, ``finished`` or ``_needs_recovery`` changed."""
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def _recover(self) -> None:
        movie, self.movie = self.movie, None
        self.playing = False
        if movie is not None:
            try:
                await self.mms.call("close", movie)
            except (ServiceUnavailable, OCSError):
                pass
        try:
            await self._open_and_play(self.position)
            self._needs_recovery = False
            self.emit("recovered", title=self.title,
                      position=round(self.position, 1))
        except (MovieUnavailable, ServiceUnavailable, OCSError) as err:
            self._needs_recovery = True
            self.emit("recovery_failed", title=self.title, error=str(err))

    async def _position_reporter(self) -> None:
        """Keep the VOD service's copy of the position fresh (10.1.1)."""
        while True:
            await self.kernel.sleep(10.0)
            if self.playing:
                await self._report_position()

    async def _report_position(self) -> None:
        if self.title is None or self.finished:
            return
        try:
            await self.vod.call("reportPosition", self.title, self.position)
        except (ServiceUnavailable, OCSError):
            pass
