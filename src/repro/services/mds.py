"""Media Delivery Service: "delivers constant bit rate data (e.g. MPEG
video) to settops" (Figure 2, section 3.4.4).

One replica per server, bound under its server name (Figure 4 resolves
``svc/mds/forge``).  The MDS is one of the two services that create
objects dynamically (section 9.2): every ``open`` mints a movie object
that lives until closed or until its process dies, when the MMS's audit
machinery reclaims it.

Streaming: the movie object streams chunks of ``STREAM_CHUNK_SECONDS``
over the ATM circuit the Connection Manager reserved.  Each send instant
sends one ``Network.send_stream`` segment: the rest of the movie while
nothing on the path can change, else one chunk; a segment the network or
a transport operation cuts ends early, and the next starts on the same
chunk grid.  The settop application detects delivery failure as a chunk
gap (section 3.5.2: "the application detects the failure when it stops
receiving data").

"The Media Delivery Service likewise waits for clients to call in to
restart the movie they were viewing at the time of failure" (section
10.1.1) -- the MDS keeps no durable open-movie state; clients reopen.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.params import STREAM_CHUNK_SECONDS
from repro.idl import register_exception, register_interface
from repro.ocs import Message, Segment
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("MDS", {
    "open": ("title", "settop_ip", "conn_id", "data_port"),
    "listTitles": (),
    "load": (),
    "listOpen": (),
    # open() commits a disk stream and mints a Movie object: dedup'd.
}, doc="Media Delivery Service (Figure 2)",
   idempotent=("listTitles", "load", "listOpen"))

register_interface("Movie", {
    # play/pause/playFrom set absolute transport state (playing, paused,
    # at position X); re-executing a retry lands the same state.  close
    # releases the stream budget exactly once, so it stays dedup'd.
    "play": (),
    "playFrom": ("position",),
    "pause": (),
    "position": (),
    "info": (),
    "close": (),
}, doc="One open movie stream (section 3.4.4)",
   idempotent=("play", "playFrom", "pause", "position", "info"))


@register_exception
class NoSuchTitle(Exception):
    """The requested movie is not on this server's disks."""


@register_exception
class DiskStreamsExhausted(Exception):
    """This MDS replica's disk-stream budget is fully committed."""


MOVIE_DISK_PREFIX = "movies/"


def seed_movie(disk, title: str, duration: float, bitrate: float) -> None:
    """Place a movie file on a server disk (content distribution)."""
    disk.write(MOVIE_DISK_PREFIX + title,
               {"duration": duration, "bitrate": bitrate})


class MediaDeliveryService(Service):
    service_name = "mds"
    ADMISSION_CONTROLLED = True

    def __init__(self, env, process):
        super().__init__(env, process)
        self._open: Dict[str, "MovieServant"] = {}
        self._movie_counter = 0

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "MDS")
        await self.register_objects([self.ref])
        await self.bind_as_replica("mds", self.host.name, self.ref,
                                   selector="first")

    # -- catalog ------------------------------------------------------------

    def listTitles(self, ctx: CallContext) -> List[str]:
        prefix = MOVIE_DISK_PREFIX
        return [k[len(prefix):] for k in self.host.disk.keys(prefix)]

    def movie_info(self, title: str) -> dict:
        info = self.host.disk.read(MOVIE_DISK_PREFIX + title)
        if info is None:
            raise NoSuchTitle(title)
        return info

    # -- movie objects --------------------------------------------------------

    def open(self, ctx: CallContext, title: str, settop_ip: str,
             conn_id: str, data_port: int) -> ObjectRef:
        info = self.movie_info(title)
        if len(self._open) >= self.params.mds_disk_streams:
            raise DiskStreamsExhausted(
                f"{self.host.name}: {len(self._open)} streams open")
        self._movie_counter += 1
        object_id = f"movie:{self._movie_counter}"
        servant = MovieServant(self, object_id, title, info, settop_ip,
                               conn_id, data_port)
        ref = self.runtime.export(servant, "Movie", object_id=object_id)
        servant.ref = ref
        self._open[object_id] = servant
        self.emit("movie_opened", title=title, settop=settop_ip)
        return ref

    def close_movie(self, object_id: str) -> None:
        servant = self._open.pop(object_id, None)
        if servant is not None:
            servant.halt()
            self.runtime.unexport(object_id)
            self.emit("movie_closed", title=servant.title,
                      settop=servant.settop_ip)

    def load(self, ctx: CallContext) -> dict:
        return {"open_streams": len(self._open),
                "capacity": self.params.mds_disk_streams,
                "host": self.host.name}

    def listOpen(self, ctx: CallContext) -> List[dict]:
        return [{"movie": s.ref, "title": s.title, "settop_ip": s.settop_ip,
                 "conn_id": s.conn_id}
                for s in self._open.values()]


class MovieServant:
    """One open movie: position tracking + the segment pump (per-object
    state, so a servant of its own beside the self-exporting MDS)."""

    def __init__(self, mds: MediaDeliveryService, object_id: str, title: str,
                 info: dict, settop_ip: str, conn_id: str, data_port: int):
        self.mds = mds
        self.object_id = object_id
        self.title = title
        self.duration = info["duration"]
        self.bitrate = info["bitrate"]
        self.settop_ip = settop_ip
        self.conn_id = conn_id
        self.data_port = data_port
        self.ref: Optional[ObjectRef] = None
        self.state = "open"        # open | playing | paused | done
        self._pos = 0.0            # where the next segment starts
        self._segment: Optional[Segment] = None
        self._pump = None
        self._wake = None          # the pump's sleep

    @property
    def pos(self) -> float:
        """The position after every chunk sent so far."""
        seg = self._segment
        return self._pos if seg is None else seg.sent_by(self.mds.kernel.now)

    # -- IDL operations --------------------------------------------------

    async def play(self, ctx: CallContext):
        self._start_pump()

    async def playFrom(self, ctx: CallContext, position: float):
        self._end_segment()
        self._pos = max(0.0, min(float(position), self.duration))
        self._start_pump()

    async def pause(self, ctx: CallContext):
        self.state = "paused"
        self._stop_pump()

    async def position(self, ctx: CallContext):
        return self.pos

    async def info(self, ctx: CallContext):
        return {"title": self.title, "duration": self.duration,
                "bitrate": self.bitrate, "state": self.state,
                "position": self.pos}

    async def close(self, ctx: CallContext):
        self.mds.close_movie(self.object_id)

    # -- the pump -----------------------------------------------------------

    def _start_pump(self) -> None:
        self.state = "playing"
        if self._pump is None or self._pump.done():
            self._pump = self.mds.process.create_task(
                self._pump_loop(), name=f"pump-{self.title}")

    def _stop_pump(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            self._pump = None

    def halt(self) -> None:
        self.state = "done"
        self._stop_pump()

    def _end_segment(self) -> None:
        """Cut the segment now (a no-op once its chunks are sent and
        arrived); the next starts at its first unsent chunk."""
        seg, self._segment = self._segment, None
        if seg is not None:
            self.mds.env.network.cut_stream(seg)
            self._pos = seg.end_pos

    def _wake_pump(self) -> None:
        if not self._wake.done():   # a cut moved the segment's end
            self._wake.set_result(None)

    async def _pump_loop(self) -> None:
        kernel = self.mds.kernel
        try:
            while self.state == "playing" and self._pos < self.duration:
                seg = self._segment = self.mds.env.network.send_stream(
                    Segment((self.mds.host.ip, self.mds.runtime.port),
                            (self.settop_ip, self.data_port), "mds.stream",
                            self.conn_id, self.title, self.bitrate,
                            self.duration, STREAM_CHUNK_SECONDS, kernel.now,
                            self._pos))
                seg.watchers.append(self._wake_pump)
                while kernel.now < seg.end:     # a cut moves the end
                    self._wake = kernel.sleep_until(seg.end)
                    await self._wake
                self._end_segment()     # unless playFrom ended it
        finally:
            self._end_segment()     # paused, closed or killed
        if self.state == "playing":
            self.state = "done"
            msg = Message(
                src=(self.mds.host.ip, self.mds.runtime.port),
                dst=(self.settop_ip, self.data_port), kind="mds.stream",
                payload={"title": self.title, "position": self._pos,
                         "span": 0.0, "eof": True},
                payload_bytes=64)
            self.mds.env.network.send_reserved(msg, self.conn_id)
