"""Video-on-Demand service: the server portion of the VOD application.

Section 10.1.1: "The Video on Demand service, which is one of the
applications that can request the MDS to play movies, maintains
information about the current point in movie play both in the settop and
in its own service.  If either the settop or the service fails, the
other can supply the information needed to start the MDS at the point
where the movie stopped."

The settop VOD application opens movies through the MMS directly
(Figure 4); this service keeps the resume bookmarks, persisted through
the database so they also survive VOD service failures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.params import MOVIE_BITRATE_BPS
from repro.core.rebind import RebindingProxy
from repro.idl import register_interface
from repro.ocs.exceptions import DeadlineExceeded, Overloaded, ServiceUnavailable
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("VOD", {
    "getBookmark": ("title",),
    "reportPosition": ("title", "position"),
    "clearBookmark": ("title",),
    "listBookmarks": (),
    # PR 4: catalog answer with a degraded low-bitrate fallback when the
    # MDS pool is shedding or the caller's deadline is nearly spent.
    "catalog": (),
    # reportPosition/clearBookmark are absolute-value writes (set the
    # bookmark to X / to absent); re-executing a retry lands the same
    # final state, so they skip the reply cache like the reads do.
}, doc="VOD application server portion (section 10.1.1)",
   idempotent=("getBookmark", "reportPosition", "clearBookmark",
               "listBookmarks", "catalog"))

BOOKMARK_TABLE = "vod_bookmarks"
DEGRADED_BITRATE_FRACTION = 0.25   # low-bitrate catalog fallback


class VODService(Service):
    service_name = "vod"
    ADMISSION_CONTROLLED = True

    def __init__(self, env, process):
        super().__init__(env, process)
        # Volatile copy; the database is the durable one.
        self._bookmarks: Dict[str, float] = {}
        # Last good full-bitrate title list, kept for the degraded path.
        self._catalog_cache: Optional[List[str]] = None

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "VOD")
        await self.register_objects([self.ref])
        self._db = RebindingProxy(self.runtime, self.names, "svc/db",
                                  self.params)
        self._mds = RebindingProxy(self.runtime, self.names, "svc/mds",
                                   self.params, give_up_after=10.0)
        await self.bind_per_neighborhood("vod", self.ref)

    @staticmethod
    def _key(settop_ip: str, title: str) -> str:
        return f"{settop_ip}/{title}"

    async def catalog(self, ctx: CallContext) -> dict:
        """Title catalog, degrading instead of failing under overload.

        The full answer asks the MDS for its live title list at the
        advertised movie bitrate.  When the MDS pool is shedding (or the
        budget for asking it is spent), the last good list is re-served
        at a reduced bitrate with ``degraded`` set -- the paper's
        philosophy of staying on the air with a worse picture rather
        than erroring the session.
        """
        try:
            titles = await self._mds.call(
                "listTitles",
                deadline=self.kernel.now + self.params.call_timeout)
            self._catalog_cache = list(titles)
            return {"titles": list(titles),
                    "bitrate": MOVIE_BITRATE_BPS,
                    "degraded": False}
        except (Overloaded, DeadlineExceeded, ServiceUnavailable):
            self.emit("degraded_catalog",
                      cached=self._catalog_cache is not None)
            return {"titles": list(self._catalog_cache or []),
                    "bitrate": MOVIE_BITRATE_BPS * DEGRADED_BITRATE_FRACTION,
                    "degraded": True}

    async def getBookmark(self, ctx: CallContext, title: str) -> float:
        key = self._key(ctx.caller_ip, title)
        if key in self._bookmarks:
            return self._bookmarks[key]
        try:
            from repro.db.service import NoSuchKey
            try:
                pos = await self._db.call("get", BOOKMARK_TABLE, key)
            except NoSuchKey:
                pos = 0.0
        except ServiceUnavailable:
            pos = 0.0
        self._bookmarks[key] = pos
        return pos

    async def reportPosition(self, ctx: CallContext, title: str,
                             position: float) -> None:
        key = self._key(ctx.caller_ip, title)
        self._bookmarks[key] = position
        try:
            await self._db.call("put", BOOKMARK_TABLE, key, position)
        except ServiceUnavailable:
            pass  # the in-memory copy still serves until the db returns

    async def clearBookmark(self, ctx: CallContext, title: str) -> None:
        key = self._key(ctx.caller_ip, title)
        self._bookmarks.pop(key, None)
        try:
            await self._db.call("delete", BOOKMARK_TABLE, key)
        except ServiceUnavailable:
            pass

    def listBookmarks(self, ctx: CallContext) -> Dict[str, float]:
        prefix = f"{ctx.caller_ip}/"
        return {k[len(prefix):]: v for k, v in self._bookmarks.items()
                if k.startswith(prefix)}
