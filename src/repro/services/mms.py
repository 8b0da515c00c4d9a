"""Media Management Service (Figure 4, sections 3.4.4-3.5, 8.3).

The MMS "selects which Media Delivery Service to use to deliver a movie
to a settop and sets up the required ATM connection".  Opening a movie
follows the paper's ten steps: resolve the caller's neighbourhood
Connection Manager, choose an MDS replica "based on where the movie is
available and the current loads at servers", allocate the circuit, open
the movie on the chosen MDS, return the movie object, and poll the RAS
for the settop's status so crashed settops' movies are reclaimed
(section 3.5.1).

Availability: primary/backup (section 5.2).  "The volatile state of the
MMS can be reconstructed by querying each MDS in the cluster and by
querying the Connection Manager" (section 10.1.1) -- a promoted backup
does exactly that in ``_recover_state``.  The MMS also "tracks the
status of each MDS replica.  Once an attempt to open a movie from an MDS
replica fails, the MMS assumes that the replica is dead" and retries it
periodically (section 3.5.2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.naming.errors import NamingError
from repro.core.params import MOVIE_BITRATE_BPS
from repro.core.ras.client import AuditClient
from repro.core.replication import PrimaryBackupBinder
from repro.idl import register_exception, register_interface
from repro.ocs import neighborhood_of
from repro.ocs.exceptions import OCSError, Overloaded, ServiceUnavailable
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext
from repro.services.base import Service
from repro.services.mds import DiskStreamsExhausted, NoSuchTitle

register_interface("MMS", {
    "open": ("title", "data_port"),
    "close": ("movie",),
    "openCount": (),
    "status": (),
    "listTitles": (),
}, doc="Media Management Service (Figure 4)",
   idempotent=("openCount", "status", "listTitles"))


@register_exception
class MovieUnavailable(Exception):
    """No live MDS replica can serve this title right now."""


MDS_RETRY_INTERVAL = 10.0


class MediaManagementService(Service):
    service_name = "mms"
    ADMISSION_CONTROLLED = True

    #: how long cached MDS catalog/load answers stay fresh
    CATALOG_TTL = 30.0
    LOAD_TTL = 2.0

    def __init__(self, env, process):
        super().__init__(env, process)
        # movie ref -> session record
        self._sessions: Dict[ObjectRef, dict] = {}
        self._dead_mds: Dict[str, float] = {}   # member name -> declared dead at
        self.recoveries = 0
        # Movie-location and load caches: "the MMS chooses an appropriate
        # MDS replica ... based on where the movie is available and the
        # current loads at servers" -- location data is slow-changing and
        # loads tolerate seconds of staleness, so neither is re-fetched
        # per open.  Without this cache the MMS serializes the whole
        # cluster's opens behind O(replicas) RPCs each (found by the
        # full-scale E8 run).
        self._catalog: Dict[str, Tuple[float, set]] = {}   # member -> (t, titles)
        self._load: Dict[str, Tuple[float, dict]] = {}     # member -> (t, load)
        self._cmgr_cache: Dict[int, ObjectRef] = {}
        # Single-flight guards: a burst of cold-cache opens must produce
        # one fetch per member, not one per open (the stampede otherwise
        # re-creates the bottleneck the cache exists to remove).
        self._fetching: Dict[tuple, Any] = {}

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "MMS")
        self.binder = PrimaryBackupBinder(self, "svc/mms", self.ref,
                                          on_promote=self._on_promote)
        await self.register_objects([self.ref])
        self.audit = AuditClient(self.runtime, self.names)
        self.audit.start(self.process)
        self.spawn_task(self.binder.run(), name="mms-binder").detach()
        self.spawn_task(self._mds_retry_loop(), name="mms-mds-retry").detach()

    # -- primary/backup ---------------------------------------------------

    def _on_promote(self):
        self.spawn_task(self._circuit_audit_loop(), name="mms-circuit-audit").detach()
        return self._recover_state()

    async def _recover_state(self) -> None:
        """Rebuild the open-movie table by querying every MDS replica."""
        members = await self._mds_members()
        for member, mds_ref in members:
            try:
                open_movies = await self.runtime.invoke(
                    mds_ref, "listOpen", (), timeout=self.params.call_timeout)
            except (ServiceUnavailable, OCSError):
                continue
            for record in open_movies:
                session = {"title": record["title"],
                           "settop_ip": record["settop_ip"],
                           "conn_id": record["conn_id"],
                           "mds_member": member}
                self._sessions[record["movie"]] = session
                self._watch_settop(record["settop_ip"])
                self.recoveries += 1
        if self.recoveries:
            self.emit("state_recovered", sessions=len(self._sessions))

    # -- opening (Figure 4) ---------------------------------------------------

    async def open(self, ctx: CallContext, title: str,
                   data_port: int) -> ObjectRef:
        settop_ip = ctx.caller_ip
        # A re-open of the same title from the same settop supersedes any
        # existing session: "the Media Delivery Service ... waits for
        # clients to call in to restart the movie they were viewing at
        # the time of failure" (section 10.1.1).  A crashed-and-restarted
        # settop application thus reclaims its own leak.
        stale = [movie for movie, s in self._sessions.items()
                 if s["settop_ip"] == settop_ip and s["title"] == title]
        for movie in stale:
            self.emit("superseded", title=title, settop=settop_ip)
            await self.close_movie(movie)
        # Step 3: resolve the connection manager for the settop's
        # neighbourhood.
        cmgr = await self._resolve_cmgr(settop_ip)
        # Step 4a: candidate MDS replicas by movie location and load.
        candidates = await self._mds_candidates(title)
        movie = None
        member = None
        conn_id = None
        for member, mds_ref in candidates:
            # Step 4b: allocate the high-bandwidth connection to this
            # replica's server.
            try:
                conn_id = await self.runtime.invoke(
                    cmgr, "allocate",
                    (settop_ip, mds_ref.ip, MOVIE_BITRATE_BPS),
                    timeout=self.params.call_timeout)
            except ServiceUnavailable:
                # The cached reference went stale (the cmgr restarted or
                # failed over): rebind through the name service once --
                # the standard section 8.2 client behaviour.
                self._cmgr_cache.pop(neighborhood_of(settop_ip), None)
                cmgr = await self._resolve_cmgr(settop_ip)
                conn_id = await self.runtime.invoke(
                    cmgr, "allocate",
                    (settop_ip, mds_ref.ip, MOVIE_BITRATE_BPS),
                    timeout=self.params.call_timeout)
            # Steps 5-6: open the movie on the chosen MDS.
            try:
                movie = await self.runtime.invoke(
                    mds_ref, "open", (title, settop_ip, conn_id, data_port),
                    timeout=self.params.call_timeout)
                break
            except Overloaded:
                # Shedding, not dead: its admission gate is full.  Try
                # the next candidate without poisoning the liveness
                # cache -- the replica keeps serving its current load.
                await self._quiet_deallocate(cmgr, conn_id)
            except ServiceUnavailable:
                # The replica is gone: mark it dead and try the next
                # (section 3.5.2).
                await self._quiet_deallocate(cmgr, conn_id)
                self._declare_mds_dead(member)
            except (DiskStreamsExhausted, NoSuchTitle):
                # The replica is alive but cannot serve this open; a
                # lost race for its last disk stream is normal, not a
                # failure signal.
                await self._quiet_deallocate(cmgr, conn_id)
        if movie is None:
            raise MovieUnavailable(f"no MDS replica could open {title!r}")
        # Keep the load cache roughly honest between refreshes, so a
        # burst of concurrent opens spreads instead of herding onto the
        # replica that was least loaded two seconds ago.
        cached_load = self._load.get(member)
        if cached_load is not None:
            bumped = dict(cached_load[1])
            bumped["open_streams"] = bumped.get("open_streams", 0) + 1
            self._load[member] = (cached_load[0], bumped)
        self._sessions[movie] = {"title": title, "settop_ip": settop_ip,
                                 "conn_id": conn_id, "mds_member": member}
        # Steps 9-10: watch the settop through the RAS; reclaim on death.
        self._watch_settop(settop_ip)
        self.emit("opened", title=title, settop=settop_ip, mds=member)
        return movie

    async def close(self, ctx: CallContext, movie: ObjectRef) -> None:
        await self.close_movie(movie)

    async def close_movie(self, movie: ObjectRef) -> None:
        session = self._sessions.pop(movie, None)
        if session is None:
            return  # already closed (idempotent: crash recovery races)
        try:
            await self.runtime.invoke(movie, "close", (),
                                      timeout=self.params.call_timeout)
        except (ServiceUnavailable, OCSError):
            pass  # the MDS died with the movie; circuit still needs release
        try:
            await self._deallocate_with_rebind(session["settop_ip"],
                                               session["conn_id"])
        except (NamingError, ServiceUnavailable):
            pass
        self.emit("closed", title=session["title"], settop=session["settop_ip"])
        # Stop watching the settop if it has no other open movies.
        settop_ip = session["settop_ip"]
        if not any(s["settop_ip"] == settop_ip for s in self._sessions.values()):
            self.audit.unwatch(settop_ip)

    async def _quiet_deallocate(self, cmgr: ObjectRef, conn_id: str) -> None:
        try:
            await self.runtime.invoke(cmgr, "deallocate", (conn_id,),
                                      timeout=self.params.call_timeout)
        except (ServiceUnavailable, OCSError):
            pass

    async def _deallocate_with_rebind(self, settop_ip: str,
                                      conn_id: str) -> None:
        """Release a circuit, refreshing a stale cached cmgr reference.

        Leaking here is worse than a lost close elsewhere: a circuit that
        never frees blocks the settop's quota and downlink until the
        orphan audit's grace expires.
        """
        cmgr = await self._resolve_cmgr(settop_ip)
        try:
            await self.runtime.invoke(cmgr, "deallocate", (conn_id,),
                                      timeout=self.params.call_timeout)
        except ServiceUnavailable:
            self._cmgr_cache.pop(neighborhood_of(settop_ip), None)
            cmgr = await self._resolve_cmgr(settop_ip)
            await self._quiet_deallocate(cmgr, conn_id)
        except OCSError:
            pass

    async def _resolve_cmgr(self, settop_ip: str) -> ObjectRef:
        nbhd = neighborhood_of(settop_ip)
        cached = self._cmgr_cache.get(nbhd)
        if cached is not None:
            return cached
        ref = await self.names.resolve(f"svc/cmgr/{nbhd}")
        self._cmgr_cache[nbhd] = ref
        return ref

    # -- MDS choice and liveness -----------------------------------------------

    async def _mds_members(self) -> List[Tuple[str, ObjectRef]]:
        try:
            listing = await self.names.list_repl("svc/mds")
        except (NamingError, ServiceUnavailable):
            return []
        return [(member, ref) for member, _kind, ref in listing
                if ref is not None]

    async def _cached_fetch(self, cache: Dict, member: str, ref: ObjectRef,
                            method: str, ttl: float, transform):
        """TTL cache with single-flight fill for one MDS attribute."""
        now = self.kernel.now
        cached = cache.get(member)
        if cached is not None and now - cached[0] <= ttl:
            return cached[1]
        key = (method, member)
        in_flight = self._fetching.get(key)
        if in_flight is not None:
            value = await in_flight
            if isinstance(value, BaseException):
                raise value
            return value
        fut = self.kernel.create_future()
        self._fetching[key] = fut
        try:
            raw = await self.runtime.invoke(ref, method, (),
                                            timeout=self.params.call_timeout)
            value = transform(raw)
            cache[member] = (self.kernel.now, value)
            if not fut.done():
                fut.set_result(value)
            return value
        except BaseException as err:
            if not fut.done():
                fut.set_result(err)   # waiters re-raise; no unhandled fut
            raise
        finally:
            self._fetching.pop(key, None)

    async def _mds_candidates(self, title: str) -> List[Tuple[str, ObjectRef]]:
        """Live replicas carrying the title, least-loaded first; raises
        MovieUnavailable, saying "full" if full or shedding carriers exist."""
        candidates = []
        full = False
        for member, ref in await self._mds_members():
            if member in self._dead_mds:
                continue
            try:
                titles = await self._cached_fetch(
                    self._catalog, member, ref, "listTitles",
                    self.CATALOG_TTL, set)
                if title not in titles:
                    continue
                load = await self._cached_fetch(
                    self._load, member, ref, "load", self.LOAD_TTL, dict)
            except Overloaded:
                # Shedding replicas stay in the pool (alive, just full);
                # they simply are not candidates for this open.
                full = True
                continue
            except (ServiceUnavailable, OCSError):
                self._declare_mds_dead(member)
                self._catalog.pop(member, None)
                self._load.pop(member, None)
                continue
            if load["open_streams"] >= load["capacity"]:
                full = True
                continue
            candidates.append((load["open_streams"], member, ref))
        if not candidates:
            raise MovieUnavailable(
                f"every MDS replica carrying {title!r} is full" if full
                else f"no live MDS replica carries {title!r}")
        candidates.sort(key=lambda c: (c[0], c[1]))
        return [(member, ref) for _load, member, ref in candidates]

    def _declare_mds_dead(self, member: str) -> None:
        self._dead_mds[member] = self.kernel.now
        self.emit("mds_declared_dead", member=member)

    async def _mds_retry_loop(self) -> None:
        """Periodically re-resolve and retry MDS replicas marked dead."""
        while True:
            await self.kernel.sleep(MDS_RETRY_INTERVAL)
            for member in list(self._dead_mds):
                try:
                    ref = await self.names.resolve(f"svc/mds/{member}")
                    await self.runtime.invoke(ref, "load", (),
                                              timeout=self.params.call_timeout)
                except (NamingError, ServiceUnavailable, OCSError):
                    continue
                del self._dead_mds[member]
                self.emit("mds_recovered", member=member)

    # -- circuit reconciliation (section 10.1.1) -------------------------------

    CIRCUIT_AUDIT_INTERVAL = 30.0
    CIRCUIT_ORPHAN_GRACE = 60.0

    async def _circuit_audit_loop(self) -> None:
        """Reclaim circuits no session accounts for.

        Section 10.1.1: the MMS's state "can be reconstructed by querying
        each MDS in the cluster and by querying the Connection Manager".
        The converse also matters: a circuit the Connection Manager holds
        that no (recovered) session explains -- e.g. the MMS died between
        allocate and open, or movie and session records died together in
        a double failure -- is an orphan, and the MMS collects it after a
        grace period.
        """
        while self.binder.is_primary:
            await self.kernel.sleep(self.CIRCUIT_AUDIT_INTERVAL)
            if not self.binder.is_primary:
                return
            await self._audit_circuits_once()

    async def _audit_circuits_once(self) -> None:
        known = {s["conn_id"] for s in self._sessions.values()}
        try:
            replicas = await self.names.list_repl("svc/cmgr-all")
        except (NamingError, ServiceUnavailable):
            return
        now = self.kernel.now
        handled = set()  # every replica mirrors the state; reclaim once
        for _member, _kind, cmgr_ref in replicas:
            if cmgr_ref is None:
                continue
            try:
                conns = await self.runtime.invoke(
                    cmgr_ref, "connections", (),
                    timeout=self.params.call_timeout)
            except (ServiceUnavailable, OCSError):
                continue
            for conn_id, record in conns.items():
                if conn_id in known or conn_id in handled:
                    continue
                if now - record.get("allocated_at", now) < self.CIRCUIT_ORPHAN_GRACE:
                    continue  # possibly an open still in flight
                handled.add(conn_id)
                await self._quiet_deallocate(cmgr_ref, conn_id)
                self.emit("orphan_circuit_reclaimed", conn=conn_id,
                          settop=record.get("settop_ip"))

    # -- settop failure -> resource reclamation (section 3.5.1) -----------------

    def _watch_settop(self, settop_ip: str) -> None:
        if not self.audit.watching(settop_ip):
            self.audit.watch(settop_ip, self._on_settop_dead)

    def _on_settop_dead(self, settop_ip: str) -> None:
        doomed = [movie for movie, s in self._sessions.items()
                  if s["settop_ip"] == settop_ip]
        self.emit("settop_dead", settop=settop_ip, movies=len(doomed))
        for movie in doomed:
            self.spawn_task(self.close_movie(movie), name="mms-reclaim").detach()

    # -- introspection --------------------------------------------------------

    def openCount(self, ctx: CallContext) -> int:
        return len(self._sessions)

    def status(self, ctx: CallContext) -> dict:
        return {"primary": self.binder.is_primary,
                "sessions": len(self._sessions),
                "dead_mds": sorted(self._dead_mds),
                "host": self.host.name}

    async def listTitles(self, ctx: CallContext) -> List[str]:
        titles = set()
        for _member, ref in await self._mds_members():
            try:
                titles.update(await self.runtime.invoke(
                    ref, "listTitles", (), timeout=self.params.call_timeout))
            except (ServiceUnavailable, OCSError):
                continue
        return sorted(titles)
