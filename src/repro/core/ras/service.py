"""The RAS replica process (paper section 7.2).

Status sources, exactly as the paper lists them:

1. settops: periodic polls of the Settop Manager;
2. local service objects: callbacks from the local SSC (chosen over
   pinging because single-threaded services could not answer pings in
   time);
3. remote service objects: periodic polls of the RAS instance on the
   object's server.

Every ``checkStatus`` answers from cache immediately ("any call to the
RAS returns immediately and does not block"), recording unknown entities
for future monitoring -- which is also how a restarted RAS rebuilds its
state from scratch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.naming.errors import NamingError
from repro.core.params import RAS_CALL_TIMEOUT
from repro.idl import register_interface
from repro.net.address import is_settop_ip, neighborhood_of
from repro.ocs.exceptions import (
    CommFailure,
    InvalidObjectReference,
    ServiceUnavailable,
)
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("RAS", {
    # "The RAS object provides a single operation, checkStatus, which
    # accepts a list of service and settop objects and returns the status
    # of each."
    "checkStatus": ("entities",),
    # PR 4/5: the SSC pushes every local admission-gated service's
    # load/queue gauges here, coalesced into one batch per server per
    # LOAD_REPORT_INTERVAL, so operators (and the chaos monitors) can
    # read saturation off the audit service the paper already routes
    # status through.
    "reportLoadBatch": ("reports",),
    "loadGauges": (),
    # Status probes and absolute gauge upserts, all safe to re-run.
}, doc="Resource Audit Service (section 7.2)",
   idempotent=("checkStatus", "reportLoadBatch", "loadGauges"))

Entity = Union[str, ObjectRef]   # settop IP string, or a service object ref

ALIVE = "alive"
DEAD = "dead"
UNKNOWN = "unknown"


class ResourceAuditService(Service):
    service_name = "ras"

    def __init__(self, env, process):
        super().__init__(env, process)
        # Source 2: local service objects, fed by SSC callbacks.
        self._local_live: set = set()
        self._ssc_synced = False
        # Source 3: remote service objects, fed by peer RAS polls.
        self._remote_status: Dict[ObjectRef, str] = {}
        self._peer_refs: Dict[str, Optional[ObjectRef]] = {}
        # Source 1: settops, fed by Settop Manager polls.
        self._settop_status: Dict[str, str] = {}
        self._settopmgr_refs: Dict[int, Optional[ObjectRef]] = {}
        # PR 4: load/queue gauges pushed by local admission-gated
        # services, keyed by service name.
        self._load_gauges: Dict[str, dict] = {}
        # Metrics for experiments E3/E9.
        self.peer_polls_sent = 0

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "RAS")
        # The same object under a second id: the SSC's callback interface.
        callback_ref = self.runtime.export(self, "ObjectStatusCallback",
                                           object_id="callback")
        await self.register_objects([self.ref])
        await self.bind_as_replica("ras", self.host.ip, self.ref,
                                   selector="sameserver")
        await self._register_with_ssc(callback_ref)
        self.spawn_task(self._peer_poll_loop(), name="ras-peer-poll").detach()
        self.spawn_task(self._settop_poll_loop(), name="ras-settop-poll").detach()

    async def _register_with_ssc(self, callback_ref: ObjectRef) -> None:
        from repro.core.control.ssc import ssc_ref
        while True:
            try:
                live = await self.runtime.invoke(
                    ssc_ref(self.host.ip), "registerCallback", (callback_ref,),
                    timeout=self.params.call_timeout)
                self._local_live.update(live or [])
                self._ssc_synced = True
                return
            except (ServiceUnavailable, CommFailure):
                await self.kernel.sleep(1.0)

    # -- the single RAS operation -------------------------------------------

    def checkStatus(self, ctx: CallContext,
                    entities: List[Entity]) -> List[str]:
        return [self._status_of(entity) for entity in entities]

    def _status_of(self, entity: Entity) -> str:
        if isinstance(entity, str):
            return self._settop_status_of(entity)
        ref = entity
        if ref.ip == self.host.ip:
            if not self._ssc_synced:
                return UNKNOWN
            return ALIVE if ref in self._local_live else DEAD
        if is_settop_ip(ref.ip):
            # An object implemented by a settop process: its fate follows
            # the settop's.
            return self._settop_status_of(ref.ip)
        # Remote server: answer from cache, start watching if new.
        if ref not in self._remote_status:
            self._remote_status[ref] = UNKNOWN
            self._peer_refs.setdefault(ref.ip, None)
        return self._remote_status[ref]

    def _settop_status_of(self, settop_ip: str) -> str:
        if settop_ip not in self._settop_status:
            self._settop_status[settop_ip] = UNKNOWN
        return self._settop_status[settop_ip]

    # -- source 2: SSC callbacks ------------------------------------------

    def objectsRegistered(self, ctx: CallContext,
                          objects: List[ObjectRef]) -> None:
        self._local_live.update(objects)
        self._ssc_synced = True

    def objectsFailed(self, ctx: CallContext,
                      objects: List[ObjectRef]) -> None:
        for ref in objects:
            self._local_live.discard(ref)

    # -- source 3: peer RAS polls ---------------------------------------------

    async def _peer_poll_loop(self) -> None:
        while True:
            await self.kernel.sleep(self.params.ras_peer_poll)
            for server_ip in sorted(self._peer_refs):
                await self._poll_peer(server_ip)

    async def _poll_peer(self, server_ip: str) -> None:
        watched = [ref for ref in self._remote_status if ref.ip == server_ip]
        if not watched:
            return
        peer = self._peer_refs.get(server_ip)
        if peer is None:
            try:
                peer = await self.names.resolve(f"svc/ras/{server_ip}")
                self._peer_refs[server_ip] = peer
            except (NamingError, ServiceUnavailable):
                return
        try:
            self.peer_polls_sent += 1
            statuses = await self.runtime.invoke(
                peer, "checkStatus", (watched,),
                timeout=RAS_CALL_TIMEOUT)
            for ref, status in zip(watched, statuses):
                self._remote_status[ref] = status
        except InvalidObjectReference:
            # The peer RAS process died but its host is up; it will be
            # restarted by its SSC.  Keep cached statuses, re-resolve later.
            self._peer_refs[server_ip] = None
        except CommFailure:
            # No answer at all: the server itself is down (or partitioned)
            # -- everything it implemented is gone.  This is the step that
            # lets primary/backup fail-over cover whole-server crashes.
            for ref in watched:
                self._remote_status[ref] = DEAD
            self._peer_refs[server_ip] = None
            self.emit("server_declared_dead", server=server_ip,
                      objects=len(watched))

    # -- source 1: Settop Manager polls -----------------------------------------

    async def _settop_poll_loop(self) -> None:
        while True:
            await self.kernel.sleep(self.params.ras_peer_poll)
            by_nbhd: Dict[int, List[str]] = {}
            for settop_ip in sorted(self._settop_status):
                try:
                    by_nbhd.setdefault(neighborhood_of(settop_ip),
                                       []).append(settop_ip)
                except ValueError:
                    continue
            for nbhd, ips in sorted(by_nbhd.items()):
                await self._poll_settop_manager(nbhd, ips)

    async def _poll_settop_manager(self, nbhd: int, ips: List[str]) -> None:
        mgr = self._settopmgr_refs.get(nbhd)
        if mgr is None:
            try:
                mgr = await self.names.resolve(f"svc/settopmgr/{nbhd}")
                self._settopmgr_refs[nbhd] = mgr
            except (NamingError, ServiceUnavailable):
                return
        try:
            statuses = await self.runtime.invoke(
                mgr, "getStatus", (ips,), timeout=RAS_CALL_TIMEOUT)
            for ip, status in zip(ips, statuses):
                self._settop_status[ip] = {
                    "up": ALIVE, "down": DEAD}.get(status, UNKNOWN)
        except ServiceUnavailable:
            self._settopmgr_refs[nbhd] = None

    # -- PR 4: load gauges ----------------------------------------------

    def reportLoadBatch(self, ctx: CallContext, reports: dict) -> None:
        """The local SSC pushed one coalesced gauge batch (PR 5)."""
        for service in sorted(reports):
            gauges = reports[service]
            self._load_gauges[service] = dict(gauges)
            if gauges.get("shedding"):
                self.emit("service_shedding", service=service,
                          queue_depth=gauges.get("queue_depth", 0))

    def loadGauges(self, ctx: CallContext) -> dict:
        return {name: dict(g) for name, g in sorted(self._load_gauges.items())}
