"""Connection Manager: "allocates ATM connections between settops and
servers" (Figure 2, section 3.4.4 step 4).

The one service using *both* replication styles (section 5.2): every
server runs an active replica, bound per-server under
``svc/cmgr-all/<ip>``, and each replica is the primary for its own
neighbourhoods under ``svc/cmgr/<n>`` while standing backup for the
neighbourhoods of the previous server in the ring.  It is also one of
only two services that replicate state (section 10.1.1): every
allocation is pushed to the peer replicas so a promoted backup knows the
outstanding circuits.

The switch fabric itself (link reservations) lives in the network
substrate, so circuits survive a Connection Manager crash -- exactly
like real ATM switch state.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.naming.errors import NamingError
from repro.core.replication import PrimaryBackupBinder
from repro.idl import register_exception, register_interface
from repro.ocs import ReservationError
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("ConnectionManager", {
    "allocate": ("settop_ip", "server_ip", "bps"),
    "deallocate": ("conn_id",),
    "connections": (),
    "available": ("settop_ip",),
    # internal: state push to peer replicas (section 10.1.1)
    "applyConn": ("conn_id", "record", "deleted"),
    # allocate mints circuit ids and commits bandwidth; deallocate
    # releases it -- both stay under at-most-once dedup.
}, doc="ATM connection allocation (Figure 2)",
   idempotent=("connections", "available"))


@register_exception
class BandwidthUnavailable(Exception):
    """Admission control refused the requested constant bit rate."""


@register_exception
class NoSuchConnection(Exception):
    """deallocate() named an unknown circuit."""


@register_exception
class ResourceLimitExceeded(Exception):
    """The settop hit its connection quota (section 7.3).

    "A settop client is only allowed to open a certain number of network
    connections and audio/video streams.  If the settop attempts to
    acquire more resources ... its request is denied."
    """


class ConnectionManagerService(Service):
    service_name = "cmgr"

    def __init__(self, env, process):
        super().__init__(env, process)
        self._conns: Dict[str, dict] = {}
        self._alloc_counter = 0
        self.binders: Dict[int, PrimaryBackupBinder] = {}
        self._db = None  # lazy accounting proxy

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "ConnectionManager")
        await self.register_objects([self.ref])
        # Per-server active replica (state push + direct addressing).
        await self.bind_as_replica("cmgr-all", self.host.ip, self.ref,
                                   selector="sameserver")
        # Primary for own neighbourhoods, backup for the previous server's.
        await self.names.ensure_context("svc")
        await self.names.ensure_context("svc/cmgr", replicated=True,
                                        selector="neighborhood")
        by_server = self.env.cluster["neighborhoods_by_server"]
        server_ips = self.env.cluster["server_ips"]
        my_index = server_ips.index(self.host.ip)
        backup_for = server_ips[(my_index - 1) % len(server_ips)]
        primaries = list(by_server.get(self.host.ip, []))
        backups = [] if backup_for == self.host.ip else list(
            by_server.get(backup_for, []))
        for nbhd in primaries + backups:
            binder = PrimaryBackupBinder(self, f"svc/cmgr/{nbhd}", self.ref)
            self.binders[nbhd] = binder
            self.spawn_task(binder.run(), name=f"cmgr-binder-{nbhd}").detach()

    # -- allocation -----------------------------------------------------

    def allocate(self, ctx: CallContext, settop_ip: str, server_ip: str,
                 bps: float) -> str:
        # Section 7.3 resource limit: "either its request is denied or
        # one of the previously allocated resources is freed."
        held = [(rec["allocated_at"], cid) for cid, rec in self._conns.items()
                if rec["settop_ip"] == settop_ip]
        if len(held) >= self.params.max_connections_per_settop:
            if self.params.connection_limit_policy == "evict":
                _when, oldest = min(held)
                self.emit("limit_evicted", conn=oldest, settop=settop_ip)
                self.deallocate(ctx, oldest)
            else:
                raise ResourceLimitExceeded(
                    f"{settop_ip} already holds {len(held)} connections "
                    f"(limit {self.params.max_connections_per_settop})")
        self._alloc_counter += 1
        # The process id makes circuit ids unique across manager
        # incarnations -- a restarted replica's counter restarts at zero.
        conn_id = (f"{self.host.ip}:{self.process.pid}"
                   f":{self._alloc_counter}:{settop_ip}")
        downlink = self.env.network.downlink_of(settop_ip)
        try:
            downlink.reserve(conn_id, bps)
        except ReservationError as err:
            raise BandwidthUnavailable(str(err)) from err
        record = {"settop_ip": settop_ip, "server_ip": server_ip, "bps": bps,
                  "allocated_at": self.kernel.now}
        self._conns[conn_id] = record
        self.emit("allocated", conn=conn_id, bps=bps)
        self.spawn_task(self._push_state(conn_id, record, deleted=False),
                        name="cmgr-push").detach()
        return conn_id

    def deallocate(self, ctx: CallContext, conn_id: str) -> None:
        record = self._conns.pop(conn_id, None)
        settop_ip = (record or {}).get("settop_ip") or self._settop_of(conn_id)
        if settop_ip is None:
            raise NoSuchConnection(conn_id)
        try:
            self.env.network.downlink_of(settop_ip).release(conn_id)
        except KeyError:
            pass  # settop detached; nothing to release
        self.emit("deallocated", conn=conn_id)
        if record is not None and self.params.resource_accounting:
            self.spawn_task(self._account_usage(settop_ip, record),
                            name="cmgr-account").detach()
        self.spawn_task(self._push_state(conn_id, record or {}, deleted=True),
                        name="cmgr-push").detach()

    async def _account_usage(self, settop_ip: str, record: dict) -> None:
        """Section 7.3 extension: per-settop resource accounting.

        "accounting is needed both for discovering buggy clients and for
        charging properly for resource usage" -- usage rows accumulate in
        the database, keyed by settop.
        """
        held_for = self.kernel.now - record["allocated_at"]
        megabit_seconds = record["bps"] * held_for / 1e6
        if self._db is None:
            from repro.core.rebind import RebindingProxy
            self._db = RebindingProxy(self.runtime, self.names, "svc/db",
                                      self.params, give_up_after=10.0)
        try:
            from repro.db.service import NoSuchKey
            try:
                usage = await self._db.call("get", "usage", settop_ip)
            except NoSuchKey:
                usage = {"connections": 0, "connection_seconds": 0.0,
                         "megabit_seconds": 0.0}
            usage["connections"] += 1
            usage["connection_seconds"] += held_for
            usage["megabit_seconds"] += megabit_seconds
            await self._db.call("put", "usage", settop_ip, usage)
        except Exception:  # noqa: BLE001 - accounting is best-effort
            pass

    @staticmethod
    def _settop_of(conn_id: str) -> Optional[str]:
        # conn ids embed the settop address, so even a replica that never
        # saw the allocation can release the circuit.
        parts = conn_id.split(":")
        return parts[-1] if len(parts) >= 3 else None

    def applyConn(self, ctx: CallContext, conn_id: str, record: dict,
                  deleted: bool) -> None:
        if deleted:
            self._conns.pop(conn_id, None)
        else:
            self._conns[conn_id] = record

    async def _push_state(self, conn_id: str, record: dict,
                          deleted: bool) -> None:
        try:
            peers = await self.names.list_repl("svc/cmgr-all")
        except (NamingError, ServiceUnavailable):
            return
        for _member, _kind, ref in peers:
            if ref is None or ref.ip == self.host.ip:
                continue
            try:
                await self.runtime.invoke(ref, "applyConn",
                                          (conn_id, record, deleted),
                                          timeout=self.params.call_timeout)
            except ServiceUnavailable:
                continue

    def connections(self, ctx: CallContext) -> Dict[str, dict]:
        return dict(self._conns)

    def available(self, ctx: CallContext, settop_ip: str) -> float:
        return self.env.network.downlink_of(settop_ip).available_bps
