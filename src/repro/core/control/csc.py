"""Cluster Service Controller (paper section 6.2).

"The CSC determines where to run services ... directs the SSC on each
machine to start and stop services as required.  At least two servers
run replicas of the CSC.  One replica is designated the primary ...  If
the master CSC crashes, one of the backups takes over.  This backup
discovers the cluster state by querying each SSC to determine what
services it is running" -- the stateless-recovery pattern again.

"The current implementation of the CSC is relatively primitive.  It
reads a static configuration from the database to determine which
services to run on each node" -- ours does exactly that: the
``config/placement`` table maps service name to the list of server IPs
that should run it.  Simple operator tools (:mod:`repro.core.control.tools`)
move services between nodes by editing that table through the CSC.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.control.ssc import ssc_ref
from repro.core.rebind import RebindingProxy
from repro.core.replication import NotPrimary, PrimaryBackupBinder
from repro.idl import register_exception, register_interface
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.runtime import CallContext
from repro.services.base import Service

CSC_PING_INTERVAL = 5.0    # CSC pings each SSC

register_interface("ClusterController", {
    "placement": (),
    "clusterState": (),
    "startServiceOn": ("service", "server_ip"),
    "stopServiceOn": ("service", "server_ip"),
    "moveService": ("service", "from_ip", "to_ip"),
    "serverStatus": (),
}, doc="Cluster Service Controller (section 6.2)",
   idempotent=("placement", "clusterState", "serverStatus"))


@register_exception
class BadPlacement(Exception):
    """Move/start named an unknown service or server."""


class ClusterServiceController(Service):
    service_name = "csc"

    def __init__(self, env, process):
        super().__init__(env, process)
        self._placement: Dict[str, List[str]] = {}
        self._server_up: Dict[str, bool] = {}
        self._down_since: Dict[str, float] = {}
        # The paper's stated future work (sections 6.3, 8.1): "Ultimately
        # we expect the CSC to be able to automatically restart services
        # on other servers after a machine failure, but this is not yet
        # implemented."  We implement it behind a flag, off by default to
        # match the deployed system.
        self.auto_reassign = bool(env.cluster.get("csc_auto_reassign", False))
        self.reassign_grace = float(env.cluster.get("csc_reassign_grace", 20.0))
        self.reassignments = 0

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "ClusterController")
        self.binder = PrimaryBackupBinder(self, "svc/csc", self.ref,
                                          on_promote=self._on_promote)
        await self.register_objects([self.ref])
        self._db = RebindingProxy(self.runtime, self.names, "svc/db",
                                  self.params)
        self.spawn_task(self.binder.run(), name="csc-binder").detach()

    @property
    def is_primary(self) -> bool:
        """Monitor probe: the chaos invariant "at most one CSC primary"."""
        return self.binder.is_primary

    # -- primary duties ----------------------------------------------------

    def _on_promote(self):
        self.spawn_task(self._primary_loop(), name="csc-primary").detach()

    async def _primary_loop(self) -> None:
        """Step 4 of section 6.3 + the periodic SSC ping."""
        await self._load_placement()
        await self._discover_cluster_state()
        while self.binder.is_primary:
            await self._reconcile()
            await self.kernel.sleep(CSC_PING_INTERVAL)

    async def _load_placement(self) -> None:
        while self.binder.is_primary:
            try:
                config = await self._db.call("get", "config", "placement")
                self._placement = {svc: list(ips)
                                   for svc, ips in (config or {}).items()}
                return
            except ServiceUnavailable:
                await self.kernel.sleep(2.0)
            except Exception:  # noqa: BLE001 - missing table: empty placement
                self._placement = {}
                return

    async def _discover_cluster_state(self) -> None:
        """A promoted backup rebuilds state by querying each SSC."""
        for ip in self.env.cluster["server_ips"]:
            try:
                await self.runtime.invoke(ssc_ref(ip), "listServices", (),
                                          timeout=self.params.call_timeout)
                self._server_up[ip] = True
            except ServiceUnavailable:
                self._server_up[ip] = False
                # Start the reassignment grace clock at discovery: a
                # freshly promoted CSC has no idea how long the server
                # has already been down.
                self._down_since.setdefault(ip, self.kernel.now)

    async def _reconcile(self) -> None:
        """Ping every SSC; (re)issue start directives for its services."""
        for ip in self.env.cluster["server_ips"]:
            wanted = sorted(svc for svc, ips in self._placement.items()
                            if ip in ips)
            try:
                running = await self.runtime.invoke(
                    ssc_ref(ip), "listServices", (),
                    timeout=self.params.call_timeout)
                was_up = self._server_up.get(ip, False)
                self._server_up[ip] = True
                self._down_since.pop(ip, None)
                if not was_up:
                    self.emit("server_recovered", server=ip)
                for svc in wanted:
                    if svc not in running:
                        await self.runtime.invoke(
                            ssc_ref(ip), "startService", (svc,),
                            timeout=self.params.call_timeout)
            except ServiceUnavailable:
                if self._server_up.get(ip, True):
                    self.emit("server_unreachable", server=ip)
                    self._down_since[ip] = self.kernel.now
                self._server_up[ip] = False
        if self.auto_reassign:
            await self._reassign_orphans()

    async def _reassign_orphans(self) -> None:
        """Future-work extension: restart services whose every placed
        server has been down past the grace period on a survivor."""
        survivors = [ip for ip, up in self._server_up.items() if up]
        if not survivors:
            return
        now = self.kernel.now
        dead_long_enough = {
            ip for ip, up in self._server_up.items()
            if not up and now - self._down_since.get(ip, now) >= self.reassign_grace}
        for service, placed in list(self._placement.items()):
            if not placed:
                continue
            live_placed = [ip for ip in placed if self._server_up.get(ip)]
            if live_placed:
                continue
            if not all(ip in dead_long_enough for ip in placed):
                continue  # still inside the grace period
            target = survivors[self.reassignments % len(survivors)]
            self.emit("auto_reassign", service=service, to=target)
            self.reassignments += 1
            try:
                await self.start_service_on(service, target)
            except ServiceUnavailable:
                continue

    # -- directed operations ------------------------------------------------

    def _require_primary(self) -> None:
        if not self.binder.is_primary:
            raise NotPrimary("this CSC replica is a backup")

    async def start_service_on(self, service: str, server_ip: str) -> None:
        self._require_primary()
        self._validate(service, server_ip)
        self._placement.setdefault(service, [])
        if server_ip not in self._placement[service]:
            self._placement[service].append(server_ip)
        await self._save_placement()
        await self.runtime.invoke(ssc_ref(server_ip), "startService",
                                  (service,), timeout=self.params.call_timeout)

    async def stop_service_on(self, service: str, server_ip: str) -> None:
        self._require_primary()
        self._validate(service, server_ip)
        if server_ip in self._placement.get(service, []):
            self._placement[service].remove(server_ip)
        await self._save_placement()
        try:
            await self.runtime.invoke(ssc_ref(server_ip), "stopService",
                                      (service,),
                                      timeout=self.params.call_timeout)
        except ServiceUnavailable:
            pass  # the server is down; placement is already updated

    async def startServiceOn(self, ctx: CallContext, service: str,
                             server_ip: str) -> None:
        await self.start_service_on(service, server_ip)

    async def stopServiceOn(self, ctx: CallContext, service: str,
                            server_ip: str) -> None:
        await self.stop_service_on(service, server_ip)

    async def moveService(self, ctx: CallContext, service: str, from_ip: str,
                          to_ip: str) -> None:
        """Operator tool: reassign a service between nodes (section 8.1)."""
        await self.stop_service_on(service, from_ip)
        await self.start_service_on(service, to_ip)

    def _validate(self, service: str, server_ip: str) -> None:
        if server_ip not in self.env.cluster["server_ips"]:
            raise BadPlacement(f"unknown server {server_ip}")

    async def _save_placement(self) -> None:
        try:
            await self._db.call("put", "config", "placement", self._placement)
        except ServiceUnavailable:
            pass  # db temporarily down; in-memory placement still drives us

    # -- introspection ------------------------------------------------------

    def placement(self, ctx: CallContext) -> Dict[str, List[str]]:
        return {k: list(v) for k, v in self._placement.items()}

    async def clusterState(self, ctx: CallContext) -> dict:
        state = {}
        for ip in self.env.cluster["server_ips"]:
            try:
                state[ip] = await self.runtime.invoke(
                    ssc_ref(ip), "listServices", (),
                    timeout=self.params.call_timeout)
            except ServiceUnavailable:
                state[ip] = None
        return state

    def serverStatus(self, ctx: CallContext) -> Dict[str, bool]:
        return dict(self._server_up)
