"""Server Service Controller (paper section 6.1).

One SSC runs on each server, started by init when the machine boots
(section 6.3 step 1).  It starts and stops services, restarts them on
failure, and -- through ``notifyReady`` / ``registerCallback`` -- tells
the Resource Audit Service which service objects are alive on this
machine.  Because the SSC ``wait()``s on its children, an SSC crash kills
every service it started; init restarts the SSC, which restarts them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.control.registry import ServiceEnv, ServiceRegistry
from repro.core.naming.client import NameClient, ns_root_ref
from repro.core.naming.errors import NamingError
from repro.core.params import LOAD_REPORT_INTERVAL, RAS_CALL_TIMEOUT
from repro.idl import MethodDef, register_interface
from repro.ocs.admission import coalesce_gauges
from repro.ocs.exceptions import OCSError, ServiceUnavailable
from repro.ocs.objref import ANY_INCARNATION, ObjectRef
from repro.ocs.runtime import CallContext, OCSRuntime
from repro.sim.errors import CancelledError
from repro.sim.host import DiskWedged, Host, Process

# The SSC is a per-server singleton restarted by init, so -- like the
# name service -- it lives at a well-known port and its bootstrap
# reference survives restarts.
SSC_PORT = 5001

register_interface("ServiceController", {
    "startService": ("name",),
    "stopService": ("name",),
    "listServices": (),
    # "The notifyReady operation accepts a process id plus a list of
    # objects and records an association between the listed objects and
    # the process id."
    "notifyReady": ("pid", "objects"),
    # "The registerCallback operation allows the caller to register a
    # callback object to be invoked whenever the set of live objects
    # changes."
    "registerCallback": ("callback",),
    "liveObjects": (),
    "ping": (),
    # start/stop flip desired-state and notifyReady/registerCallback
    # record associations; all are dedup'd so a retried start does not
    # double-bump restart accounting.
}, doc="Server Service Controller (section 6.1)",
   idempotent=("listServices", "liveObjects", "ping"))

register_interface("ObjectStatusCallback", {
    "objectsRegistered": MethodDef("objectsRegistered", ("objects",)),
    "objectsFailed": MethodDef("objectsFailed", ("objects",)),
}, doc="Live-object change notifications (sections 6.1, 7.2)")


def ssc_ref(ip: str) -> ObjectRef:
    """Bootstrap reference to the SSC on ``ip`` (survives SSC restarts)."""
    return ObjectRef(ip=ip, port=SSC_PORT, incarnation=ANY_INCARNATION,
                     type_id="ServiceController", object_id="")


class _ManagedService:
    def __init__(self, name: str):
        self.name = name
        self.desired = True
        self.process: Optional[Process] = None
        self.service: Any = None
        self.restarts = 0
        self.started_at = 0.0
        self.backoff = 0.0   # extra delay applied to crash-looping services


class ServerServiceController:
    """The ``ssc`` process: the exported ``ServiceController`` object and
    the child-service supervisor in one."""

    def __init__(self, process: Process, env: ServiceEnv,
                 registry: ServiceRegistry,
                 base_services: Optional[List[str]] = None):
        self.process = process
        self.env = env
        self.kernel = process.kernel
        self.registry = registry
        self.runtime = OCSRuntime(process, env.network, port=SSC_PORT)
        self.ref = self.runtime.export(self, "ServiceController")
        self._managed: Dict[str, _ManagedService] = {}
        self._objects_by_pid: Dict[int, List[ObjectRef]] = {}
        self._pid_to_name: Dict[int, str] = {}
        self._callbacks: List[ObjectRef] = []
        # Services whose replication gauges last raised (wedged disk):
        # tracked so the stale transition is emitted once, not per scrape.
        self._stale_gauges: set = set()
        self._name_client = NameClient(self.runtime, env.ns_ip, env.params)
        self.base_services = list(base_services or [])
        self.process.create_task(self._startup(), name="ssc-startup").detach()
        self.process.create_task(self._load_report_loop(),
                                 name="ssc-load-report").detach()

    # -- lifecycle -------------------------------------------------------

    async def _startup(self) -> None:
        """Boot step 2: start base services, then advertise the SSC."""
        for name in self.base_services:
            self.start_service(name)
        await self._advertise()

    async def _advertise(self) -> None:
        """Bind svc/ssc/<ip> so the CSC can direct this server."""
        while True:
            try:
                await self._name_client.ensure_context("svc")
                await self._name_client.ensure_context(
                    "svc/ssc", replicated=True, selector="sameserver")
                try:
                    await self._name_client.bind(f"svc/ssc/{self.env.host.ip}",
                                                 self.ref)
                except NamingError:
                    # Stale binding from a previous incarnation: replace.
                    await self._name_client.unbind(f"svc/ssc/{self.env.host.ip}")
                    await self._name_client.bind(f"svc/ssc/{self.env.host.ip}",
                                                 self.ref)
                return
            except (NamingError, ServiceUnavailable, OCSError):
                await self.kernel.sleep(2.0)

    def start_service(self, name: str) -> None:
        """Start (or mark desired) the named service."""
        entry = self._managed.get(name)
        if entry is None:
            entry = _ManagedService(name)
            self._managed[name] = entry
        entry.desired = True
        if entry.process is not None and entry.process.alive:
            return
        self._spawn(entry)

    def startService(self, ctx: CallContext, name: str) -> None:
        self.start_service(name)

    # A service that keeps dying right after start is crash-looping;
    # its restart delay doubles up to this cap so it cannot consume the
    # server (the paper's debugging era had plenty of these).
    CRASH_LOOP_WINDOW = 10.0
    MAX_RESTART_BACKOFF = 30.0
    SSC_RESTART_DELAY = 1.0    # backoff before restarting a service

    def _spawn(self, entry: _ManagedService) -> None:
        factory = self.registry.lookup(entry.name)
        proc = self.env.host.spawn(entry.name, parent=self.process)
        entry.process = proc
        entry.started_at = self.kernel.now
        service = factory(self.env, proc)
        entry.service = service
        proc.create_task(self._run_service(service, proc),
                         name=f"run-{entry.name}").detach()
        proc.on_exit(lambda p: self._on_service_exit(entry, p))
        self.env.emit("ssc", "service_started", service=entry.name, pid=proc.pid)

    async def _run_service(self, service: Any, proc: Process) -> None:
        status = "exited"
        try:
            await service.run()
        except CancelledError:
            raise
        except Exception:  # noqa: BLE001 - a crashing service just exits
            status = "crashed"
        # The service's main returned (or raised): like a binary whose
        # main() ends, the process exits -- which is what the SSC's
        # wait() notices.
        if proc.alive:
            proc.exit(status=status)

    def _on_service_exit(self, entry: _ManagedService, proc: Process) -> None:
        # Tell the RAS (via callbacks) that this pid's objects are gone.
        objects = self._objects_by_pid.pop(proc.pid, [])
        self._pid_to_name.pop(proc.pid, None)
        if objects:
            self._fire_callbacks("objectsFailed", objects)
        if not self.process.alive:
            return  # SSC died with it; init will rebuild everything
        if entry.desired:
            self.env.emit("ssc", "service_failed", service=entry.name,
                          pid=proc.pid)
            lived = self.kernel.now - entry.started_at
            if lived < self.CRASH_LOOP_WINDOW:
                entry.backoff = min(max(entry.backoff * 2, 1.0),
                                    self.MAX_RESTART_BACKOFF)
            else:
                entry.backoff = 0.0
            self.kernel.call_later(
                self.SSC_RESTART_DELAY + entry.backoff,
                self._maybe_restart, entry)

    def _maybe_restart(self, entry: _ManagedService) -> None:
        if not self.process.alive or not entry.desired:
            return
        if entry.process is not None and entry.process.alive:
            return
        entry.restarts += 1
        self.env.emit("ssc", "service_restarted", service=entry.name,
                      restarts=entry.restarts)
        self._spawn(entry)

    def stopService(self, ctx: CallContext, name: str) -> None:
        entry = self._managed.get(name)
        if entry is None:
            return
        entry.desired = False
        if entry.process is not None and entry.process.alive:
            entry.process.kill(status="stopped by SSC")

    def running_services(self) -> List[str]:
        return sorted(name for name, e in self._managed.items()
                      if e.process is not None and e.process.alive)

    def listServices(self, ctx: CallContext) -> List[str]:
        return self.running_services()

    def ping(self, ctx: CallContext) -> dict:
        return {"host": self.env.host.name,
                "services": self.running_services()}

    # -- aggregated load reporting -----------------------------------------

    def _collect_load_reports(self):
        """Scrape managed services' gate gauges and replica bindings.

        In-process scraping is free (same machine, no wire messages --
        the same side door the chaos monitors use via process
        attachments); what used to be one report message *per gated
        service* per interval collapses into one batch per server.
        Returns ``(reports, entries)``: per-service gauge dicts for the
        RAS and ``(path, member, load)`` tuples for the Selectors.

        Replicated services (NS, db) attach a ``ReplicatedStore`` whose
        ``replication_gauges`` -- the change-log cursor and lag behind
        the primary -- ride the same batch, so a wedged replica
        shows up in the RAS load feed with no extra wire traffic.
        """
        reports: Dict[str, dict] = {}
        entries: List[tuple] = []
        for name in sorted(self._managed):
            entry = self._managed[name]
            service = entry.service
            if (service is None or entry.process is None
                    or not entry.process.alive):
                continue
            report: Dict[str, object] = {}
            gate = (service.runtime.admission
                    if hasattr(service, "runtime") else None)
            if gate is not None:
                report.update(gate.gauges())
            repl = entry.process.attachments.get("repl")
            if repl is not None:
                # A wedged replica disk must not wedge the whole batch:
                # the scrape is in-process (already bounded -- only the
                # batch *sends* below cross the wire, under their own
                # call deadlines), so the one failure mode is DiskWedged,
                # which we convert into a gauges_stale transition and a
                # report that simply omits this service's repl gauges.
                try:
                    report.update(repl.replication_gauges())
                except DiskWedged:
                    if name not in self._stale_gauges:
                        self._stale_gauges.add(name)
                        self.env.emit("ssc", "gauges_stale", service=name)
                else:
                    self._stale_gauges.discard(name)
            if not report:
                continue
            reports[name] = report
            if gate is None:
                continue
            load = gate.load()
            for binding in list(getattr(service, "_replica_bindings", [])):
                path = (f"{binding['parent']}/{binding['context']}"
                        if binding["parent"] else binding["context"])
                entries.append((path, binding["member"], load))
        return reports, entries

    async def _load_report_loop(self) -> None:
        """One coalesced load report per server per interval.

        The RAS gets every gated service's gauge dict in a single
        ``reportLoadBatch``; each name-service replica gets one batch of
        ``(path, member, load)`` selector entries (Selector state is
        per-replica, so every replica needs its own copy).  Best-effort
        throughout: a dead RAS or minority NS replica must not wedge the
        SSC.
        """
        ras_ref: Optional[ObjectRef] = None
        ns_ips = (self.env.cluster.get("ns_replica_ips", [])
                  if self.env.cluster else [])
        while True:
            await self.kernel.sleep(LOAD_REPORT_INTERVAL)
            reports, entries = self._collect_load_reports()
            if not reports and not entries:
                continue
            self.env.emit("ssc", "load_report",
                          **coalesce_gauges(reports))
            if ras_ref is None:
                try:
                    ras_ref = await self._name_client.resolve(
                        f"svc/ras/{self.env.host.ip}")
                except (NamingError, ServiceUnavailable):
                    ras_ref = None
            if ras_ref is not None and reports:
                try:
                    await self.runtime.invoke(
                        ras_ref, "reportLoadBatch", (reports,),
                        timeout=RAS_CALL_TIMEOUT)
                except (ServiceUnavailable, OCSError):
                    ras_ref = None
            if not entries:
                continue
            for ns_ip in ns_ips:
                try:
                    await self.runtime.invoke(
                        ns_root_ref(ns_ip), "reportLoadBatch", (entries,),
                        timeout=RAS_CALL_TIMEOUT)
                except (ServiceUnavailable, OCSError):
                    continue

    # -- object tracking (the RAS feed) ------------------------------------

    def notifyReady(self, ctx: CallContext, pid: int,
                    objects: List[ObjectRef]) -> None:
        existing = self._objects_by_pid.setdefault(pid, [])
        fresh = [ref for ref in objects if ref not in existing]
        existing.extend(fresh)
        proc = self._find_process(pid)
        if proc is None or not proc.alive:
            # Registration raced with death: report straight back out.
            self._objects_by_pid.pop(pid, None)
            if fresh:
                self._fire_callbacks("objectsFailed", fresh)
            return
        if pid not in self._pid_to_name:
            self._pid_to_name[pid] = proc.name
            proc.on_exit(self._on_registered_process_exit)
        if fresh:
            self._fire_callbacks("objectsRegistered", fresh)

    def _on_registered_process_exit(self, proc: Process) -> None:
        # Covers processes that registered objects but were not started by
        # this SSC (the SSC can detect the failure of any local process).
        objects = self._objects_by_pid.pop(proc.pid, [])
        self._pid_to_name.pop(proc.pid, None)
        if objects and self.process.alive:
            self._fire_callbacks("objectsFailed", objects)

    def _find_process(self, pid: int) -> Optional[Process]:
        for proc in self.env.host.processes:
            if proc.pid == pid:
                return proc
        return None

    def live_objects(self) -> List[ObjectRef]:
        out: List[ObjectRef] = []
        for refs in self._objects_by_pid.values():
            out.extend(refs)
        return out

    def liveObjects(self, ctx: CallContext) -> List[ObjectRef]:
        return self.live_objects()

    def registerCallback(self, ctx: CallContext,
                         callback: ObjectRef) -> List[ObjectRef]:
        """Record a callback; returns (and sends) the current live set."""
        if callback not in self._callbacks:
            self._callbacks.append(callback)
        live = self.live_objects()
        if live:
            self._fire_callbacks("objectsRegistered", live, only=callback)
        return live

    def _fire_callbacks(self, method: str, objects: List[ObjectRef],
                        only: Optional[ObjectRef] = None) -> None:
        if not self.process.alive:
            # The SSC died with (or before) the event; the restarted SSC
            # rebuilds live-object state as services re-register.
            return
        targets = [only] if only is not None else list(self._callbacks)
        for cb in targets:
            self.process.create_task(self._call_callback(cb, method, objects),
                                     name="ssc-callback").detach()

    async def _call_callback(self, cb: ObjectRef, method: str,
                             objects: List[ObjectRef]) -> None:
        try:
            await self.runtime.invoke(cb, method, (objects,),
                                      timeout=self.env.params.call_timeout)
        except ServiceUnavailable:
            if cb in self._callbacks:
                self._callbacks.remove(cb)
        except OCSError:
            pass


def install_init(host: Host, make_env: Callable[[], ServiceEnv],
                 registry: ServiceRegistry,
                 base_services: List[str]) -> ServerServiceController:
    """Wire up init on ``host``: start the SSC now, restart it if it dies,
    and start it again on every reboot (section 6.3 step 1).

    Returns the first SSC instance; later incarnations are reachable
    through :func:`ssc_ref`.
    """

    state = {"ssc": None}

    def start_ssc(_host=None) -> None:
        if not host.up:
            return
        proc = host.spawn("ssc")
        state["ssc"] = ServerServiceController(proc, make_env(), registry,
                                               base_services)
        proc.on_exit(lambda p: host.kernel.call_later(0.5, restart_ssc))

    def restart_ssc() -> None:
        # init restarts a crashed SSC ("it will be automatically restarted
        # by the IRIX init daemon") unless the whole host is down.
        if host.up and host.find_process("ssc") is None:
            start_ssc()

    host.add_boot_hook(lambda h: start_ssc())
    start_ssc()
    return state["ssc"]
