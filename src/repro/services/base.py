"""Base class for OCS services.

Encodes the paper's standard service start-up sequence (section 9.1):
create and export the service object, register it with the local SSC
(``notifyReady``, so the RAS can audit it), and bind it into the cluster
name space -- retrying through name-service start-up races.  The
exported object is the service itself (``runtime.export(self, "VOD")``):
each IDL operation is a method of the same name taking ``ctx`` first.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.backoff import Backoff
from repro.core.control.registry import ServiceEnv
from repro.core.control.ssc import ssc_ref
from repro.core.naming.client import NameClient
from repro.core.naming.errors import AlreadyBound, NamingError
from repro.ocs.admission import AdmissionGate
from repro.ocs.exceptions import OCSError, ServiceUnavailable
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Process


class Service:
    """One service process: subclass and override :meth:`start`."""

    #: name space path fragment, e.g. "mms" -> bound under svc/mms
    service_name = "service"

    #: how often a service re-verifies its own name bindings
    BINDING_WATCHDOG_INTERVAL = 15.0

    #: Opt into admission control.  True for request-serving
    #: application services (VOD, MDS, MMS, shopping, game, DB); left
    #: False for infrastructure the boot path storms by design (RAS,
    #: RDS, boot service, CSC) where shedding would break start-up.
    ADMISSION_CONTROLLED = False

    def __init__(self, env: ServiceEnv, process: Process):
        self.env = env
        self.process = process
        self.kernel = env.kernel
        self.host = env.host
        self.params = env.params
        self.runtime = OCSRuntime(process, env.network)
        self.names = NameClient(self.runtime, env.ns_ip, env.params)
        # Monitors (repro.chaos) read service state through the process,
        # the same side door the ns replica uses ("ns_replica").
        process.attachments.setdefault("service", self)
        self._replica_bindings: List[dict] = []
        self._watchdog_task = None
        # Per-incarnation substream: retries stay uncorrelated between
        # services (no phase-lock after a mass restart) yet byte-stable
        # across same-seed runs (pids are deterministic).
        self._backoff_rng = env.rng.stream(
            f"backoff-{self.service_name}-{process.pid}")
        if self.ADMISSION_CONTROLLED:
            self.runtime.admission = AdmissionGate(self.service_name,
                                                   self.params)

    def retry_backoff(self, max_elapsed: Optional[float] = None) -> Backoff:
        """A fresh jittered-exponential backoff for one retry loop.

        ``max_elapsed`` caps the loop's *total* sleep time so a retry
        loop with a deadline cannot sleep past its own budget.
        """
        return Backoff(self._backoff_rng, max_elapsed=max_elapsed)

    async def run(self) -> None:
        """Process main: start, then serve until killed.

        Overload reporting spawns no per-service loop here: the SSC
        scrapes every managed service's admission gauges and replica
        bindings in-process and sends *one* coalesced
        ``reportLoadBatch`` per server per ``LOAD_REPORT_INTERVAL`` --
        O(servers) report messages instead of O(services).
        """
        await self.start()
        await self.kernel.create_future()  # park; tasks do the serving

    async def start(self) -> None:
        raise NotImplementedError

    # -- start-up helpers -------------------------------------------------

    async def register_objects(self, refs: List[ObjectRef]) -> None:
        """``notifyReady`` to the local SSC so the RAS can audit us."""
        backoff = self.retry_backoff()
        while True:
            try:
                await self.runtime.invoke(
                    ssc_ref(self.host.ip), "notifyReady",
                    (self.process.pid, refs),
                    timeout=self.params.call_timeout)
                return
            except (ServiceUnavailable, OCSError):
                await self.kernel.sleep(backoff.next_delay())

    async def bind_as_replica(self, context: str, member: str,
                              ref: ObjectRef, selector: str = "sameserver",
                              parent: str = "svc") -> None:
        """Bind into a replicated context as an active replica (section 5.1).

        A stale binding left by this replica's previous incarnation (the
        audit may not have removed it yet) is replaced, but a *live-looking*
        binding on another server is not touched.

        The binding is also re-verified periodically: if the name space
        loses it -- most drastically, every name-service replica dying at
        once and restarting empty -- the service re-creates its contexts
        and re-binds, so the cluster heals without operator action.
        """
        await self._bind_replica_once(context, member, ref, selector, parent)
        self._replica_bindings.append(
            {"context": context, "member": member, "ref": ref,
             "selector": selector, "parent": parent})
        if self._watchdog_task is None or self._watchdog_task.done():
            self._watchdog_task = self.spawn_task(self._binding_watchdog(),
                                                  name="binding-watchdog")

    async def _bind_replica_once(self, context: str, member: str,
                                 ref: ObjectRef, selector: str,
                                 parent: str) -> None:
        path = f"{parent}/{context}" if parent else context
        name = f"{path}/{member}"
        backoff = self.retry_backoff()
        while True:
            try:
                if parent:
                    await self.names.ensure_context(parent)
                await self.names.ensure_context(path, replicated=True,
                                                selector=selector)
            except (NamingError, ServiceUnavailable):
                await self.kernel.sleep(backoff.next_delay())
                continue
            try:
                await self.names.bind(name, ref)
                return
            except AlreadyBound:
                pass
            except (NamingError, ServiceUnavailable):
                await self.kernel.sleep(backoff.next_delay())
                continue
            # Somebody holds the member name.  Our own previous
            # incarnation's stale binding is replaced; a binding on
            # another server is a genuine conflict for the caller.
            try:
                existing = await self.names.resolve(name)
                if existing is not None and existing.ip != self.host.ip:
                    raise AlreadyBound(name)
                await self.names.unbind(name)
                await self.names.bind(name, ref)
                return
            except AlreadyBound:
                raise
            except (NamingError, ServiceUnavailable):
                await self.kernel.sleep(backoff.next_delay())

    async def _binding_watchdog(self) -> None:
        """Re-assert this replica's bindings if the name space lost them."""
        while True:
            await self.kernel.sleep(self.BINDING_WATCHDOG_INTERVAL)
            for binding in list(self._replica_bindings):
                path = (f"{binding['parent']}/{binding['context']}"
                        if binding["parent"] else binding["context"])
                name = f"{path}/{binding['member']}"
                try:
                    existing = await self.names.resolve(name)
                    if existing == binding["ref"]:
                        continue
                except (NamingError, ServiceUnavailable):
                    pass
                try:
                    await self._bind_replica_once(
                        binding["context"], binding["member"], binding["ref"],
                        binding["selector"], binding["parent"])
                    self.emit("binding_reasserted", name=name)
                except AlreadyBound:
                    continue  # another live replica owns the member name

    async def bind_per_neighborhood(self, context: str,
                                    ref: ObjectRef) -> None:
        """Bind under every neighbourhood ``env.cluster`` assigns to this
        server, behind the neighbourhood selector (section 5.1)."""
        for nbhd in self.my_neighborhoods():
            await self.bind_as_replica(context, str(nbhd), ref,
                                       selector="neighborhood")

    def my_neighborhoods(self) -> List[int]:
        return self.env.cluster.get("neighborhoods_by_server",
                                    {}).get(self.host.ip, [])

    def spawn_task(self, coro, name: Optional[str] = None):
        return self.process.create_task(coro, name=name)

    def emit(self, event: str, **fields) -> None:
        self.env.emit(self.service_name, event, **fields)
