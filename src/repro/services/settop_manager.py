"""Settop Manager: "maintains information on settop status (up or down)".

Replicated per neighbourhood (section 5.1's per-neighbourhood style):
each server runs one Settop Manager process that is bound into the name
space under every neighbourhood number assigned to that server.  Settops
report a boot and then heartbeat on their slow uplink; a settop that
misses heartbeats for ``SETTOP_DEAD_AFTER`` is reported down.

State is volatile and rebuilt from heartbeats after a restart -- the
stateless-server recovery pattern of section 10.1.1.
"""

from __future__ import annotations

from typing import Dict, List

from repro.idl import MethodDef, register_interface
from repro.ocs.runtime import CallContext
from repro.services.base import Service

SETTOP_DEAD_AFTER = 15.0   # missed heartbeats before "down"

register_interface("SettopManager", {
    "reportBoot": ("settop_ip",),
    # Acknowledged, so the settop notices a restarted manager (stale
    # reference -> exception -> re-resolve) and its heartbeats rebuild
    # the manager's volatile table.
    "heartbeat": ("settop_ip",),
    # Oneway: the set is powering off and will never await (or even be
    # around to receive) a reply -- the protocol says so, instead of the
    # caller silently detaching a two-way reply (rule P004).
    "reportShutdown": MethodDef("reportShutdown", ("settop_ip",),
                                oneway=True),
    "getStatus": ("settop_ips",),
    "listSettops": (),
    # heartbeat/reportBoot are absolute-value upserts into the liveness
    # table; re-executing a retry reasserts the same fact.
}, doc="Settop liveness tracking (Figure 2)",
   idempotent=("reportBoot", "heartbeat", "getStatus", "listSettops"))


class SettopManagerService(Service):
    service_name = "settopmgr"

    def __init__(self, env, process):
        super().__init__(env, process)
        self._last_seen: Dict[str, float] = {}
        self._shutdown: Dict[str, bool] = {}

    async def start(self) -> None:
        ref = self.runtime.export(self, "SettopManager")
        await self.register_objects([ref])
        await self.bind_per_neighborhood("settopmgr", ref)
        # Also reachable per-server for the local RAS.
        await self.bind_as_replica("settopmgr-local", self.host.ip, ref,
                                   selector="sameserver")

    # -- status model -------------------------------------------------------

    def record_alive(self, settop_ip: str) -> None:
        self._last_seen[settop_ip] = self.kernel.now
        self._shutdown[settop_ip] = False

    def reportBoot(self, ctx: CallContext, settop_ip: str) -> None:
        self.record_alive(settop_ip)

    def heartbeat(self, ctx: CallContext, settop_ip: str) -> None:
        self.record_alive(settop_ip)

    def reportShutdown(self, ctx: CallContext, settop_ip: str) -> None:
        self._shutdown[settop_ip] = True

    def status_of(self, settop_ip: str) -> str:
        if self._shutdown.get(settop_ip):
            return "down"
        last = self._last_seen.get(settop_ip)
        if last is None:
            return "unknown"
        if self.kernel.now - last > SETTOP_DEAD_AFTER:
            return "down"
        return "up"


    def getStatus(self, ctx: CallContext, settop_ips: List[str]) -> List[str]:
        return [self.status_of(ip) for ip in settop_ips]

    def listSettops(self, ctx: CallContext) -> List[str]:
        return sorted(ip for ip in self._last_seen
                      if self.status_of(ip) == "up")
