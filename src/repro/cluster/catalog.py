"""Service factory registration: the cluster's "service binaries".

Maps the service names used in placement configuration to factories the
SSCs can start.  Factories import their module lazily -- like init
exec'ing a binary only when a service is actually started -- so building
a minimal cluster does not pull in the whole ITV stack.
"""

from __future__ import annotations

import importlib

from repro.core.control.registry import ServiceEnv, ServiceRegistry
from repro.core.naming.replica import NameReplicaProcess
from repro.core.params import NS_PORT
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Process


class _NameServiceAdapter:
    """Runs a name-service replica as an SSC-managed service."""

    def __init__(self, env: ServiceEnv, process: Process):
        runtime = OCSRuntime(process, env.network, port=NS_PORT)
        self.replica = NameReplicaProcess(
            process, runtime, env.params,
            env.cluster["ns_replica_ips"],
            rng=env.rng.stream(f"ns-{env.host.ip}"),
            trace=env.trace)
        process.attachments["ns_replica"] = self.replica

    async def run(self) -> None:
        await self.replica.kernel.create_future()  # serve until killed


def _lazy(module: str, attr: str):
    def factory(env: ServiceEnv, process: Process):
        cls = getattr(importlib.import_module(module), attr)
        return cls(env, process)

    factory.__name__ = f"start_{attr}"
    return factory


#: service name -> (module, class).  Figure 2's full complement.
SERVICE_TABLE = {
    "ras": ("repro.core.ras.service", "ResourceAuditService"),
    "settopmgr": ("repro.services.settop_manager", "SettopManagerService"),
    "db": ("repro.db.service", "DatabaseService"),
    "auth": ("repro.auth.service", "AuthenticationService"),
    "csc": ("repro.core.control.csc", "ClusterServiceController"),
    "cmgr": ("repro.services.connection_manager", "ConnectionManagerService"),
    "mds": ("repro.services.mds", "MediaDeliveryService"),
    "rds": ("repro.services.rds", "ReliableDeliveryService"),
    "mms": ("repro.services.mms", "MediaManagementService"),
    "boot": ("repro.services.boot", "BootBroadcastService"),
    "kbs": ("repro.services.boot", "KernelBroadcastService"),
    "fileservice": ("repro.services.file_service", "FileService"),
    # application server portions (section 3: "Applications are
    # themselves distributed, with ... a portion to provide access to
    # data and other services running on a server machine")
    "vod": ("repro.services.vod", "VODService"),
    "shopping": ("repro.services.shopping", "ShoppingService"),
    "game": ("repro.services.game", "GameService"),
}


def register_all_services(registry: ServiceRegistry, cluster) -> None:
    """Register every service factory with ``registry``."""
    registry.register("ns", _NameServiceAdapter)
    for name, (module, attr) in SERVICE_TABLE.items():
        registry.register(name, _lazy(module, attr))
