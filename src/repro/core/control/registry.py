"""Service factories and the per-server environment handed to them.

The deployed system's SSC started service *binaries*; our equivalent is a
registry of factory callables.  A factory receives the
:class:`ServiceEnv` (everything a freshly exec'd process would find in
its environment: the host, the network, timing parameters, the local
name-service address) plus its new :class:`~repro.sim.host.Process`, and
returns an object with an async ``run()`` coroutine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.params import Params
from repro.net.network import Network
from repro.sim.host import Host, Process
from repro.sim.kernel import Kernel
from repro.sim.rand import SeededRandom
from repro.sim.trace import TraceLog

ServiceFactory = Callable[["ServiceEnv", Process], Any]


@dataclass
class ServiceEnv:
    """What a service process finds when it starts on a server."""

    host: Host
    network: Network
    params: Params
    ns_ip: str                      # local name-service replica address
    rng: SeededRandom
    trace: Optional[TraceLog] = None
    # Cluster-wide shared config the builder wants services to see
    # (e.g. the replica set for the name service, movie catalog paths).
    cluster: Dict[str, Any] = field(default_factory=dict)

    @property
    def kernel(self) -> Kernel:
        return self.host.kernel

    def emit(self, category: str, event: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(category, event, host=self.host.name, **fields)


class ServiceRegistry:
    """Name -> factory table shared by every controller in a cluster."""

    def __init__(self) -> None:
        self._factories: Dict[str, ServiceFactory] = {}

    def register(self, name: str, factory: ServiceFactory) -> None:
        if name in self._factories:
            raise ValueError(f"service {name!r} already registered")
        self._factories[name] = factory

    def lookup(self, name: str) -> ServiceFactory:
        if name not in self._factories:
            raise KeyError(f"no service registered as {name!r}")
        return self._factories[name]

    def names(self) -> list:
        return sorted(self._factories)
