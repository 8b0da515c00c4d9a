"""Base class for settop applications."""

from __future__ import annotations

from repro.core.naming.cache import cache_for
from repro.core.naming.client import NameClient
from repro.core.rebind import RebindingProxy
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Process
from repro.sim.kernel import Event


class SettopApp:
    """One downloaded application running on a settop."""

    name = "app"

    def __init__(self, am, process: Process):
        self.am = am
        self.process = process
        self.kernel = process.kernel
        self.host = process.host
        self.params = am.params
        self.runtime = OCSRuntime(process, am.settop.network,
                                  principal=f"{self.name}@{self.host.ip}")
        # Apps come and go with every channel change, but the host's
        # binding cache persists: a fresh app's first resolve of a name
        # any earlier component resolved is answered locally (PR 5).
        self.names = NameClient(self.runtime, am.boot_params["ns_ips"],
                                self.params, cache=cache_for(self.host, self.params))
        #: set once start() completes; the AM awaits it before handing
        #: the app to the viewer (remote-control events queue until then)
        self.ready = Event(self.kernel)

    async def run(self) -> None:
        await self.start()
        self.ready.set()
        await self.kernel.create_future()  # UI event loop

    async def start(self) -> None:
        """Override: set up proxies, display cover, etc."""

    async def shutdown(self) -> None:
        """Release held resources before the AM replaces this app.

        "Normally, applications close movies when they are through with
        them" (section 3.5.1) -- a channel change is the app being
        through.  Crash paths skip this, which is exactly the resource
        leak the RAS/limits machinery exists to bound.
        """

    def proxy(self, service_name: str, **kwargs) -> RebindingProxy:
        return RebindingProxy(self.runtime, self.names, service_name,
                              self.params, **kwargs)

    def emit(self, event: str, **fields) -> None:
        if self.am.settop.trace is not None:
            self.am.settop.trace.emit(f"app.{self.name}", event,
                                      settop=self.host.ip, **fields)
