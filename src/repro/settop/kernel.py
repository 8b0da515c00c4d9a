"""The settop kernel: secure diskless boot + liveness heartbeats.

Section 3.4.1: "Because settops are diskless, the kernel and first
application are broadcast to settops using a secure protocol.  This
broadcast also provides the settops with basic configuration
information, such as the IP address of the name service replica to be
used by this settop.  The application obtained during boot is the
Application Manager."

The kernel also feeds the Settop Manager: a boot report and periodic
heartbeats on the slow upstream path, which is how the rest of the
system learns a settop died (section 7.2 source 1).
"""

from __future__ import annotations

from typing import Optional

from repro.core.params import Params
from repro.ocs import Message, Network
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.runtime import OCSRuntime
from repro.services.boot import BOOT_PARAMS_PORT, KERNEL_PORT, KERNEL_VERSION
from repro.sim.host import Host, Process
from repro.sim.trace import TraceLog

SETTOP_HEARTBEAT = 5.0


class SettopKernel:
    """Software stack of one settop host."""

    def __init__(self, host: Host, network: Network, params: Params,
                 trace: Optional[TraceLog] = None):
        self.host = host
        self.network = network
        self.params = params
        self.trace = trace
        self.kernel = host.kernel
        self.state = "off"
        self.boot_params: Optional[dict] = None
        self.process: Optional[Process] = None
        self.app_manager = None
        self.powered_on_at: Optional[float] = None
        self.booted_at: Optional[float] = None

    # -- power control --------------------------------------------------

    def power_on(self) -> None:
        if self.state != "off":
            return
        # Power-on racing a deferred power-off cut: finish the cut first.
        cutoff = getattr(self, "_cutoff", None)
        if cutoff is not None and not cutoff.cancelled:
            cutoff.cancel()
            self.host.crash()
        if not self.host.up:
            self.host.boot()
        self.state = "waiting_params"
        self.powered_on_at = self.kernel.now
        self.process = self.host.spawn("stk")
        self.network.bind_port(self.host.ip, BOOT_PARAMS_PORT, self._on_params)
        self.network.bind_port(self.host.ip, KERNEL_PORT, self._on_kernel)
        self.process.on_exit(self._cleanup_ports)
        self._emit("power_on")

    def power_off(self) -> None:
        """User turns the set off: every settop process dies at once.

        A courtesy ``reportShutdown`` races ahead on the uplink so the
        Settop Manager marks the set down immediately instead of waiting
        out the missed-heartbeat horizon -- resource reclamation for a
        clean power-off is then just one RAS poll away.
        """
        self._emit("power_off")
        mgr = getattr(self, "_mgr_ref", None)
        runtime = getattr(self, "_runtime", None)
        announce = (mgr is not None and runtime is not None
                    and self.process is not None and self.process.alive)
        if announce:
            # reportShutdown is oneway: the protocol itself says no reply
            # is coming, so nothing is silently dropped by detaching the
            # (already-resolved) future.
            runtime.invoke(mgr, "reportShutdown", (self.host.ip,),
                           timeout=self.params.call_timeout).detach()
        self.state = "off"
        self.app_manager = None
        if announce:
            # The uplink is slow (50 kbit/s): give the datagram a beat to
            # serialize before the transmitter loses power.
            self._cutoff = self.kernel.call_later(0.2, self.host.crash)
        else:
            self.host.crash()

    def crash(self) -> None:
        """Settop software crash (section 3.5.1): same effect as power-off
        from the cluster's point of view, but unintentional."""
        self._emit("crash")
        self.state = "off"
        self.app_manager = None
        self.host.crash()

    def _cleanup_ports(self, _proc: Process) -> None:
        self.network.unbind_port(self.host.ip, BOOT_PARAMS_PORT)
        self.network.unbind_port(self.host.ip, KERNEL_PORT)

    # -- boot protocol ---------------------------------------------------

    def _on_params(self, msg: Message) -> None:
        if self.state != "waiting_params":
            return
        self.boot_params = dict(msg.payload)
        self.state = "waiting_kernel"
        self._emit("got_boot_params", ns_ip=self.boot_params["ns_ips"][0])

    def _on_kernel(self, msg: Message) -> None:
        if self.state != "waiting_kernel":
            return
        if msg.payload.get("version") != KERNEL_VERSION:
            return
        self.state = "booted"
        self.booted_at = self.kernel.now
        self._emit("booted", took=self.booted_at - self.powered_on_at)
        self.process.create_task(self._after_boot(), name="stk-postboot").detach()

    async def _after_boot(self) -> None:
        from repro.settop.app_manager import AppManager
        runtime = OCSRuntime(self.process, self.network,
                             principal=f"settop@{self.host.ip}")
        self._runtime = runtime
        await self._report_boot(runtime)
        self.process.create_task(self._heartbeat_loop(runtime),
                                 name="stk-heartbeat").detach()
        # Start the first application: the Application Manager.
        am_proc = self.host.spawn("appmgr", parent=self.process)
        self.app_manager = AppManager(self, am_proc, self.boot_params)
        am_proc.create_task(self.app_manager.run(), name="appmgr-main").detach()

    def _names(self, runtime: OCSRuntime):
        """A NameClient sharing the settop's binding cache (PR 5)."""
        from repro.core.naming.cache import cache_for
        from repro.core.naming.client import NameClient
        return NameClient(runtime, self.boot_params["ns_ips"], self.params,
                          cache=cache_for(self.host, self.params))

    async def _report_boot(self, runtime: OCSRuntime) -> None:
        names = self._names(runtime)
        while self.state == "booted":
            mgr = None
            try:
                mgr = await names.resolve("svc/settopmgr")
                await runtime.invoke(mgr, "reportBoot", (self.host.ip,),
                                     timeout=self.params.call_timeout)
                self._mgr_ref = mgr
                return
            except Exception:  # noqa: BLE001 - cluster may still be starting
                # The resolve may have come out of the binding cache; a
                # failed use must report it bad or the retry loop would
                # be handed the same dead ref forever.
                if mgr is not None:
                    names.invalidate("svc/settopmgr", mgr)
                await self.kernel.sleep(2.0)

    async def _heartbeat_loop(self, runtime: OCSRuntime) -> None:
        names = self._names(runtime)
        mgr = getattr(self, "_mgr_ref", None)
        while True:
            await self.kernel.sleep(SETTOP_HEARTBEAT)
            if mgr is None:
                try:
                    mgr = await names.resolve("svc/settopmgr")
                except Exception:  # noqa: BLE001
                    continue
            try:
                await runtime.invoke(mgr, "heartbeat", (self.host.ip,),
                                     timeout=self.params.call_timeout)
            except ServiceUnavailable:
                # Coherence by exception: drop the settop's cached
                # binding so the re-resolve above reaches the name
                # service instead of replaying the cache.
                names.invalidate("svc/settopmgr", mgr)
                mgr = None

    def _emit(self, event: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit("settop", event, settop=self.host.ip, **fields)
