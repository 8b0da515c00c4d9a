"""Boot Broadcast and Kernel Broadcast services (sections 3.3, 3.4.1).

"Because settops are diskless, the kernel and first application are
broadcast to settops using a secure protocol.  This broadcast also
provides the settops with basic configuration information, such as the
IP address of the name service replica to be used by this settop."

Each server's Boot Broadcast Service cycles boot parameters to the
settops of its neighbourhoods over the shared downstream channel.  The
Kernel Broadcast Service is one of the paper's primary/backup services
(section 8.1 lists it with the CSC and MMS): only the primary broadcasts
the kernel image, cluster-wide.
"""

from __future__ import annotations

from repro.core.replication import PrimaryBackupBinder
from repro.idl import register_interface
from repro.ocs.runtime import CallContext
from repro.services.base import Service
from repro.services.data import Blob

# Well-known settop ports for the downstream broadcast channel.
BOOT_PARAMS_PORT = 100
KERNEL_PORT = 101

BOOT_CYCLE = 2.0       # params broadcast period
KERNEL_CYCLE = 3.0     # kernel image broadcast period
KERNEL_SIZE = 512_000  # bytes
KERNEL_VERSION = 7

register_interface("BootBroadcast", {
    "bootInfo": ("neighborhood",),
    "broadcastCount": (),
}, doc="Boot parameter broadcast (section 3.4.1)",
   idempotent=("bootInfo", "broadcastCount"))

register_interface("KernelBroadcast", {
    "kernelVersion": (),
}, doc="Kernel image broadcast (Figure 2)",
   idempotent=("kernelVersion",))


class BootBroadcastService(Service):
    service_name = "boot"

    def __init__(self, env, process):
        super().__init__(env, process)
        self.broadcasts = 0

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "BootBroadcast")
        await self.register_objects([self.ref])
        await self.bind_as_replica("boot", self.host.ip, self.ref,
                                   selector="sameserver")
        self.spawn_task(self._broadcast_loop(), name="boot-broadcast").detach()

    def boot_params(self, neighborhood: int) -> dict:
        return {
            "neighborhood": neighborhood,
            # The name service replicas this settop bootstraps from: its
            # neighbourhood's server first, with the other replicas as
            # fall-backs should that server fail.
            "ns_ips": [self.host.ip] + [
                ip for ip in self.env.cluster.get("server_ips", [])
                if ip != self.host.ip],
            "kernel_version": KERNEL_VERSION,
            "first_application": "appmgr",
            # Channel line-up: which channels carry interactive
            # applications or venues (section 3.4.3).
            "channels": self.env.cluster.get("channels", {}),
            "venues": self.env.cluster.get("venues", {}),
        }

    def bootInfo(self, ctx: CallContext, neighborhood: int) -> dict:
        return self.boot_params(neighborhood)

    def broadcastCount(self, ctx: CallContext) -> int:
        return self.broadcasts

    async def _broadcast_loop(self) -> None:
        while True:
            settops = self.env.cluster.get("settops_by_neighborhood", {})
            for nbhd in self.my_neighborhoods():
                ips = settops.get(nbhd, [])
                if not ips:
                    continue
                self.env.network.broadcast(
                    self.host.ip, ips, BOOT_PARAMS_PORT, "boot.params",
                    self.boot_params(nbhd), payload_bytes=512)
                self.broadcasts += 1
            await self.kernel.sleep(BOOT_CYCLE)


class KernelBroadcastService(Service):
    service_name = "kbs"

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "KernelBroadcast")
        self.binder = PrimaryBackupBinder(self, "svc/kbs", self.ref,
                                          on_promote=self._on_promote)
        await self.register_objects([self.ref])
        self.spawn_task(self.binder.run(), name="kbs-binder").detach()

    def _on_promote(self):
        self.spawn_task(self._broadcast_loop(), name="kbs-broadcast").detach()

    async def _broadcast_loop(self) -> None:
        image = Blob(name="kernel", size=KERNEL_SIZE, version=KERNEL_VERSION,
                     kind="kernel")
        while self.binder.is_primary:
            settops = self.env.cluster.get("settops_by_neighborhood", {})
            all_ips = [ip for ips in settops.values() for ip in ips]
            if all_ips:
                self.env.network.broadcast(
                    self.host.ip, all_ips, KERNEL_PORT, "boot.kernel",
                    {"version": KERNEL_VERSION, "image": image},
                    payload_bytes=KERNEL_SIZE)
            await self.kernel.sleep(KERNEL_CYCLE)

    def kernelVersion(self, ctx: CallContext) -> int:
        return KERNEL_VERSION
