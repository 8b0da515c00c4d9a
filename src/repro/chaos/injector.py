"""Turns fault records into cluster actions, leaving a trace behind.

The injector is the only code that touches the raw fault surface
(``Network.partition``, ``set_loss``, host crash/boot, process kill) on
behalf of the chaos engine -- lint rule D009 keeps everyone else off it.
Every injection emits one ``chaos.inject`` trace event, so a trace
digest pins the schedule as well as the system's response, and a replay
that diverges in *injection* (not just reaction) is caught too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chaos.faults import Fault, FaultError, parse_target
from repro.cluster.builder import Cluster, ClusterClient
from repro.core.naming.client import NameClient
from repro.sim.host import Host, Process
from repro.sim.rand import SeededRandom

#: load_surge probe operation per service: (method, args).  Chosen to be
#: cheap reads that still traverse the service's backing dependencies
#: (db, MDS) so saturation is real, not synthetic.
SURGE_OPS: Dict[str, tuple] = {
    "vod": ("getBookmark", ("surge-probe",)),
    "shopping": ("catalog", ()),
    "mms": ("listTitles", ()),
    "mds": ("listTitles", ()),
}


class FaultInjector:
    """Applies :class:`Fault` records to a live cluster.

    ``killed`` records every process a chaos fault took down (including
    whole-host snapshots), with the injection time -- the future-leak
    monitor walks it to assert that a crash cancels everything it owned.
    """

    def __init__(self, cluster: Cluster, rng: SeededRandom):
        self.cluster = cluster
        self.rng = rng
        self.killed: List[dict] = []        # {"t": float, "proc": Process}
        self.injected: List[Fault] = []
        self._operator_clients: Dict[str, ClusterClient] = {}
        # OCS runtimes whose servant_lag a slow_consumer fault set; the
        # end-of-horizon heal restores them.
        self._lagged_runtimes: List[object] = []

    # -- entry points -----------------------------------------------------

    def inject(self, fault: Fault) -> None:
        handler = getattr(self, f"_do_{fault.kind}", None)
        if handler is None:
            raise FaultError(f"no injector for fault kind {fault.kind!r}")
        self.cluster.trace.emit("chaos", "inject", kind=fault.kind,
                                detail=fault.describe())
        self.injected.append(fault)
        handler(fault)

    def heal_all(self) -> None:
        """End-of-horizon cleanup: heal splits, clear link faults."""
        self.cluster.trace.emit("chaos", "heal_all")
        self.cluster.net.heal_partitions()
        self.cluster.net.clear_faults()
        for runtime in self._lagged_runtimes:
            runtime.servant_lag = 0.0
        self._lagged_runtimes.clear()
        # Un-wedge and disarm torn writes so verdict-time probes can run.
        # Write barriers stay armed: buffered-but-unsynced state is part
        # of what the durability monitor is judging.
        for host in self.cluster.servers:
            host.disk.heal()

    # -- process / node faults -------------------------------------------

    def _do_kill_service(self, fault: Fault) -> None:
        index = int(fault.args["server"])
        name = str(fault.args["service"])
        proc = self.cluster.find_service(index, name)
        if proc is not None:
            self._record_kill([proc])
        self.cluster.kill_service(index, name)

    def _do_kill_ssc(self, fault: Fault) -> None:
        index = int(fault.args["server"])
        host = self.cluster.servers[index]
        # The SSC's children die with it (it wait()s on them): snapshot
        # the whole process table so the leak monitor sees the cascade.
        self._record_kill(list(host.processes))
        self.cluster.kill_ssc(index)

    def _do_stop_service(self, fault: Fault) -> None:
        """Operator stop through the CSC: the service is *not* restarted.

        A kill is undone by the local SSC's supervision, and a raw SSC
        ``stopService`` is undone by the CSC's reconcile pass -- an
        operator stop must go through the CSC's ``stopServiceOn`` so the
        placement itself changes (section 8.1).  This is how the
        failover drill takes a primary down for good: the backup must
        win the name-binding race instead (section 5.2).
        """
        index = int(fault.args["server"])
        name = str(fault.args["service"])
        target = self.cluster.servers[index]
        operators = [h for h in self.cluster.servers if h.up]
        if not operators:
            return
        client = self._operator_on(operators[0])
        params = self.cluster.params

        async def stop() -> None:
            for _attempt in range(5):
                try:
                    csc = await client.names.resolve("svc/csc")
                    await client.runtime.invoke(
                        csc, "stopServiceOn", (name, target.ip),
                        timeout=params.call_timeout)
                    return
                except Exception:  # noqa: BLE001 - no primary yet; retry
                    await client.kernel.sleep(2.0)

        client.process.create_task(stop(), name=f"chaos-stop-{name}").detach()

    def _do_crash_server(self, fault: Fault) -> None:
        index = int(fault.args["server"])
        self._record_kill(list(self.cluster.servers[index].processes))
        self.cluster.crash_server(index)

    def _do_reboot_server(self, fault: Fault) -> None:
        self.cluster.reboot_server(int(fault.args["server"]))

    def _do_crash_settop(self, fault: Fault) -> None:
        index = int(fault.args["settop"])
        if index >= len(self.cluster.settops):
            return
        self._record_kill(list(self.cluster.settops[index].processes))
        self.cluster.crash_settop(index)

    # -- network faults ---------------------------------------------------

    def _do_partition(self, fault: Fault) -> None:
        side_a = {self._server_ip(i) for i in fault.args["servers_a"]}
        side_b = {self._server_ip(i) for i in fault.args["servers_b"]}
        if side_a & side_b:
            raise FaultError("partition sides overlap")
        self.cluster.net.partition(side_a, side_b)

    def _do_heal(self, fault: Fault) -> None:
        self.cluster.net.heal_partitions()

    def _do_loss(self, fault: Fault) -> None:
        ip = self._target_ip(str(fault.args["target"]))
        if ip is not None:
            self.cluster.net.set_loss(ip, float(fault.args["probability"]),
                                      self.rng.stream(f"loss-{ip}"))

    def _do_delay(self, fault: Fault) -> None:
        ip = self._target_ip(str(fault.args["target"]))
        if ip is not None:
            self.cluster.net.set_delay(ip, float(fault.args["extra"]))

    def _do_duplicate(self, fault: Fault) -> None:
        ip = self._target_ip(str(fault.args["target"]))
        if ip is not None:
            self.cluster.net.set_duplicate(
                ip, float(fault.args["probability"]),
                self.rng.stream(f"dup-{ip}"))

    def _do_reorder(self, fault: Fault) -> None:
        ip = self._target_ip(str(fault.args["target"]))
        if ip is not None:
            self.cluster.net.set_reorder(
                ip, float(fault.args["probability"]),
                float(fault.args.get("max_skew", 0.05)),
                self.rng.stream(f"reorder-{ip}"))

    def _do_corrupt(self, fault: Fault) -> None:
        ip = self._target_ip(str(fault.args["target"]))
        if ip is not None:
            self.cluster.net.set_corrupt(
                ip, float(fault.args["probability"]),
                self.rng.stream(f"corrupt-{ip}"))

    def _do_gray(self, fault: Fault) -> None:
        ip = self._server_ip(int(fault.args["server"]))
        self.cluster.net.set_gray(ip, float(fault.args["reply_lag"]))

    def _do_clear_link_faults(self, fault: Fault) -> None:
        self.cluster.net.clear_faults()

    # -- overload faults --------------------------------------------------

    def _do_load_surge(self, fault: Fault) -> None:
        """Flash crowd: burst clients on settop hosts hammer one service.

        Clients run on settops (not servers) so neighborhood Selectors
        resolve normally, and every call carries a short deadline -- the
        surge exercises shedding, in-queue expiry, and degraded modes
        all at once.
        """
        service = str(fault.args["service"])
        calls = int(fault.args["calls"])
        duration = float(fault.args.get("duration", 10.0))
        op = SURGE_OPS.get(service)
        if op is None:
            return   # no cheap probe op known for this service
        if "settop" in fault.args:
            index = int(fault.args["settop"])
            hosts = ([self.cluster.settops[index]]
                     if index < len(self.cluster.settops) else [])
        else:
            hosts = list(self.cluster.settops)
        hosts = [h for h in hosts if h.up]
        if not hosts:
            return
        surge_id = len(self.injected)
        for i, host in enumerate(hosts):
            share = calls // len(hosts) + (1 if i < calls % len(hosts) else 0)
            if share == 0:
                continue
            client = self.cluster.client_on(host,
                                            name=f"chaos-surge-{service}")
            # A settop host has no local NS replica; point the surge
            # client's name library at the cluster's replica set.
            client.names = NameClient(
                client.runtime,
                self.cluster.cluster_config["ns_replica_ips"],
                self.cluster.params)
            client.process.create_task(
                self._surge_driver(
                    client, service, op, share, duration,
                    self.rng.stream(f"surge-{surge_id}-{i}")),
                name=f"surge-{service}-{i}").detach()

    async def _surge_driver(self, client: ClusterClient, service: str,
                            op, share: int, duration: float,
                            rng: SeededRandom) -> None:
        method, args = op
        params = self.cluster.params
        try:
            ref = await client.names.wait_resolve(f"svc/{service}",
                                                  timeout=duration)
        except Exception:  # noqa: BLE001 - nothing to surge at
            return
        gap = duration / share
        for _ in range(share):
            deadline = client.kernel.now + params.call_timeout
            client.runtime.invoke(ref, method, args,
                                  timeout=params.call_timeout,
                                  deadline=deadline).detach()
            await client.kernel.sleep(rng.uniform(0.5 * gap, 1.5 * gap))

    def _do_slow_consumer(self, fault: Fault) -> None:
        """The named service dequeues slowly: queues build, work expires."""
        index = int(fault.args["server"])
        name = str(fault.args["service"])
        lag = float(fault.args["lag"])
        proc = self.cluster.find_service(index, name)
        if proc is None:
            return
        runtime = proc.attachments.get("ocs")
        if runtime is None:
            return
        runtime.servant_lag = lag
        if lag > 0:
            self._lagged_runtimes.append(runtime)

    # -- storage faults ---------------------------------------------------

    def _do_disk_lose_unsynced(self, fault: Fault) -> None:
        """Writes stop being durable unless sync()ed (volatile write cache)."""
        index = int(fault.args["server"])
        self.cluster.servers[index].disk.write_barrier = True

    def _do_disk_torn_write(self, fault: Fault) -> None:
        """The next buffered key is torn (half-written) at the next crash."""
        index = int(fault.args["server"])
        self.cluster.servers[index].disk.arm_torn_write()

    def _do_disk_corrupt(self, fault: Fault) -> None:
        """Bit-rot one durable key in place (latent sector error)."""
        index = int(fault.args["server"])
        key = str(fault.args["key"])
        self.cluster.servers[index].disk.corrupt(key)

    def _do_disk_wedge(self, fault: Fault) -> None:
        """Every disk op raises DiskWedged; auto-heals after ``duration``."""
        index = int(fault.args["server"])
        disk = self.cluster.servers[index].disk
        disk.wedged = True
        duration = fault.args.get("duration")
        if duration is not None:
            def unwedge() -> None:
                disk.wedged = False
            self.cluster.kernel.call_later(float(duration), unwedge)

    # -- helpers ----------------------------------------------------------

    def _record_kill(self, procs: List[Process]) -> None:
        now = self.cluster.now
        for proc in procs:
            self.killed.append({"t": now, "proc": proc})

    def _server_ip(self, index: int) -> str:
        try:
            return self.cluster.server_ips[index]
        except IndexError:
            raise FaultError(f"no server {index} in this cluster") from None

    def _target_ip(self, target: str) -> Optional[str]:
        kind, index = parse_target(target)
        if kind == "server":
            return self._server_ip(index)
        if index >= len(self.cluster.settops):
            return None   # schedule written for a larger settop population
        return self.cluster.settops[index].ip

    def _operator_on(self, host: Host) -> ClusterClient:
        client = self._operator_clients.get(host.ip)
        if client is None or not client.process.alive:
            client = self.cluster.client_on(host, name="chaos-operator")
            self._operator_clients[host.ip] = client
        return client
