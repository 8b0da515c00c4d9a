"""Build and drive a whole cluster (the public top-level API).

``build_cluster()`` assembles the paper's deployment: N server machines
on FDDI, each booted by init into an SSC that starts the base services
(name service, RAS, Settop Manager, database, authentication -- section
6.3), neighbourhoods assigned round-robin to servers, and optionally the
ITV service stack and settops.

Everything a test, example, or benchmark does goes through the returned
:class:`Cluster` handle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.control.registry import ServiceEnv, ServiceRegistry
from repro.core.control.ssc import install_init
from repro.core.naming.client import NameClient
from repro.core.params import Params
from repro.metrics.cluster import live_replicas
from repro.net.address import server_ip, settop_ip
from repro.net.network import Network
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Host, Process
from repro.sim.kernel import Kernel
from repro.sim.rand import SeededRandom
from repro.sim.trace import TraceLog

#: services init starts on every server, in dependency order (section 6.3
#: step 2: "the SSC starts the basic services, including the name service,
#: the authentication service, the Resource Audit Service, and the data
#: base service").
BASE_SERVICES = ["ns", "ras", "settopmgr", "db", "auth"]


def fresh_run_state() -> None:
    """Does nothing: a run's pids, ports and message ids come from its own
    ``Kernel`` and ``Network``.  Kept only because
    ``benchmarks/e2e/workloads.py`` calls it; ROADMAP item 1 deletes it
    with the ``TimerWheel`` alias."""


class Cluster:
    """A running simulated cluster."""

    def __init__(self, n_servers: int = 3, neighborhoods_per_server: int = 2,
                 params: Optional[Params] = None, seed: int = 0,
                 base_services: Optional[List[str]] = None,
                 cluster_config: Optional[Dict[str, Any]] = None):
        self.kernel = Kernel()
        self.params = params or Params()
        self.rng = SeededRandom(seed)
        self.trace = TraceLog(self.kernel)
        if self.params.hb_trace:
            # Route happens-before events into the run's own trace; every
            # emission site guards on ``kernel.hb_log is not None``, so
            # runs without the flag stay byte-identical to the goldens.
            self.kernel.hb_log = self.trace
        self.net = Network(self.kernel)
        # Fault firings (duplicate/reorder/corrupt) log into the run's
        # trace; with no faults injected nothing is emitted, so golden
        # digests of fault-free runs are untouched.
        self.net.trace = self.trace
        self.registry = ServiceRegistry()
        self.base_services = list(base_services or BASE_SERVICES)
        self.servers: List[Host] = []
        self.settops: List[Host] = []
        self.neighborhoods_by_server: Dict[str, List[int]] = {}
        self._settop_counters: Dict[int, int] = {}

        for i in range(n_servers):
            host = Host(self.kernel, f"server-{i}")
            self.net.attach(host, server_ip(i))
            # Like hb_trace above: every disk keeps its PR-7 behavior
            # (writes durable immediately) unless the run opts into the
            # crash-consistency fault model.
            host.disk.write_barrier = self.params.disk_write_barrier
            self.servers.append(host)
        self.server_ips = [h.ip for h in self.servers]

        total_neighborhoods = n_servers * neighborhoods_per_server
        self.neighborhoods = list(range(1, total_neighborhoods + 1))
        for idx, nbhd in enumerate(self.neighborhoods):
            ip = self.server_ips[idx % n_servers]
            self.neighborhoods_by_server.setdefault(ip, []).append(nbhd)

        self.cluster_config: Dict[str, Any] = {
            "ns_replica_ips": list(self.server_ips),
            "neighborhoods_by_server": dict(self.neighborhoods_by_server),
            "server_ips": list(self.server_ips),
        }
        if cluster_config:
            self.cluster_config.update(cluster_config)

        self._register_builtin_services()
        self._seed_disks()
        for host in self.servers:
            install_init(host, self._env_maker(host), self.registry,
                         self.base_services)

    # ------------------------------------------------------------------
    # construction details
    # ------------------------------------------------------------------

    def _env_maker(self, host: Host) -> Callable[[], ServiceEnv]:
        def make_env() -> ServiceEnv:
            return ServiceEnv(
                host=host, network=self.net, params=self.params,
                ns_ip=host.ip, rng=self.rng.stream(f"svc-{host.ip}"),
                trace=self.trace, cluster=self.cluster_config)
        return make_env

    def _register_builtin_services(self) -> None:
        from repro.cluster.catalog import register_all_services
        register_all_services(self.registry, self)

    def _seed_disks(self) -> None:
        """Install keytabs and static configuration on every server disk."""
        from repro.auth.service import seed_secret
        from repro.db.service import seed_database
        secret = f"orlando-cluster-secret-{self.rng.seed}".encode()
        self.cluster_config["auth_secret"] = secret
        placement = self.cluster_config.get("service_placement", {})
        for host in self.servers:
            seed_secret(host.disk, secret)
            seed_database(host.disk, "config", {
                "placement": placement,
                "neighborhoods_by_server": self.neighborhoods_by_server,
            })
            # Factory image: build-time seeds (keytabs, config, media
            # catalogs) are durable even when the run's fault model
            # buffers runtime writes behind the write barrier.
            host.disk.sync()

    # ------------------------------------------------------------------
    # time control
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def run_for(self, duration: float) -> None:
        self.kernel.run(until=self.kernel.now + duration)

    def run_async(self, coro, limit: float = 1e9):
        return self.kernel.run_until_complete(coro, limit=limit)

    def settle(self, timeout: float = 120.0, extra_names: Optional[List[str]] = None,
               step: float = 1.0) -> bool:
        """Run until the base services are registered and resolvable.

        Checks that a name-service master exists and that every server's
        RAS binding resolves (plus any ``extra_names``).  Returns True on
        success, False if ``timeout`` simulated seconds pass first.
        """
        deadline = self.kernel.now + timeout
        names = [f"svc/ras/{ip}" for ip in self.server_ips
                 if "ras" in self.base_services]
        # Every base service's replica bindings, not just RAS: with
        # jittered-exponential retry backoff, a service can finish its
        # bind several (simulated) seconds after its peers, and "settled"
        # must mean all of them are resolvable.
        if "auth" in self.base_services:
            names += [f"svc/auth/{ip}" for ip in self.server_ips]
        if "db" in self.base_services:
            names += [f"svc/db-all/{ip}" for ip in self.server_ips]
        if "settopmgr" in self.base_services:
            names += [f"svc/settopmgr/{n}" for n in self.neighborhoods]
        names += list(extra_names or [])
        checker = self.client_on(self.servers[0], name="settle-checker")
        try:
            while self.kernel.now < deadline:
                self.run_for(step)
                if self._all_resolvable(checker, names):
                    return True
            return False
        finally:
            checker.process.kill(status="settle checker done")

    def _all_resolvable(self, checker: "ClusterClient", names: List[str]) -> bool:
        async def check() -> bool:
            for name in names:
                try:
                    await checker.names.resolve(name)
                except Exception:  # noqa: BLE001 - any failure means not ready
                    return False
            return True

        return self.run_async(check())

    # ------------------------------------------------------------------
    # clients and hosts
    # ------------------------------------------------------------------

    def client_on(self, host: Host, name: str = "client") -> "ClusterClient":
        proc = host.spawn(name)
        runtime = OCSRuntime(proc, self.net)
        return ClusterClient(self, proc, runtime)

    def add_settop(self, neighborhood: int, upstream_bps: Optional[float] = None,
                   downstream_bps: Optional[float] = None) -> Host:
        """Attach a new settop host in ``neighborhood`` (no software yet)."""
        if neighborhood not in self.neighborhoods:
            raise ValueError(f"unknown neighborhood {neighborhood}")
        unit = self._settop_counters.get(neighborhood, 0)
        self._settop_counters[neighborhood] = unit + 1
        host = Host(self.kernel, f"settop-{neighborhood}-{unit}", kind="settop")
        self.net.attach(host, settop_ip(neighborhood, unit),
                        upstream_bps=upstream_bps, downstream_bps=downstream_bps)
        self.settops.append(host)
        # The headend's plant map: who the broadcast services reach.
        plant = self.cluster_config.setdefault("settops_by_neighborhood", {})
        plant.setdefault(neighborhood, []).append(host.ip)
        return host

    def add_population(self, count: int) -> List[Host]:
        """Attach ``count`` bare settop hosts, round-robin across every
        neighborhood (PR 5).

        Population-scale workloads (:mod:`repro.workloads.population`)
        attach their own lightweight client stack to each host instead
        of booting a full :class:`SettopKernel`, so thousands of
        settops fit in one run.  The plant's address space allows 254
        settops per neighborhood; build the cluster with more
        neighborhoods per server to raise the ceiling.
        """
        per_nbhd = 254
        capacity = per_nbhd * len(self.neighborhoods)
        if len(self.settops) + count > capacity:
            raise ValueError(
                f"population of {len(self.settops) + count} settops exceeds "
                f"plant capacity {capacity} "
                f"({len(self.neighborhoods)} neighborhoods x {per_nbhd})")
        hosts: List[Host] = []
        for i in range(count):
            nbhd = self.neighborhoods[i % len(self.neighborhoods)]
            hosts.append(self.add_settop(nbhd))
        return hosts

    def add_settop_kernel(self, neighborhood: int, power_on: bool = True,
                          **kwargs):
        """Attach a settop *with software*: returns its SettopKernel."""
        from repro.settop.kernel import SettopKernel
        host = self.add_settop(neighborhood, **kwargs)
        stk = SettopKernel(host, self.net, self.params, trace=self.trace)
        if power_on:
            stk.power_on()
        return stk

    def boot_settops(self, kernels, timeout: float = 120.0,
                     require_app_manager: bool = True) -> bool:
        """Run until every given settop has booted (and started its AM)."""
        deadline = self.kernel.now + timeout
        while self.kernel.now < deadline:
            self.run_for(1.0)
            if all(stk.state == "booted"
                   and (not require_app_manager or
                        (stk.app_manager is not None
                         and stk.app_manager.current_app is not None))
                   for stk in kernels):
                return True
        return False

    def server_for_neighborhood(self, neighborhood: int) -> Host:
        for ip, nbhds in self.neighborhoods_by_server.items():
            if neighborhood in nbhds:
                return self.net.host_at(ip)
        raise ValueError(f"no server owns neighborhood {neighborhood}")

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def crash_server(self, index: int) -> Host:
        host = self.servers[index]
        self.trace.emit("fault", "server_crash", host=host.name)
        host.crash()
        return host

    def reboot_server(self, index: int) -> Host:
        host = self.servers[index]
        self.trace.emit("fault", "server_boot", host=host.name)
        host.boot()
        return host

    def kill_service(self, index: int, process_name: str) -> bool:
        """Kill one service process on a server (returns False if absent)."""
        host = self.servers[index]
        proc = host.find_process(process_name)
        if proc is None:
            return False
        self.trace.emit("fault", "service_crash", host=host.name,
                        service=process_name)
        proc.kill()
        return True

    def crash_settop(self, index: int) -> Host:
        """Fail-stop one settop (by position in ``self.settops``)."""
        host = self.settops[index]
        self.trace.emit("fault", "settop_crash", host=host.name)
        host.crash()
        return host

    def kill_ssc(self, index: int) -> bool:
        """Kill a server's SSC: every service it started dies with it."""
        return self.kill_service(index, "ssc")

    def find_service(self, index: int, process_name: str) -> Optional[Process]:
        return self.servers[index].find_process(process_name)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def ns_master_ip(self) -> Optional[str]:
        return self._primary_ip("ns")

    def db_primary_ip(self) -> Optional[str]:
        """Which live db replica currently holds the primary binding.

        Write-through replication (PR 7) routes every write here; tests
        and fault schedules use this to aim kill-primary-mid-write
        drills at the right host.
        """
        return self._primary_ip("db")

    def _primary_ip(self, kind: str) -> Optional[str]:
        return next((ip for ip, store in live_replicas(self, kind)
                     if store.is_primary), None)

    def running_services(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for host in self.servers:
            out[host.name] = sorted(p.name for p in host.processes if p.alive)
        return out


class ClusterClient:
    """A client process with OCS runtime + name client, for tests/examples."""

    def __init__(self, cluster: Cluster, process: Process, runtime: OCSRuntime):
        self.cluster = cluster
        self.process = process
        self.runtime = runtime
        self.names = NameClient(runtime, process.host.ip, cluster.params)

    @property
    def kernel(self) -> Kernel:
        return self.cluster.kernel


#: services every server runs in the full ITV configuration
PER_SERVER_SERVICES = ["cmgr", "mds", "rds", "boot", "fileservice",
                       "vod", "shopping", "game"]
#: primary/backup services placed on the first two servers
PB_SERVICES = ["mms", "kbs"]


def build_full_cluster(n_servers: int = 3, neighborhoods_per_server: int = 2,
                       params: Optional[Params] = None, seed: int = 0,
                       settle_timeout: float = 180.0,
                       **kwargs) -> Cluster:
    """Assemble the complete ITV system of Figure 2.

    Base services come up via init/SSC; the CSC (started on the first two
    servers) reads the placement from the database and directs each SSC
    to start the ITV stack (section 6.3 step 4).
    """
    cluster = Cluster(n_servers=n_servers,
                      neighborhoods_per_server=neighborhoods_per_server,
                      params=params, seed=seed,
                      base_services=BASE_SERVICES + ["csc"], **kwargs)
    server_ips = cluster.server_ips
    placement: Dict[str, List[str]] = {
        svc: list(server_ips) for svc in PER_SERVER_SERVICES}
    for svc in PB_SERVICES:
        placement[svc] = server_ips[:2] if len(server_ips) >= 2 else server_ips
    cluster.cluster_config["service_placement"] = placement
    from repro.cluster.media import seed_default_content
    seed_default_content(cluster)
    # Re-seed config now that the placement is known (disks were seeded in
    # the constructor before the placement existed).
    cluster._seed_disks()
    ready_names = ["svc/mms", "svc/kbs", "svc/csc"]
    ready_names += [f"svc/mds/{h.name}" for h in cluster.servers]
    ready_names += [f"svc/cmgr/{n}" for n in cluster.neighborhoods]
    ready_names += [f"svc/rds/{n}" for n in cluster.neighborhoods]
    if not cluster.settle(timeout=settle_timeout, extra_names=ready_names):
        raise RuntimeError("full cluster failed to settle")
    return cluster


def build_cluster(n_servers: int = 3, neighborhoods_per_server: int = 2,
                  params: Optional[Params] = None, seed: int = 0,
                  base_services: Optional[List[str]] = None,
                  settle: bool = True, **kwargs) -> Cluster:
    """Assemble a cluster and (by default) run it to a settled state."""
    cluster = Cluster(n_servers=n_servers,
                      neighborhoods_per_server=neighborhoods_per_server,
                      params=params, seed=seed, base_services=base_services,
                      **kwargs)
    if settle:
        if not cluster.settle():
            raise RuntimeError("cluster failed to settle")
    return cluster
