"""Test helpers: small clusters for name service / OCS level tests."""

from repro.core.naming import start_name_replica
from repro.core.params import Params
from repro.net import Network, server_ip, settop_ip
from repro.sim import Host, Kernel, SeededRandom
from repro.sim.trace import TraceLog


class NsWorld:
    """A kernel + network + N servers, each running a name replica."""

    def __init__(self, n_servers=3, params=None, seed=7):
        self.kernel = Kernel()
        self.net = Network(self.kernel)
        self.params = params or Params()
        self.rng = SeededRandom(seed)
        self.trace = TraceLog(self.kernel)
        self.hosts = []
        self.replicas = {}
        ips = [server_ip(i) for i in range(n_servers)]
        self.replica_ips = ips
        for i in range(n_servers):
            host = Host(self.kernel, f"server-{i}")
            self.net.attach(host, ips[i])
            self.hosts.append(host)
        for host in self.hosts:
            self.start_replica(host)

    def start_replica(self, host):
        replica = start_name_replica(
            host, self.net, self.params, self.replica_ips,
            rng=self.rng.stream(f"ns-{host.ip}"), trace=self.trace)
        self.replicas[host.ip] = replica
        return replica

    def settle(self, duration=15.0):
        """Run long enough for a master election to complete."""
        self.kernel.run(until=self.kernel.now + duration)
        return self.master()

    def master(self):
        masters = [r for r in self.replicas.values()
                   if r.role == "master" and r.process.alive]
        return masters[0] if masters else None

    def client(self, host, name="client"):
        """A fresh client process + runtime + NameClient on ``host``."""
        from repro.core.naming import NameClient
        from repro.ocs import OCSRuntime
        proc = host.spawn(name)
        runtime = OCSRuntime(proc, self.net)
        return proc, runtime, NameClient(runtime, host.ip, self.params)

    def run_async(self, coro, limit=1e9):
        return self.kernel.run_until_complete(coro, limit=limit)




# ---------------------------------------------------------------------------
# Toy services used by cluster-level tests
# ---------------------------------------------------------------------------

from repro.core.replication import PrimaryBackupBinder  # noqa: E402
from repro.idl import register_interface  # noqa: E402
from repro.services.base import Service  # noqa: E402

register_interface("PingService", {
    "ping": (),
    "whoami": (),
}, doc="toy service for cluster tests")


class PingService(Service):
    """Active-replica toy service: binds svc/ping/<server-ip>."""

    service_name = "ping"

    async def start(self):
        self.ref = self.runtime.export(_PingServant(self), "PingService")
        await self.register_objects([self.ref])
        await self.bind_as_replica("ping", self.host.ip, self.ref,
                                   selector="sameserver")


class PBPingService(Service):
    """Primary/backup toy service racing for svc/pbping."""

    service_name = "pbping"

    async def start(self):
        self.ref = self.runtime.export(_PingServant(self), "PingService")
        await self.register_objects([self.ref])
        self.binder = PrimaryBackupBinder(self, "svc/pbping", self.ref)
        self.spawn_task(self.binder.run(), name="pb-binder")


class _PingServant:
    def __init__(self, svc):
        self._svc = svc

    async def ping(self, ctx):
        return "pong"

    async def whoami(self, ctx):
        return self._svc.host.ip


# ---------------------------------------------------------------------------
# Shared OCS-level scaffolding (PR 5: extracted from test_overload.py so
# overload, cache, and property tests stop re-declaring the same toys)
# ---------------------------------------------------------------------------

from repro.ocs import AdmissionGate, OCSRuntime  # noqa: E402

register_interface("OverloadEcho", {
    "echo": ("value",),
    "slow": ("duration",),
}, doc="toy interface for overload/cache tests")


class EchoServant:
    def __init__(self, kernel):
        self.kernel = kernel

    async def echo(self, ctx, value):
        return value

    async def slow(self, ctx, duration):
        await self.kernel.sleep(duration)
        return "done"


def small_world(n_hosts=2):
    """A kernel + network + ``n_hosts`` bare server hosts."""
    kernel = Kernel()
    net = Network(kernel)
    hosts = []
    for i in range(n_hosts):
        host = Host(kernel, f"server-{i}")
        net.attach(host, server_ip(i))
        hosts.append(host)
    return kernel, net, hosts


class EventRecorder:
    """Wrap ``kernel``'s three scheduling calls on the instance.

    ``armed`` logs the name of every ``call_soon``/``call_at``/
    ``call_later`` made, and ``fired`` the instant every callback so
    armed fired at, in firing order.
    """

    def __init__(self, kernel):
        self.armed = []
        self.fired = []
        for name, fn_at in (("call_soon", 0), ("call_at", 1),
                            ("call_later", 1)):
            setattr(kernel, name,
                    self._recording(kernel, name, getattr(kernel, name), fn_at))

    def _recording(self, kernel, name, schedule, fn_at):
        def scheduled(*args):
            fn = args[fn_at]

            def fire(*fn_args):
                self.fired.append(kernel.now)
                return fn(*fn_args)

            self.armed.append(name)
            return schedule(*args[:fn_at], fire, *args[fn_at + 1:])
        return scheduled


def start_echo(kernel, net, host, name="echo-svc"):
    """Export an OverloadEcho servant; returns (runtime, ref)."""
    proc = host.spawn(name)
    runtime = OCSRuntime(proc, net)
    ref = runtime.export(EchoServant(kernel), "OverloadEcho")
    return runtime, ref


def client_runtime(net, host, name="client"):
    proc = host.spawn(name)
    return OCSRuntime(proc, net)


def small_gate(max_inflight=2, max_queue=3):
    params = Params().with_overrides(admission_max_inflight=max_inflight,
                                     admission_max_queue=max_queue)
    return AdmissionGate("toy", params)


class StubNames:
    """Deterministic resolve results for proxy tests.

    Mimics the NameClient surface the RebindingProxy touches: resolve()
    pops scripted results (an Exception entry raises), and invalidate()
    records the proxy's coherence-by-exception reports.
    """

    def __init__(self, refs):
        self._refs = list(refs)
        self.invalidated = []

    async def resolve(self, name):
        ref = self._refs[0]
        if len(self._refs) > 1:
            self._refs.pop(0)
        if isinstance(ref, Exception):
            raise ref
        return ref

    def invalidate(self, name, ref=None):
        self.invalidated.append((name, ref))


# ---------------------------------------------------------------------------
# Shared cluster-level scaffolding (PR 5: the build/boot/viewer dance that
# test_overload.py, the chaos engine tests, and the benchmarks all repeat)
# ---------------------------------------------------------------------------


def booted_cluster(n_servers=3, seed=42, params=None, settops=1,
                   neighborhoods=None, boot_timeout=300.0):
    """A full cluster with ``settops`` booted settop kernels.

    ``neighborhoods`` lists the neighborhood of each kernel; by default
    kernels round-robin over the cluster's neighborhoods.
    Returns ``(cluster, kernels)``.
    """
    from repro.cluster.builder import build_full_cluster

    cluster = build_full_cluster(n_servers=n_servers, seed=seed,
                                 params=params)
    if neighborhoods is None:
        neighborhoods = [cluster.neighborhoods[i % len(cluster.neighborhoods)]
                         for i in range(settops)]
    kernels = [cluster.add_settop_kernel(n) for n in neighborhoods]
    assert cluster.boot_settops(kernels, timeout=boot_timeout), \
        "settop boot did not complete"
    return cluster, kernels


def viewer_evening(cluster, kernels, duration=150.0, seed=7):
    """Run viewer sessions on booted kernels; returns SessionStats."""
    from repro.workloads.sessions import run_viewers
    return run_viewers(cluster, kernels, duration, seed=seed)


#: the chaos sweep configuration tests and CI agree must stay green
GREEN_CHAOS_SEED = 1
GREEN_CHAOS_KWARGS = dict(n_faults=5, horizon=120.0, settops=2)


def green_chaos_runs(runs=2):
    """Run the green chaos seed ``runs`` times (determinism criterion)."""
    from repro.chaos import run_seed
    return [run_seed(GREEN_CHAOS_SEED, **GREEN_CHAOS_KWARGS)
            for _ in range(runs)]
