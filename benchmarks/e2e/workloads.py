"""The five benchmark workloads.

Each workload is a function ``run(ctx, seed, scale)``: it builds its
cluster and clients (set-up), drives the load inside ``ctx.timed()`` (the
run phase), checks every reply it got, and leaves op samples in
``ctx.rec`` and counters in ``ctx.counts``.  All load is simulated
clients inside this one single-threaded process -- no OS threads, no
sockets.  ``scale`` multiplies the size; 1.0 is the size the committed
baseline was taken at.

Why these five (the README has the long form):

- ``rpc_echo``    stub/envelope/net/link/kernel/gate/reply-cache only;
                  no db, Disk, naming or services.
- ``evening_ro``  whole cluster, read-only: ocs + net + kernel + binding
                  cache + vod/mds servants; db read once per key.
- ``evening_rw``  same engine, stock mix: every write is a ChangeLog
                  append + replication + whole-table Disk copy.
- ``prime_time``  full settop stack: boot storm, movie opens, RDS
                  downloads over the 6 Mbit/s downlink, MDS pump timers.
- ``chaos_drills`` the E14/E16/E17/E18 fault schedules with every monitor
                  armed and an open-loop prober: fail-over, catch-up,
                  log recovery, reply-cache replay, shedding.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from typing import Callable, Dict, List

from repro.chaos.engine import trace_digest
from repro.chaos.injector import FaultInjector
from repro.chaos.monitors import MonitorBus
from repro.chaos.schedule import FaultSchedule
from repro.cluster.builder import build_full_cluster, fresh_run_state
from repro.cluster.scenario import Scenario
from repro.core.naming.cache import BindingCache
from repro.core.naming.client import NameClient
from repro.core.params import Params
from repro.core.rebind import RebindingProxy
from repro.idl import register_interface
from repro.net.address import server_ip, settop_ip
from repro.net.network import Network
from repro.ocs.admission import AdmissionGate
from repro.ocs.exceptions import OCSError, Overloaded, ServiceUnavailable
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.rand import SeededRandom
from repro.workloads.population import PopulationEngine
from repro.workloads.sessions import ViewerSession

HERE = pathlib.Path(__file__).resolve().parent
FROZEN = json.loads((HERE / "frozen.json").read_text())

# ----------------------------------------------------------------------
# rpc_echo
# ----------------------------------------------------------------------

register_interface("BenchEcho", {
    "echo": ("payload",),
    "bump": ("payload",),
}, doc="benchmark-only servant: echo is idempotent (bypasses the reply "
       "cache), bump is not (goes through it)",
   idempotent=("echo",))

ECHO_CLIENTS = 8
ECHO_CALLS = 48_000


class _EchoServant:
    def __init__(self) -> None:
        self.bumps: Dict[str, int] = {}

    def echo(self, ctx, payload):
        return payload

    def bump(self, ctx, payload):
        n = self.bumps.get(ctx.caller, 0) + 1
        self.bumps[ctx.caller] = n
        return n


def rpc_echo(ctx, seed: int, scale: float) -> None:
    """Two bare hosts, 8 closed-loop clients, half the calls idempotent."""
    fresh_run_state()
    kernel = Kernel()
    net = Network(kernel)
    server = Host(kernel, "echo-server")
    client_host = Host(kernel, "echo-clients")
    net.attach(server, server_ip(0))
    net.attach(client_host, server_ip(1))
    served = OCSRuntime(server.spawn("echo"), net)
    served.admission = AdmissionGate("bench-echo", Params())
    ref = served.export(_EchoServant(), "BenchEcho")
    rng = SeededRandom(seed)
    per_client = max(2, int(ECHO_CALLS * scale) // ECHO_CLIENTS)

    async def client(index: int, runtime: OCSRuntime, payloads) -> None:
        pick = rng.stream(f"pick-{index}")
        bumps = 0
        for call in range(per_client):
            payload = payloads[pick.randint(0, len(payloads) - 1)]
            due = kernel.now
            if call & 1:
                got = await runtime.invoke(ref, "bump", (payload,))
                bumps += 1
                good = got == bumps
            else:
                got = await runtime.invoke(ref, "echo", (payload,))
                good = got is payload
            if not good:
                ctx.error(f"client {index} call {call}: wrong reply {got!r}")
            ctx.rec.add(index, "rpc", due, kernel.now, True)

    clients = []
    for index in range(ECHO_CLIENTS):
        proc = client_host.spawn(f"client-{index}")
        sizes = rng.stream(f"sizes-{index}")
        payloads = [bytes(sizes.randint(16, 4096)) for _ in range(64)]
        clients.append((proc, OCSRuntime(proc, net), payloads))

    with ctx.timed():
        tasks = [proc.create_task(client(i, runtime, payloads), name="load")
                 for i, (proc, runtime, payloads) in enumerate(clients)]
        while not all(task.done() for task in tasks):
            ctx.run_until(kernel, kernel.now + 1.0, step=1 / 64)
        for task in tasks:
            task.result()
    ctx.counts.update(_snapshot(net, [server, client_host]))
    ctx.sim_s = kernel.now
    ctx.digest(repr(sorted(ctx.counts.items())))


# ----------------------------------------------------------------------
# evening_ro / evening_rw
# ----------------------------------------------------------------------

EVENING_SIM_S = 240.0
#: (settops, share of getBookmark, share of reportPosition); the rest of
#: the mix is catalog.  rw is the stock PopulationEngine mix.
EVENINGS = {"evening_ro": (800, 0.70, 0.0),
            "evening_rw": (400, 0.45, 0.35)}


class _Evening(PopulationEngine):
    """E15 population with a chosen op mix, op timing and reply checks."""

    def __init__(self, ctx, cluster, count: int, seed: int,
                 gets: float, reports: float):
        super().__init__(cluster, count, seed=seed)
        self.ctx = ctx
        self.gets = gets
        self.writes_below = gets + reports
        # The stock engine hands _one_op the settop's own rng stream; it
        # doubles as the settop's identity here: [stream, bookmark, title].
        self._settops: Dict[SeededRandom, list] = {}
        self._suffixes = self.rng.stream("title-suffixes")

    def _settop(self, rng, title: str) -> list:
        state = self._settops.get(rng)
        if state is None:
            # Each settop bookmarks its own edition of the stock title:
            # the length is what the request costs on the 50 kbit/s
            # uplink, so op latency is a distribution, not four values.
            edition = "#" * self._suffixes.randint(0, 40)
            state = self._settops[rng] = [len(self._settops), 0.0,
                                          title + edition]
        return state

    async def _one_op(self, vod, rng, title) -> None:
        state = self._settop(rng, title)
        title = state[2]
        kernel = self.cluster.kernel
        roll = rng.random()
        due = kernel.now
        ok = True
        try:
            if roll < self.gets:
                got = await vod.call("getBookmark", title)
                if got != state[1]:
                    self.ctx.error(f"settop {state[0]}: bookmark {got!r}, "
                                   f"wrote {state[1]!r}")
            elif roll < self.writes_below:
                position = round(rng.uniform(0.0, 200.0), 1)
                await vod.call("reportPosition", title, position)
                state[1] = position
            else:
                got = await vod.call("catalog")
                if not got["titles"] or got["degraded"]:
                    self.ctx.error(f"settop {state[0]}: catalog {got!r}")
            self.result.ops += 1
        except (ServiceUnavailable, OCSError):
            self.result.op_failures += 1
            ok = False
        self.ctx.rec.add(state[0], "tune+call", due, kernel.now, ok)


def evening(name: str, ctx, seed: int, scale: float) -> None:
    """A population of bare settops x 240 sim-s with the named mix."""
    settops, gets, reports = EVENINGS[name]
    fresh_run_state()
    cluster = build_full_cluster(n_servers=3, neighborhoods_per_server=4,
                                 params=Params(), seed=seed)
    ctx.slice_cluster(cluster, step=0.25)
    engine = _Evening(ctx, cluster, max(12, int(settops * scale)), seed,
                      gets, reports)
    before = _cluster_snapshot(cluster)
    started = cluster.now
    with ctx.timed():
        result = engine.run(EVENING_SIM_S)
    ctx.counts.update(_since(before, _cluster_snapshot(cluster)),
                      settops=result.settops, ops=result.ops,
                      op_failures=result.op_failures,
                      calls_sent=result.calls_sent,
                      ns_resolves=result.ns_resolves,
                      cache_hits=result.cache_hits,
                      cache_misses=result.cache_misses)
    ctx.sim_s = cluster.now - started
    ctx.digest(trace_digest(cluster))


# ----------------------------------------------------------------------
# prime_time
# ----------------------------------------------------------------------

PRIME_SETTOPS = 96
PRIME_SIM_S = 375.0
#: Viewers pick up the remote at a uniformly drawn moment of the first
#: minute after the boot storm.  All 96 acting in the same second is a
#: flash crowd (the gates shed, neighborhood selectors find no unloaded
#: replica, ops fail): that is chaos_drills' E14, not an evening.
PRIME_ARRIVALS_S = 60.0


class _TimedApp:
    """A settop app whose viewer-facing calls are recorded as ops."""

    TIMED = {"play": "open", "browse": "browse", "buy": "buy",
             "play_round": "game_round"}

    def __init__(self, app, session: "_TimedSession"):
        self._app = app
        self._session = session

    def __getattr__(self, name: str):
        attr = getattr(self._app, name)
        kind = self.TIMED.get(name)
        if kind is None:
            return attr
        session = self._session
        kernel = session.cluster.kernel

        async def timed(*args, **kwargs):
            due = kernel.now
            try:
                result = await attr(*args, **kwargs)
            except Exception:
                session.sample(kind, due, False)
                raise
            session.sample(kind, due, True)
            return result

        return timed


class _TimedSession(ViewerSession):
    """ViewerSession that reports every viewer action as an op sample.

    Behaviour is the stock session's: the subclass only observes, so the
    drill self-check can compare its trace with ``run_schedule``'s.
    """

    def __init__(self, ctx, stream: int, cluster, stk, rng):
        super().__init__(cluster, stk, rng)
        self.ctx = ctx
        self.stream = stream
        self.actions = 0
        self.failures = 0

    def sample(self, kind: str, due: float, ok: bool) -> None:
        self.actions += 1
        self.failures += not ok
        if self.stream >= 0:
            self.ctx.rec.add(self.stream, kind, due,
                             self.cluster.kernel.now, ok)

    async def _tune(self, channel):
        due = self.cluster.kernel.now
        tunes = self.stats.tunes
        app = await super()._tune(channel)
        if app is None:
            self.sample("tune", due, False)
            return None
        if self.stats.tunes > tunes:
            self.sample("tune", due, True)
        return _TimedApp(app, self)


def prime_time(ctx, seed: int, scale: float) -> None:
    """Boot storm of full settop kernels, then fault-free viewer sessions."""
    fresh_run_state()
    cluster = build_full_cluster(n_servers=3, seed=seed)
    ctx.slice_cluster(cluster, step=0.25)
    kernels = [cluster.add_settop_kernel(
        cluster.neighborhoods[i % len(cluster.neighborhoods)], power_on=False)
        for i in range(PRIME_SETTOPS)]
    rng = SeededRandom(seed)
    sessions = [_TimedSession(ctx, i, cluster, stk, rng.stream(f"viewer-{i}"))
                for i, stk in enumerate(kernels)]
    arrivals = rng.stream("arrivals")
    duration = PRIME_SIM_S * scale

    async def evening(session: _TimedSession, arrives_in: float) -> None:
        await cluster.kernel.sleep(arrives_in)
        await session.run(duration)

    before = _cluster_snapshot(cluster)
    started = cluster.now
    with ctx.timed():
        for stk in kernels:      # power restoration: all in one instant
            stk.power_on()
        booted = cluster.boot_settops(kernels, timeout=300.0)
        tasks = [cluster.kernel.create_task(
            evening(session, arrivals.uniform(0.0, PRIME_ARRIVALS_S)),
            name=f"viewer-{i}") for i, session in enumerate(sessions)]
        cluster.run_for(PRIME_ARRIVALS_S + duration + 60.0)
    if not booted:
        ctx.error("not every settop booted")
    for i, task in enumerate(tasks):
        if not task.done():
            ctx.error(f"viewer {i} still running at quiesce")
    stats = sessions[0].stats
    for session in sessions[1:]:
        stats.merge(session.stats)
    ctx.counts.update(_since(before, _cluster_snapshot(cluster)),
                      booted=sum(stk.state == "booted" for stk in kernels),
                      tunes=stats.tunes, opens=stats.opens,
                      open_failures=stats.open_failures, orders=stats.orders,
                      game_rounds=stats.game_rounds, degraded=stats.degraded)
    ctx.latencies.update(tune=stats.tune_latencies, open=stats.open_latencies)
    ctx.sim_s = cluster.now - started
    ctx.digest(trace_digest(cluster))


# ----------------------------------------------------------------------
# chaos_drills
# ----------------------------------------------------------------------

DRILL_SETTOPS = 16
PROBE_PERIOD = 1.0
#: A probe may take this long (simulated) before it counts as failed:
#: past the paper's 25 s fail-over bound (section 9.7), so a probe fails
#: only when the system breaks the claim the drill is about.
PROBE_BUDGET = 30.0


def load_schedule(name: str) -> FaultSchedule:
    """A frozen schedule; refuses to run if the file's sha256 moved."""
    path = HERE / "schedules" / f"{name}.json"
    text = path.read_bytes()
    digest = hashlib.sha256(text).hexdigest()
    expected = FROZEN["schedules"][name]["sha256"]
    if digest != expected:
        raise SystemExit(f"{path}: sha256 {digest} is not the frozen "
                         f"{expected}; the benchmark input moved")
    return FaultSchedule.loads(text.decode())


class _Prober:
    """Open loop: one ``reportPosition`` every ``PROBE_PERIOD`` sim-s.

    Probes fire from kernel timers armed at their due times before the
    run starts, whether or not earlier probes have returned, and are
    timed from the due time.  The clock is simulated, so the generator
    is never late: lateness is 0 by construction.
    """

    def __init__(self, ctx, stream: int, cluster, rng: SeededRandom):
        self.ctx = ctx
        self.stream = stream
        self.kernel = cluster.kernel
        self.rng = rng
        # A settop-side host outside the plant map: the boot broadcast
        # and the chaos fault targets never see it.
        nbhd = cluster.neighborhoods[0]
        self.host = Host(self.kernel, "prober", kind="settop")
        cluster.net.attach(self.host, settop_ip(nbhd, 253))
        self.proc = self.host.spawn("prober")
        self.runtime = OCSRuntime(self.proc, cluster.net,
                                  principal=f"prober@{self.host.ip}")
        self.names = NameClient(self.runtime, list(cluster.server_ips),
                                cluster.params,
                                cache=BindingCache.for_host(self.host))
        self.params = cluster.params
        self.retries = 0
        # Title length sets the request's size on the 50 kbit/s uplink.
        self.titles = [f"probe/{'x' * rng.randint(1, 40)}" for _ in range(8)]
        self.written: Dict[str, List[float]] = {t: [0.0] for t in self.titles}

    def arm(self, probes: int) -> None:
        start = self.kernel.now + self.rng.uniform(0.0, PROBE_PERIOD)
        for n in range(probes):
            self.kernel.call_at(start + n * PROBE_PERIOD, self._fire)

    def _fire(self) -> None:
        self.proc.create_task(self._probe(self.kernel.now),
                              name="probe").detach()

    def _vod(self) -> RebindingProxy:
        # A proxy per op, as a settop app gets one per tune; the host's
        # binding cache is what persists between them.
        return RebindingProxy(self.runtime, self.names, "svc/vod",
                              self.params, rng=self.rng.stream("rebind"),
                              give_up_after=PROBE_BUDGET)

    async def _probe(self, due: float) -> None:
        title = self.rng.choice(self.titles)
        position = round(self.rng.uniform(0.0, 200.0), 1)
        self.written[title].append(position)
        give_up = due + PROBE_BUDGET
        vod = self._vod()
        ok = False
        while not ok and self.kernel.now < give_up:
            try:
                await vod.call("reportPosition", title, position,
                               deadline=give_up)
                ok = True
            except Overloaded as shed:
                # The replica asked for air: come back when it said to.
                self.retries += 1
                await self.kernel.sleep(shed.retry_after)
            except (ServiceUnavailable, OCSError):
                # A viewer who keeps pressing the button until the
                # budget is spent: only then does the op count as failed.
                self.retries += 1
                await self.kernel.sleep(PROBE_PERIOD)
        self.ctx.rec.add(self.stream, "probe", due, self.kernel.now, ok)

    async def read_back(self) -> None:
        """Every bookmark must be a position this prober wrote."""
        vod = self._vod()
        for title in self.titles:
            try:
                got = await vod.call("getBookmark", title)
            except (ServiceUnavailable, OCSError) as err:
                self.ctx.error(f"{title}: unreadable after quiesce: {err}")
                continue
            if got not in self.written[title]:
                self.ctx.error(f"{title}: bookmark {got!r} was never written")


def _stop_open_movies(cluster, kernels) -> None:
    """Post-horizon viewer clean-up, as the chaos engine does it."""
    for stk in kernels:
        if not stk.host.up:
            continue
        app = stk.app_manager.current_app if stk.app_manager else None
        if app is not None and getattr(app, "movie", None) is not None:
            try:
                cluster.run_async(app.stop())
            except Exception:  # noqa: BLE001 - the service may still be down
                pass


def run_drill(ctx, schedule: FaultSchedule, seed: int, load_seed: int,
              stream: int = -1, settops: int = DRILL_SETTOPS) -> dict:
    """One fault schedule against a fresh cluster, composed from the
    public pieces in the order ``repro.chaos.engine.run_schedule`` uses
    them, so set-up is timed apart from the run and a prober can ride
    along.  ``stream < 0`` runs without the prober and without op
    samples (the fidelity self-check).
    """
    ctx.begin_setup()
    fresh_run_state()
    params = Params()
    cluster = build_full_cluster(n_servers=3, seed=seed, params=params)
    ctx.slice_cluster(cluster, step=0.25)
    rng = SeededRandom(seed)
    kernels = [cluster.add_settop_kernel(
        cluster.neighborhoods[i % len(cluster.neighborhoods)])
        for i in range(settops)]
    booted = cluster.boot_settops(kernels, timeout=300.0)
    viewer_rng = rng.stream("chaos-viewers")
    sessions = [_TimedSession(ctx, -1, cluster, stk, viewer_rng.stream(f"v{i}"))
                for i, stk in enumerate(kernels)]
    for i, session in enumerate(sessions):
        cluster.kernel.create_task(session.run(schedule.horizon),
                                   name=f"chaos-viewer-{i}")
    injector = FaultInjector(cluster, rng.stream("chaos-inject"))
    bus = MonitorBus(cluster, injector, params,
                     context={"settop_kernels": kernels})
    scenario = Scenario()
    for i, fault in enumerate(schedule):
        scenario.at(fault.at, f"fault-{i}:{fault.kind}",
                    lambda c, f=fault: injector.inject(f))
    scenario.at(schedule.horizon, "heal-all", lambda c: injector.heal_all())
    scenario.at(schedule.horizon + 1.0, "stop-viewers",
                lambda c: _stop_open_movies(c, kernels))
    scenario.observe_every(params.chaos_monitor_interval, "invariants",
                           lambda c: bus.probe())
    duration = (schedule.horizon + 3 * params.max_failover
                + params.chaos_settle_slack)
    scenario.lasting(duration)
    prober = None
    if stream >= 0:
        prober = _Prober(ctx, stream, cluster,
                         SeededRandom(load_seed).stream(f"prober-{stream}"))
        prober.arm(int((duration - PROBE_BUDGET) / PROBE_PERIOD))
    before = _cluster_snapshot(cluster)
    started = cluster.now
    with ctx.timed():
        report = scenario.run(cluster)
        bus.finish()
    if not booted:
        ctx.error(f"drill seed {seed}: settops failed to boot")
    if prober is not None:
        cluster.run_async(prober.read_back())
    counts = _since(before, _cluster_snapshot(cluster))
    counts.update(
        faults=len(injector.injected),
        monitor_probes=len(report.observations.get("invariants", [])),
        viewer_actions=sum(s.actions for s in sessions),
        viewer_failures=sum(s.failures for s in sessions),
        probe_retries=prober.retries if prober is not None else 0)
    for session in sessions:
        ctx.latencies.setdefault("tune", []).extend(
            session.stats.tune_latencies)
        ctx.latencies.setdefault("open", []).extend(
            session.stats.open_latencies)
    return {"digest": trace_digest(cluster),
            "violations": sorted({v.monitor for v in bus.violations}),
            "sim_s": cluster.now - started, "counts": counts}


def chaos_drills(ctx, seed: int, scale: float) -> None:
    """The four frozen schedules, one after the other, each on a fresh
    cluster with every monitor armed and a prober attached."""
    drills = [(name, spec["seed"])
              for name, spec in sorted(FROZEN["schedules"].items())]
    drills = drills[:max(1, round(len(drills) * scale))]
    totals: Dict[str, int] = {}
    digests = []
    violations: List[str] = []
    for stream, (name, drill_seed) in enumerate(drills):
        # The cluster and its viewers keep the frozen seed the monitors
        # were checked against; --seed moves the prober's inputs only
        # (phase, titles, positions), the way the guide wants a workload
        # seed to reach the program: through its inputs.
        out = run_drill(ctx, load_schedule(name), drill_seed,
                        load_seed=seed, stream=stream)
        digests.append(out["digest"])
        violations += [f"{name}:{monitor}" for monitor in out["violations"]]
        ctx.sim_s += out["sim_s"]
        for key, value in out["counts"].items():
            totals[key] = totals.get(key, 0) + value
    ctx.counts.update(totals, drills=len(drills), violations=len(violations))
    ctx.violations = violations
    ctx.digest(" ".join(digests))


# ----------------------------------------------------------------------

def _snapshot(net: Network, hosts, trace=None) -> Dict[str, int]:
    """The public counters the run phase is charged for."""
    return {"messages_sent": net.messages_sent,
            "messages_delivered": net.messages_delivered,
            "messages_dropped": net.messages_dropped,
            "bytes_sent": sum(net.bytes_by_kind.values()),
            "disk_writes": sum(host.disk.writes for host in hosts),
            "restarts": (trace.count("ssc", "service_restarted")
                         if trace is not None else 0)}


def _cluster_snapshot(cluster) -> Dict[str, int]:
    return _snapshot(cluster.net, cluster.servers, cluster.trace)


def _since(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


WORKLOADS: Dict[str, Callable] = {
    "rpc_echo": rpc_echo,
    "evening_ro": functools.partial(evening, "evening_ro"),
    "evening_rw": functools.partial(evening, "evening_rw"),
    "prime_time": prime_time,
    "chaos_drills": chaos_drills,
}
