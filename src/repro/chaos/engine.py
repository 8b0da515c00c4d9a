"""The chaos runner: one seed, one schedule, one verdict, one digest.

``run_seed`` builds the full ITV cluster, boots settops, keeps viewer
sessions running, replays a fault schedule through the
:class:`~repro.chaos.injector.FaultInjector` while the
:class:`~repro.chaos.monitors.MonitorBus` probes the invariant catalog,
heals everything at the horizon, quiesces past the paper's worst-case
fail-over bound, and runs the final checks.

Everything is driven from substreams of one seed, and the run's pids,
ports and message ids come from its own kernel and network, so the
returned trace digest is a replayable fingerprint: the same seed and
schedule produce the same digest, byte for byte, whatever else the
interpreter ran before or runs beside it -- which is what lets the
minimizer trust a re-run and lets CI double-run a schedule to prove it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.determinism import format_trace_line
from repro.chaos.injector import FaultInjector
from repro.chaos.monitors import MonitorBus, Violation
from repro.chaos.schedule import FaultSchedule, generate_schedule
from repro.cluster.builder import Cluster, build_full_cluster
from repro.cluster.scenario import Scenario
from repro.core.params import Params
from repro.metrics.cluster import cluster_counters
from repro.sim.rand import SeededRandom


class ChaosError(RuntimeError):
    """The chaos run itself failed to get going (not an invariant breach)."""


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    seed: int
    schedule: FaultSchedule
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    availability: Dict[str, dict] = field(default_factory=dict)
    # repro.metrics.cluster_counters at quiesce, plus the run's own
    # viewer_ops, degraded_ops, faults_injected, procs_killed and
    # trace_lines.
    counters: Dict[str, int] = field(default_factory=dict)
    # Happens-before summary when the run was built with Params.hb_trace
    # (printed by `repro chaos --hb`); None otherwise.
    hb: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_monitors(self) -> List[str]:
        return sorted({v.monitor for v in self.violations})


def trace_digest(cluster: Cluster) -> str:
    """sha256 over the canonical rendering of the whole trace."""
    text = "\n".join(format_trace_line(ev) for ev in cluster.trace.events)
    return hashlib.sha256(text.encode()).hexdigest()


def run_schedule(schedule: FaultSchedule, seed: int, n_servers: int = 3,
                 settops: int = 4, params: Optional[Params] = None,
                 monitors=None) -> ChaosResult:
    """Replay ``schedule`` against a fresh seeded cluster; judge it.

    Deterministic end to end: calling this twice with the same arguments
    yields identical :attr:`ChaosResult.digest` values, also while
    another cluster is live in the same interpreter.  A ``monitors``
    list replacing the default catalog must keep ``settop_service`` and
    ``hb_race``: the result reads them.
    """
    from repro.workloads.sessions import ViewerSession

    params = params or Params()
    cluster = build_full_cluster(n_servers=n_servers, seed=seed, params=params)
    rng = SeededRandom(seed)

    kernels = [cluster.add_settop_kernel(
        cluster.neighborhoods[i % len(cluster.neighborhoods)])
        for i in range(settops)]
    if not cluster.boot_settops(kernels, timeout=300.0):
        raise ChaosError(f"seed {seed}: settops failed to boot")

    viewer_rng = rng.stream("chaos-viewers")
    sessions = [ViewerSession(cluster, stk, viewer_rng.stream(f"v{i}"))
                for i, stk in enumerate(kernels)]
    viewer_tasks = [cluster.kernel.create_task(session.run(schedule.horizon),
                                               name=f"chaos-viewer-{i}")
                    for i, session in enumerate(sessions)]

    injector = FaultInjector(cluster, rng.stream("chaos-inject"))
    bus = MonitorBus(cluster, injector, params,
                     context={"settop_kernels": kernels}, monitors=monitors)

    scenario = Scenario()
    for i, fault in enumerate(schedule):
        scenario.at(fault.at, f"fault-{i}:{fault.kind}",
                    lambda c, f=fault: injector.inject(f))
    scenario.at(schedule.horizon, "heal-all",
                lambda c: injector.heal_all())
    scenario.at(schedule.horizon + 1.0, "stop-viewers",
                lambda c: _stop_open_movies(c, kernels))
    scenario.observe_every(params.chaos_monitor_interval, "invariants",
                           lambda c: bus.probe())
    quiesce = 3 * params.max_failover + params.chaos_settle_slack
    scenario.lasting(schedule.horizon + quiesce)
    scenario.run(cluster)
    bus.finish()

    hb_summary = None
    report = getattr(bus.monitor("hb_race"), "report", None)
    if report is not None:
        from repro.analysis.hb import write_order_digests
        hb_summary = {
            "races": len(report.races),
            "events": report.events,
            "writes": report.write_count(),
            "digests": write_order_digests(report),
        }
    counters = cluster_counters(cluster)
    counters.update(
        viewer_ops=sum(s.stats.opens + s.stats.orders + s.stats.game_rounds
                       + s.stats.tunes for s in sessions),
        degraded_ops=sum(s.stats.degraded for s in sessions),
        faults_injected=len(injector.injected),
        procs_killed=len(injector.killed),
        trace_lines=len(cluster.trace.events))
    return ChaosResult(
        seed=seed,
        schedule=schedule,
        violations=list(bus.violations),
        digest=trace_digest(cluster),
        availability=bus.monitor("settop_service").summaries(),
        counters=counters,
        hb=hb_summary,
    )


def run_seed(seed: int, n_faults: int = 8, horizon: float = 240.0,
             n_servers: int = 3, settops: int = 4,
             params: Optional[Params] = None, monitors=None,
             schedule: Optional[FaultSchedule] = None) -> ChaosResult:
    """Generate the seed's schedule (unless given one) and run it."""
    if schedule is None:
        schedule = generate_schedule(
            SeededRandom(seed).stream("chaos-schedule"),
            n_faults=n_faults, horizon=horizon, n_servers=n_servers,
            n_settops=settops)
    return run_schedule(schedule, seed, n_servers=n_servers,
                        settops=settops, params=params, monitors=monitors)


def _stop_open_movies(cluster: Cluster, kernels) -> None:
    """Post-horizon viewer cleanup, mirroring the chaos test's quiesce."""
    for stk in kernels:
        if not stk.host.up:
            continue
        app = stk.app_manager.current_app if stk.app_manager else None
        if app is not None and getattr(app, "movie", None) is not None:
            try:
                cluster.run_async(app.stop())
            except Exception:  # noqa: BLE001 - the service may still be down
                pass
