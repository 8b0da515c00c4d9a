"""Overload accounting: what the admission gates and degraded paths did.

One collection surface shared by the chaos engine, the surge tests, and
experiment E14, so they all report the same numbers the same way.  The
collector only *reads* runtime counters and gate gauges -- like the
chaos monitors, it must never perturb the run it measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def collect_overload(cluster, settop_kernels: Optional[List] = None) -> Dict[str, dict]:
    """Aggregate overload counters across one cluster run.

    Returns a dict with three sections:

    - ``"gates"``: per-service admission gauges summed across replicas
      (sheds, peaks, admissions);
    - ``"deadlines"``: deadline rejects and (should-be-zero) expired
      executions summed across server runtimes;
    - ``"degraded"``: how often each degraded fallback answered instead
      of erroring (VOD low-bitrate catalog, navigator cached menu,
      settop degraded plays).
    """
    gates: Dict[str, dict] = {}
    deadline_rejects = 0
    expired_executions = 0
    for host in cluster.servers:
        for proc in host.processes:
            runtime = proc.attachments.get("ocs")
            if runtime is None:
                continue
            deadline_rejects += runtime.deadline_rejects
            expired_executions += runtime.expired_executions
            gate = runtime.admission
            if gate is None:
                continue
            agg = gates.setdefault(gate.service, {
                "replicas": 0, "admitted": 0, "shed": 0,
                "peak_queue": 0, "peak_inflight": 0})
            agg["replicas"] += 1
            agg["admitted"] += gate.admitted
            agg["shed"] += gate.shed_count
            agg["peak_queue"] = max(agg["peak_queue"], gate.peak_queue)
            agg["peak_inflight"] = max(agg["peak_inflight"],
                                       gate.peak_inflight)
            service = proc.attachments.get("service")
            if service is not None:
                agg["degraded_answers"] = (
                    agg.get("degraded_answers", 0)
                    + getattr(service, "degraded_answers", 0))

    # Settops tear an app down on tune-away, so only the currently tuned
    # app is visible here; SessionStats.degraded carries the complete
    # per-session count.
    degraded = {"degraded_plays": 0, "cached_menus": 0}
    for stk in settop_kernels or []:
        am = getattr(stk, "app_manager", None)
        app = getattr(am, "current_app", None) if am is not None else None
        if app is not None:
            degraded["degraded_plays"] += getattr(app, "degraded_plays", 0)
            degraded["cached_menus"] += getattr(app, "cached_menus", 0)

    return {
        "gates": {name: gates[name] for name in sorted(gates)},
        "deadlines": {"rejected": deadline_rejects,
                      "expired_executions": expired_executions},
        "degraded": degraded,
    }


def total_sheds(overload: Dict[str, dict]) -> int:
    return sum(g["shed"] for g in overload.get("gates", {}).values())


def total_degraded(overload: Dict[str, dict]) -> int:
    section = overload.get("degraded", {})
    return sum(section.values())
