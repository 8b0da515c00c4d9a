"""Overload accounting: what the admission gates and deadline guards did.

One collection surface shared by the chaos engine, the surge tests, and
experiment E14, so they all report the same numbers the same way.  The
collector only *reads* runtime counters and gate gauges -- like the
chaos monitors, it must never perturb the run it measures.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.delivery import live_runtimes


def collect_overload(cluster) -> Dict[str, dict]:
    """Aggregate overload counters across one cluster run.

    Returns a dict with two sections:

    - ``"gates"``: per-service admission gauges summed across replicas
      (sheds, peaks, admissions);
    - ``"deadlines"``: deadline rejects and (should-be-zero) expired
      executions summed across server runtimes.
    """
    gates: Dict[str, dict] = {}
    deadline_rejects = 0
    expired_executions = 0
    for runtime in live_runtimes(cluster.servers):
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
        agg["peak_inflight"] = max(agg["peak_inflight"], gate.peak_inflight)

    return {
        "gates": {name: gates[name] for name in sorted(gates)},
        "deadlines": {"rejected": deadline_rejects,
                      "expired_executions": expired_executions},
    }


def total_sheds(overload: Dict[str, dict]) -> int:
    return sum(g["shed"] for g in overload.get("gates", {}).values())
