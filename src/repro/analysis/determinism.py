"""Runtime determinism check: same seed, twice, byte-identical traces.

The static rules in :mod:`repro.analysis.rules` catch nondeterminism at
the source level; this module catches what slips through by actually
exercising the promise in :mod:`repro.sim.kernel`'s docstring.  A
reference scenario (boot, viewer traffic, an MDS kill, a server crash
and reboot) renders its structured trace canonically, so two runs from
the same seed can be compared line by line
(``tests/test_determinism.py``) and against recorded digests
(``tests/test_golden_trace.py``).  Any drift is a determinism bug.
"""

from __future__ import annotations

from typing import List


def format_trace_line(event) -> str:
    """Render one TraceEvent canonically (fields in sorted key order)."""
    fields = " ".join(f"{k}={event.fields[k]!r}" for k in sorted(event.fields))
    return f"{event.time:.6f} {event.category}.{event.event} {fields}"


def reference_scenario_trace(seed: int, settops: int = 2,
                             duration: float = 120.0) -> List[str]:
    """Run the reference failover scenario once; return its trace lines.

    The scenario crosses every layer the linter polices: boot (broadcast
    + name service election), OCS traffic (viewer sessions), failure
    handling (an MDS kill mid-stream), and recovery (server crash and
    reboot) -- so a nondeterministic iteration or stray wall-clock read
    almost anywhere shows up as trace drift.
    """
    from repro.cluster.builder import build_full_cluster
    from repro.workloads.sessions import run_viewers

    cluster = build_full_cluster(n_servers=3, seed=seed)
    cluster.settle()
    kernels = [cluster.add_settop_kernel(1 + (i % len(cluster.neighborhoods)))
               for i in range(settops)]
    cluster.boot_settops(kernels)
    cluster.kernel.call_later(duration * 0.25,
                              cluster.kill_service, 0, "mds")
    cluster.kernel.call_later(duration * 0.5, cluster.crash_server, 1)
    cluster.kernel.call_later(duration * 0.75, cluster.reboot_server, 1)
    run_viewers(cluster, kernels, duration, seed=seed)
    return [format_trace_line(ev) for ev in cluster.trace.events]
