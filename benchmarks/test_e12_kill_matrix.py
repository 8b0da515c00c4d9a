"""E12 -- The kill matrix: every service, killed under live load.

Section 9.5's strongest claim is universal: availability "was a
requirement for all services, and not just for key system components",
and "most failures of services and settop programs ... were covered with
only a very brief interruption".  The matrix makes that claim total: for
*each* of the sixteen server-side services in turn, kill every replica
during active viewing and verify the system returns to full service.

Since PR 3 each matrix row is a :class:`repro.chaos.FaultSchedule`
replayed by the chaos engine: the kills are trace-logged fault records,
the verdict is the full invariant-monitor catalog (one CSC primary,
name-service agreement, audit convergence, settops served again, no
leaked Futures) instead of hand-rolled checks, and every row carries a
replayable trace digest.
"""

import pytest

from repro.chaos import Fault, FaultSchedule, run_schedule
from repro.core.params import Params

from common import once, report

ALL_SERVICES = ["auth", "boot", "cmgr", "csc", "db", "fileservice", "game",
                "kbs", "mds", "mms", "ns", "ras", "rds", "settopmgr",
                "shopping", "vod"]

#: kills land shortly after viewers are rolling; the horizon leaves one
#: full fail-over bound of disturbed operation before the heal + quiesce.
KILL_AT = 15.0
HORIZON = 70.0


def kill_matrix_schedule(service: str, n_servers: int = 3) -> FaultSchedule:
    """Kill every replica of ``service``, one server per second."""
    faults = tuple(
        Fault(KILL_AT + i, "kill_service", {"server": i, "service": service})
        for i in range(n_servers))
    return FaultSchedule(faults=faults, horizon=HORIZON)


def kill_one_service_everywhere(service: str, seed: int):
    schedule = kill_matrix_schedule(service)
    # Matrix rows are short; a trimmed settle keeps 16 rows affordable
    # while still covering 3x the paper's 25 s fail-over bound.
    params = Params().with_overrides(chaos_settle_slack=15.0)
    result = run_schedule(schedule, seed, settops=2, params=params)
    downtime = max((s["downtime"] for s in result.availability.values()),
                   default=0.0)
    return {"service": service, "killed": result.counters["procs_killed"],
            "ok": result.ok, "viewer_ops": result.counters["viewer_ops"],
            "max_downtime": downtime,
            "monitors": result.violated_monitors(),
            "digest": result.digest[:16]}


@pytest.mark.benchmark(group="e12")
def test_e12_every_service_survivable(benchmark):
    def run():
        return [kill_one_service_everywhere(svc, seed=15000 + i)
                for i, svc in enumerate(ALL_SERVICES)]

    rows_data = once(benchmark, run)
    rows = [(d["service"], d["killed"], d["ok"], d["viewer_ops"],
             d["max_downtime"], d["digest"]) for d in rows_data]
    report("E12", "kill matrix: every service killed during playback "
           "(section 9.5), judged by the chaos invariant monitors",
           ["service", "replicas_killed", "invariants_ok", "viewer_ops",
            "max_downtime_s", "trace_digest"], rows,
           notes="availability designed into all services, not just key "
                 "ones; each row is a replayable repro.chaos schedule")
    failures = [d for d in rows_data if not d["ok"]]
    assert failures == [], failures
    # Every service actually had replicas to kill.
    assert all(d["killed"] >= 1 for d in rows_data)
