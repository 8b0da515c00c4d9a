"""Every chaos verdict in one matrix: regenerate ``benchmarks/verdicts.json``.

    PYTHONPATH=src python benchmarks/verdicts.py      # ~3 min, one process

Runs, with no minimizer, 276 seeded chaos runs and records for each its
violated-monitor set and trace digest:

- the five ``benchmarks/schedules/`` drills x seeds 0-19, at 4 and at
  16 settops (200 runs);
- ``run_seed`` 0-39 (generated schedules, 4 settops);
- a gray-failing server whose SSC is killed (``reply_lag`` 1.446, the
  minimizer's repro of the pinned ``gray-kill-ssc-7`` red) on servers
  0-2 x seeds 0-11, at 2 settops.

The file is committed.  CI regenerates it and fails on any difference,
so a change that turns a run red fails, and so does one that turns a
run green or moves a digest: either is listed, with its cause, beside
the re-recorded file.  The output does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.chaos import Fault, FaultSchedule, run_schedule, run_seed  # noqa: E402

SCHEDULES = ROOT / "benchmarks" / "schedules"
OUT = ROOT / "benchmarks" / "verdicts.json"


def gray_kill_ssc(server: int) -> FaultSchedule:
    return FaultSchedule(faults=(
        Fault(5.0, "gray", {"server": server, "reply_lag": 1.446}),
        Fault(5.0, "kill_ssc", {"server": server}),
    ), horizon=150.0)


def runs():
    """Yield ``(name, thunk)`` for every run of the matrix, in file order."""
    for path in sorted(SCHEDULES.glob("*.json")):
        schedule = FaultSchedule.load(path)
        for settops in (4, 16):
            for seed in range(20):
                yield (f"{path.stem}/settops{settops}/seed{seed}",
                       lambda s=schedule, n=settops, seed=seed:
                       run_schedule(s, seed, settops=n))
    for seed in range(40):
        yield f"run_seed/seed{seed}", lambda seed=seed: run_seed(seed)
    for server in range(3):
        for seed in range(12):
            yield (f"gray_kill_ssc/server{server}/seed{seed}",
                   lambda s=gray_kill_ssc(server), seed=seed:
                   run_schedule(s, seed, settops=2))


def main() -> int:
    matrix = {}
    for name, run in runs():
        result = run()
        matrix[name] = {"violated": result.violated_monitors(),
                        "digest": result.digest}
        print(f"{name}: {' '.join(matrix[name]['violated']) or 'ok'}",
              flush=True)
    OUT.write_text(json.dumps(matrix, indent=1, sort_keys=True) + "\n")
    red = sum(1 for v in matrix.values() if v["violated"])
    print(f"{len(matrix)} runs, {red} red -> {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
