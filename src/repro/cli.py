"""Command-line interface: ``python -m repro <command>``.

Narrated demonstrations of the reproduced system, runnable without
writing any code:

    python -m repro quickstart            # boot + Figure 3/4 flows
    python -m repro drill                 # the section 3.5 failure drills
    python -m repro evening --settops 3   # a busy viewing evening
    python -m repro operator              # CSC tooling walkthrough
    python -m repro report                # scripted availability campaign
    python -m repro inventory             # Figure 2 service census
    python -m repro lint src/repro        # determinism & layering linter
    python -m repro chaos --seeds 10      # fault-injection seed sweep

``repro chaos`` is the one driver for a seeded run: ``--schedule``
replays a schedule file or a minimized repro, ``--double-run`` requires
a re-run to reproduce the trace digest, and ``--hb`` arms the
happens-before race monitor.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional


def _cmd_quickstart(_args) -> int:
    from examples.quickstart import main
    main()
    return 0


def _cmd_drill(_args) -> int:
    from examples.failover_drill import main
    main()
    return 0


def _cmd_evening(args) -> int:
    sys.argv = ["busy_evening", str(args.settops)]
    from examples.busy_evening import main
    main()
    return 0


def _cmd_operator(_args) -> int:
    from examples.operator_console import main
    main()
    return 0


def _cmd_report(_args) -> int:
    from examples.availability_report import main
    main()
    return 0


def _cmd_inventory(args) -> int:
    from repro.cluster import build_full_cluster
    cluster = build_full_cluster(n_servers=args.servers, seed=args.seed)
    print(f"== Service census ({args.servers} servers, "
          f"{len(cluster.neighborhoods)} neighborhoods) ==")
    for host, services in sorted(cluster.running_services().items()):
        print(f"  {host}: {len(services)} processes")
        print(f"    {', '.join(services)}")
    print(f"\nservice types registered: {len(cluster.registry.names())}")
    print(f"placement (mms): "
          f"{cluster.cluster_config['service_placement']['mms']}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.engine import lint_paths
    import os
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"repro lint: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    for line in report.format_lines():
        print(line)
    return 0 if report.ok else 1


def _counter_lines(counters) -> List[str]:
    """The nonzero counters, one line per name prefix (``gate.vod``,
    ``ocs``, ...; bare names share the first line)."""
    groups: Dict[str, List[str]] = {}
    for name, value in sorted(counters.items()):
        if value:
            prefix, _, short = name.rpartition(".")
            groups.setdefault(prefix, []).append(f"{short}={value}")
    return [f"{prefix + ': ' if prefix else ''}{' '.join(items)}"
            for prefix, items in sorted(groups.items())]


def _cmd_chaos(args) -> int:
    from repro.chaos import (FaultSchedule, minimize_schedule, run_seed,
                             write_minimal)

    schedule = None
    if args.schedule:
        schedule = FaultSchedule.load(args.schedule)
        print(f"loaded schedule {args.schedule}: {len(schedule)} fault(s), "
              f"horizon {schedule.horizon}s")
    params = None
    if args.hb:
        from repro.core.params import Params
        params = Params(hb_trace=True)
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    failures = 0
    for seed in seeds:
        runs = 2 if args.double_run else 1
        results = [run_seed(seed, n_faults=args.faults, horizon=args.horizon,
                            settops=args.settops, schedule=schedule,
                            params=params)
                   for _ in range(runs)]
        result = results[0]
        status = "ok" if result.ok else "FAIL"
        print(f"seed {seed}: {status}  faults={len(result.schedule)} "
              f"digest={result.digest[:16]}")
        if result.hb is not None:
            print(f"  hb: events={result.hb['events']} "
                  f"writes={result.hb['writes']} races={result.hb['races']}")
        for line in _counter_lines(result.counters):
            print(f"  {line}")
        if args.double_run:
            if results[1].digest != result.digest:
                print(f"  DETERMINISM VIOLATION: re-run digest "
                      f"{results[1].digest[:16]} != {result.digest[:16]}",
                      file=sys.stderr)
                failures += 1
            else:
                print(f"  replay digest identical ({result.digest[:16]})")
        for violation in result.violations:
            print(f"  [{violation.monitor}] t={violation.time:.1f} "
                  f"{violation.detail}")
        if not result.ok:
            failures += 1
            print(f"  shrinking {len(result.schedule)}-fault schedule ...")
            minimized = minimize_schedule(
                result.schedule, seed, failing=result,
                settops=args.settops)
            path = write_minimal(minimized, args.out)
            print(f"  minimal failing schedule: {len(minimized.schedule)} "
                  f"fault(s) after {minimized.runs} re-run(s) -> {path}")
            for line in minimized.schedule.describe():
                print(f"    {line}")
    print(f"\n{len(seeds)} seed(s): {len(seeds) - failures} ok, "
          f"{failures} failing")
    return 1 if failures else 0


def _cmd_population(args) -> int:
    from repro.workloads.population import run_population

    settops = args.settops
    duration = args.duration
    if args.quick:
        # Cap the population, not the duration: the hit rate is set by
        # tunes-per-settop, so shortening the run would starve the cache.
        settops = min(settops, 300)
    result = run_population(settops=settops, duration=duration,
                            n_servers=args.servers,
                            neighborhoods_per_server=args.neighborhoods,
                            seed=args.seed, cached=not args.uncached)
    row = result.row()
    print(f"== population: {row['settops']} settops, {duration:.0f}s, "
          f"{args.servers} servers, cache "
          f"{'off' if args.uncached else 'on'} ==")
    for key in ("ops", "failures", "ns_resolves", "resolves_per_settop",
                "hit_rate", "msgs_per_settop"):
        print(f"  {key}: {row[key]}")
    print(f"  cache: hits={result.cache_hits} misses={result.cache_misses} "
          f"coalesced={result.cache_coalesced}")
    if result.op_failures > result.ops * 0.01:
        print(f"FAIL: {result.op_failures} failed viewer ops", file=sys.stderr)
        return 1
    if not args.uncached and result.hit_rate < 0.90:
        print(f"FAIL: binding cache hit rate {result.hit_rate:.3f} < 0.90",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Highly Available, Scalable ITV "
                    "System' (SOSP 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="boot the cluster and play a movie") \
        .set_defaults(fn=_cmd_quickstart)
    sub.add_parser("drill", help="replay the section 3.5 failure scenarios") \
        .set_defaults(fn=_cmd_drill)

    evening = sub.add_parser("evening", help="run a busy viewing evening")
    evening.add_argument("--settops", type=int, default=3,
                         help="settops per neighborhood (default 3)")
    evening.set_defaults(fn=_cmd_evening)

    sub.add_parser("operator", help="CSC operator tooling walkthrough") \
        .set_defaults(fn=_cmd_operator)
    sub.add_parser("report", help="scripted availability campaign") \
        .set_defaults(fn=_cmd_report)

    inventory = sub.add_parser("inventory", help="Figure 2 service census")
    inventory.add_argument("--servers", type=int, default=3)
    inventory.add_argument("--seed", type=int, default=0)
    inventory.set_defaults(fn=_cmd_inventory)

    lint = sub.add_parser(
        "lint", help="determinism, layering & protocol-conformance linter "
                     "(D001-D007, D009-D011, P004, P005, W001)")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default src/repro)")
    lint.set_defaults(fn=_cmd_lint)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection sweeps with invariant "
                      "monitors (repro.chaos)")
    chaos.add_argument("--seeds", type=int, default=5,
                       help="number of seeds to sweep (default 5)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first seed of the sweep (default 0)")
    chaos.add_argument("--faults", type=int, default=8,
                       help="faults per generated schedule (default 8)")
    chaos.add_argument("--horizon", type=float, default=240.0,
                       help="seconds of active fault injection (default 240)")
    chaos.add_argument("--settops", type=int, default=4,
                       help="settops under viewer load (default 4)")
    chaos.add_argument("--schedule", default="",
                       help="replay a schedule JSON instead of generating "
                            "(e.g. a minimized repro from benchmarks/out/)")
    chaos.add_argument("--out", default="benchmarks/out",
                       help="directory for minimized failing schedules")
    chaos.add_argument("--double-run", action="store_true",
                       help="run each seed twice and require identical "
                            "trace digests")
    chaos.add_argument("--hb", action="store_true",
                       help="instrument the run with happens-before events "
                            "and arm the hb_race monitor (Params.hb_trace)")
    chaos.set_defaults(fn=_cmd_chaos)

    population = sub.add_parser(
        "population", help="population-scale settop workload (E15: binding "
                           "cache + NS resolve traffic)")
    population.add_argument("--settops", type=int, default=2000,
                            help="simulated settop population (default 2000)")
    population.add_argument("--duration", type=float, default=240.0,
                            help="simulated seconds of viewing (default 240)")
    population.add_argument("--servers", type=int, default=3,
                            help="server count (default 3)")
    population.add_argument("--neighborhoods", type=int, default=4,
                            help="neighborhoods per server (default 4)")
    population.add_argument("--seed", type=int, default=0)
    population.add_argument("--uncached", action="store_true",
                            help="disable the binding cache (control run; "
                                 "skips the hit-rate floor)")
    population.add_argument("--quick", action="store_true",
                            help="cap the population at 300 for CI smoke")
    population.set_defaults(fn=_cmd_population)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # The examples live next to the package in a source checkout; make
    # them importable when invoked as an installed module too.
    import pathlib
    repo_root = pathlib.Path(__file__).resolve().parent.parent.parent
    if (repo_root / "examples").is_dir() and str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
