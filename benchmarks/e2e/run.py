#!/usr/bin/env python3
"""Whole-cluster benchmark: five workloads, end-to-end and per-layer.

    python3 benchmarks/e2e/run.py                      # all five, 3 reps each
    python3 benchmarks/e2e/run.py --workload rpc_echo  # one, under 20 s
    python3 benchmarks/e2e/run.py --traced --check --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

The driver's form, one workload per call, one JSON object on the last
line of standard output:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

README.md beside this file says what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REPS = 3


# ----------------------------------------------------------------------
# running repetitions
# ----------------------------------------------------------------------

def spawn(workload: str, seed: int, scale: float, traced: bool = False,
          spans: str = "", fidelity: bool = False) -> dict:
    """One repetition in a fresh interpreter; never two at once."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--trace", str(int(traced)),
           "--spawned-at", repr(time.time())]
    if spans:
        cmd += ["--spans", spans]
    if fidelity:
        cmd += ["--fidelity"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: a repetition exited with code "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


#: What one speed-probe tick (child.SpeedProbe) takes on the reference
#: machine: this 2-core Xeon @ 2.1 GHz box under CPython 3.11 when
#: nothing else competes for its cores.  It only fixes the unit -- host
#: times are seconds of a machine on which the probe takes this long.
PROBE_REFERENCE_S = 90e-6


def quiet(reps: list, key: str) -> float:
    """Sum over slices of the fastest repetition of each slice.

    Every repetition executes the identical simulation and reads the
    clock at the same simulated instants, so slice i is the same work in
    each.  Other tenants of the host only ever add time; the fastest
    observation of a slice is the one least disturbed.
    """
    return sum(min(column) for column in zip(*(r[key] for r in reps)))


def machine_speed(reps: list) -> float:
    """How slow the machine was while these repetitions ran: 1.0 is the
    reference machine, 1.5 one that needs half as long again for the
    same probe."""
    return quiet(reps, "ticks") / (len(reps[0]["ticks"]) * PROBE_REFERENCE_S)


def host_wall(reps: list) -> float:
    """Run-phase seconds at the reference machine's speed (README,
    "Host noise", has the measurements behind this estimator)."""
    return quiet(reps, "slices") / machine_speed(reps)


def spread_of(values: list, value=None) -> dict:
    if len(values) < 2:
        return {"value": values[0] if value is None else value}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median if value is None else value, "q1": q1, "q3": q3}


def measure(spec: dict, workload: str, seed: int, scale: float,
            reps: int = REPS, traced: bool = False, spans: str = "") -> dict:
    """``reps`` untraced repetitions (plus one traced) of one workload."""
    runs = [spawn(workload, seed, scale) for _ in range(reps)]
    first = runs[0]
    problems = list(first["errors"])
    if any(r["sim_digest"] != first["sim_digest"]
           or len(r["slices"]) != len(first["slices"]) for r in runs):
        raise SystemExit(f"{workload}: repetitions of seed {seed} disagree "
                         f"(sim_digest): the simulation is not deterministic")
    if seed == 0 and first["violations"]:
        problems.append(f"monitor violations: {first['violations']}")
    # The spread of wall_s: how far the estimate moves when any one
    # repetition is left out.
    leave_one_out = [host_wall(runs[:i] + runs[i + 1:])
                     for i in range(reps)] if reps >= 3 else [host_wall(runs)]
    values = {
        "wall_s": spread_of(leave_one_out, host_wall(runs)),
        "setup_s": spread_of([r["setup_s"] / machine_speed([r])
                              for r in runs]),
        "peak_rss_mb": spread_of([r["peak_rss_mb"] for r in runs]),
    }
    for name, metric in spec_metrics(spec, "end_to_end").items():
        if name not in values:
            values[name] = {"value": first[name]}      # simulated: exact
        values[name].update(unit=metric["unit"], reps=reps)
    wall = values["wall_s"]["value"]
    out = {"workload": workload, "seed": seed, "scale": scale, "reps": reps,
           "attempted": first["attempted"], "failed": first["failed"],
           "ops": first["ops"], "sim_s": first["sim_s"],
           "sim_digest": first["sim_digest"], "counts": first["counts"],
           "violations": first["violations"], "end_to_end": values,
           "raw_wall_s": [r["wall_s"] for r in runs],
           "machine_speed": [machine_speed([r]) for r in runs]}
    if traced:
        trace = spawn(workload, seed, scale, traced=True, spans=spans)
        if trace["sim_digest"] != first["sim_digest"]:
            problems.append("traced run changed the simulation (sim_digest)")
        # The traced run's host times, at the reference machine's speed.
        speed = machine_speed([trace])
        traced_wall = trace["traced_wall_s"] / speed
        self_s = {name: seconds / speed
                  for name, seconds in sorted(trace["layer_self_s"].items())}
        layer = trace["per_layer"]
        for name in layer:
            if name.endswith("self_s"):
                layer[name] /= speed
        layer["run.host_us_per_op"] = 1e6 * wall / first["ops"]
        layer["run.sim_s_per_wall_s"] = first["sim_s"] / wall
        layer["trace.overhead_ratio"] = traced_wall / wall
        units = spec_metrics(spec, "per_layer")
        out["per_layer"] = {name: {"value": layer[name],
                                   "unit": units[name]["unit"]}
                            for name in units}
        out["traced_wall_s"] = traced_wall
        out["layer_share"] = {name: seconds / traced_wall
                              for name, seconds in self_s.items()}
        out["layer_share_untraced"] = untraced_shares(
            self_s, trace["layer_spans"], max(0.0, traced_wall - wall))
    out["problems"] = problems
    return out


def untraced_shares(self_s: dict, spans: dict, overhead: float) -> dict:
    """Each layer's share of the run with the tracer's own cost taken out.

    Tracing costs 1-2 us per span, most of it charged to the parent span,
    so layers made of many short spans (the kernel loop above all) look
    bigger traced than they are, and layers that spend their time inside
    one C call (Disk's deepcopy) look smaller.  The child measured how an
    empty span's cost splits between the span and its parent; here that
    split is scaled so that what is removed adds up to ``overhead``, the
    observed traced minus untraced wall, and taken off each layer's self
    time.  An estimate: the ladder of record is ``layer_share``.
    """
    inside, outside = spans["cost"]
    modelled = {layer: inside * spans["own"].get(layer, 0)
                + outside * spans["child"].get(layer, 0) for layer in self_s}
    scale = overhead / sum(modelled.values())
    left = {layer: max(0.0, seconds - scale * modelled[layer])
            for layer, seconds in self_s.items()}
    total = sum(left.values())
    return {layer: seconds / total for layer, seconds in left.items()}


def spec_metrics(spec: dict, section: str) -> dict:
    return {m["name"]: m for m in spec[section]}


# ----------------------------------------------------------------------
# the driver's form
# ----------------------------------------------------------------------

def driver(spec: dict, args) -> int:
    scale = args.seconds / spec["run_seconds"]
    if args.trace:
        result = measure(spec, args.workload, args.seed, scale, reps=1,
                         traced=True)
        metrics = result["per_layer"]
    else:
        result = measure(spec, args.workload, args.seed, scale)
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["end_to_end"].items()}
    for problem in result["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# the suite: every metric by name, --check, --out
# ----------------------------------------------------------------------

def show(result: dict) -> None:
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"scale {result['scale']:g}  reps {result['reps']}  "
          f"ops {result['ops']}/{result['attempted']}  "
          f"sim {result['sim_s']:.0f} s ==")
    for name, m in result["end_to_end"].items():
        line = f"  {name:<18} {m['value']:>14.6g} {m['unit']:<6}"
        if "q1" in m:
            line += f" q1..q3 {m['q1']:.6g} .. {m['q3']:.6g}"
        print(line)
    print(f"  sim_digest         {result['sim_digest'][:16]}  "
          f"violations {result['violations'] or 'none'}")
    print("  raw wall_s per rep " + " ".join(
        f"{raw:.3f}/{speed:.2f}" for raw, speed
        in zip(result["raw_wall_s"], result["machine_speed"]))
        + "  (seconds / machine speed)")
    for name, m in result.get("per_layer", {}).items():
        print(f"    {name:<30} {m['value']:>14.6g} {m['unit']}")
    for key, title in (("layer_share", "share of traced wall"),
                       ("layer_share_untraced", "tracing cost taken out")):
        if key in result:
            shares = sorted(result[key].items(), key=lambda kv: -kv[1])
            print(f"  cost ladder ({title}): "
                  + ", ".join(f"{name} {share:.1%}" for name, share in shares
                              if share >= 0.005))
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def check(spec: dict, result: dict, frozen: dict) -> list:
    """What --check adds to the always-on checks of ``measure``."""
    problems = []
    name = result["workload"]
    counts = dict(result["counts"], attempted=result["attempted"],
                  failed=result["failed"])
    expected = frozen["expected"].get(name)
    if result["seed"] == 0 and result["scale"] == 1.0 and expected:
        moved = {key: (want, counts.get(key))
                 for key, want in expected.items() if counts.get(key) != want}
        if moved:
            problems.append(f"seed-0 counts moved (expected, got): {moved}")
    if "per_layer" in result:
        odd = set(result["per_layer"]) ^ set(spec_metrics(spec, "per_layer"))
        if odd:
            problems.append(f"per-layer names differ: {odd}")
        coverage = result["per_layer"]["trace.coverage"]["value"]
        if coverage < 0.85:
            problems.append(f"trace.coverage {coverage:.3f} < 0.85")
    return problems


def fidelity_problems() -> list:
    """The composed drill loop must still be the engine's loop."""
    out = spawn("chaos_drills", 0, 1.0, fidelity=True)
    if out["composed"] == out["engine"]:
        return []
    return [f"drill loop drifted from repro.chaos.engine.run_schedule on "
            f"{out['schedule']} seed {out['seed']}"]


def suite(spec: dict, args) -> int:
    frozen = json.loads((HERE / "frozen.json").read_text())
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    scale = args.seconds / spec["run_seconds"]
    results, failed = {}, False
    for name in names:
        spans = ""
        if args.traced and args.out:
            spans = f"{args.out}.{name}.spans.jsonl"
        result = measure(spec, name, args.seed, scale, reps=args.reps,
                         traced=args.traced, spans=spans)
        if args.check:
            result["problems"] += check(spec, result, frozen)
            if name == "chaos_drills":
                result["problems"] += fidelity_problems()
        show(result)
        failed = failed or bool(result["problems"])
        results[name] = result
    if args.out:
        document = {"host": {"platform": platform.platform(),
                             "python": platform.python_version(),
                             "cpus": os.cpu_count()},
                    "seed": args.seed, "workloads": results}
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1)
                                          + "\n")
    if args.check:
        print("\ncheck:", "FAILED" if failed else "passed")
    return 1 if failed and args.check else 0


# ----------------------------------------------------------------------
# --compare A.json B.json
# ----------------------------------------------------------------------

def verdict(metric: dict, a: dict, b: dict) -> str:
    """``same`` / ``better`` / ``worse`` under the metric's bound, or
    ``unresolved`` when either side's own spread is wider than it."""
    bound = metric["bound"]
    for side in (a, b):
        if "q1" in side and side["q3"] - side["q1"] > bound * side["value"]:
            return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def _side(m: dict) -> str:
    text = f"{m['value']:.6g} {m['unit']}"
    if "q1" in m:
        text += f" ({m['q1']:.4g}..{m['q3']:.4g})"
    return text


def compare(spec: dict, path_a: str, path_b: str) -> int:
    a_doc = json.loads(pathlib.Path(path_a).read_text())["workloads"]
    b_doc = json.loads(pathlib.Path(path_b).read_text())["workloads"]
    metrics = spec_metrics(spec, "end_to_end")
    print(f"A = {path_a}\nB = {path_b}\n"
          f"{'workload':<13}{'metric':<17}{'verdict':<11}"
          f"{'A (q1..q3)':<34}{'B (q1..q3)':<34}B/A")
    bad = 0
    for name in a_doc:
        if name not in b_doc:
            continue
        for metric_name, metric in metrics.items():
            a = a_doc[name]["end_to_end"][metric_name]
            b = b_doc[name]["end_to_end"][metric_name]
            word = verdict(metric, a, b)
            bad += word in ("worse", "unresolved")
            print(f"{name:<13}{metric_name:<17}{word:<11}{_side(a):<34}"
                  f"{_side(b):<34}{b['value'] / a['value']:.4f} "
                  f"(base A, bound {metric['bound']:g})")
        same = a_doc[name]["sim_digest"] == b_doc[name]["sim_digest"]
        print(f"{name:<13}{'sim_digest':<17}"
              f"{'identical' if same else 'DIFFERENT'}")
    return 1 if bad else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="nominal measuring time per workload; scales "
                             "the size (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end, 1 per-layer")
    parser.add_argument("--reps", type=int, default=REPS)
    parser.add_argument("--traced", action="store_true",
                        help="one more, traced, repetition per workload")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", help="write results (and spans) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    for hidden in ("--child", "--fidelity"):
        parser.add_argument(hidden, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spans", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import child
        return child.main(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure under {ROOT / 'src'}")
    if args.compare:
        return compare(spec, *args.compare)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"--workload must be one of {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver(spec, args)
    return suite(spec, args)


if __name__ == "__main__":
    sys.exit(main())
