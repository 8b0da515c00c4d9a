"""One repetition of one workload, in this process.

``run.py`` starts this in a fresh interpreter (``PYTHONHASHSEED=0``) for
every repetition and reads one JSON object from the last line of its
standard output: host times (set-up, the run phase cut into slices, peak
RSS), the simulated metrics, deterministic counts, a ``sim_digest`` and,
when traced, the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import resource
import time
from typing import Dict, List, Optional


class Recorder:
    """Op samples: (stream, kind, due, done, ok), simulated seconds.

    A stream is one client's ops in due order.  Latency is done - due;
    in the open-loop workload ``due`` is the scheduled send time.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []

    def add(self, stream: int, kind: str, due: float, done: float,
            ok: bool) -> None:
        self.samples.append((stream, kind, due, done, ok))

    def summary(self) -> Dict[str, float]:
        ok = sorted(done - due for _s, _k, due, done, good in self.samples
                    if good)
        if not ok:
            raise SystemExit("no op completed")
        return {"attempted": len(self.samples),
                "failed": len(self.samples) - len(ok),
                "sim_op_p50_ms": 1e3 * _nearest_rank(ok, 0.50),
                "sim_op_p99_ms": 1e3 * _nearest_rank(ok, 0.99),
                "sim_unserved_s": self._longest_unserved()}

    def _longest_unserved(self) -> float:
        """Longest wait from an op's due time to its client's next
        successful reply.  With no failures this is the slowest op; an op
        that fails stays unserved until a later op of its stream succeeds
        (or until the last sample, if none does).
        """
        streams: Dict[int, list] = {}
        for stream, _kind, due, done, good in self.samples:
            streams.setdefault(stream, []).append((due, done, good))
        end = max(done for _s, _k, _due, done, _ok in self.samples)
        longest = 0.0
        for ops in streams.values():
            ops.sort()
            served_at = end
            for due, done, good in reversed(ops):
                if good:
                    served_at = min(served_at, done)
                longest = max(longest, served_at - due)
        return longest


def _nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SpeedProbe:
    """A fixed piece of interpreter work, timed between slices of the run.

    This box shares its cores and memory: identical runs differ by up to
    2x for minutes at a time (README, "Host noise").  The probe is the
    same work every time -- list, tuple and int traffic striding over a
    heap bigger than the L2 cache, like the simulator's own, plus one
    small ``deepcopy`` -- so how long it takes says how fast the machine
    was during the slices around it, and ``run.py`` scales host times
    by it.
    """

    CELLS = 20_000      # ~5 MB of small objects
    STRIDE = 600        # cells touched per tick

    def __init__(self) -> None:
        self.cells = [[i, 2 * i, (i, str(i))] for i in range(self.CELLS)]
        self.table = {f"10.0.1.{i}/T2": float(i) for i in range(40)}
        self.cursor = 0

    def tick(self) -> None:
        for cell in self.cells[self.cursor:self.cursor + self.STRIDE]:
            cell[0] += 1
            cell[1] = cell[2][0] + len(cell)
        self.cursor = (self.cursor + self.STRIDE) % self.CELLS
        copy.deepcopy(self.table)


class RunContext:
    """What a workload function gets: clocks, the recorder, the results.

    Set-up time runs from the moment the parent spawned this process to
    the first ``timed()`` block, plus every later stretch opened with
    ``begin_setup()``.  The run phase is what happens inside ``timed()``;
    ``run_until`` cuts it into slices at fixed simulated instants and
    runs the speed probe after each, so the parent can compare
    repetitions of the same simulation slice by slice.
    """

    def __init__(self, spawned_at: float, tracer=None):
        self.rec = Recorder()
        self.counts: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self.violations: List[str] = []
        self.errors: List[str] = []
        self.sim_s = 0.0
        self.setup_s = 0.0
        self.slices: List[float] = []    # run phase, host seconds
        self.ticks: List[float] = []     # the probe after each slice
        self.tracer = tracer
        self.probe = SpeedProbe()
        self._setup_open: Optional[float] = spawned_at   # time.time()
        self._last: Optional[float] = None               # perf_counter()
        self._digest = hashlib.sha256()

    def error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(text)

    def digest(self, text: str) -> None:
        self._digest.update(text.encode() + b"\n")

    def begin_setup(self) -> None:
        if self._setup_open is None:
            self._setup_open = time.time()

    @contextlib.contextmanager
    def timed(self):
        self.setup_s += time.time() - self._setup_open
        self._setup_open = None
        if self.tracer is not None:
            self.tracer.start()
        self._last = time.perf_counter()
        try:
            yield
        finally:
            self._mark()
            self._last = None
            if self.tracer is not None:
                self.tracer.stop()

    def _mark(self) -> None:
        now = time.perf_counter()
        self.slices.append(now - self._last)
        self.probe.tick()
        self._last = time.perf_counter()
        self.ticks.append(self._last - now)
        if self.tracer is not None:
            self.tracer.exclude(self._last - now)

    def run_until(self, kernel, until: float, step: float) -> None:
        """``kernel.run(until=...)``, cut at multiples of ``step``.

        ``step`` must be a power of two so the cut points are exact.
        Stopping the loop at extra instants changes no event's time or
        order, only where the wall clock is read.
        """
        if self._last is None:           # set-up: nothing to slice
            kernel.run(until=until)
            return
        while kernel.now < until:
            cut = (math.floor(kernel.now / step) + 1) * step
            kernel.run(until=min(until, cut))
            self._mark()

    def slice_cluster(self, cluster, step: float) -> None:
        """Route ``cluster.run_for`` (which the engines, scenarios and
        boot loops all call) through ``run_until``."""
        kernel = cluster.kernel
        cluster.run_for = lambda duration: self.run_until(
            kernel, kernel.now + duration, step)

    def sim_digest(self) -> str:
        """sha256 over what the workload fed in (trace digests, counts)
        plus every op sample: equal digests mean the simulation did the
        same thing, to the last bit of simulated time."""
        digest = self._digest.copy()
        for sample in self.rec.samples:
            digest.update(repr(sample).encode())
        return digest.hexdigest()


def _p50_ms(values: List[float]) -> float:
    return 1e3 * _nearest_rank(sorted(values), 0.50) if values else 0.0


def run_child(workload: str, seed: int, scale: float, traced: bool,
              spawned_at: float, spans_path: Optional[str]) -> dict:
    tracer = None
    if traced:
        import layers
        tracer = layers.install()
    from workloads import WORKLOADS
    ctx = RunContext(spawned_at, tracer)
    WORKLOADS[workload](ctx, seed, scale)
    out = ctx.rec.summary()
    ops = out["attempted"] - out["failed"]
    out.update(
        workload=workload, seed=seed, scale=scale, traced=traced,
        setup_s=ctx.setup_s, wall_s=sum(ctx.slices), slices=ctx.slices,
        ticks=ctx.ticks,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        op_ok_share=ops / out["attempted"], ops=ops, sim_s=ctx.sim_s,
        sim_msgs_per_op=ctx.counts["messages_sent"] / ops,
        counts=ctx.counts, violations=ctx.violations, errors=ctx.errors,
        sim_digest=ctx.sim_digest())
    if tracer is not None:
        per_layer = tracer.layer_metrics()
        counts = ctx.counts
        per_layer.update({
            "run.ops": ops,
            "run.sim_s": ctx.sim_s,
            "net.network.sent": counts["messages_sent"],
            "net.network.delivered": counts["messages_delivered"],
            "net.network.dropped": counts["messages_dropped"],
            "net.network.bytes": counts["bytes_sent"],
            "core.control.restarts": counts.get("restarts", 0),
            "settop.tune_p50_ms": _p50_ms(ctx.latencies.get("tune", [])),
            "settop.open_p50_ms": _p50_ms(ctx.latencies.get("open", [])),
            "chaos.faults_injected": counts.get("faults", 0),
            "chaos.monitor_probes": counts.get("monitor_probes", 0),
            "chaos.violations": len(ctx.violations),
        })
        out["per_layer"] = per_layer
        out["traced_wall_s"] = tracer.wall_s
        out["layer_self_s"] = tracer.self_s
        out["layer_spans"] = {"own": tracer.own_spans,
                              "child": tracer.child_spans,
                              "cost": tracer.span_cost}
        if spans_path:
            tracer.dump_spans(spans_path)
    return out


def fidelity() -> dict:
    """With the prober off, the benchmark's composed drill loop must
    leave the same trace as the engine it mirrors."""
    from repro.chaos.engine import run_schedule
    import workloads
    spec = workloads.FROZEN["fidelity"]
    schedule = workloads.load_schedule(spec["schedule"])
    composed = workloads.run_drill(RunContext(time.time()), schedule,
                                   spec["seed"], load_seed=0,
                                   settops=spec["settops"])
    engine = run_schedule(schedule, spec["seed"], settops=spec["settops"])
    return dict(spec, composed=composed["digest"], engine=engine.digest)


def main(args) -> int:
    if args.fidelity:
        print(json.dumps(fidelity()))
        return 0
    out = run_child(args.workload, args.seed, args.scale, bool(args.trace),
                    args.spawned_at or time.time(), args.spans)
    print(json.dumps(out))
    return 0
