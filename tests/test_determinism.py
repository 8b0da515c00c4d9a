"""Runtime determinism: the same seed must reproduce a run exactly.

Covers the three legs of the invariant: seeded substreams are stable
across interpreter runs and independent of each other, the reference
failover scenario traces byte-identically when run twice, and detached
tasks/futures behave as declared.
"""

import difflib
import gc
import hashlib
import weakref
from pathlib import Path

import pytest

from repro.analysis.determinism import (format_trace_line,
                                        reference_scenario_trace)
from repro.cluster.builder import build_full_cluster
from repro.net import Message, Network, server_ip
from repro.ocs import OCSRuntime
from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.rand import SeededRandom, stable_seed


class TestStableSeed:
    def test_stable_across_interpreter_runs(self):
        # Golden value: any drift here breaks every recorded benchmark.
        assert stable_seed(42, "workload") == 1930480936

    def test_distinct_parts_distinct_seeds(self):
        assert stable_seed(42, "workload") != stable_seed(42, "failures")
        assert stable_seed(42, "workload") != stable_seed(43, "workload")


class TestSubstreams:
    def test_stream_values_stable_across_runs(self):
        """Golden draws: stream derivation must never silently change."""
        workload = SeededRandom(42).stream("workload")
        assert [workload.randint(0, 10**6) for _ in range(4)] == \
            [321672, 939788, 534102, 361350]
        failures = SeededRandom(42).stream("failures")
        assert [failures.randint(0, 10**6) for _ in range(4)] == \
            [938053, 495927, 958835, 970284]

    def test_streams_are_independent(self):
        """Draws on one stream must not perturb a sibling stream."""
        lone = SeededRandom(42).stream("workload")
        expected = [lone.random() for _ in range(8)]

        rng = SeededRandom(42)
        noisy = rng.stream("failures")
        interleaved = []
        workload = rng.stream("workload")
        for _ in range(8):
            noisy.random()          # interference draws
            interleaved.append(workload.random())
        assert interleaved == expected

    def test_same_name_returns_same_stream(self):
        rng = SeededRandom(7)
        assert rng.stream("a") is rng.stream("a")
        assert rng.stream("a") is not rng.stream("b")


class TestDoubleRun:
    @pytest.mark.parametrize("seed,duration", [(0, 60.0), (1, 120.0),
                                               (7, 60.0)])
    def test_same_seed_traces_identically(self, seed, duration):
        """The acceptance gate: same-seed double run, identical traces."""
        first = reference_scenario_trace(seed, settops=2, duration=duration)
        second = reference_scenario_trace(seed, settops=2, duration=duration)
        assert first == second, "\n".join(list(difflib.unified_diff(
            first, second, "run-1", "run-2", lineterm="", n=1))[:50])

    def test_different_seeds_diverge(self):
        """The check has teeth: different seeds must not trace identically."""
        a = reference_scenario_trace(seed=1, settops=2, duration=60.0)
        b = reference_scenario_trace(seed=2, settops=2, duration=60.0)
        assert a != b


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestRunIsolation:
    """A run's pids, ports and message ids come from its own kernel and
    network, so no reset call stands between two runs of one seed, and
    what else the interpreter built or ran cannot move a digest."""

    def test_same_seed_digest_whatever_else_the_interpreter_holds(self):
        def scenario():
            return _digest(reference_scenario_trace(3, settops=2,
                                                    duration=60.0))

        first = scenario()
        other = build_full_cluster(n_servers=2, seed=8)
        other.run_for(30.0)
        del other
        after_another_ran = scenario()
        live = build_full_cluster(n_servers=2, seed=8)
        live.run_for(10.0)
        beside_a_live_one = scenario()
        live.run_for(10.0)      # still usable: the scenario took none of it
        assert first == after_another_ran == beside_a_live_one

    def test_same_seed_clusters_built_side_by_side_trace_identically(self):
        a = build_full_cluster(n_servers=3, seed=3)
        b = build_full_cluster(n_servers=3, seed=3)
        for cluster in (a, b, a, b):
            cluster.run_for(30.0)
        assert ([format_trace_line(ev) for ev in a.trace.events]
                == [format_trace_line(ev) for ev in b.trace.events])

    def test_fresh_networks_hand_out_the_same_first_port_and_id(self):
        def first_port_and_id():
            kernel = Kernel()
            net = Network(kernel)
            host = Host(kernel, "server-0")
            net.attach(host, server_ip(0))
            runtime = OCSRuntime(host.spawn("p"), net)
            msg = Message(src=(host.ip, runtime.port), dst=(host.ip, 1),
                          kind="x")
            net.send(msg)
            return runtime.port, msg.msg_id

        assert first_port_and_id() == first_port_and_id() == (10000, 1)

    def test_each_kernel_starts_pids_at_one(self):
        a, b = Host(Kernel(), "a"), Host(Kernel(), "b")
        assert [a.spawn("p").pid, b.spawn("p").pid, a.spawn("q").pid] \
            == [1, 1, 2]


class TestDetach:
    def test_detach_returns_self_and_marks(self):
        kernel = Kernel()
        fut = kernel.create_future()
        assert fut.detach() is fut
        assert fut.detached

    def test_unstarted_task_coroutine_closed_quietly(self):
        """Tasks scheduled right before teardown must not leak coroutines.

        pytest promotes RuntimeWarning to an error (see pyproject), so a
        "coroutine ... was never awaited" leak fails this test on GC.
        """
        import gc

        async def never_stepped():
            return 1            # pragma: no cover - intentionally unrun

        kernel = Kernel()
        kernel.create_task(never_stepped()).detach()
        del kernel
        gc.collect()


E13_SCHEDULE = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "schedules" / "e13_kills.json")


class TestFreedClusters:
    """A dropped cluster is garbage once unreachable, and collecting it
    mid-run (its never-finished tasks' ``finally`` blocks run then)
    must not touch the live run."""

    def test_dropped_cluster_kernel_is_collected(self):
        from repro.cluster.builder import build_full_cluster

        cluster = build_full_cluster(n_servers=3)
        cluster.run_for(30.0)
        alive = weakref.ref(cluster.kernel)
        del cluster
        gc.collect()
        assert alive() is None

    def test_collecting_dead_clusters_mid_run_keeps_the_digest(
            self, monkeypatch):
        """E13 at seed 11, fresh, then again while the clusters of two
        other seeds are collected inside the run: same trace digest,
        which embeds the run's pids and ports."""
        from repro.chaos import FaultSchedule, engine

        def run(seed):
            return engine.run_schedule(schedule, seed, settops=2).digest

        schedule = FaultSchedule.load(E13_SCHEDULE)
        fresh = run(11)

        kernels = []
        build = engine.build_full_cluster

        def tracked_build(*args, **kwargs):
            cluster = build(*args, **kwargs)
            kernels.append(weakref.ref(cluster.kernel))
            return cluster

        call_later = Kernel.call_later
        calls = [0]

        def collecting_call_later(self, delay, fn, *args):
            calls[0] += 1
            if calls[0] in (1, 500, 5_000, 15_000):
                gc.collect()
            return call_later(self, delay, fn, *args)

        monkeypatch.setattr(engine, "build_full_cluster", tracked_build)
        gc.disable()        # the dead clusters wait for the forced collects
        try:
            for seed in (12, 13):
                run(seed)
            assert [ref() is not None for ref in kernels] == [True, True]
            monkeypatch.setattr(Kernel, "call_later", collecting_call_later)
            again = run(11)
        finally:
            gc.enable()
        assert [ref() for ref in kernels[:2]] == [None, None]
        assert calls[0] > 15_000
        assert again == fresh, (fresh, again)
