"""Runtime determinism: the same seed must reproduce a run exactly.

Covers the three legs of the invariant: seeded substreams are stable
across interpreter runs and independent of each other, the reference
failover scenario traces byte-identically when run twice, and detached
tasks/futures (linter rule D008) behave as declared.
"""

import difflib
import gc
import weakref
from pathlib import Path

import pytest

from repro.analysis import reference_scenario_trace
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
    must not touch the pid, message-id or port allocators of the live
    run."""

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
        other seeds are collected inside the run: same trace digest and
        same final pid/message-id/port allocators."""
        from repro.chaos import FaultSchedule, engine
        from repro.net.message import _msg_counter
        from repro.ocs.runtime import _port_counter
        from repro.sim.host import _pid_counter

        def run(seed):
            digest = engine.run_schedule(schedule, seed, settops=2).digest
            return digest, _pid_counter[0], _msg_counter[0], _port_counter[0]

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
