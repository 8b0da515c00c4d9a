"""Runtime determinism: the same seed must reproduce a run exactly.

Covers the three legs of the invariant: seeded substreams are stable
across interpreter runs and independent of each other, the reference
failover scenario traces byte-identically when run twice, and detached
tasks/futures (linter rule D008) behave as declared.
"""

import difflib

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
