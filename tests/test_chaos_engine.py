"""The chaos engine: vocabulary, schedules, runner, monitors, minimizer.

The expensive end-to-end properties share module-scoped fixtures so the
simulator runs once per property, not once per assertion:

* a green sweep seed runs twice and must produce byte-identical digests;
* a sabotaged cluster (name-service quorum forced to 1) must trip the
  ``ns_agreement`` monitor, and the minimizer must shrink the failing
  schedule to a handful of essential faults.
"""

import json

import pytest

from repro.chaos import (
    FAULT_KINDS,
    Fault,
    FaultError,
    FaultSchedule,
    generate_schedule,
    minimize_schedule,
    run_schedule,
    write_minimal,
)
from repro.chaos.faults import parse_target
from repro.sim.rand import SeededRandom
from tests.fixtures.sabotage import SPLIT_BRAIN_SCHEDULE, broken_quorum
from tests.helpers import green_chaos_runs


@pytest.fixture(scope="module")
def green_runs():
    """The same seed run twice -- the determinism acceptance criterion."""
    return green_chaos_runs(runs=2)


@pytest.fixture(scope="module")
def sabotage():
    """A quorum-of-1 cluster under a split schedule, plus its shrink."""
    with broken_quorum():
        failing = run_schedule(SPLIT_BRAIN_SCHEDULE, seed=7, settops=2)
        assert not failing.ok, "sabotaged cluster failed to trip any monitor"
        minimized = minimize_schedule(SPLIT_BRAIN_SCHEDULE, seed=7,
                                      failing=failing, settops=2)
    return failing, minimized


class TestFaultVocabulary:
    def test_every_kind_is_registered(self):
        assert "kill_service" in FAULT_KINDS
        assert "partition" in FAULT_KINDS
        assert "gray" in FAULT_KINDS

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            Fault(10.0, "meteor_strike", {})

    def test_missing_arg_rejected(self):
        with pytest.raises(FaultError):
            Fault(10.0, "kill_service", {"server": 0})  # no service

    def test_unknown_arg_rejected(self):
        with pytest.raises(FaultError):
            Fault(10.0, "heal", {"server": 0})

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            Fault(-1.0, "heal", {})

    def test_json_round_trip(self):
        fault = Fault(42.5, "loss", {"target": "settop:1",
                                     "probability": 0.3})
        again = Fault.from_dict(json.loads(json.dumps(fault.to_dict())))
        assert again == fault

    def test_describe_is_stable(self):
        fault = Fault(10.0, "kill_service", {"server": 2, "service": "mds"})
        assert fault.describe() == \
            Fault.from_dict(fault.to_dict()).describe()

    def test_parse_target(self):
        assert parse_target("server:0") == ("server", 0)
        assert parse_target("settop:3") == ("settop", 3)
        with pytest.raises(FaultError):
            parse_target("toaster:1")


class TestSchedule:
    def test_generation_is_deterministic(self):
        schedules = [
            generate_schedule(SeededRandom(9).stream("chaos-schedule"),
                              n_faults=8, horizon=240.0, n_servers=3,
                              n_settops=4)
            for _ in range(2)
        ]
        assert schedules[0].to_dict() == schedules[1].to_dict()

    def test_faults_sorted_and_inside_horizon(self):
        schedule = generate_schedule(SeededRandom(5).stream("s"),
                                     n_faults=10, horizon=200.0)
        times = [f.at for f in schedule]
        assert times == sorted(times)
        assert all(0 <= t < schedule.horizon for t in times)

    def test_fault_at_or_past_horizon_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule(faults=(Fault(150.0, "heal", {}),), horizon=150.0)

    def test_without_and_advanced(self):
        schedule = SPLIT_BRAIN_SCHEDULE
        dropped = schedule.without(1)
        assert len(dropped) == len(schedule) - 1
        assert all(f.kind != "partition" for f in dropped)
        earlier = schedule.advanced(3, 40.0)
        heals = [f for f in earlier if f.kind == "heal"]
        assert heals[0].at == 40.0
        # the original is untouched (schedules are values)
        assert schedule.faults[3].at == 110.0

    def test_a_mapping_without_faults_is_rejected(self):
        with pytest.raises(FaultError):
            FaultSchedule.from_dict({"horizon": 60.0})
        with pytest.raises(FaultError):
            FaultSchedule.from_dict({"seed": 7, "digest": "00"})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "schedule.json"
        SPLIT_BRAIN_SCHEDULE.save(path)
        again = FaultSchedule.load(path)
        assert again == SPLIT_BRAIN_SCHEDULE


class TestEngineGreenRun:
    def test_all_monitors_green(self, green_runs):
        result = green_runs[0]
        assert result.ok, [f"[{v.monitor}] t={v.time:.1f} {v.detail}"
                           for v in result.violations]

    def test_faults_actually_injected(self, green_runs):
        result = green_runs[0]
        assert result.counters["faults_injected"] == len(result.schedule)

    def test_viewers_kept_watching(self, green_runs):
        result = green_runs[0]
        assert result.counters["viewer_ops"] > 0
        assert set(result.availability) != set()

    def test_same_seed_same_digest(self, green_runs):
        first, second = green_runs
        assert first.digest == second.digest
        assert first.counters == second.counters


class TestSabotageAndMinimizer:
    def test_monitors_catch_split_brain(self, sabotage):
        failing, _ = sabotage
        assert "ns_agreement" in failing.violated_monitors()

    def test_minimizer_shrinks_to_essential_faults(self, sabotage):
        failing, minimized = sabotage
        assert len(minimized.schedule) <= 3
        assert len(minimized.schedule) < len(SPLIT_BRAIN_SCHEDULE)
        # the shrunk schedule still trips an originally-violated monitor
        assert set(minimized.result.violated_monitors()) \
            & set(failing.violated_monitors())
        # the split itself must survive shrinking: without the partition
        # there is no second master
        assert any(f.kind == "partition" for f in minimized.schedule)

    def test_minimizer_spends_bounded_runs(self, sabotage):
        _, minimized = sabotage
        assert 0 < minimized.runs <= 40

    def test_write_minimal_is_replayable(self, sabotage, tmp_path):
        _, minimized = sabotage
        path = write_minimal(minimized, tmp_path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["minimal_faults"] == len(minimized.schedule)
        replay = FaultSchedule.from_dict(payload["schedule"])
        assert replay == minimized.schedule

    def test_cli_replays_the_minimal_record(self, sabotage, tmp_path,
                                            capsys):
        """``repro chaos --schedule`` on the minimizer's own record
        reproduces its digest and verdict."""
        from repro.cli import main
        _, minimized = sabotage
        path = write_minimal(minimized, tmp_path / "record")
        payload = json.loads(path.read_text())
        with broken_quorum():
            code = main(["chaos", "--schedule", str(path), "--seed-base",
                         str(payload["seed"]), "--seeds", "1", "--settops",
                         "2", "--out", str(tmp_path / "again")])
        out = capsys.readouterr().out
        assert code == 1
        assert f"{payload['minimal_faults']} fault(s)" in out
        assert (f"seed {payload['seed']}: FAIL  "
                f"faults={payload['minimal_faults']} "
                f"digest={payload['digest'][:16]}") in out
        for monitor in payload["violated_monitors"]:
            assert f"[{monitor}]" in out
