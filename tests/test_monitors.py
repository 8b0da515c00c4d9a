"""The chaos monitors' shared mechanisms and verdicts, both directions.

Cluster-free tests drive a monitor against a fake cluster built from
namespaces: the ``_Stretch`` grace clock, ``csc_primary``,
``future_leak`` and the ``durability`` db rule (highest seq per reign).
The cluster tests pin the verdicts of known runs: runs that must stay
green, and strict xfails for runs still red (ROADMAP item 2), each
asserting its exact violated-monitor set so that a fix flips it.
"""

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos import Fault, FaultSchedule, run_schedule, run_seed
from repro.chaos.monitors import (LEAK_GRACE, CscPrimaryMonitor,
                                  DurabilityMonitor, EvidenceLedger,
                                  FutureLeakMonitor, _Stretch)
from repro.core.params import Params
from repro.db.service import seed_database
from repro.sim.host import Disk

E18_SCHEDULE = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "schedules" / "e18_hostile_net.json")

# The minimizer's repro of `repro chaos --seed-base 7 --seeds 1 --faults 5
# --horizon 150 --settops 2`: a gray-failing server whose SSC is killed.
GRAY_KILL_SSC_SCHEDULE = FaultSchedule(faults=(
    Fault(5.0, "gray", {"server": 2, "reply_lag": 1.446}),
    Fault(5.0, "kill_ssc", {"server": 2}),
), horizon=150.0)

# The minimizer's repro of seed 25 in `repro chaos --seed-base 20 --seeds
# 10 --settops 2 --horizon 120`: server 2 is slowed, partitioned off and
# healed, then its SSC is killed; its db replica stays wedged.
PARTITION_KILL_SSC_SCHEDULE = FaultSchedule(faults=(
    Fault(11.960467190187442, "delay", {"extra": 0.692, "target": "server:2"}),
    Fault(42.56339380491547, "reorder", {"max_skew": 0.178,
                                         "probability": 0.404,
                                         "target": "server:2"}),
    Fault(52.75144624416198, "partition", {"servers_a": [2],
                                           "servers_b": [0, 1]}),
    Fault(87.7614399184507, "heal", {}),
    Fault(88.64674896659854, "loss", {"probability": 0.244,
                                      "target": "server:0"}),
    Fault(96.78126635626207, "kill_ssc", {"server": 2}),
), horizon=120.0)


def fake_cluster(servers=()):
    """Just the surface the monitors probe: time, partition flag, the
    kernel's evidence ledger and the server hosts."""
    cluster = SimpleNamespace(servers=list(servers), now=0.0,
                              net=SimpleNamespace(partitioned=False),
                              kernel=SimpleNamespace(ledger=None))
    cluster.kernel.ledger = EvidenceLedger(cluster)
    return cluster


def fake_server(ip, **processes):
    """A host whose ``find_process(kind)`` returns ``processes[kind]``."""
    host = SimpleNamespace(ip=ip, disk=Disk())
    host.find_process = processes.get
    return host


def bound(monitor, cluster, injector=None):
    monitor.bind(cluster, injector, Params(), {})
    return monitor


class TestStretch:
    def test_reports_once_past_the_grace_then_rearms(self):
        stretch = _Stretch(10.0)
        assert stretch.overdue(True, 0.0) is None
        assert stretch.overdue(True, 10.0) is None     # not *past* it yet
        assert stretch.overdue(True, 12.5) == 12.5
        assert stretch.overdue(True, 30.0) is None     # reported already
        assert stretch.overdue(False, 31.0) is None    # condition breaks
        assert stretch.overdue(True, 40.0) is None     # a new stretch
        assert stretch.overdue(True, 51.0) == 11.0

    def test_a_break_before_the_grace_restarts_the_clock(self):
        stretch = _Stretch(10.0)
        stretch.overdue(True, 0.0)
        stretch.overdue(False, 8.0)
        assert stretch.overdue(True, 9.0) is None
        assert stretch.overdue(True, 15.0) is None
        assert stretch.overdue(True, 19.5) == 10.5


class TestCscPrimary:
    @pytest.fixture
    def world(self):
        servers = [fake_server(f"10.0.0.{i}", csc=SimpleNamespace(
            alive=True,
            attachments={"service": SimpleNamespace(is_primary=True)}))
            for i in (1, 2)]
        cluster = fake_cluster(servers)
        monitor = bound(CscPrimaryMonitor(), cluster)
        return cluster, monitor, monitor._dual.grace

    @staticmethod
    def probe(cluster, monitor, at):
        cluster.now = at
        return monitor.check()

    def test_two_connected_primaries_reported_once_after_the_grace(
            self, world):
        cluster, monitor, grace = world
        assert self.probe(cluster, monitor, 0.0) == []
        assert self.probe(cluster, monitor, grace) == []
        found = self.probe(cluster, monitor, grace + 1.0)
        assert [v.monitor for v in found] == ["csc_primary"]
        assert "2 CSCs claim primary" in found[0].detail
        assert self.probe(cluster, monitor, 3 * grace) == []

    def test_a_partition_excuses_them(self, world):
        cluster, monitor, grace = world
        cluster.net.partitioned = True
        for at in (0.0, grace + 1.0, 3 * grace):
            assert self.probe(cluster, monitor, at) == []

    def test_a_second_stretch_reports_again(self, world):
        cluster, monitor, grace = world
        self.probe(cluster, monitor, 0.0)
        assert self.probe(cluster, monitor, grace + 1.0)
        demoted = cluster.servers[1].find_process("csc")
        demoted.attachments["service"].is_primary = False
        assert self.probe(cluster, monitor, grace + 2.0) == []
        demoted.attachments["service"].is_primary = True
        start = grace + 3.0
        assert self.probe(cluster, monitor, start) == []
        assert self.probe(cluster, monitor, start + grace + 1.0)


class TestFutureLeak:
    @pytest.fixture
    def world(self):
        pending = SimpleNamespace(name="vod-watchdog", done=lambda: False)
        proc = SimpleNamespace(alive=False, name="vod", pid=7,
                               cancelled_tasks=[pending])
        injector = SimpleNamespace(killed=[{"proc": proc, "t": 5.0}])
        cluster = fake_cluster()
        return cluster, bound(FutureLeakMonitor(), cluster, injector)

    def test_silent_inside_the_grace_reported_after_it(self, world):
        cluster, monitor = world
        cluster.now = 5.0 + LEAK_GRACE
        assert monitor.check() == []
        cluster.now = 5.0 + LEAK_GRACE + 1.0
        found = monitor.check()
        assert [v.monitor for v in found] == ["future_leak"]
        assert "leaked 1 task(s)" in found[0].detail
        assert monitor.check() == []          # each kill judged once

    def test_finish_ignores_the_grace(self, world):
        cluster, monitor = world
        cluster.now = 6.0
        assert monitor.check() == []
        assert [v.monitor for v in monitor.finish()] == ["future_leak"]


class TestDurabilityDbRule:
    """Rows are judged against the primary's disk by the highest-seq ack
    of the last reign that acked them."""

    PRIMARY = "10.0.0.1"

    @pytest.fixture
    def world(self):
        host = fake_server(self.PRIMARY)
        store = SimpleNamespace(is_primary=True,
                                owner=SimpleNamespace(host=host))
        host.find_process = {"db": SimpleNamespace(
            attachments={"repl": store})}.get
        cluster = fake_cluster([host])
        return cluster, host.disk, bound(DurabilityMonitor(), cluster)

    def ack(self, cluster, epoch, seq, value, at):
        cluster.now = at
        cluster.kernel.ledger.ack_db(self.PRIMARY, epoch, seq, "t", "k",
                                     value, deleted=False)

    def test_out_of_order_acks_judge_the_highest_seq(self, world):
        cluster, disk, monitor = world
        self.ack(cluster, (1,), 111, 184, at=256.17)
        self.ack(cluster, (1,), 105, 179, at=256.29)
        seed_database(disk, "t", {"k": 184})
        assert monitor.finish() == []

    def test_the_highest_seq_value_must_be_on_disk(self, world):
        cluster, disk, monitor = world
        self.ack(cluster, (1,), 111, 184, at=256.17)
        self.ack(cluster, (1,), 105, 179, at=256.29)
        seed_database(disk, "t", {"k": 179})
        found = monitor.finish()
        assert [v.monitor for v in found] == ["durability"]
        assert "acked value 184 (seq 111) reads back 179" in found[0].detail

    def test_a_new_reign_is_judged_by_its_own_acks(self, world):
        # A reclaimed primary restarts its numbering from a snapshot:
        # the new reign's seq 3 supersedes the old reign's seq 40.
        cluster, disk, monitor = world
        self.ack(cluster, (1,), 40, "old", at=10.0)
        self.ack(cluster, (2,), 3, "new", at=20.0)
        seed_database(disk, "t", {"k": "new"})
        assert monitor.finish() == []
        seed_database(disk, "t", {"k": "old"})
        assert [v.monitor for v in monitor.finish()] == ["durability"]


def full_scan_doubles(ledger):
    """``EvidenceLedger.double_executions`` as a full scan: every request
    id sorted and counted on every probe."""
    out = []
    for rid, execs in sorted(ledger.executions.items()):
        if len(execs) < 2:
            continue
        by_actor = {}
        for e in execs:
            by_actor[e["actor"]] = by_actor.get(e["actor"], 0) + 1
        if any(n >= 2 for n in by_actor.values()):
            out.append((rid, execs))
    return out


class TestEvidenceLedgerDoubles:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_full_scan_on_a_random_ledger(self, seed):
        rng = random.Random(seed)
        ledger = EvidenceLedger(None)
        for step in range(600):
            rid = (rng.choice("abc"), rng.randint(1, 80))
            ledger.record(rid, actor=rng.choice(("10.0.0.1/3", "10.0.0.2/7",
                                                 "10.0.0.3/9")),
                          method="Toy.op", at=step * 0.1)
            if step % 25 == 0:      # a monitor probe mid-run
                assert ledger.double_executions() == full_scan_doubles(ledger)
        doubles = ledger.double_executions()
        assert doubles == full_scan_doubles(ledger)
        # The ledger holds both kinds of repeat: same-actor doubles, and
        # ids run twice but only on different actors (excused).
        assert doubles
        assert len(doubles) < sum(len(e) >= 2
                                  for e in ledger.executions.values())


# ---------------------------------------------------------------------------
# Verdict pins on real runs
# ---------------------------------------------------------------------------


class PinnedRed(Exception):
    """The run is still red with exactly its pinned monitor set."""


def _assert_green_unless_pinned(result, pinned):
    got = result.violated_monitors()
    if got == pinned:
        raise PinnedRed(f"seed {result.seed}: {got}")
    assert got == [], [(v.monitor, v.detail) for v in result.violations]


@pytest.mark.parametrize("run", [
    pytest.param(lambda: run_seed(3), id="seed3"),
    pytest.param(lambda: run_seed(25), id="seed25"),
    pytest.param(lambda: run_schedule(FaultSchedule.load(E18_SCHEDULE), 12,
                                      settops=16), id="e18-12-16settops"),
])
def test_runs_once_falsely_red_on_durability_are_green(run):
    result = run()
    assert result.ok, [(v.monitor, v.detail) for v in result.violations]


@pytest.mark.xfail(strict=True, raises=PinnedRed, reason="ROADMAP 2")
@pytest.mark.parametrize("run,pinned", [
    pytest.param(lambda: run_seed(4), ["replica_lag_bounded"], id="seed4"),
    pytest.param(lambda: run_seed(7), ["replica_lag_bounded"], id="seed7"),
    pytest.param(lambda: run_seed(16),
                 ["audit_convergence", "replica_lag_bounded"], id="seed16"),
    pytest.param(lambda: run_schedule(FaultSchedule.load(E18_SCHEDULE), 1),
                 ["audit_convergence"], id="e18-1"),
    pytest.param(lambda: run_schedule(FaultSchedule.load(E18_SCHEDULE), 13),
                 ["audit_convergence"], id="e18-13"),
    pytest.param(lambda: run_schedule(GRAY_KILL_SSC_SCHEDULE, 7, settops=2),
                 ["audit_convergence", "replica_lag_bounded"],
                 id="gray-kill-ssc-7"),
    pytest.param(lambda: run_schedule(PARTITION_KILL_SSC_SCHEDULE, 25,
                                      settops=2),
                 ["replica_lag_bounded"], id="partition-kill-ssc-25"),
])
def test_pinned_red_runs(run, pinned):
    _assert_green_unless_pinned(run(), pinned)
