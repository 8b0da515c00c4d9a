"""Happens-before race detector: vector clocks, the oracle, and chaos.

Unit tests drive :mod:`repro.analysis.hb` with hand-built event
streams; the cluster tests run real instrumented clusters and assert
both directions of falsifiability -- a seeded unordered dual-write IS
flagged, and an ordinary faulted run (kills and reboots, no partition,
so the master chain never forks) stays green with identical write-order
digests across a same-seed replay.
"""

import hashlib

import pytest

from repro.analysis.hb import analyze_events, analyze_trace, write_order_digests
from repro.chaos import FaultSchedule, run_seed
from repro.chaos.faults import Fault
from repro.cluster import build_cluster
from repro.core.params import Params


def w(actor, var, ver, t=0.0):
    return {"event": "write", "actor": actor, "var": var, "ver": ver,
            "time": t}


class TestVectorClocks:
    def test_unordered_conflicting_writes_race(self):
        report = analyze_events([w("a/1", "x", "v1"), w("b/2", "x", "v2")])
        assert len(report.races) == 1
        race = report.races[0]
        assert race.var == "x"
        assert {race.first.ver, race.second.ver} == {"v1", "v2"}

    def test_message_edge_orders_the_writes(self):
        events = [
            {"event": "bind", "ep": "10.0.0.1:5", "actor": "a/1"},
            {"event": "bind", "ep": "10.0.0.2:5", "actor": "b/2"},
            w("a/1", "x", "v1"),
            {"event": "send", "msg": 7, "src": "10.0.0.1:5",
             "dst": "10.0.0.2:5"},
            {"event": "recv", "msg": 7, "dst": "10.0.0.2:5"},
            w("b/2", "x", "v2"),
        ]
        assert analyze_events(events).races == []

    def test_same_actor_program_order_is_never_a_race(self):
        report = analyze_events([w("a/1", "x", "v1"), w("a/1", "x", "v2")])
        assert report.races == []

    def test_same_version_fanout_is_benign(self):
        report = analyze_events([w("a/1", "x", "v1"), w("b/2", "x", "v1")])
        assert report.races == []

    def test_transitive_order_through_a_third_actor(self):
        events = [
            {"event": "bind", "ep": "1:1", "actor": "a/1"},
            {"event": "bind", "ep": "2:2", "actor": "b/2"},
            {"event": "bind", "ep": "3:3", "actor": "c/3"},
            w("a/1", "x", "v1"),
            {"event": "send", "msg": 1, "src": "1:1", "dst": "3:3"},
            {"event": "recv", "msg": 1, "dst": "3:3"},
            {"event": "send", "msg": 2, "src": "3:3", "dst": "2:2"},
            {"event": "recv", "msg": 2, "dst": "2:2"},
            w("b/2", "x", "v2"),
        ]
        assert analyze_events(events).races == []

    def test_dropped_message_adds_no_edge(self):
        events = [
            {"event": "bind", "ep": "1:1", "actor": "a/1"},
            {"event": "bind", "ep": "2:2", "actor": "b/2"},
            w("a/1", "x", "v1"),
            {"event": "send", "msg": 1, "src": "1:1", "dst": "2:2"},
            # no recv: the datagram was dropped by a fault
            w("b/2", "x", "v2"),
        ]
        assert len(analyze_events(events).races) == 1

    def test_race_cap_per_variable(self):
        events = [w(f"a{i}/1", "x", f"v{i}") for i in range(12)]
        report = analyze_events(events)
        assert report.races  # capped, not silenced
        from repro.analysis.hb import MAX_RACES_PER_VAR
        per_var = sum(1 for r in report.races if r.var == "x")
        assert per_var <= MAX_RACES_PER_VAR * 12


class TestOracle:
    def test_digests_ignore_actor_and_time(self):
        a = analyze_events([w("a/1", "x", "v1", t=1.0),
                            w("a/1", "x", "v2", t=2.0)])
        b = analyze_events([w("z/9", "x", "v1", t=50.0),
                            w("z/9", "x", "v2", t=60.0)])
        assert write_order_digests(a) == write_order_digests(b)

    def test_digests_catch_reordering(self):
        a = analyze_events([w("a/1", "x", "v1"), w("a/1", "x", "v2")])
        b = analyze_events([w("a/1", "x", "v2"), w("a/1", "x", "v1")])
        assert write_order_digests(a)["x"] != write_order_digests(b)["x"]

    def test_consecutive_duplicates_collapse(self):
        a = analyze_events([w("a/1", "x", "v1"), w("b/2", "x", "v1"),
                            w("a/1", "x", "v2")])
        b = analyze_events([w("a/1", "x", "v1"), w("a/1", "x", "v2")])
        assert write_order_digests(a) == write_order_digests(b)

    def test_digest_is_the_collapsed_version_chain(self):
        """Fan-out of one version to three replicas is one chain link; an
        unversioned write is ``?``."""
        report = analyze_events([w("a/1", "x", "v1"), w("b/2", "x", "v1"),
                                 w("c/3", "x", "v1"), w("a/1", "x", "v2"),
                                 w("a/1", "y", None)])
        assert write_order_digests(report) == {
            "x": hashlib.sha256(b"v1\nv2").hexdigest(),
            "y": hashlib.sha256(b"?").hexdigest(),
        }


class TestInstrumentedCluster:
    def test_off_by_default(self):
        cluster = build_cluster(n_servers=2, seed=71)
        assert cluster.kernel.hb_log is None
        assert not any(ev.category == "hb" for ev in cluster.trace.events)

    def test_sabotage_dual_write_is_flagged(self):
        """Falsifiability: two split-brain primaries deciding conflicting
        values concurrently (neither reply awaited before the other
        send) must produce a race.  Write-through proxying (PR 7) means
        an honest cluster serializes every write through the one bound
        primary, so the sabotage forces two replicas into believing
        they each hold the primary role."""
        cluster = build_cluster(n_servers=3, seed=72,
                                params=Params(hb_trace=True))
        client = cluster.client_on(cluster.servers[0], name="racer")
        by_ip = {}
        for host in cluster.servers:
            proc = host.find_process("db")
            if proc is not None:
                by_ip[host.ip] = proc.attachments["service"]

        async def dual_write():
            peers = await client.names.list_repl("svc/db-all")
            refs = [ref for _m, _k, ref in peers if ref is not None]
            assert len(refs) >= 2
            for ref in refs[:2]:
                by_ip[ref.ip].binder.role = "primary"  # split-brain
            # invoke() returns a Future: both requests are on the wire
            # before either reply is awaited, so no reply edge orders
            # the two primaries' writes.
            first = client.runtime.invoke(
                refs[0], "put", ("race_t", "k", "A"), timeout=5.0)
            second = client.runtime.invoke(
                refs[1], "put", ("race_t", "k", "B"), timeout=5.0)
            await first
            await second

        cluster.run_async(dual_write())
        report = analyze_trace(cluster.trace.events)
        race_vars = {r.var for r in report.races}
        assert "db:race_t/k" in race_vars, \
            [race.describe() for race in report.races]

    def test_sequential_writes_stay_ordered(self):
        """The control: the same two writes, each awaited before the
        next is sent, are ordered through the reply edge -- no race."""
        cluster = build_cluster(n_servers=3, seed=73,
                                params=Params(hb_trace=True))
        client = cluster.client_on(cluster.servers[0], name="seq")

        async def sequential():
            peers = await client.names.list_repl("svc/db-all")
            refs = [ref for _m, _k, ref in peers if ref is not None]
            await client.runtime.invoke(refs[0], "put",
                                        ("seq_t", "k", "A"), timeout=5.0)
            await client.runtime.invoke(refs[1], "put",
                                        ("seq_t", "k", "B"), timeout=5.0)

        cluster.run_async(sequential())
        report = analyze_trace(cluster.trace.events)
        assert not any(r.var == "db:seq_t/k" for r in report.races), \
            [race.describe() for race in report.races]


KILL_SCHEDULE = FaultSchedule(faults=(
    Fault(20.0, "kill_service", {"server": 1, "service": "mds"}),
    Fault(35.0, "kill_service", {"server": 0, "service": "vod"}),
    Fault(50.0, "reboot_server", {"server": 2}),
), horizon=80.0)


class TestChaosIntegration:
    @pytest.fixture(scope="class")
    def hb_runs(self):
        results = [run_seed(11, settops=2, params=Params(hb_trace=True),
                            schedule=KILL_SCHEDULE) for _ in range(2)]
        return results

    def test_replay_stays_green(self, hb_runs):
        """Kills and reboots fork no history (a single master chain
        orders every ns write); the hb_race monitor must stay quiet."""
        result = hb_runs[0]
        assert result.hb is not None
        assert result.hb["races"] == 0
        assert not [v for v in result.violations if v.monitor == "hb_race"]
        assert result.hb["writes"] > 0
        assert result.hb["events"] > result.hb["writes"]

    def test_same_seed_runs_conform(self, hb_runs):
        """The conformance oracle: identical seeds apply identical
        updates in identical order to every piece of shared state."""
        a, b = hb_runs
        assert a.digest == b.digest
        assert a.hb["digests"] == b.hb["digests"]
