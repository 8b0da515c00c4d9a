"""Incremental log-shipping replication (PR 7, ISSUE 7).

The ChangeLog unit contract; NS catch-up cost proportional to the
heartbeat seq gap (not O(tree)); db write-through, observable
``replication_skipped`` gaps, interleaved-write convergence; online
replica bootstrap for both services; and ``replica_lag_bounded``
falsifiability in both directions (the wedged-log sabotage trips it,
the committed kill schedules replay green).
"""

import pytest

from repro.chaos import FaultSchedule, default_monitors, run_schedule
from repro.cluster import build_cluster
from repro.core.rebind import RebindingProxy
from repro.core.replication import GENESIS_EPOCH, ChangeLog
from repro.db.service import DB_REPLICATION_POLL
from repro.metrics import cluster_counters, live_replicas
from repro.ocs.exceptions import ServiceUnavailable
from repro.sim.host import Disk
from repro.sim.kernel import gather

from tests.fixtures.sabotage import WEDGED_LOG_SCHEDULE, wedged_replica_log
from tests.helpers import NsWorld
from tests.test_naming_service import make_ref


def _op(i):
    return ("write", "t", f"k{i}", i, False)


class TestChangeLogUnit:
    def test_append_assigns_monotonic_seqs(self):
        log = ChangeLog(Disk(), "log")
        assert [log.append(_op(i), epoch=1) for i in range(3)] == [1, 2, 3]
        assert log.seq == 3
        assert [e[0] for e in log.entries] == [1, 2, 3]

    def test_record_duplicate_is_noop_and_gap_raises(self):
        log = ChangeLog(Disk(), "log")
        assert log.record(1, 1, _op(1))
        assert not log.record(1, 1, _op(1))   # duplicate delivery
        assert log.seq == 1
        with pytest.raises(ValueError):
            log.record(3, 1, _op(3))          # seq 2 missing

    def test_state_survives_reopen(self):
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(5):
            log.append(_op(i), epoch=7)
        reopened = ChangeLog(disk, "log")
        assert reopened.seq == 5
        assert reopened.digest == log.digest
        assert reopened.entries == log.entries

    def test_digest_is_history_not_cursor(self):
        a, b, c = (ChangeLog(Disk(), "log") for _ in range(3))
        for i in range(4):
            a.append(_op(i), epoch=1)
            b.append(_op(i), epoch=1)
            c.append(_op(i if i < 3 else 99), epoch=1)
        assert a.digest == b.digest
        assert a.seq == c.seq and a.digest != c.digest

    def test_compaction_keeps_window_and_watermark(self):
        disk = Disk()
        log = ChangeLog(disk, "log", retain=4,
                        checkpoint=lambda: {"head": log.seq})
        for i in range(10):
            log.append(_op(i), epoch=2)
        # Hysteresis: the log grew to 2*retain+1 entries (seq 9), then
        # cut back to retain in one step; one more append since.
        assert len(log.entries) == 5
        assert log.base_seq == 5 and log.base_epoch == 2
        assert log.compactions == 1
        # The owner's state was taken once, at the head, with the cut.
        assert ChangeLog(disk, "log").checkpoint_state == {"head": 9}
        assert log.epoch_at(log.base_seq) == 2      # watermark answers
        assert log.epoch_at(log.base_seq - 1) is None  # truncated away

    def test_compaction_frequency_is_appends_over_retain(self):
        """The hysteresis contract: steady-state appends pay one
        compaction (one checkpoint write) per ``retain`` appends -- not
        one per append at the high-water mark, the schema-1 pathology
        the changelog_append bench caught (5000 appends used to cost
        ~4500 compactions)."""
        retain = 8
        n = 400
        log = ChangeLog(Disk(), "log", retain=retain)
        for i in range(n):
            log.append(_op(i), epoch=1)
        assert 0 < log.compactions <= n // retain
        # The window breathes between retain and 2*retain entries.
        assert retain <= len(log.entries) <= 2 * retain
        # And the retained tail still serves incremental catch-up.
        tail = log.entries_from(log.base_seq, 1)
        assert [e[0] for e in tail] == list(range(log.base_seq + 1, n + 1))

    def test_entries_from_serves_shared_history_only(self):
        log = ChangeLog(Disk(), "log", retain=4)
        for i in range(10):
            log.append(_op(i), epoch=2)
        # In-window cursor: exactly the missing tail.
        tail = log.entries_from(8, 2)
        assert [e[0] for e in tail] == [9, 10]
        assert log.entries_from(10, 2) == []        # caught up
        assert log.entries_from(11, 2) is None      # ahead of us
        assert log.entries_from(3, 2) is None       # truncated past cursor
        assert log.entries_from(8, 9) is None       # forked reign
        # A genesis cursor needs no epoch agreement.
        fresh = ChangeLog(Disk(), "log")
        fresh.append(_op(0), epoch=5)
        assert [e[0] for e in fresh.entries_from(0, GENESIS_EPOCH)] == [1]

    def test_reset_adopts_snapshot_cursor(self):
        log = ChangeLog(Disk(), "log")
        log.append(_op(0), epoch=1)
        log.reset(40, 6, "adopted-digest")
        assert (log.seq, log.base_seq, log.base_epoch) == (40, 40, 6)
        assert log.digest == "adopted-digest"
        assert log.entries_from(40, 6) == []
        assert log.record(41, 6, _op(41))


# ---------------------------------------------------------------------------
# NS: heartbeat seq gaps close in O(gap) ops, not O(tree) snapshots
# ---------------------------------------------------------------------------


class TestNsIncrementalCatchUp:
    def test_heartbeat_gap_costs_ops_proportional_to_gap(self):
        """ISSUE 7 satellite 3: the old on_heartbeat path took a full
        ``state_fetched`` snapshot for *any* seq gap; now the behind
        replica must pull exactly the missed entries."""
        world = NsWorld(n_servers=3, seed=11)
        master = world.settle()
        slave = next(r for r in world.replicas.values()
                     if r.role == "slave" and r.process.alive)
        _, _, client = world.client(master.process.host)
        world.run_async(client.bind_new_context("gapctx"))
        world.kernel.run(until=world.kernel.now + 3.0)
        # Streaming path healthy: the slave holds the pre-partition state.
        assert slave.changelog.seq == master.changelog.seq > 0
        pre = sum(ev.fields["ops"] for ev in world.trace.select(
            "ns", "catch_up", replica=slave.ip))
        # Partition the slave away, grow the namespace by a known gap.
        world.net.partition({slave.ip}, {ip for ip in world.replicas
                                         if ip != slave.ip})
        for i in range(8):
            world.run_async(client.bind(f"gapctx/svc{i}", make_ref(master.ip)))
        gap = master.changelog.seq - slave.changelog.seq
        assert gap == 8
        world.net.heal_partitions()
        world.kernel.run(until=world.kernel.now + 15.0)
        assert slave.changelog.seq == master.changelog.seq
        # Catch-up cost == the gap, zero full-snapshot transfers.
        pulled = sum(ev.fields["ops"] for ev in world.trace.select(
            "ns", "catch_up", replica=slave.ip))
        assert pulled - pre == gap
        assert world.trace.select("ns", "state_fetched") == []
        assert slave.repl.snapshot_fetches == 0
        assert slave.changelog.digest == master.changelog.digest


# ---------------------------------------------------------------------------
# db: write-through, observable skips, convergence, online bootstrap
# ---------------------------------------------------------------------------


def _db_client(cluster, server_index=0, name="db-client"):
    client = cluster.client_on(cluster.servers[server_index], name=name)
    return RebindingProxy(client.runtime, client.names, "svc/db",
                          cluster.params)


def _db_services(cluster):
    out = {}
    for host in cluster.servers:
        proc = host.find_process("db")
        if proc is not None and proc.alive:
            out[host.ip] = proc.attachments["service"]
    return out


class TestDbReplication:
    def test_write_through_acks_after_change_streams_back(self):
        cluster = build_cluster(n_servers=3, seed=71)
        cluster.run_for(2.0)
        services = _db_services(cluster)
        primary_ip = cluster.db_primary_ip()
        assert primary_ip is not None
        backup = next(s for ip, s in services.items() if ip != primary_ip)
        seq = cluster.run_async(backup.write("wt", "k", "direct", False))
        # Read-your-write locally: the ack waited for the stream-back.
        assert backup.get(None, "wt", "k") == "direct"
        assert backup.log.seq >= seq
        assert services[primary_ip].get(None, "wt", "k") == "direct"

    def test_replication_skip_is_observable(self, monkeypatch):
        """ISSUE 7 satellite 1: a ``list_repl`` failure used to drop the
        push silently; now it retries on the backoff and, only once the
        budget is spent, counts and traces the skipped replication."""
        cluster = build_cluster(n_servers=3, seed=72)
        cluster.run_for(2.0)
        primary = _db_services(cluster)[cluster.db_primary_ip()]

        async def broken_list_repl(name):
            raise ServiceUnavailable("ns flaking")

        monkeypatch.setattr(primary.names, "list_repl", broken_list_repl)
        seq = cluster.run_async(primary.write("obs", "k", 1, False))
        assert primary.replication_skipped == 1
        events = cluster.trace.select("db", "replication_skipped")
        assert events and events[-1].fields["reason"] == "list_repl"
        monkeypatch.undo()
        # The gap is repaired from the log by anti-entropy, not lost.
        cluster.run_for(DB_REPLICATION_POLL + 5.0)
        for svc in _db_services(cluster).values():
            assert svc.log.seq >= seq
            assert svc.get(None, "obs", "k") == 1

    def test_interleaved_puts_converge_to_one_write_order(self):
        """ISSUE 7 satellite 2: pushes now carry (seq, epoch), so two
        writers hammering one key leave every replica with the same
        write order -- identical change-log digests, which PR 6 made the
        write-order conformance oracle."""
        cluster = build_cluster(n_servers=3, seed=73)
        cluster.run_for(2.0)
        a = _db_client(cluster, 1, name="ia")
        b = _db_client(cluster, 2, name="ib")

        async def storm(db, values):
            for v in values:
                await db.call("put", "ilv", "k", v)

        cluster.run_async(gather(cluster.kernel, [
            storm(a, [1, 3, 5, 7, 9]), storm(b, [2, 4, 6, 8, 10])]))
        cluster.run_for(DB_REPLICATION_POLL + 5.0)
        services = _db_services(cluster)
        digests = {svc.log.digest for svc in services.values()}
        assert len(digests) == 1, "replicas applied different write orders"
        assert len({svc.log.seq for svc in services.values()}) == 1
        assert len({repr(svc.get(None, "ilv", "k"))
                    for svc in services.values()}) == 1
        counters = cluster_counters(cluster)
        assert counters["repl.db.converged"] == 1
        assert counters["repl.ns.converged"] == 1

    def test_restarted_primary_reclaims_stale_binding(self):
        """A killed primary leaves ``svc/db`` naming a dead endpoint.

        The restarted process must swap that stale binding for its own
        ref on its first bind attempt (section 9.5: restart invisible)
        instead of parking in AlreadyBound until the RAS audit removes
        it -- the pre-fix gap left db writes unavailable for up to an
        audit cycle plus a bind retry, longer than a viewer-facing
        deadline.
        """
        cluster = build_cluster(n_servers=3, seed=75)
        cluster.run_for(2.0)
        primary_ip = cluster.db_primary_ip()
        index = next(i for i, host in enumerate(cluster.servers)
                     if host.ip == primary_ip)
        t_kill = cluster.kernel.now
        assert cluster.kill_service(index, "db")
        cluster.run_for(5.0)   # SSC restart (~1 s) + first bind attempt
        # Reclaimed by the restart, well inside the audit bound.
        assert cluster.db_primary_ip() == primary_ip
        promoted = [e for e in cluster.trace.select("db", "promoted")
                    if e.time > t_kill]
        assert promoted and promoted[0].time - t_kill < 5.0
        # The name was swapped, not audit-removed.
        assert not [e for e in cluster.trace.select("ns", "audit_removed")
                    if e.fields["path"] == "svc/db"]
        # And writes flow again immediately.
        db = _db_client(cluster, server_index=(index + 1) % 3)
        cluster.run_async(db.call("put", "reclaim", "k", "fast"))
        primary = _db_services(cluster)[primary_ip]
        assert primary.get(None, "reclaim", "k") == "fast"


# ---------------------------------------------------------------------------
# online bootstrap: one protocol, so one test for both services
# ---------------------------------------------------------------------------


async def _bind_names(cluster, server, tag, count):
    names = cluster.client_on(cluster.servers[server], name=f"ns-{tag}").names
    for i in range(count):
        await names.bind(f"svc/boot-{tag}{i}", make_ref(cluster.server_ips[0]))


async def _put_rows(cluster, server, tag, count):
    db = _db_client(cluster, server, name=f"db-{tag}")
    for i in range(count):
        await db.call("put", "ob", f"{tag}{i}", i)


class TestOnlineBootstrap:
    @pytest.mark.parametrize("kind, mutate", [("ns", _bind_names),
                                              ("db", _put_rows)])
    def test_restarted_follower_pulls_only_the_missed_tail(self, kind, mutate):
        """A follower killed mid-workload resumes from its on-disk log
        and pulls exactly what it missed -- zero snapshot fetches --
        while the remaining replicas keep serving updates."""
        cluster = build_cluster(n_servers=3, seed=74)
        cluster.run_for(2.0)
        before = dict(live_replicas(cluster, kind))
        primary_ip = next(ip for ip, store in before.items()
                          if store.is_primary)
        victim = next(i for i, host in enumerate(cluster.servers)
                      if host.ip != primary_ip)
        victim_ip = cluster.servers[victim].ip
        server = cluster.server_ips.index(primary_ip)
        cluster.run_async(mutate(cluster, server, "before", 1))
        cluster.run_for(3.0)
        resumed_at = before[victim_ip].log.seq
        assert resumed_at == before[primary_ip].log.seq > 0
        assert cluster.kill_service(victim, kind)
        cluster.run_async(mutate(cluster, server, "while", 6))
        cluster.run_for(DB_REPLICATION_POLL + 10.0)
        after = dict(live_replicas(cluster, kind))
        revived, primary = after[victim_ip], after[primary_ip]
        assert revived is not before[victim_ip]          # a new process
        assert revived.log.seq == primary.log.seq
        assert revived.log.digest == primary.log.digest
        assert revived.snapshot_fetches == 0
        # Resumed from its old cursor, not from zero: it pulled the tail.
        assert 6 <= revived.catch_up_ops <= primary.log.seq - resumed_at


# ---------------------------------------------------------------------------
# replica_lag_bounded: must fire when broken, stay quiet when healthy
# ---------------------------------------------------------------------------


class TestReplicaLagFalsifiability:
    @pytest.mark.parametrize("kind", ["ns", "db"])
    def test_wedged_log_trips_the_monitor(self, kind):
        with wedged_replica_log(kind):
            result = run_schedule(WEDGED_LOG_SCHEDULE, seed=5, settops=2)
        assert "replica_lag_bounded" in result.violated_monitors()
        assert any(f"{kind} replica" in v.detail for v in result.violations)
        assert result.counters[f"repl.{kind}.converged"] == 0

    def test_e13_kill_schedule_replays_green(self):
        schedule = FaultSchedule.load("benchmarks/schedules/e13_kills.json")
        result = run_schedule(schedule, seed=3, settops=2,
                              monitors=default_monitors())
        assert result.ok, [v.detail for v in result.violations]
        assert result.counters["repl.ns.converged"] == 1
        assert result.counters["repl.db.converged"] == 1

    def test_e16_kill_primary_schedule_replays_green(self):
        schedule = FaultSchedule.load(
            "benchmarks/schedules/e16_kill_primary.json")
        result = run_schedule(schedule, seed=0, settops=2,
                              monitors=default_monitors())
        assert result.ok, [v.detail for v in result.violations]
        assert result.counters["repl.ns.converged"] == 1
        assert result.counters["repl.db.converged"] == 1
        # The drill's gaps all fit in the retained log: no snapshots.
        assert result.counters["repl.db.snapshot_fetches"] == 0
