"""Crash-consistent storage (PR 8, ISSUE 8).

The faulty-disk model's unit contract (write barrier, torn writes,
bit rot, wedging, and the deep-copy fix for the disk aliasing bug);
ChangeLog per-entry checksums with truncate-to-valid-prefix recovery
and the atomic write-new-then-swap fallback; the compaction-vs-catch-up
boundary (the crash points of a compaction are walked in
``test_checkpoint_record.py``); ``durability`` falsifiability in both
directions (the ack-before-sync sabotage trips it, the committed E17
power-failure drill replays green); and the SSC load batch surviving a
wedged replica disk with a ``gauges_stale`` transition instead of a
wedged report loop.
"""

from pathlib import Path

import pytest

from repro.chaos import FaultSchedule, run_schedule
from repro.cluster import build_cluster
from repro.core.params import LOAD_REPORT_INTERVAL, Params
from repro.core.replication import (ChangeLog, ReplicatedStore,
                                    atomic_disk_write)
from repro.sim.host import CorruptBlob, Disk, DiskWedged, Host
from repro.sim.kernel import Kernel

from tests.fixtures.sabotage import (ACK_BEFORE_SYNC_SCHEDULE,
                                     ack_before_sync_params)

E17_SCHEDULE = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "schedules" / "e17_power_failure.json")


def _op(i):
    return ("write", "t", f"k{i}", i, False)


class TestDiskAliasing:
    """The aliasing regression: disk state must never share objects
    with callers (a caller mutating its dict after write(), or mutating
    a read() result, was silently editing the 'durable' image)."""

    def test_write_detaches_from_callers_object(self):
        disk = Disk()
        rows = {"a": 1}
        disk.write("t", rows)
        rows["a"] = 99
        assert disk.read("t") == {"a": 1}

    def test_read_returns_private_copy(self):
        disk = Disk()
        disk.write("t", {"a": 1})
        first = disk.read("t")
        first["a"] = 99
        assert disk.read("t") == {"a": 1}

    def test_buffered_read_is_private_too(self):
        disk = Disk()
        disk.write_barrier = True
        disk.write("t", {"a": 1})
        disk.read("t")["a"] = 99
        assert disk.read("t") == {"a": 1}


class TestDiskFaultModel:
    def test_default_path_writes_are_immediately_durable(self):
        disk = Disk()
        disk.write("t", 1)
        disk.crash()
        assert disk.read("t") == 1
        assert disk.lost_writes == 0

    def test_unsynced_write_lost_on_crash(self):
        disk = Disk()
        disk.write_barrier = True
        disk.write("t", 1)
        assert disk.read("t") == 1          # readable before the crash
        disk.crash()
        assert disk.read("t") is None
        assert disk.lost_writes == 1

    def test_sync_makes_buffered_writes_durable(self):
        disk = Disk()
        disk.write_barrier = True
        disk.write("t", 1)
        disk.sync()
        disk.crash()
        assert disk.read("t") == 1
        assert disk.lost_writes == 0

    def test_unsynced_delete_resurrects_on_crash(self):
        disk = Disk()
        disk.write("t", 1)
        disk.write_barrier = True
        disk.delete("t")
        assert disk.read("t") is None       # deletion visible before crash
        assert "t" not in disk
        disk.crash()
        assert disk.read("t") == 1          # the delete was never synced

    def test_torn_write_leaves_corrupt_blob(self):
        disk = Disk()
        disk.arm_torn_write()               # also arms the barrier
        disk.write("t", {"a": 1})
        disk.crash()
        assert isinstance(disk.read("t"), CorruptBlob)
        assert disk.torn_writes == 1

    def test_corrupt_garbles_in_place(self):
        disk = Disk()
        disk.write("t", {"a": 1})
        assert disk.corrupt("t")
        assert isinstance(disk.read("t"), CorruptBlob)
        assert not disk.corrupt("missing")
        assert disk.corrupted_keys == 1

    def test_wedged_raises_until_healed(self):
        disk = Disk()
        disk.write("t", 1)
        disk.wedged = True
        with pytest.raises(DiskWedged):
            disk.read("t")
        with pytest.raises(DiskWedged):
            disk.write("t", 2)
        with pytest.raises(DiskWedged):
            disk.sync()
        disk.heal()
        assert disk.read("t") == 1

    def test_heal_keeps_barrier_and_buffer(self):
        disk = Disk()
        disk.arm_torn_write()
        disk.write("t", 1)
        disk.heal()                         # disarm tear, keep barrier
        assert disk.write_barrier
        assert disk.read("t") == 1
        disk.crash()
        assert disk.read("t") is None       # lost cleanly, not torn
        assert disk.torn_writes == 0

    def test_host_crash_crashes_the_disk(self):
        host = Host(Kernel(), "forge")
        host.disk.write_barrier = True
        host.disk.write("t", 1)
        host.crash()
        assert host.disk.read("t") is None
        assert host.disk.lost_writes == 1

    def test_counters_snapshot(self):
        disk = Disk()
        disk.write_barrier = True
        disk.write("a", 1)
        disk.write("b", 2)
        disk.sync()
        disk.write("c", 3)
        counters = disk.counters()
        assert counters["writes"] == 3
        assert counters["syncs"] == 1
        assert counters["unsynced"] == 1


class TestChangeLogRecovery:
    def test_reopen_verifies_per_entry_checksums(self):
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(5):
            log.append(_op(i), epoch=1)
        reopened = ChangeLog(disk, "log")
        assert reopened.seq == 5
        assert reopened.digest == log.digest
        assert not reopened.recovered_corrupt
        assert reopened.recovered_truncated == 0

    def test_garbled_entry_truncates_to_valid_prefix(self):
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(5):
            log.append(_op(i), epoch=1)
        seq, epoch, op, _sum = disk.read("log.e/3")
        disk.write("log.e/3", (seq, epoch, op, "0" * 16))
        reopened = ChangeLog(disk, "log")
        assert reopened.seq == 2                    # valid prefix only
        assert reopened.recovered_truncated == 3
        # The invalid suffix is gone from disk, not just from memory.
        assert disk.read("log.e/4") is None
        # The rebuilt digest matches an honest 2-entry history.
        honest = ChangeLog(Disk(), "log")
        for i in range(2):
            honest.append(_op(i), epoch=1)
        assert reopened.digest == honest.digest

    def test_tampered_op_fails_its_checksum(self):
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(3):
            log.append(_op(i), epoch=1)
        seq, epoch, _op_, csum = disk.read("log.e/2")
        disk.write("log.e/2", (seq, epoch,
                               ("write", "t", "k1", 666, False), csum))
        assert ChangeLog(disk, "log").seq == 1

    def test_garbled_first_entry_loses_the_whole_chain(self):
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(3):
            log.append(_op(i), epoch=1)
        disk.corrupt("log.e/1")
        reopened = ChangeLog(disk, "log")
        assert reopened.seq == 0
        assert reopened.recovered_truncated == 3

    def test_unreadable_header_starts_fresh_and_flags_it(self):
        disk = Disk()
        log = ChangeLog(disk, "log", retain=2)
        for i in range(6):
            log.append(_op(i), epoch=1)
        assert log.compactions > 0                  # a header exists now
        disk.corrupt("log")
        reopened = ChangeLog(disk, "log", retain=2)
        assert reopened.seq == 0
        assert reopened.recovered_corrupt

    def test_atomic_swap_falls_back_to_spare(self):
        disk = Disk()
        atomic_disk_write(disk, "k", {"v": 1})
        assert "k.new" not in disk                  # spare pruned on success
        # Interrupted swap: main header garbled, spare still holds the
        # payload -- recovery must read the spare instead of starting
        # fresh.
        log_disk = Disk()
        log = ChangeLog(log_disk, "log", retain=2)
        for i in range(6):
            log.append(_op(i), epoch=1)
        state = log_disk.read("log")
        log_disk.corrupt("log")
        log_disk.write("log.new", state)
        reopened = ChangeLog(log_disk, "log", retain=2)
        assert reopened.seq == 6                    # nothing lost ...
        assert reopened.recovered_corrupt           # ... garbage still flagged
        assert reopened.recovered_truncated == 0
        assert reopened.digest == log.digest

    def test_append_is_one_entry_write_not_a_log_rewrite(self):
        """The schema-2 point: appending must not rewrite the window."""
        disk = Disk()
        log = ChangeLog(disk, "log")
        for i in range(10):
            log.append(_op(i), epoch=1)
        before = disk.writes
        log.append(_op(10), epoch=1)
        assert disk.writes == before + 1            # the entry key, only
        assert disk.read("log") is None             # header: never compacted

    def test_compaction_survives_reopen(self):
        disk = Disk()
        log = ChangeLog(disk, "log", retain=4)
        for i in range(10):
            log.append(_op(i), epoch=2)
        reopened = ChangeLog(disk, "log", retain=4)
        assert reopened.seq == 10
        assert reopened.base_seq == 5
        assert reopened.base_epoch == 2
        assert reopened.digest == log.digest
        # The retained window still serves an in-window cursor.
        assert [e[0] for e in reopened.entries_from(8, 2)] == [9, 10]
        # Dropped entries' keys went with the compaction.
        assert disk.read("log.e/5") is None
        assert disk.read("log.e/6") is not None

    def test_crashed_compaction_orphans_are_swept(self):
        """Header-first compaction: a crash between the header write and
        the entry deletes leaves orphan keys below the watermark, which
        the next recovery removes without touching the live window."""
        disk = Disk()
        log = ChangeLog(disk, "log", retain=4)
        for i in range(10):
            log.append(_op(i), epoch=2)
        # Resurrect two dropped keys, as if the compaction's deletes
        # never hit the platter.
        disk.write("log.e/5", (5, 2, _op(4), "feedfacefeedface"))
        disk.write("log.e/4", (4, 2, _op(3), "feedfacefeedface"))
        reopened = ChangeLog(disk, "log", retain=4)
        assert reopened.seq == 10
        assert reopened.base_seq == 5
        assert reopened.recovered_truncated == 0    # orphans are not a tear
        assert disk.read("log.e/5") is None
        assert disk.read("log.e/4") is None


class TestCompactionRace:
    """A compaction racing a mid-catch-up replica (satellite 3)."""

    def test_cursor_at_watermark_still_serves_incrementally(self):
        log = ChangeLog(Disk(), "log", retain=4)
        for i in range(10):
            log.append(_op(i), epoch=2)
        assert log.base_seq == 5
        tail = log.entries_from(5, 2)               # exactly at watermark
        assert [e[0] for e in tail] == [6, 7, 8, 9, 10]

    def test_cursor_one_before_watermark_forces_snapshot(self):
        log = ChangeLog(Disk(), "log", retain=4)
        for i in range(10):
            log.append(_op(i), epoch=2)
        assert log.entries_from(4, 2) is None       # one past the window


class TestDurabilityFalsifiable:
    """The durability monitor must go red under ack-before-sync sabotage
    and stay green through the committed E17 power-failure drill."""

    @pytest.fixture(scope="class")
    def sabotaged(self):
        with ack_before_sync_params() as params:
            return run_schedule(ACK_BEFORE_SYNC_SCHEDULE, seed=0, settops=2,
                                params=params)

    def test_ack_before_sync_trips_durability(self, sabotaged):
        assert sabotaged.violated_monitors() == ["durability"]

    def test_sabotage_actually_lost_writes(self, sabotaged):
        assert sabotaged.counters["disk.lost_writes"] > 0

    @pytest.fixture(scope="class")
    def e17(self):
        schedule = FaultSchedule.load(E17_SCHEDULE)
        return run_schedule(schedule, seed=0, settops=2,
                            params=Params(hb_trace=True))

    def test_e17_zero_acked_write_loss(self, e17):
        assert e17.ok, e17.violated_monitors()

    def test_e17_zero_hb_races(self, e17):
        assert e17.hb is not None and e17.hb["races"] == 0

    def test_e17_replicas_reconverge(self, e17):
        assert e17.counters["repl.ns.converged"] == 1
        assert e17.counters["repl.db.converged"] == 1

    def test_e17_exercised_the_fault_model(self, e17):
        # A drill that tears and loses nothing proves nothing.
        assert e17.counters["disk.lost_writes"] > 0
        assert e17.counters["disk.torn_writes"] > 0
        assert e17.counters["disk.corrupted_keys"] > 0


class TestGaugesStaleTransition:
    """A wedged replica disk must not wedge the SSC load batch
    (satellite 2): the scrape skips the wedged service, emits one
    ``gauges_stale`` transition, and keeps batching the rest."""

    def test_wedged_disk_yields_stale_transition_not_stall(self):
        cluster = build_cluster(seed=11)
        wedged_at = cluster.now
        cluster.servers[0].disk.wedged = True
        cluster.run_for(3 * LOAD_REPORT_INTERVAL)
        stale = [ev for ev in cluster.trace.events
                 if ev.category == "ssc" and ev.event == "gauges_stale"]
        assert stale, "no gauges_stale transition emitted"
        # Once per transition, not once per probe.
        per_service = {}
        for ev in stale:
            key = (ev.fields.get("host"), ev.fields.get("service"))
            per_service[key] = per_service.get(key, 0) + 1
        assert all(count == 1 for count in per_service.values())
        # The batch loop itself kept running past the wedge.
        later_reports = [ev for ev in cluster.trace.events
                         if ev.category == "ssc"
                         and ev.event == "load_report"
                         and ev.time > wedged_at]
        assert later_reports, "the SSC load batch wedged with the disk"
        # Recovery: heal, and the next wedge is a fresh transition.
        cluster.servers[0].disk.wedged = False
        cluster.run_for(2 * LOAD_REPORT_INTERVAL)
        cluster.servers[0].disk.wedged = True
        cluster.run_for(2 * LOAD_REPORT_INTERVAL)
        stale_after = [ev for ev in cluster.trace.events
                       if ev.category == "ssc"
                       and ev.event == "gauges_stale"]
        assert len(stale_after) > len(stale)
        cluster.servers[0].disk.wedged = False

    def test_only_a_wedged_disk_is_a_stale_gauge(self, monkeypatch):
        """Any other failure of the scrape is a bug, and it propagates."""
        cluster = build_cluster(seed=11)

        def broken(_store):
            raise RuntimeError("gauge bug")

        monkeypatch.setattr(ReplicatedStore, "replication_gauges", broken)
        runtime = cluster.servers[0].find_process("ssc").attachments["ocs"]
        ssc = runtime._exports[""].servant
        with pytest.raises(RuntimeError, match="gauge bug"):
            ssc._collect_load_reports()
        assert not cluster.trace.select("ssc", "gauges_stale")
