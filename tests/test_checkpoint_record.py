"""One durable record per replica (ISSUE 24).

The change-log header is the replica's checkpoint: compaction watermark,
head cursor, owner state at that cursor and a checksum, committed in one
atomic swap.  Pinned here: an NS replica restarting from that record
(clean, rotted, and as a lone survivor whose first retained entry
rotted); every crash point of a compacting append; ``reset`` after a
lossy reopen; the generated-fault key list naming keys that exist; and
the E16/E17/E18 drills with a window small enough that every replica
restarts from a checkpoint.
"""

import functools
from pathlib import Path

import pytest

from repro.chaos import FaultSchedule, run_schedule
from repro.chaos.schedule import DISK_FAULT_KEYS
from repro.cluster import build_cluster
from repro.core.naming.replica import LOG_KEY
from repro.core.params import Params
from repro.core.replication import ChangeLog, entry_key
from repro.sim.host import Disk

from tests.helpers import NsWorld
from tests.test_naming_service import make_ref
from tests.test_replication_log import _db_client

SCHEDULES = Path(__file__).resolve().parent.parent / "benchmarks" / "schedules"
#: the record a restarting NS replica takes its name tree from
CHECKPOINT_KEY = LOG_KEY


def _op(i):
    return ("write", "t", f"k{i}", i, False)


# ---------------------------------------------------------------------------
# NS: restart from the checkpoint record
# ---------------------------------------------------------------------------


def _compacted_world(n_servers):
    """``changelog_retain=4`` and 21 updates: compactions at seq 9, 14
    and 19 leave a checkpoint at 19 over the watermark 15, tail 16..21."""
    world = NsWorld(n_servers=n_servers, params=Params(changelog_retain=4))
    master = world.settle()
    _, _, client = world.client(master.process.host)
    world.run_async(client.bind_new_context("ck"))
    for i in range(20):
        world.run_async(client.bind(f"ck/s{i}", make_ref(master.ip)))
    world.kernel.run(until=world.kernel.now + 3.0)
    assert master.changelog.seq == 21 and master.changelog.base_seq == 15
    return world, master, client


def _restart(world, replica, settle=15.0):
    replica.process.kill()
    revived = world.start_replica(replica.process.host)
    world.kernel.run(until=world.kernel.now + settle)
    return revived


def _events(world, event, replica):
    return world.trace.select("ns", event, replica=replica.ip)


class TestNsRestartsFromItsCheckpoint:
    def test_clean_restart_resumes_where_it_stopped(self):
        world, master, _ = _compacted_world(3)
        slave = next(r for r in world.replicas.values() if r is not master)
        seq, digest = slave.changelog.seq, slave.changelog.digest
        tree = slave.store.snapshot()
        revived = _restart(world, slave)
        assert revived.changelog.seq == seq == 21
        assert revived.changelog.digest == digest
        assert revived.store.snapshot() == tree
        assert _events(world, "restore_corrupt", slave) == []
        assert _events(world, "state_fetched", slave) == []
        assert revived.repl.snapshot_fetches == 0

    def test_rotted_checkpoint_costs_exactly_one_peer_snapshot(self):
        world, master, _ = _compacted_world(3)
        slave = next(r for r in world.replicas.values() if r is not master)
        slave.process.kill()
        assert slave.process.host.disk.corrupt(CHECKPOINT_KEY)
        revived = _restart(world, slave)
        assert len(_events(world, "restore_corrupt", slave)) == 1
        assert revived.repl.snapshot_fetches == 1
        assert revived.changelog.seq == master.changelog.seq
        assert revived.changelog.digest == master.changelog.digest
        assert revived.store.snapshot() == master.store.snapshot()
        # The repair is durable: the next restart is a clean one.
        again = _restart(world, revived)
        assert again.changelog.recovered_truncated == 0
        assert not again.changelog.recovered_corrupt
        assert len(_events(world, "restore_corrupt", slave)) == 1
        assert again.store.snapshot() == master.store.snapshot()

    def test_restart_replays_only_the_tail_past_the_checkpoint(self):
        """The retained tail overlaps the checkpoint: binds under ``a``
        and then ``unbind a`` sit at or below its cursor, and the re-made
        ``mkcontext a`` with binds under it sit past it.  Replaying the
        covered entries would bind under an ``a`` the checkpoint's tree
        no longer has."""
        world = NsWorld(n_servers=3, params=Params(changelog_retain=4))
        master = world.settle()
        _, _, client = world.client(master.process.host)
        ref = make_ref(master.ip)
        world.run_async(client.bind_new_context("a"))          # seq 1
        for i in range(12):                                     # 2..13
            world.run_async(client.bind(f"a/s{i}", ref))
        world.run_async(client.unbind("a"))                     # 14
        world.run_async(client.bind_new_context("a"))          # 15
        for i in range(2):                                      # 16, 17
            world.run_async(client.bind(f"a/t{i}", ref))
        world.kernel.run(until=world.kernel.now + 3.0)
        slave = next(r for r in world.replicas.values() if r is not master)
        log = slave.changelog
        # Compactions at seq 9 and 14: checkpoint at 14, tail 11..17.
        assert (log.seq, log.base_seq) == (17, 10)
        assert [e[2][0] for e in log.entries] == (
            ["bind"] * 3 + ["unbind", "mkcontext", "bind", "bind"])
        tree = slave.store.snapshot()
        revived = _restart(world, slave)
        assert revived.changelog.checkpoint_state["seq"] == 14
        assert revived.changelog.seq == 17
        assert revived.store.snapshot() == tree
        assert set(revived.store.get_node("a").bindings) == {"t0", "t1"}
        assert revived.repl.snapshot_fetches == 0

    def test_lone_survivor_keeps_the_checkpoint_when_the_tail_rots(self):
        world, master, client = _compacted_world(1)
        disk = master.process.host.disk
        master.process.kill()
        assert disk.corrupt(entry_key(LOG_KEY, 16))     # first retained
        revived = _restart(world, master)
        assert len(_events(world, "restore_corrupt", master)) == 1
        # The tree is the checkpoint's (seq 19): s0..s17, not s18/s19.
        assert revived.changelog.seq == 19
        names = set(revived.store.get_node("ck").bindings)
        assert names == {f"s{i}" for i in range(18)}
        assert revived.role == "master"
        world.run_async(client.bind("ck/after", make_ref(master.ip)))
        assert revived.changelog.seq == 20
        # ... and the re-anchored record still holds that tree: a second
        # restart loses neither it nor the bind made on top of it.
        again = _restart(world, revived)
        assert again.changelog.recovered_truncated == 0
        assert again.changelog.seq == 20
        assert set(again.store.get_node("ck").bindings) == names | {"after"}


# ---------------------------------------------------------------------------
# ChangeLog: every crash point of a compacting append
# ---------------------------------------------------------------------------


class _PowerCut(Exception):
    pass


class _CountedDisk(Disk):
    """A disk that loses power after ``budget`` more operations."""

    budget = None

    def _spend(self):
        if self.budget is not None:
            if self.budget == 0:
                raise _PowerCut()
            self.budget -= 1

    def write(self, key, value):
        self._spend()
        super().write(key, value)

    def delete(self, key):
        self._spend()
        super().delete(key)

    def sync(self):
        self._spend()
        super().sync()


class _Owner:
    """A state machine over a ChangeLog, as the NS is: apply, append,
    sync before the ack; restart = checkpoint + retained tail."""

    def __init__(self, disk):
        self.disk = disk
        self.log = ChangeLog(disk, "log", retain=4, checkpoint=self.snapshot)
        state = self.log.checkpoint_state or {"seq": 0, "rows": {}}
        self.seq, self.rows = state["seq"], dict(state["rows"])
        for seq, _epoch, op in self.log.entries:
            if seq > self.seq:
                self._apply(seq, op)

    def snapshot(self):
        return {"seq": self.seq, "rows": dict(self.rows)}

    def _apply(self, seq, op):
        assert seq == self.seq + 1
        self.rows[op[2]] = op[3]
        self.seq = seq

    def write(self, i):
        self._apply(self.seq + 1, _op(i))
        self.log.append(_op(i), epoch=1)
        self.disk.sync()


def _honest(n):
    """What ``n`` acknowledged writes leave behind: (seq, digest, rows)."""
    owner = _Owner(Disk())
    for i in range(n):
        owner.write(i)
    return owner.seq, owner.log.digest, owner.rows


class TestCrashPointsOfACompactingAppend:
    """Watermark and owner state are one record, so there is no order
    between two to get wrong.  Whatever operation the power fails
    after, the header and the entry keys rebuild the state just before
    the append or just after it -- never a watermark without the state
    below it."""

    # The 9th append is the first compaction (no header yet); the 14th
    # replaces an existing checkpoint.
    @pytest.mark.parametrize("torn", [False, True])
    @pytest.mark.parametrize("acked", [8, 13])
    def test_every_operation_is_a_safe_place_to_lose_power(self, acked, torn):
        crash_points = 0
        while True:
            disk = _CountedDisk()
            disk.write_barrier = True
            owner = _Owner(disk)
            for i in range(acked):
                owner.write(i)
            compactions = owner.log.compactions
            if torn:
                disk.arm_torn_write()
            disk.budget = crash_points
            try:
                owner.write(acked)
            except _PowerCut:
                finished = False
            else:
                finished = True
                assert owner.log.compactions == compactions + 1
            disk.budget = None
            disk.crash()
            revived = _Owner(disk)
            assert ((revived.seq, revived.log.digest, revived.rows)
                    in (_honest(acked), _honest(acked + 1))), crash_points
            assert revived.log.seq == revived.seq
            if revived.log.base_seq:
                assert revived.log.checkpoint_state is not None
            if finished:
                # The ack was sent: only the post-append state will do.
                assert revived.seq == acked + 1
                break
            crash_points += 1
        # entry, spare, sync, header, sync, spare delete, the cut keys,
        # and the sync before the ack: the walk covered a compaction.
        assert crash_points >= 8


# ---------------------------------------------------------------------------
# ChangeLog.reset after a lossy reopen
# ---------------------------------------------------------------------------


class TestResetSweepsByPrefix:
    def test_reset_after_a_lost_header_leaves_no_orphans(self):
        """A reopen that lost its header has forgotten where the old
        entries are; a range computed from its cursors deletes nothing
        and the orphans break the chain of the appends that follow."""
        disk = Disk()
        log = ChangeLog(disk, "log", retain=4)
        for i in range(12):
            log.append(_op(i), epoch=1)
        assert disk.corrupt("log")
        lossy = ChangeLog(disk, "log", retain=4)
        assert lossy.recovered_corrupt and lossy.seq == 0
        lossy.reset(6, 1, "adopted-digest")
        assert lossy.append(_op(6), epoch=1) == 7
        clean = ChangeLog(disk, "log", retain=4)
        assert clean.recovered_truncated == 0 and not clean.recovered_corrupt
        assert clean.seq == 7
        assert disk.keys(entry_key("log", "")) == [entry_key("log", 7)]

    def test_an_older_schemas_header_is_refused_not_misread(self):
        disk = Disk()
        disk.write("log", {"schema": 2, "base_seq": 5, "base_epoch": 1,
                           "base_digest": "", "base_sum": "",
                           "compactions": 1})
        log = ChangeLog(disk, "log")
        assert log.recovered_corrupt and log.base_seq == 0


# ---------------------------------------------------------------------------
# chaos: the generated disk_corrupt keys exist, and the compacting drills
# ---------------------------------------------------------------------------


class TestDiskFaultKeysNameRealRecords:
    def test_every_listed_key_exists_on_some_server_disk(self):
        """A first entry key exists until the log first compacts and the
        header only after, so no one window shows all three: the stock
        window must show the entry keys, ``changelog_retain=4`` the
        header (which the stock window never writes)."""
        def present(params):
            cluster = build_cluster(n_servers=3, seed=5, params=params)
            cluster.run_for(2.0)
            cluster.run_async(_db_client(cluster).call("put", "fk", "k", 1))
            return {key for key in DISK_FAULT_KEYS
                    if any(key in host.disk for host in cluster.servers)}

        stock, compacting = present(Params()), present(Params(changelog_retain=4))
        assert stock | compacting == set(DISK_FAULT_KEYS)
        assert CHECKPOINT_KEY in compacting - stock


@functools.lru_cache(maxsize=None)
def _compacting_drill(name):
    schedule = FaultSchedule.load(SCHEDULES / f"{name}.json")
    return run_schedule(schedule, seed=0, settops=2,
                        params=Params(changelog_retain=4))


class TestDrillsRestartFromCheckpoints:
    """E16/E17/E18 with a four-entry window: every NS replica compacts
    dozens of times, so each restart in the drill is a restart from a
    checkpoint record (at the stock window no replica ever writes one)."""

    @pytest.mark.parametrize("name", ["e16_kill_primary", "e17_power_failure",
                                      "e18_hostile_net"])
    def test_zero_violations_and_reconverged(self, name):
        result = _compacting_drill(name)
        assert result.ok, result.violated_monitors()
        assert result.counters["repl.ns.converged"] == 1
        assert result.counters["repl.db.converged"] == 1

    def test_e17_disk_writes_did_not_rise(self):
        result = _compacting_drill("e17_power_failure")
        # 1 214 with the name tree in its own ``ns/state`` record.
        assert result.counters["disk.writes"] <= 1214
