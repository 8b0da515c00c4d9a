"""Row-granular db storage (ISSUE 13): one Disk record per row.

Every storage operation costs O(the row), never O(the table); Disk's
fault surface (write barrier, torn write, bit rot) applies per row; the
snapshot fallback lays rows down and prunes them one at a time; and the
layout never confuses ``order`` with ``orders`` or chokes on a "/" in a
key.  Cost checks count Disk calls -- no timing anywhere.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_cluster
from repro.db.service import (
    DB_REPLICATION_POLL,
    NoSuchKey,
    _disk_key,
    read_row,
    seed_database,
    table_rows,
)
from repro.sim.host import CorruptBlob, Disk

from tests.test_replication_log import _db_client, _db_services


def _primary_and_backups(cluster):
    services = _db_services(cluster)
    primary_ip = cluster.db_primary_ip()
    assert primary_ip is not None
    return services[primary_ip], [s for ip, s in sorted(services.items())
                                  if ip != primary_ip]


def _corrupt_reports(cluster):
    return [e.fields["what"]
            for e in cluster.trace.select("db", "restore_corrupt")]


class _DiskTap:
    """Record every value that crosses one Disk's read/write boundary."""

    def __init__(self, monkeypatch, disk):
        self.read_values, self.written = [], []
        real_read, real_write = disk.read, disk.write

        def read(key, default=None):
            value = real_read(key, default)
            self.read_values.append(value)
            return value

        def write(key, value):
            self.written.append(value)
            real_write(key, value)

        monkeypatch.setattr(disk, "read", read)
        monkeypatch.setattr(disk, "write", write)

    def largest_container(self):
        sized = [v for v in self.read_values + self.written
                 if isinstance(v, (dict, list, tuple, set))]
        return max((len(v) for v in sized), default=0)


@pytest.fixture(scope="module")
def cluster():
    cluster = build_cluster(n_servers=3, seed=131)
    cluster.run_for(2.0)
    return cluster


class TestCostIsTheRow:
    @pytest.mark.parametrize("n_rows", [10, 10_000])
    def test_put_writes_one_row_and_reads_no_table(self, monkeypatch, n_rows):
        cluster = build_cluster(n_servers=3, seed=132)
        table = {f"k{i:05d}": {"pos": i} for i in range(n_rows)}
        for host in cluster.servers:
            seed_database(host.disk, "big", table)
        cluster.run_for(2.0)
        primary, backups = _primary_and_backups(cluster)
        taps = [_DiskTap(monkeypatch, svc.host.disk)
                for svc in [primary] + backups]
        row = {"pos": "a marker no changelog entry equals"}
        cluster.run_async(primary.write("big", "k00003", row, False))
        cluster.run_for(2.0)
        for tap in taps:       # primary and backups alike
            assert tap.written.count(row) == 1
            # Neither a read nor a write moved anything table-sized: the
            # largest container is a changelog entry tuple.
            assert tap.largest_container() < 10
        assert read_row(backups[0].host.disk, "big", "k00003") == row
        assert len(table_rows(primary.host.disk, "big")) == n_rows

    def test_get_is_one_read_of_one_value(self, monkeypatch):
        disk = Disk()
        seed_database(disk, "big", {f"k{i}": i for i in range(10_000)})
        calls = []
        real_read = disk.read
        monkeypatch.setattr(disk, "read", lambda key, default=None: (
            calls.append(key), real_read(key, default))[1])
        assert read_row(disk, "big", "k77") == 77
        assert read_row(disk, "big", "absent", "dflt") == "dflt"
        assert calls == [_disk_key("big", "k77"), _disk_key("big", "absent")]

    def test_delete_is_a_disk_delete_not_a_rewrite(self, cluster):
        primary, _backups = _primary_and_backups(cluster)
        db = _db_client(cluster, name="deleter")
        cluster.run_async(db.call("put", "del", "keep", 1))
        cluster.run_async(db.call("put", "del", "gone", 2))
        before = primary.host.disk.writes
        cluster.run_async(db.call("delete", "del", "gone"))
        # One changelog entry and nothing else: the row went by delete().
        assert primary.host.disk.writes == before + 1
        assert cluster.run_async(db.call("scan", "del")) == {"keep": 1}


class TestFaultsCostARow:
    def test_crash_loses_only_unsynced_rows(self):
        cluster = build_cluster(n_servers=3, seed=133)
        cluster.run_for(2.0)
        primary, _backups = _primary_and_backups(cluster)
        disk = primary.host.disk
        disk.write_barrier = True
        db = _db_client(cluster, name="w")
        cluster.run_async(db.call("put", "wb", "acked", "safe"))
        primary.apply_write("wb", "unsynced", "doomed", False)
        assert read_row(disk, "wb", "unsynced") == "doomed"
        primary.host.crash()
        assert table_rows(disk, "wb") == {"acked": "safe"}
        assert disk.lost_writes == 1

    def test_rotted_row_on_primary_is_reported_and_dropped(self, cluster):
        primary, _backups = _primary_and_backups(cluster)
        db = _db_client(cluster, name="rot-primary")
        cluster.run_async(db.call("put", "rot", "bad", {"v": 1}))
        cluster.run_async(db.call("put", "rot", "good", {"v": 2}))
        assert primary.host.disk.corrupt(_disk_key("rot", "bad"))
        with pytest.raises(NoSuchKey):          # not garbage
            primary.get(None, "rot", "bad")
        assert "row:rot/bad" in _corrupt_reports(cluster)
        # A bad sector costs the row, not its table.
        assert cluster.run_async(db.call("scan", "rot")) == {"good": {"v": 2}}
        assert primary.is_primary and not primary.repl._force_snapshot

    def test_torn_row_on_backup_resyncs_from_snapshot(self):
        cluster = build_cluster(n_servers=3, seed=134)
        cluster.run_for(2.0)
        primary, backups = _primary_and_backups(cluster)
        victim = backups[0]
        db = _db_client(cluster, name="tear")
        cluster.run_async(db.call("put", "tear", "row", "v1"))
        cluster.run_async(db.call("put", "tear", "other", "v2"))
        cluster.run_for(2.0)
        # The tear: a buffered rewrite of the row is in flight when the
        # backup's host loses power.
        index = cluster.servers.index(victim.host)
        victim.host.disk.arm_torn_write()
        victim.apply_write("tear", "row", "half-written", False)
        cluster.crash_server(index)
        assert isinstance(read_row(victim.host.disk, "tear", "row"),
                          CorruptBlob)
        cluster.reboot_server(index)
        cluster.run_for(30.0)
        revived = _db_services(cluster)[victim.host.ip]
        assert not revived.is_primary
        # The scan both detects the tear and serves the surviving row.
        assert revived.scan(None, "tear") == {"other": "v2"}
        with pytest.raises(NoSuchKey):
            revived.get(None, "tear", "row")
        assert "row:tear/row" in _corrupt_reports(cluster)
        cluster.run_for(DB_REPLICATION_POLL + 5.0)
        assert revived.repl.snapshot_fetches == 1
        assert revived.get(None, "tear", "row") == "v1"
        assert revived.log.digest == primary.log.digest
        assert (table_rows(revived.host.disk, "tear")
                == table_rows(primary.host.disk, "tear"))


class TestSnapshotPerRow:
    def _diverged(self, seed):
        cluster = build_cluster(n_servers=3, seed=seed)
        cluster.run_for(2.0)
        primary, backups = _primary_and_backups(cluster)
        db = _db_client(cluster, name="snap")
        for table, key, value in [("a", "1", "x"), ("a", "p/q", [1, 2]),
                                  ("ab", "1", {"n": 1})]:
            cluster.run_async(db.call("put", table, key, value))
        cluster.run_for(2.0)
        backup = backups[0]
        backup.apply_write("stale", "row", "left over", False)
        backup.apply_write("a", "stale", "left over", False)
        return primary, backup

    @staticmethod
    def _snapshot_reply(primary):
        """The primary's answer to a cursor no history matches."""
        reply = primary.repl.serve_updates(1, "no-such-reign")
        assert reply[0] == "snapshot"
        return reply[1:]

    def test_round_trip_prunes_rows_absent_from_snapshot(self):
        primary, backup = self._diverged(135)
        body, epoch, digest = self._snapshot_reply(primary)
        assert list(body) == ["seq", "tables"]
        assert body["tables"]["a"] == {"1": "x", "p/q": [1, 2]}
        backup.repl.adopt_snapshot(body, epoch, digest)
        assert backup.repl.snapshot_body() == body
        assert "stale" not in backup.tables(None)
        assert read_row(backup.host.disk, "a", "stale", None) is None

    def test_crash_between_write_and_prune_is_a_replayable_superset(
            self, monkeypatch):
        primary, backup = self._diverged(136)
        cluster_seq = backup.log.seq
        body, epoch, digest = self._snapshot_reply(primary)
        cluster_rows = body["tables"]
        backup.apply_write("a", "1", "behind", False)
        body = dict(body, seq=cluster_seq + 7)

        def power_cut(prefix=""):
            raise RuntimeError("power cut before the prune")

        disk = backup.host.disk
        with monkeypatch.context() as patch:
            patch.setattr(disk, "keys", power_cut)
            with pytest.raises(RuntimeError):
                backup.repl.adopt_snapshot(body, epoch, digest)
        # Every snapshot row landed, the stale rows are still there, and
        # the cursor did not move -- so the next catch-up replays.
        for table, rows in cluster_rows.items():
            assert rows.items() <= table_rows(disk, table).items()
        assert read_row(disk, "stale", "row") == "left over"
        assert backup.log.seq == cluster_seq
        backup.repl.adopt_snapshot(body, epoch, digest)
        assert backup.repl.snapshot_body()["tables"] == cluster_rows
        assert backup.log.seq == cluster_seq + 7


class TestAliasingThroughRows:
    """Disk stays the single source of truth: copy in, copy out."""

    def test_mutating_after_write_does_not_reach_the_disk(self):
        disk = Disk()
        value = {"seen": [1]}
        seed_database(disk, "t", {"k": value})
        value["seen"].append(2)
        assert read_row(disk, "t", "k") == {"seen": [1]}

    def test_mutating_what_read_returned_does_not_reach_the_disk(self, cluster):
        primary, _backups = _primary_and_backups(cluster)
        primary.apply_write("alias", "k", {"seen": [1]}, False)
        primary.get(None, "alias", "k")["seen"].append(2)
        table_rows(primary.host.disk, "alias")["k"]["seen"].append(3)
        assert primary.get(None, "alias", "k") == {"seen": [1]}


class TestLayoutNeverCollides:
    def test_slash_keys_and_prefix_tables(self, cluster):
        db = _db_client(cluster, name="layout")
        rows = {("order", "s/1"): 1, ("order", "s"): 2, ("order", "a/b/c"): 3,
                ("orders", "1"): 4, ("orders", "s/1"): 5, ("ord", "er/s"): 6}
        for (table, key), value in rows.items():
            cluster.run_async(db.call("put", table, key, value))
        assert cluster.run_async(db.call("scan", "order")) == {
            "s/1": 1, "s": 2, "a/b/c": 3}
        assert cluster.run_async(db.call("scan", "orders")) == {"1": 4, "s/1": 5}
        assert cluster.run_async(db.call("scan", "ord")) == {"er/s": 6}
        cluster.run_async(db.call("delete", "order", "s"))
        assert cluster.run_async(db.call("get", "order", "s/1")) == 1
        tables = cluster.run_async(db.call("tables"))
        assert {"ord", "order", "orders"} <= set(tables)
        assert tables == sorted(tables)

    def test_slash_in_table_name_is_rejected(self, cluster):
        primary, _backups = _primary_and_backups(cluster)
        seq = primary.log.seq
        with pytest.raises(ValueError):
            cluster.run_async(primary.write("a/b", "k", 1, False))
        with pytest.raises(ValueError):
            primary.get(None, "a/b", "k")
        with pytest.raises(ValueError):
            seed_database(Disk(), "a/b", {"k": 1})
        assert primary.log.seq == seq           # nothing was logged


_TABLES = st.sampled_from(["t", "tt", "t2"])
_KEYS = st.sampled_from(["a", "b", "a/b", "b/", "", "t/a"])
_VALUES = st.one_of(st.integers(), st.text(max_size=5),
                    st.lists(st.integers(), max_size=3),
                    st.dictionaries(st.text(max_size=3), st.integers(),
                                    max_size=3))
_OPS = st.one_of(
    st.tuples(st.just("put"), _TABLES, _KEYS, _VALUES),
    st.tuples(st.just("delete"), _TABLES, _KEYS),
    st.tuples(st.just("get"), _TABLES, _KEYS),
    st.tuples(st.just("scan"), _TABLES),
    st.tuples(st.just("restart")))


async def _get_or(db, table, key, default):
    try:
        return await db.call("get", table, key)
    except NoSuchKey:
        return default


@pytest.fixture(scope="module")
def lone_db():
    cluster = build_cluster(n_servers=1, seed=137)
    cluster.run_for(2.0)
    return cluster, _db_client(cluster, name="differential")


class TestDifferentialAgainstDict:
    @settings(max_examples=30, deadline=None)
    @given(program=st.lists(_OPS, max_size=25))
    def test_random_programs_match_a_plain_dict(self, lone_db, program):
        cluster, db = lone_db
        model = {}
        for table in cluster.run_async(db.call("tables")):
            for key in cluster.run_async(db.call("scan", table)):
                cluster.run_async(db.call("delete", table, key))
        for op in program:
            if op[0] == "put":
                cluster.run_async(db.call("put", op[1], op[2], op[3]))
                model.setdefault(op[1], {})[op[2]] = op[3]
            elif op[0] == "delete":
                cluster.run_async(db.call("delete", op[1], op[2]))
                model.get(op[1], {}).pop(op[2], None)
            elif op[0] == "get":
                missing = object()
                got = cluster.run_async(_get_or(db, op[1], op[2], missing))
                assert got == model.get(op[1], {}).get(op[2], missing)
            elif op[0] == "scan":
                assert (cluster.run_async(db.call("scan", op[1]))
                        == model.get(op[1], {}))
            else:
                assert cluster.kill_service(0, "db")
                while cluster.db_primary_ip() is None:
                    cluster.run_for(1.0)    # the SSC restarts it from disk
        live = {table: rows for table, rows in model.items() if rows}
        assert cluster.run_async(db.call("tables")) == sorted(live)
        for table, rows in live.items():
            assert cluster.run_async(db.call("scan", table)) == rows
