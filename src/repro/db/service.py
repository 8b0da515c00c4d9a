"""The database service (paper Figure 2: "Database").

Stores tables on the server's disk, so data survives process crashes and
host reboots.  One replica runs per configured server; the primary (by
bind race on ``svc/db``) serializes writes through a monotonically
numbered, disk-persisted :class:`~repro.core.replication.ChangeLog` and
streams ``applyUpdates(from_seq, entries)`` batches to the other
replicas (PR 7, devpi-style log shipping).  A behind replica -- missed
push, restart, or post-failover -- pulls the missing tail from the
primary's log in O(gap) ops, falling back to a full snapshot only when
the log was truncated past its cursor or the histories forked.  This is
the "slow-changing state read from the database" that most services use
to recover after a failure (section 9.4) -- e.g. the CSC's service
placement (section 6.2).

Reads can go to any replica through ``svc/db-all/<server-ip>``; the
common path resolves ``svc/db`` (the primary).  A *write* arriving at a
non-primary replica is write-through proxied: forwarded to the primary
and acked only once the change has streamed back into the local log, so
the writer immediately reads its own write from this replica.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.naming.errors import NamingError
from repro.core.replication import (
    NotPrimary,
    PrimaryBackupBinder,
    ReplicatedStore,
)
from repro.idl import register_exception, register_interface
from repro.ocs.exceptions import DeadlineExceeded, ServiceUnavailable
from repro.ocs.runtime import CallContext
from repro.services.base import Service
from repro.sim.host import CorruptBlob

register_interface("Database", {
    "get": ("table", "key"),
    "put": ("table", "key", "value"),
    "delete": ("table", "key"),
    "scan": ("table",),
    "tables": (),
    # internal: primary -> replica change-log stream.  Each entry is
    # (seq, epoch, op); ``from_seq`` is the seq just before the batch so
    # a receiver detects gaps immediately.  Acknowledged (unlike the NS
    # variant) so the primary knows which pushes landed before acking
    # the writer.
    "applyUpdates": ("from_seq", "entries"),
    # internal: incremental catch-up from the primary's change log.
    "fetchUpdates": ("from_seq", "from_epoch"),
    # write-through proxying: a replica forwards a write to the primary.
    "forwardWrite": ("table", "key", "value", "deleted"),
    # applyUpdates/fetchUpdates carry their own seq cursors (a replayed
    # batch is detected and ignored by the receiver), so the replication
    # stream does not burn reply-cache slots.  put/delete/forwardWrite
    # are the durable effects the cache guards.
}, doc="Persistent tables (Figure 2)",
   idempotent=("get", "scan", "tables", "applyUpdates", "fetchUpdates"))


@register_exception
class NoSuchKey(Exception):
    """get() on a key that is not in the table."""


# One Disk record per row, ``db/<table>/<key>``: table names may not
# contain "/" (keys may), so no row of ``order`` is ever taken for a row
# of ``orders`` and every storage operation costs O(the row).  This
# module is the only place that spells a db disk key.
_DISK_PREFIX = "db/"
# The change log lives outside the table prefix so tables() stays clean.
LOG_KEY = "dbrepl/changelog"
# Anti-entropy cadence: a db backup polls the primary's change log on
# this interval (devpi's replica poll), so a push missed during a
# partition is repaired even if no further write ever arrives.  The NS
# needs no poll -- its heartbeats already carry the master seq.
DB_REPLICATION_POLL = 10.0
_MISSING = object()


def _disk_key(table: str, key: str = "") -> str:
    if "/" in table:
        raise ValueError(f"table name {table!r} contains '/'")
    return f"{_DISK_PREFIX}{table}/{key}"


def read_row(disk, table: str, key: str, default: Any = None) -> Any:
    """One row straight off a server disk (a CorruptBlob if it rotted)."""
    return disk.read(_disk_key(table, key), default)


def table_rows(disk, table: str) -> Dict[str, Any]:
    """Every row of one table straight off a server disk, by key."""
    prefix = _disk_key(table)
    return {k[len(prefix):]: disk.read(k) for k in disk.keys(prefix)}


def seed_database(disk, table: str, rows: Dict[str, Any]) -> None:
    """Pre-load a table onto a server disk (cluster construction time)."""
    for key, value in rows.items():
        disk.write(_disk_key(table, key), value)


class DatabaseService(Service):
    service_name = "db"
    ADMISSION_CONTROLLED = True

    async def start(self) -> None:
        self.repl = ReplicatedStore(self, self.runtime, self.params, "db",
                                    LOG_KEY)
        self.log = self.repl.log
        self.repl.primary_seq = self.log.seq
        self.replication_skipped = 0
        if self.log.recovered_corrupt or self.log.recovered_truncated:
            # The on-disk log came back torn or garbled; the checksum
            # scan kept the valid prefix and the catch-up scheduled
            # below pulls the rest from a peer instead of crashing.
            self.emit("restore_corrupt", what="changelog",
                      truncated=self.log.recovered_truncated,
                      seq=self.log.seq)
        self.ref = self.runtime.export(self, "Database")
        # Built before the first await: observers and pushes reach the
        # store as soon as it exists, and both ask ``is_primary``.
        self.binder = PrimaryBackupBinder(self, "svc/db", self.ref,
                                          on_demote=self._on_demote)
        await self.register_objects([self.ref])
        await self.bind_as_replica("db-all", self.host.ip, self.ref,
                                   selector="sameserver")
        self.spawn_task(self.binder.run(), name="db-binder").detach()
        self.spawn_task(self._replication_poll(),
                        name="db-repl-poll").detach()
        # Pull whatever we missed while down before the first read hits.
        self.repl.schedule_catch_up()

    @property
    def is_primary(self) -> bool:
        return self.binder.is_primary

    @property
    def epoch(self) -> tuple:
        """This primary reign's identity: the process incarnation.

        Entries appended by two different primaries carry different
        epochs, so a diverged backup's cursor is detected on catch-up
        instead of silently extending a forked history.
        """
        return tuple(self.process.incarnation)

    @property
    def catch_up_ops(self) -> int:
        return self.repl.catch_up_ops   # read by benchmarks/e2e/layers.py

    # -- storage on the host disk --------------------------------------

    def _checked(self, table: str, key: str, value: Any) -> Any:
        """``value`` as read, or ``_MISSING`` for a row found corrupt."""
        if not isinstance(value, CorruptBlob):
            return value
        # Bit rot or a torn write landed under this row.  Drop it rather
        # than serve garbage; a backup drops its cursor and resyncs the
        # real row from the primary's snapshot.
        self.emit("restore_corrupt", what=f"row:{table}/{key}")
        self.host.disk.delete(_disk_key(table, key))
        if not self.is_primary:
            self.repl.resync_from_snapshot()
        return _MISSING

    def apply_write(self, table: str, key: str, value: Any,
                    deleted: bool) -> None:
        if deleted:
            self.host.disk.delete(_disk_key(table, key))
        else:
            self.host.disk.write(_disk_key(table, key), value)

    # -- the Database interface (in-process readers pass ctx=None) -------

    def get(self, ctx: Optional[CallContext], table: str, key: str) -> Any:
        value = self._checked(
            table, key, read_row(self.host.disk, table, key, _MISSING))
        if value is _MISSING:
            raise NoSuchKey(f"{table}/{key}")
        return value

    async def put(self, ctx: CallContext, table: str, key: str,
                  value: Any) -> int:
        return await self.write(table, key, value, deleted=False,
                                deadline=ctx.deadline)

    async def delete(self, ctx: CallContext, table: str, key: str) -> int:
        return await self.write(table, key, None, deleted=True,
                                deadline=ctx.deadline)

    def scan(self, ctx: Optional[CallContext], table: str) -> Dict[str, Any]:
        return {key: value for key, raw
                in table_rows(self.host.disk, table).items()
                if (value := self._checked(table, key, raw)) is not _MISSING}

    def tables(self, ctx: Optional[CallContext]) -> List[str]:
        return sorted({k[len(_DISK_PREFIX):].partition("/")[0]
                       for k in self.host.disk.keys(_DISK_PREFIX)})

    def applyUpdates(self, ctx: CallContext, from_seq: int, entries) -> None:
        if entries:
            # The primary got this far, whether or not we can apply it.
            self.repl.primary_seq = max(self.repl.primary_seq,
                                        entries[-1][0])
        self.repl.on_apply_updates(from_seq, entries)

    def fetchUpdates(self, ctx: CallContext, from_seq: int,
                     from_epoch) -> tuple:
        return self.repl.serve_updates(from_seq, from_epoch)

    async def forwardWrite(self, ctx: CallContext, table: str, key: str,
                           value: Any, deleted: bool) -> int:
        if not self.is_primary:
            raise NotPrimary(f"{self.host.ip} is not the db primary")
        return await self._primary_write(table, key, value, deleted,
                                         deadline=ctx.deadline)

    # -- write path ------------------------------------------------------

    async def write(self, table: str, key: str, value: Any, deleted: bool,
                    deadline=None) -> int:
        if self.is_primary:
            return await self._primary_write(table, key, value, deleted,
                                             deadline=deadline)
        return await self._write_through(table, key, value, deleted,
                                         deadline=deadline)

    async def _primary_write(self, table: str, key: str, value: Any,
                             deleted: bool, deadline=None) -> int:
        self.apply_write(table, key, value, deleted)
        op = ("write", table, key, value, deleted)
        seq = self.log.append(op, self.epoch)
        self.repl.primary_seq = seq
        self.repl.sync_before_ack()
        # The primary is the decision point for this row; replica
        # applyUpdates ingests are fan-out copies of the same decision
        # and do not emit.  Two primaries deciding unordered conflicting
        # values is the split-brain write the hb race detector flags.
        self.runtime.hb_write(f"db:{table}/{key}",
                              ver="<deleted>" if deleted else repr(value))
        await self._stream_to_replicas([(seq, self.epoch, op)],
                                       deadline=deadline)
        ledger = self.kernel.ledger
        if ledger is not None:
            ledger.ack_db(self.host.ip, self.epoch, seq,
                          table, key, value, deleted)
        return seq

    async def _write_through(self, table: str, key: str, value: Any,
                             deleted: bool, deadline=None) -> int:
        """Forward a write to the primary; ack once it streams back."""
        try:
            ref = await self.names.resolve("svc/db")
        except (NamingError, ServiceUnavailable) as err:
            raise ServiceUnavailable(f"no db primary bound: {err}") from err
        if ref.ip == self.host.ip:
            # The binding already points here (bind raced ahead of the
            # binder's role flip): serve as primary.
            return await self._primary_write(table, key, value, deleted,
                                             deadline=deadline)
        try:
            seq = await self.runtime.invoke(
                ref, "forwardWrite", (table, key, value, deleted),
                timeout=self.params.call_timeout, deadline=deadline)
        except NotPrimary as err:
            # Stale binding: surface as retryable so the caller rebinds.
            raise ServiceUnavailable(str(err)) from err
        await self._await_seq(seq, deadline=deadline)
        return seq

    async def _await_seq(self, seq: int, deadline=None) -> None:
        """Block until our log cursor reaches ``seq`` (the streamed-back
        copy of a forwarded write), so the writer reads its own write
        from this replica immediately after the ack."""
        give_up = self.kernel.now + self.params.call_timeout
        while self.log.seq < seq:
            if deadline is not None and self.kernel.now >= deadline:
                raise DeadlineExceeded(f"write-through ack for seq {seq}")
            if self.kernel.now >= give_up:
                raise ServiceUnavailable(
                    f"change {seq} did not stream back to {self.host.ip}")
            self.repl.schedule_catch_up()
            await self.kernel.sleep(0.1)

    async def _stream_to_replicas(self, entries: List[tuple],
                                  deadline=None) -> None:
        """Push a change-log batch to every other db replica.

        ``list_repl`` hiccups are retried on a backoff bounded by the
        caller's deadline; only when the budget is spent is the write
        acked with zero pushes -- and then the gap is *observable*
        (``replication_skipped`` trace event + counter) instead of
        silent, and the replicas repair from the log on their next
        catch-up (ISSUE 7 satellite 1).
        """
        budget = 2 * self.params.call_timeout
        if deadline is not None:
            budget = max(0.0, min(budget, deadline - self.kernel.now))
        backoff = self.retry_backoff(max_elapsed=budget)
        while True:
            try:
                peers = await self.names.list_repl("svc/db-all")
                break
            except (NamingError, ServiceUnavailable):
                delay = backoff.next_delay()
                if delay <= 0 and backoff.exhausted:
                    self.replication_skipped += 1
                    self.emit("replication_skipped", seq=self.log.seq,
                              reason="list_repl")
                    return
                await self.kernel.sleep(delay)
        from_seq = entries[0][0] - 1
        for _member, _kind, ref in peers:
            if ref is None or ref.ip == self.host.ip:
                continue
            try:
                await self.runtime.invoke(ref, "applyUpdates",
                                          (from_seq, entries),
                                          timeout=self.params.call_timeout,
                                          deadline=deadline)
            except (ServiceUnavailable, DeadlineExceeded):
                # A dead or lagging replica pulls the gap from the log
                # when it comes back; a spent deadline means the caller
                # is gone -- remaining pushes fail fast on the same
                # deadline check.
                continue

    # -- what ReplicatedStore (the follower protocol) asks of its owner ---

    def knows_primary(self) -> bool:
        return True   # only resolving svc/db, inside the pull, can tell

    async def primary_ref(self):
        if self.is_primary:
            return None
        ref = await self.names.resolve("svc/db")
        return None if ref.ip == self.host.ip else ref

    def apply_op(self, seq: int, op: tuple) -> None:
        self.apply_write(op[1], op[2], op[3], op[4])

    def caught_up(self, from_seq: int, applied: int) -> bool:
        # An anti-entropy poll that found nothing, with no lag known, is
        # not a catch-up: neither counted nor traced.
        if not applied and from_seq >= self.repl.primary_seq:
            return False
        self.emit("catch_up", from_seq=from_seq, to_seq=self.log.seq,
                  ops=applied)
        return True

    # -- state transfer (snapshot fallback only) --------------------------

    def snapshot_state(self) -> dict:
        return {"tables": {t: self.scan(None, t) for t in self.tables(None)}}

    def install_snapshot(self, body: dict) -> None:
        # Write-new-then-prune: lay the snapshot rows down first, drop
        # stale rows second; the store adopts the cursor last (reset
        # persists via the atomic swap, whose syncs also flush the rows).
        # A crash at any point leaves either the old consistent state
        # (buffered writes lost) or a replayable superset -- never an
        # empty prefix with an advanced cursor.
        keep = set()
        for table, rows in sorted(body["tables"].items()):
            for key, value in rows.items():
                disk_key = _disk_key(table, key)
                keep.add(disk_key)
                self.host.disk.write(disk_key, value)
        for disk_key in self.host.disk.keys(_DISK_PREFIX):
            if disk_key not in keep:
                self.host.disk.delete(disk_key)

    async def _replication_poll(self) -> None:
        """Anti-entropy: poll the primary's log on a fixed cadence.

        A push can be lost entirely (backup partitioned or down when the
        write happened); without a poll the backup would stay behind
        until the *next* write pushed to it.  The poll bounds that lag
        at ``DB_REPLICATION_POLL`` regardless of write traffic -- the
        bound ``replica_lag_bounded`` holds the cluster to.
        """
        while True:
            await self.kernel.sleep(DB_REPLICATION_POLL)
            if not self.is_primary:
                self.repl.schedule_catch_up()

    def _on_demote(self) -> None:
        # We may have appended writes nobody else saw while wrongly
        # primary; the epoch check on the next catch-up detects the fork
        # and resyncs.
        self.repl.schedule_catch_up()
