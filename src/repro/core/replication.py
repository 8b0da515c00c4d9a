"""Replication styles built on the name service (paper section 5).

Active replicas (section 5.1) need no machinery beyond
``Service.bind_as_replica``: every replica binds into a replicated
context and selectors route clients.

Primary/backup (section 5.2) is this module: "When the replicas begin
execution, they try to bind themselves in the global name space under
the service name.  The first one to succeed becomes the primary.  The
others periodically retry the binding request, which will fail so long
as the primary is alive.  If the primary fails, its binding will be
removed from the name service [by the audit].  Subsequently one of the
backup replicas' bind requests will succeed."

The :class:`ChangeLog` is a monotonically numbered, disk-
persisted update log (devpi-style log shipping), and
:class:`ReplicatedStore`, the one follower protocol over it that the
name service replicas and the db service share.  The primary appends
every update and streams ``applyUpdates(from_seq, entries)`` batches; a
behind replica catches up incrementally from the log in O(gap) ops,
falling back to a full snapshot only when the log has been truncated
past its cursor or the histories have forked (DESIGN.md section 9).
"""

from __future__ import annotations

import hashlib
from typing import Any, Awaitable, Callable, List, Optional, Tuple

from repro.idl import register_exception
from repro.ocs.exceptions import DeadlineExceeded, ServiceUnavailable
from repro.ocs.exceptions import DiskWedged as RetryableDiskWedged
from repro.ocs.objref import ObjectRef
from repro.sim.errors import CancelledError
from repro.sim.host import DiskWedged

PromoteHook = Callable[[], Optional[Awaitable[None]]]


@register_exception
class NotPrimary(Exception):
    """A primary-only operation reached a backup replica.

    Shared by every primary/backup service (CSC directed operations, db
    write-through forwarding): the caller treats it as retryable and
    re-resolves the primary binding.
    """


# A servant whose storage raises the sim-level DiskWedged marshals it by
# class *name*; registering the OCS ServiceUnavailable subclass of the
# same name means the caller materialises a retryable unavailability and
# rebinds at another replica instead of surfacing a storage internals
# error (storage fault model).
register_exception(RetryableDiskWedged)

# (seq, epoch, op): epoch identifies the reign that appended the entry --
# the NS election epoch (int) or the db primary's process incarnation
# (tuple).  Two logs sharing (seq, epoch) share the whole prefix up to
# seq, so epoch comparison at the requester's cursor detects forked
# minority histories that bare sequence numbers cannot.
LogEntry = Tuple[int, Any, tuple]

GENESIS_EPOCH = None  # epoch "before the first entry" of an empty log


def _chain_digest(digest: str, seq: int, op_repr: str) -> str:
    """Fold one applied op (given as ``repr(op)``, which both chains
    hash) into the running change-log digest."""
    return hashlib.sha256(
        f"{digest}|{seq}|{op_repr}".encode()).hexdigest()


#: hex chars kept per entry checksum: 64 bits of integrity, enough to
#: make a torn/garbled entry's survival odds negligible while keeping
#: the persisted log compact.
_SUM_WIDTH = 16


def _entry_sum(prev: str, seq: int, epoch, op_repr: str) -> str:
    """Per-entry integrity checksum, chained from the previous entry's.

    Unlike :func:`_chain_digest` (the cross-replica history oracle, which
    deliberately excludes the epoch so snapshot adopters agree), this sum
    covers everything persisted for the entry -- seq, epoch, op -- so a
    recovery scan can prove a prefix of the on-disk log intact and
    truncate the rest.
    """
    return hashlib.sha256(
        f"{prev}|{seq}|{epoch!r}|{op_repr}".encode()).hexdigest()[:_SUM_WIDTH]


def entry_key(disk_key: str, seq) -> str:
    """Where the log under ``disk_key`` persists entry ``seq`` (``""``:
    the prefix all its entries share)."""
    return f"{disk_key}.e/{seq}"


def _header_sum(header: dict) -> str:
    """Integrity checksum over every header field but the sum itself."""
    body = sorted((k, v) for k, v in header.items() if k != "sum")
    return hashlib.sha256(repr(body).encode()).hexdigest()[:_SUM_WIDTH]


def atomic_disk_write(disk, key: str, value) -> None:
    """Write-new-then-swap: a crash can tear at most one of two copies.

    Write the spare (``<key>.new``), sync, write the main copy, sync,
    drop the spare.  Whatever instant a power failure hits, at least one
    durable, checksum-valid copy exists: readers prefer the main copy
    and fall back to the spare (see ``ChangeLog._load_header``).  With
    the write barrier off the syncs are counted no-ops and the dance
    degrades to a plain (still atomic) write.
    """
    spare = key + ".new"
    disk.write(spare, value)
    disk.sync()
    disk.write(key, value)
    disk.sync()
    disk.delete(spare)


class ChangeLog:
    """Monotonically numbered, disk-persisted update log.

    One instance per replica, living on the host :class:`~repro.sim.host.
    Disk` under ``disk_key`` so it survives process crashes and host
    reboots -- the basis for online replica bootstrap.  The primary
    ``append``s, replicas ``record`` streamed entries at the same
    sequence numbers, and ``entries_from`` answers a peer's incremental
    catch-up request (or refuses with ``None`` when only a snapshot can
    help).

    Compaction keeps the newest ``retain`` entries; ``(base_seq,
    base_epoch)`` describe the entry just below the retained window.

    ``digest`` is a running sha256 chain over every applied ``(seq,
    op)``.  A replica that adopts a snapshot adopts the sender's digest
    at that seq, so at quiesce equal digests mean byte-identical update
    histories -- the cross-replica conformance oracle.

    On-disk layout (schema 3): each entry persists under its own key
    (:func:`entry_key`, holding ``(seq, epoch, op, chained_sum)``), so
    an append writes one small record.  The header (``disk_key``) is
    the replica's one checkpoint record -- ``{schema, base_seq,
    base_epoch, base_digest, base_sum, compactions, seq, epoch, digest,
    checkpoint, sum}``: the compaction watermark, the head cursor at the
    time of writing, the owner state *at that cursor* (whatever
    ``checkpoint()`` returned: the NS's snapshot body, the db nothing --
    its rows are already the materialised state) and a checksum over
    all of it.  It is (re)written only when the watermark moves
    (compaction, snapshot adoption), through :func:`atomic_disk_write`,
    so watermark and state commit together or not at all; a missing
    header just means the log never compacted.  The live ``seq`` and
    ``digest`` are re-derived on reopen by walking the entry chain from
    the header's base.

    Compaction runs with hysteresis: the log grows to ``2 * retain``
    entries, then cuts back to ``retain`` in one step -- one header
    write per ``retain`` appends.  Header first, dropped entry keys
    after: a crash in between strands orphan keys below the new
    watermark, which never shadow live entries and which reopen sweeps.

    Against the storage fault model the log defends itself: every
    persisted entry carries a chained checksum (``_entry_sum``); reopen
    keeps the longest valid prefix of the chain and deletes every other
    entry key (``recovered_truncated`` counts the cut suffix); a garbage
    header falls back to the write-swap spare and then to an empty log
    (``recovered_corrupt``); and a chain that stops short of the
    header's own cursor -- a retained entry rotted -- re-anchors the
    log at that cursor, where ``checkpoint_state`` is.  Owners emit
    ``restore_corrupt`` and fall back to peer catch-up when either
    report is set.
    """

    def __init__(self, disk, disk_key: str, retain: int = 512,
                 checkpoint: Optional[Callable[[], Any]] = None):
        self.disk = disk
        self.disk_key = disk_key
        self.retain = max(1, retain)
        self.checkpoint = checkpoint or (lambda: None)
        self.recovered_corrupt = False
        self.recovered_truncated = 0
        #: the owner state the header held at reopen (None: no header)
        self.checkpoint_state = None
        self.entries: List[LogEntry] = []
        self._sums: List[str] = []
        self.seq = 0
        self.base_seq = 0
        self.base_epoch = GENESIS_EPOCH
        self.base_digest = ""
        self.base_sum = ""
        self.digest = ""
        self.compactions = 0
        self._recover(self._load_header())

    # -- crash recovery ------------------------------------------------

    def _entry_key(self, seq: int) -> str:
        return entry_key(self.disk_key, seq)

    def _load_header(self) -> Optional[dict]:
        """Prefer the main header copy; fall back to the write-swap spare.

        Returns None both for "never compacted" (a fresh or young log)
        and for "no copy passes its checksum" (``recovered_corrupt``
        set; an older schema's header is refused the same way); either
        way recovery scans entry keys from the genesis base.
        """
        for key in (self.disk_key, self.disk_key + ".new"):
            header = self.disk.read(key)
            if (isinstance(header, dict) and header.get("schema") == 3
                    and header.get("sum") == _header_sum(header)):
                return header
            if header is not None:
                self.recovered_corrupt = True
        return None

    def _recover(self, header: Optional[dict]) -> None:
        """Adopt the longest self-consistent prefix of the on-disk log.

        Starting at the header's watermark (or the genesis base when no
        header exists), entry keys are probed forward and validated
        against the checksum chain rooted at ``base_sum``; the first
        torn/garbled/mis-numbered entry and everything after it are cut
        (they were never synced, so by the sync-before-ack discipline
        nothing acknowledged is lost).  ``seq`` and the running digest
        are re-derived from the surviving prefix.
        """
        if header is not None:
            self.base_seq = header["base_seq"]
            self.base_epoch = header["base_epoch"]
            self.base_digest = header["base_digest"]
            self.base_sum = header["base_sum"]
            self.compactions = header["compactions"]
            self.checkpoint_state = header["checkpoint"]
        seq, digest, prev_sum = self.base_seq, self.base_digest, self.base_sum
        read = self.disk.read
        while True:
            item = read(self._entry_key(seq + 1))
            if item is None:
                break
            ok = (isinstance(item, (list, tuple)) and len(item) == 4
                  and item[0] == seq + 1)
            if ok:
                e_seq, e_epoch, e_op, e_sum = item
                op_repr = repr(e_op)
                ok = (isinstance(e_op, tuple) and e_sum == _entry_sum(
                    prev_sum, e_seq, e_epoch, op_repr))
            if not ok:
                # Entries past the break can never re-anchor to the
                # chain: the whole contiguous suffix counts as cut.
                probe = seq + 1
                while read(self._entry_key(probe)) is not None:
                    self.recovered_truncated += 1
                    probe += 1
                break
            self.entries.append((e_seq, e_epoch, e_op))
            self._sums.append(e_sum)
            seq = e_seq
            digest = _chain_digest(digest, e_seq, op_repr)
            prev_sum = e_sum
        self.seq = seq
        self.digest = digest
        if header is not None and seq < header["seq"]:
            # A retained entry rotted below the checkpoint's cursor: the
            # state is ahead of the chain.  Restart the log where the
            # state is, re-persisting the *recovered* checkpoint -- the
            # owner has not loaded it yet, so ``checkpoint()`` would
            # write an empty state over it.
            self._anchor(header["seq"], header["epoch"], header["digest"],
                         lambda: self.checkpoint_state)
        else:
            self._sweep()

    def _sweep(self) -> None:
        """Delete every entry key outside the live window: a cut suffix,
        a crashed compaction's or a lost header's orphans, the history a
        snapshot replaced.  Left behind they would shadow later appends
        at the same sequence numbers across the next crash."""
        live = {self._entry_key(seq) for seq, _epoch, _op in self.entries}
        for key in self.disk.keys(self._entry_key("")):
            if key not in live:
                self.disk.delete(key)

    # -- mutation ------------------------------------------------------

    def append(self, op: tuple, epoch) -> int:
        """Primary side: assign the next sequence number to ``op``."""
        seq = self.seq + 1
        self._add(seq, epoch, op)
        return seq

    def record(self, seq: int, epoch, op: tuple) -> bool:
        """Replica side: record a streamed entry at its assigned seq.

        Returns False for an already-recorded entry; raises ValueError
        on a gap (the caller schedules a catch-up instead).
        """
        if seq <= self.seq:
            return False
        if seq != self.seq + 1:
            raise ValueError(f"log gap: have {self.seq}, got {seq}")
        self._add(seq, epoch, op)
        return True

    def _add(self, seq: int, epoch, op: tuple) -> None:
        prev_sum = self._sums[-1] if self._sums else self.base_sum
        op_repr = repr(op)
        entry_sum = _entry_sum(prev_sum, seq, epoch, op_repr)
        self.entries.append((seq, epoch, op))
        self._sums.append(entry_sum)
        self.seq = seq
        self.digest = _chain_digest(self.digest, seq, op_repr)
        # The whole append persists as one small record; the header does
        # not change (recovery re-derives seq/digest from the chain).
        self.disk.write(self._entry_key(seq), (seq, epoch, op, entry_sum))
        # Hysteresis: let the log grow to twice the retained window, then
        # cut back to ``retain`` in one step -- one compaction (one
        # checkpoint write) per ``retain`` appends, not one per append
        # at the high-water mark.
        if len(self.entries) > 2 * self.retain:
            self._compact()

    def _compact(self) -> None:
        cut = len(self.entries) - self.retain
        # The base digest/sum advance over the dropped entries so a
        # recovery scan can re-anchor the chains at the new watermark.
        for d_seq, _d_epoch, d_op in self.entries[:cut]:
            self.base_digest = _chain_digest(self.base_digest, d_seq,
                                             repr(d_op))
        self.base_sum = self._sums[cut - 1]
        last_dropped = self.entries[cut - 1]
        old_base = self.base_seq
        del self.entries[:cut]
        del self._sums[:cut]
        self.base_seq = last_dropped[0]
        self.base_epoch = last_dropped[1]
        self.compactions += 1
        # Header first, dropped keys after: once the watermark (and the
        # owner state committed with it) is durable, the dropped entries
        # are dead weight whichever subset of the deletes survives a
        # crash.  The reverse order could lose acknowledged entries --
        # deleted keys with a header that still claims the old base.
        self._persist_header(self.checkpoint())
        delete = self.disk.delete
        for s in range(old_base + 1, self.base_seq + 1):
            delete(self._entry_key(s))

    def reset(self, seq: int, epoch, digest: str) -> None:
        """Adopt a snapshot: the log restarts empty at the sender's seq
        (the owner has already laid the snapshot's state down)."""
        self._anchor(seq, epoch, digest, self.checkpoint)

    def _anchor(self, seq: int, epoch, digest: str,
                state: Callable[[], Any]) -> None:
        """Restart the log empty at a cursor whose owner state ``state()``
        returns -- called once the cursor has moved, since a checkpoint
        may record the cursor it was taken at."""
        self.entries = []
        self._sums = []
        self.seq = self.base_seq = seq
        self.base_epoch = epoch
        self.digest = self.base_digest = digest
        self.base_sum = ""
        # Same ordering discipline as _compact: the new cursor becomes
        # durable before the old history's keys go away -- by prefix,
        # since a lossy reopen may have forgotten where they were.
        self._persist_header(state())
        self._sweep()

    def _persist_header(self, state) -> None:
        """Commit watermark, head cursor and the owner ``state`` at that
        cursor as one checksummed record.  Every header write *shrinks*
        the log -- exactly the writes where a torn copy could lose both
        the old and the new state -- so all of them swap."""
        header = {
            "schema": 3,
            "base_seq": self.base_seq,
            "base_epoch": self.base_epoch,
            "base_digest": self.base_digest,
            "base_sum": self.base_sum,
            "compactions": self.compactions,
            "seq": self.seq,
            "epoch": self.epoch_at(self.seq),
            "digest": self.digest,
            "checkpoint": state,
        }
        header["sum"] = _header_sum(header)
        atomic_disk_write(self.disk, self.disk_key, header)

    # -- queries -------------------------------------------------------

    def epoch_at(self, seq: int):
        """The epoch of the entry at ``seq``; None when unknowable.

        ``seq == base_seq`` answers from the compaction watermark; a seq
        below the retained window (or beyond the log head) is unknowable
        and the caller must treat it as "cannot serve incrementally".
        """
        if seq == self.base_seq:
            return self.base_epoch
        if self.base_seq < seq <= self.seq:
            return self.entries[seq - self.base_seq - 1][1]
        return None

    def entries_from(self, from_seq: int, from_epoch) -> Optional[List[LogEntry]]:
        """Entries after a peer's ``(from_seq, from_epoch)`` cursor.

        Returns the (possibly empty) tail when the peer shares our
        history at its cursor; ``None`` when only a snapshot can help:
        the cursor is ahead of us or carries a different epoch (forked
        history), or it has been truncated out of the retained window.
        """
        if from_seq > self.seq:
            return None
        if from_seq < self.base_seq:
            return None
        if self.epoch_at(from_seq) != from_epoch and from_seq > 0:
            return None
        return self.entries[from_seq - self.base_seq:]


def _wire_epoch(epoch):
    # An NS epoch is an int; a db epoch is a tuple that may arrive a list.
    return tuple(epoch) if isinstance(epoch, list) else epoch


class ReplicatedStore:
    """The one log-shipping follower protocol (DESIGN.md section 9.3).

    Owns a replica's :class:`ChangeLog` and what the name service and
    the db both do over it: ingest a pushed ``(from_seq, entries)``
    batch, tell a duplicate from a gap from a forked reign, pull the
    tail or a snapshot from the primary under a reentrancy guard, answer
    a peer's pull, report lag.  It also builds the one snapshot record,
    ``{"seq": log.seq, **owner.snapshot_state()}``, which a pull answers
    as ``("snapshot", body, epoch, digest)``.  ``owner`` supplies only
    what differs:

    - ``apply_op(seq, op)``: apply one op to the materialised state;
    - ``snapshot_state()``: the state fields of the snapshot body;
    - ``install_snapshot(body)``: lay that state down (the store then
      adopts the body's cursor and emits ``state_fetched``);
    - ``emit(event, **fields)``: trace under the owner's category;
    - ``is_primary``: a push that reaches a primary is stale;
    - ``knows_primary()``: is there anyone to pull from right now;
    - ``primary_ref()`` (async): whom -- ``None`` when it is this replica;
    - ``caught_up(from_seq, applied)``: emit ``catch_up``, or return
      False for a pull not worth reporting.

    ``checkpoint``: the log header carries the snapshot body -- for an
    owner whose state lives only in memory (the NS tree; the db's rows
    are already on disk).
    """

    def __init__(self, owner, runtime, params, name: str, disk_key: str,
                 checkpoint: bool = False):
        self.owner = owner
        self.runtime = runtime
        self.params = params
        self.name = name
        self.log = ChangeLog(runtime.process.host.disk, disk_key,
                             retain=params.changelog_retain,
                             checkpoint=self.snapshot_body if checkpoint
                             else None)
        #: the primary's cursor as the owner last heard it (lag gauge)
        self.primary_seq = 0
        self.catch_ups = 0
        self.catch_up_ops = 0
        self.snapshot_fetches = 0
        self._catching_up = False
        self._force_snapshot = False
        # Where monitors and collectors find every replica's state.
        runtime.process.attachments["repl"] = self

    @property
    def is_primary(self) -> bool:
        return self.owner.is_primary

    def ingest(self, seq: int, epoch, op: tuple) -> bool:
        """Apply and record entry ``seq`` if it is the next one; False
        for a duplicate (no-op) and for a gap (schedules a catch-up)."""
        if seq <= self.log.seq:
            return False
        if seq != self.log.seq + 1:
            self.schedule_catch_up()
            return False
        self.owner.apply_op(seq, op)
        self.log.record(seq, epoch, op)
        return True

    def sync_before_ack(self) -> None:
        """The primary's durability barrier: the entry just appended and
        the state it changed reach the durable image before any copy
        leaves this host or the writer sees an ack, so a replica never
        holds a streamed entry a crashed-and-recovered primary lacks."""
        self.runtime.process.host.disk.sync()

    def on_apply_updates(self, from_seq: int, entries) -> None:
        """A streamed change-log batch from the primary (or a deposed one)."""
        if self.is_primary:
            return  # stale push; the election / bind race resolves it
        if from_seq > self.log.seq:
            self.schedule_catch_up()
            return
        for seq, epoch, op in entries:
            epoch = _wire_epoch(epoch)
            if seq > self.log.seq:
                self.ingest(seq, epoch, tuple(op))
                continue
            # Overlap: a duplicate delivery is fine, but a *different*
            # reign's entry at a seq we already hold means our history
            # forked (minority-side updates) -- resync from the primary.
            known = self.log.epoch_at(seq)
            if known is not None and known != epoch:
                self.schedule_catch_up()
                return

    def schedule_catch_up(self) -> None:
        if self._catching_up or not self.owner.knows_primary():
            return
        self._catching_up = True
        self.runtime.process.create_task(
            self._catch_up(), name=f"{self.name}-catch-up").detach()

    def resync_from_snapshot(self) -> None:
        """State below the log is damaged (a corrupt row may predate the
        retained window): make the next pull take the primary's snapshot."""
        self._force_snapshot = True
        self.schedule_catch_up()

    async def _catch_up(self) -> None:
        try:
            ref = await self.owner.primary_ref()
            if ref is not None:
                await self.pull(ref)
        except (NamingError, ServiceUnavailable, DeadlineExceeded,
                CancelledError, DiskWedged):
            # All transient (DiskWedged: our own log cannot record): the
            # next heartbeat (NS) or anti-entropy poll (db) pulls again.
            pass
        finally:
            self._catching_up = False

    async def pull(self, ref: ObjectRef,
                   timeout: Optional[float] = None) -> None:
        """Pull the updates after our cursor from the replica at ``ref``.

        It streams ops when it shares our history at ``(from_seq,
        from_epoch)`` -- O(gap) work -- and its snapshot only when the
        epochs mismatch (a forked minority history, detected rather than
        assumed) or its log has been truncated past our cursor.
        """
        from_seq = self.log.seq
        from_epoch = self.log.epoch_at(from_seq)
        if self._force_snapshot:
            # A cursor no history matches: entries_from refuses it.
            from_seq, from_epoch = max(from_seq, 1), "corrupt-resync"
        reply = await self.runtime.invoke(
            ref, "fetchUpdates", (from_seq, from_epoch),
            timeout=timeout or self.params.call_timeout)
        if reply[0] == "ops":
            applied = sum(self.ingest(seq, _wire_epoch(epoch), tuple(op))
                          for seq, epoch, op in reply[1])
            self.catch_up_ops += applied
            if self.owner.caught_up(from_seq, applied):
                self.catch_ups += 1
        else:
            self.adopt_snapshot(*reply[1:])
            self.snapshot_fetches += 1
            self._force_snapshot = False
        self.primary_seq = max(self.primary_seq, self.log.seq)

    def snapshot_body(self) -> dict:
        """The one snapshot record: the cursor and the owner state there."""
        return {"seq": self.log.seq, **self.owner.snapshot_state()}

    def adopt_snapshot(self, body: dict, epoch, digest: str) -> None:
        """Lay a peer's snapshot down, then restart the log at its cursor.

        Adopting the snapshot adopts the sender's digest at that seq, so
        the conformance oracle (equal digests <=> identical update
        histories) survives the fallback.
        """
        self.owner.install_snapshot(body)
        self.log.reset(body["seq"], _wire_epoch(epoch), digest)
        self.owner.emit("state_fetched", seq=body["seq"])

    def serve_updates(self, from_seq: int, from_epoch) -> tuple:
        """Answer a peer's pull: the tail after its cursor, else a snapshot."""
        entries = self.log.entries_from(from_seq, _wire_epoch(from_epoch))
        if entries is not None:
            return ("ops", entries)
        return ("snapshot", self.snapshot_body(),
                self.log.epoch_at(self.log.seq), self.log.digest)

    def replication_gauges(self) -> dict:
        """Lag gauges scraped into the SSC load-report batch."""
        if self.log.disk.wedged:
            # The cursor may be ahead of anything the wedged disk made
            # durable: refuse to vouch (the SSC marks the gauges stale).
            raise DiskWedged(f"{self.name} gauges unavailable: disk wedged "
                             f"on {self.runtime.ip}")
        return {"repl_seq": self.log.seq,
                "repl_lag": max(0, self.primary_seq - self.log.seq)}


# Imported here, not at the top: repro.core.naming's package init pulls
# in replica.py, which imports ChangeLog and ReplicatedStore from this
# module -- the import must sit below the classes the cycle re-enters for.
from repro.core.naming.errors import AlreadyBound, NamingError  # noqa: E402


class PrimaryBackupBinder:
    """Runs the bind-retry race for one service replica.

    Create it in a service's ``start`` before the first ``await``, then
    ``service.spawn_task(binder.run())``.  ``is_primary`` is the
    service's one primary flag.  ``on_promote`` fires when this replica
    wins the binding (it should recover state -- from the database or
    from peers -- before serving, section 9.4); ``on_demote`` fires if
    the replica later discovers its binding gone while still alive
    (operator moved the service, or a spurious audit removal).
    """

    def __init__(self, service, name: str, ref: ObjectRef,
                 on_promote: Optional[PromoteHook] = None,
                 on_demote: Optional[PromoteHook] = None):
        self.service = service
        self.name = name
        self.ref = ref
        self.on_promote = on_promote
        self.on_demote = on_demote
        self.role = "backup"

    @property
    def is_primary(self) -> bool:
        return self.role == "primary"

    async def run(self) -> None:
        params = self.service.params
        kernel = self.service.kernel
        # First attempt happens immediately: at a clean cold start the
        # first replica to start becomes primary without waiting a cycle.
        while True:
            if self.role == "backup":
                await self._try_bind()
            else:
                await self._verify_primary()
            await kernel.sleep(params.backup_bind_retry)

    async def _try_bind(self) -> None:
        try:
            parent = self._parent_of(self.name)
            if parent:
                await self.service.names.ensure_context(parent)
            await self.service.names.bind(self.name, self.ref)
        except AlreadyBound:
            # Usually the primary is alive -- stay backup.  But after the
            # SSC restarts a killed primary on this host, the name still
            # holds the *previous incarnation's* ref: a dead endpoint
            # nobody can call, which would otherwise park every replica
            # in AlreadyBound until the RAS audit removes it (up to an
            # audit cycle of write unavailability).  Our own host's stale
            # binding is unambiguously ours -- same disk, same log --
            # so reclaim it now (section 9.5: "the normal recovery
            # mechanisms make the stop and restart invisible").
            if not await self._reclaim_stale_binding():
                return
        except (NamingError, ServiceUnavailable):
            return  # name service unavailable; retry next interval
        await self._promote()

    async def _reclaim_stale_binding(self) -> bool:
        """Replace this host's previous incarnation's binding with ours."""
        try:
            current = await self.service.names.resolve(self.name)
            if current == self.ref:
                return True  # our bind landed despite the error reply
            if current.ip != self.service.host.ip:
                return False  # another host's primary; not ours to take
            await self.service.names.unbind(self.name)
            await self.service.names.bind(self.name, self.ref)
        except (AlreadyBound, NamingError, ServiceUnavailable):
            return False  # lost the race (or NS hiccup); retry next cycle
        return True

    async def _promote(self) -> None:
        self.role = "primary"
        self.service.emit("promoted", name=self.name)
        if self.on_promote is not None:
            result = self.on_promote()
            if result is not None:
                await result

    async def _verify_primary(self) -> None:
        """Confirm our binding still stands; demote if it was removed."""
        try:
            current = await self.service.names.resolve(self.name)
        except (NamingError, ServiceUnavailable):
            return  # can't tell right now; check again next interval
        if current == self.ref:
            return
        self.role = "backup"
        self.service.emit("demoted", name=self.name)
        if self.on_demote is not None:
            result = self.on_demote()
            if result is not None:
                await result

    @staticmethod
    def _parent_of(name: str) -> str:
        return name.rsplit("/", 1)[0] if "/" in name else ""
