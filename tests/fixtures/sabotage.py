"""Deliberate invariant sabotage, for testing that the monitors notice.

The chaos monitors are only trustworthy if a *broken* cluster actually
trips them.  ``broken_quorum()`` manufactures a real split-brain: with
the name-service quorum forced to 1, any replica that loses contact
with the master elects itself, so a partition yields two masters -- the
exact failure the majority rule exists to prevent (and which the
``ns_agreement`` monitor must report).

The patch is process-global (it swaps a class property), so it is a
context manager and chaos runs must happen strictly inside the block.
"""

from contextlib import contextmanager

from repro.core.naming.replica import NameReplicaProcess
from repro.chaos import Fault, FaultSchedule

#: A schedule built to exploit the broken quorum: partition server 0
#: away from its peers mid-run, with service kills as realistic noise
#: around it, then heal.  Under the sabotage, the minority side elects
#: its own NS master during the split.
SPLIT_BRAIN_SCHEDULE = FaultSchedule(faults=(
    Fault(20.0, "kill_service", {"server": 1, "service": "mds"}),
    Fault(30.0, "partition", {"servers_a": [0], "servers_b": [1, 2]}),
    Fault(55.0, "kill_service", {"server": 2, "service": "vod"}),
    Fault(110.0, "heal", {}),
), horizon=150.0)


@contextmanager
def broken_quorum():
    """Force the name-service quorum to 1 (split-brain becomes possible)."""
    original = NameReplicaProcess.quorum
    NameReplicaProcess.quorum = property(lambda self: 1)
    try:
        yield
    finally:
        NameReplicaProcess.quorum = original


#: A benign schedule for the wedged-log sabotage: one service kill as
#: realistic noise, nothing that touches the db replicas.  The viewer
#: workload's own writes wedge the sabotaged backups immediately, so the
#: long tail of the horizon is what lets ``replica_lag_bounded`` observe
#: the cursor stuck past ``monitors.REPLICA_LAG_BOUND``.
WEDGED_LOG_SCHEDULE = FaultSchedule(faults=(
    Fault(15.0, "kill_service", {"server": 1, "service": "mds"}),
), horizon=120.0)


#: A schedule built to exploit ack-before-sync (PR 8 sabotage): crash
#: the db primary's server while viewer writes are in flight, reboot it
#: soon enough that it reclaims its binding (so the durability monitor
#: judges *its* disk), and leave a long tail for recovery to settle.
#: Run it inside ``ack_before_sync_params()``: the write barrier buffers
#: every write and the missing sync means acked rows evaporate in the
#: crash -- the exact loss the ``durability`` monitor must report.
ACK_BEFORE_SYNC_SCHEDULE = FaultSchedule(faults=(
    Fault(15.0, "kill_service", {"server": 1, "service": "mds"}),
    Fault(45.0, "crash_server", {"server": 0}),
    Fault(53.0, "reboot_server", {"server": 0}),
), horizon=150.0)


@contextmanager
def ack_before_sync_params():
    """db/NS primaries ack writes before the disk sync (PR 8 sabotage).

    Yields the ``Params`` to run with.  With the write barrier armed and
    ``ReplicatedStore.sync_before_ack`` patched to a no-op, a primary
    acknowledges out of its volatile write cache; any crash then loses
    client-acked state.  A ``durability`` monitor that stays green under
    this combination is not testing anything.
    """
    from repro.core.params import Params
    from repro.core.replication import ReplicatedStore
    original = ReplicatedStore.sync_before_ack
    ReplicatedStore.sync_before_ack = lambda self: None
    try:
        yield Params(disk_write_barrier=True)
    finally:
        ReplicatedStore.sync_before_ack = original


#: A schedule built to exploit disabled dedup (PR 9 sabotage): heavy
#: duplication on every server's in-link while viewers place orders and
#: play games.  With the reply cache bypassed, a duplicated non-idempotent
#: call envelope executes twice on the same server -- the exact double
#: the ``at_most_once`` monitor must report.  (No corruption here: this
#: schedule isolates the dedup layer, not the checksum layer.)
NO_DEDUP_SCHEDULE = FaultSchedule(faults=(
    Fault(15.0, "duplicate", {"target": "server:0", "probability": 0.6}),
    Fault(15.0, "duplicate", {"target": "server:1", "probability": 0.6}),
    Fault(15.0, "duplicate", {"target": "server:2", "probability": 0.6}),
    Fault(40.0, "kill_service", {"server": 1, "service": "mds"}),
), horizon=120.0)


@contextmanager
def disabled_dedup():
    """Servers skip the reply cache entirely (PR 9 sabotage).

    Recreates the pre-PR 9 failure shape: a duplicated or retried call
    envelope re-executes the servant.  The evidence ledger still stamps
    every execution (it is independent of the cache by design), so the
    ``at_most_once`` monitor must notice; a monitor that stays quiet
    under this patch is not testing anything.
    """
    from repro.ocs.runtime import OCSRuntime
    original = OCSRuntime._dedup_key
    OCSRuntime._dedup_key = lambda self, payload, mdef: None
    try:
        yield
    finally:
        OCSRuntime._dedup_key = original


@contextmanager
def disabled_checksums():
    """Receivers dispatch corrupt frames instead of dropping them.

    With ``OCSRuntime._checksum_fails`` patched to accept every frame,
    a payload-damaged call reaches the servant; under this patch E18
    must trip exactly ``at_most_once``, and its
    ``ocs.corrupt_dispatched`` counter must go nonzero.
    """
    from repro.ocs.runtime import OCSRuntime
    original = OCSRuntime._checksum_fails
    OCSRuntime._checksum_fails = lambda self, msg: False
    try:
        yield
    finally:
        OCSRuntime._checksum_fails = original


@contextmanager
def allowed_expired_work():
    """Servers execute calls whose deadline has already passed.

    With ``OCSRuntime._rejects_expired`` patched to refuse nothing, a
    call that expired in flight or in a slow consumer's queue still
    runs the servant -- dead work nobody is waiting for.  The
    ``expired_work`` monitor must notice; a monitor that stays quiet
    under this patch is not testing anything.
    """
    from repro.ocs.runtime import OCSRuntime
    original = OCSRuntime._rejects_expired
    OCSRuntime._rejects_expired = lambda self: False
    try:
        yield
    finally:
        OCSRuntime._rejects_expired = original


@contextmanager
def wedged_replica_log(kind="db"):
    """Followers of one service silently stop applying replicated entries.

    ``kind`` is ``"db"`` or ``"ns"``.  The cluster boots healthy; from
    the schedule's first fault on, every entry pushed to or pulled by a
    follower of that service is dropped at the one ``ReplicatedStore.
    ingest`` seam.  Recreates the pre-PR 7 failure shape: the primary
    acks writes, the followers' change-log cursors never advance, and a
    promoted follower would serve diverged data.  The
    ``replica_lag_bounded`` monitor must notice; a monitor that stays
    quiet under this patch is not testing anything.
    """
    from repro.chaos.injector import FaultInjector
    from repro.core.replication import ReplicatedStore
    inject, ingest = FaultInjector.inject, ReplicatedStore.ingest
    armed = []

    def arming_inject(self, fault):
        armed.append(fault)
        return inject(self, fault)

    FaultInjector.inject = arming_inject
    ReplicatedStore.ingest = lambda self, seq, epoch, op: (
        False if armed and self.name == kind
        else ingest(self, seq, epoch, op))
    try:
        yield
    finally:
        FaultInjector.inject, ReplicatedStore.ingest = inject, ingest


@contextmanager
def unbounded_admission_queue():
    """``AdmissionGate.try_admit`` forgets ``max_queue``.

    The gate then sheds only while inflight work is full, so under a
    slow consumer (E14) admitted calls pile up in the queue past its
    bound -- the unbounded queue the gate exists to turn into sheds.
    The ``queue_bound`` monitor must notice.
    """
    from repro.ocs.admission import AdmissionGate
    original = AdmissionGate.try_admit

    def try_admit(self):
        if self.inflight >= self.max_inflight:
            self.shed_count += 1
            return False
        self.queued += 1
        self.admitted += 1
        self.peak_queue = max(self.peak_queue, self.queued)
        return True

    AdmissionGate.try_admit = try_admit
    try:
        yield
    finally:
        AdmissionGate.try_admit = original


@contextmanager
def stop_keeps_movie():
    """``VODApp.stop`` closes the movie at the MMS but the app keeps
    holding its reference, so the screen stays on a movie that will
    never play again.  The chaos quiesce stops every open movie, so each
    viewing settop ends the run stalled; the ``settop_service`` monitor
    must notice.  (A stall-recovery sabotage cannot trip that monitor:
    the quiesce's stop closes every stall before the monitor's final
    probe.)
    """
    from repro.settop.apps.vod import VODApp
    original = VODApp.stop

    async def stop(self):
        movie = self.movie
        await original(self)
        self.movie = movie

    VODApp.stop = stop
    try:
        yield
    finally:
        VODApp.stop = original
