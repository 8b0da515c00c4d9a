"""Cluster invariant monitors: what must stay true under any fault storm.

Each monitor watches one of the paper's structural guarantees from the
*outside* (through process attachments and network state, never by
calling into the cluster -- a probe must not perturb the run).  The
:class:`MonitorBus` checks all of them on a fixed cadence during a chaos
run and once more after the quiesce, and every violation lands in the
trace so a failing run's digest pins the failure.

The catalog (DESIGN.md section 9):

- at most one CSC believes it is primary (section 6.2);
- the name service keeps majority agreement: never two masters for
  longer than an election settles, never masterless while a quorum of
  replicas is up and connected (section 4.6);
- a dead binding is audited out within the paper's detection bound
  (section 4.7, ``Params.chaos_audit_bound``);
- a per-host binding cache never keeps *serving* a dead binding past
  that same bound: coherence is by exception, so a hit on a dead entry
  must raise-and-invalidate, not mask the failure (PR 5);
- every settop is either served or its outage is accounted in an
  :class:`AvailabilityTimeline`, and service returns once faults heal
  (section 9.5);
- a killed process leaks no Future: everything it owned is cancelled
  (section 3.2.1's incarnation rule, enforced at the task layer);
- no server executes work whose deadline has already expired -- the
  deadline envelope must be honored on both sides of the queue (PR 4);
- admission-gated services keep their queues bounded under any surge:
  the gate's limits are never exceeded, only shed around (PR 4);
- every NS/db replica's change-log cursor stays within
  ``REPLICA_LAG_BOUND`` of its primary while live and connected,
  and matches it exactly after the quiesce (PR 7);
- every write a client saw acknowledged is readable after any
  crash-and-recovery -- the durability contract the sync-before-ack
  barrier exists to uphold (PR 8, falsifiable by patching
  ``ReplicatedStore.sync_before_ack`` out);
- no non-idempotent request id executes twice on the same server under
  duplication/reordering/retries -- the at-most-once contract the reply
  cache exists to uphold -- and no corrupt frame reaches dispatch (PR 9,
  falsifiable by patching ``OCSRuntime._dedup_key`` to return None or
  ``OCSRuntime._checksum_fails`` to accept every frame).
"""

from __future__ import annotations

import copy

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.injector import FaultInjector
from repro.cluster.builder import Cluster
from repro.core.params import NS_ELECTION_TIMEOUT, NS_HEARTBEAT, Params
from repro.db.service import read_row
from repro.metrics.availability import AvailabilityTimeline
from repro.metrics.cluster import (add_counts, live_replicas, live_runtimes,
                                   runtime_counters)
from repro.ocs.objref import ANY_INCARNATION
from repro.sim.host import CorruptBlob

#: how long a killed process gets to drain its cancelled tasks before
#: an undone task counts as a leaked Future.
LEAK_GRACE = 10.0
#: how long a live replica may trail its primary's change-log sequence
#: before ``replica_lag_bounded`` trips.  Sized to cover one anti-entropy
#: poll plus the catch-up RPC with slack.
REPLICA_LAG_BOUND = 30.0
_ABSENT = object()   # durability read-back: the row is not on disk


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    monitor: str
    time: float
    detail: str


class Monitor:
    """Base: bind to a run, then get checked on the bus cadence."""

    name = "monitor"

    def bind(self, cluster: Cluster, injector: FaultInjector,
             params: Params, context: dict) -> None:
        self.cluster = cluster
        self.injector = injector
        self.params = params
        self.context = context

    def check(self) -> List[Violation]:
        """Periodic probe; called every ``chaos_monitor_interval``."""
        return []

    def finish(self) -> List[Violation]:
        """Final probe after the post-horizon quiesce."""
        return []

    def _violation(self, detail: str) -> Violation:
        return Violation(monitor=self.name, time=self.cluster.now,
                         detail=detail)


class _Stretch:
    """The clock behind "a condition must not persist past ``grace``".

    :meth:`overdue` is fed the condition on every probe.  It returns the
    stretch's length on the first probe that finds it held for longer
    than ``grace``, then stays silent until the condition breaks, which
    re-arms the clock for the next stretch.
    """

    def __init__(self, grace: float):
        self.grace = grace
        self._since: Optional[float] = None
        self._reported = False

    def overdue(self, holds: bool, now: float) -> Optional[float]:
        if not holds:
            self._since, self._reported = None, False
            return None
        if self._since is None:
            self._since = now
        if self._reported or now - self._since <= self.grace:
            return None
        self._reported = True
        return now - self._since


def _ref_alive(cluster: Cluster, ref) -> bool:
    """Is ``ref``'s incarnation a live process on an up host?"""
    try:
        host = cluster.net.host_at(ref.ip)
    except KeyError:
        return False
    if not host.up:
        return False
    return any(proc.alive and tuple(proc.incarnation) ==
               tuple(ref.incarnation) for proc in host.processes)


class CscPrimaryMonitor(Monitor):
    """At most one live CSC may believe it is the cluster primary.

    The handoff goes through the name-binding race (section 5.2), and an
    *isolated* primary cannot learn its binding was audited away -- the
    binder's verify loop "can't tell right now" while the name service
    is unreachable.  So the invariant is checked in connected operation:
    two primaries may overlap only while a partition is in force, plus
    the time one verify cycle needs to demote the stale one afterwards
    (one ``backup_bind_retry`` plus resolve timeouts, measured on the
    probe cadence).  Dual primaries persisting past that window -- or
    any dual primaries on a never-partitioned run -- are split-brain.
    """

    name = "csc_primary"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self._dual = _Stretch(params.backup_bind_retry
                              + 2 * params.call_timeout
                              + 2 * params.chaos_monitor_interval + 5.0)

    def _primaries(self) -> List[str]:
        primaries = []
        for host in self.cluster.servers:
            proc = host.find_process("csc")
            if proc is None or not proc.alive:
                continue
            service = proc.attachments.get("service")
            if service is not None and getattr(service, "is_primary", False):
                primaries.append(host.ip)
        return primaries

    def check(self) -> List[Violation]:
        primaries = self._primaries()
        # A split excuses the stale primary: it cannot learn it lost.
        held = self._dual.overdue(
            len(primaries) > 1 and not self.cluster.net.partitioned,
            self.cluster.now)
        if held is None:
            return []
        return [self._violation(
            f"{len(primaries)} CSCs claim primary for {held:.1f}s on a "
            f"connected network: {sorted(primaries)}")]

    def finish(self) -> List[Violation]:
        primaries = self._primaries()
        if len(primaries) > 1:
            return [self._violation(
                f"after quiesce: {len(primaries)} CSCs claim primary: "
                f"{sorted(primaries)}")]
        return []


class NsAgreementMonitor(Monitor):
    """Name-service majority agreement (section 4.6).

    Two live masters may coexist only for as long as an election takes
    to settle (the loser steps down on seeing a higher epoch); persistent
    split mastership means quorum is broken.  Conversely, with a quorum
    of replicas alive and no partition in force, *some* master must
    emerge within the fail-over bound.
    """

    name = "ns_agreement"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        # An isolated old master steps down after missing heartbeat
        # acks; two election cycles plus margin covers the window.
        self._split = _Stretch(2 * (NS_ELECTION_TIMEOUT[1] + NS_HEARTBEAT)
                               + 10.0)
        self._masterless = _Stretch(2 * params.max_failover)
        self._quorum = len(cluster.servers) // 2 + 1

    def _masters(self) -> Tuple[List[str], int]:
        stores = list(live_replicas(self.cluster, "ns"))
        return [ip for ip, store in stores if store.is_primary], len(stores)

    def check(self) -> List[Violation]:
        now = self.cluster.now
        masters, live = self._masters()
        out: List[Violation] = []
        split = self._split.overdue(len(masters) > 1, now)
        if split is not None:
            out.append(self._violation(
                f"{len(masters)} ns masters for {split:.1f}s: "
                f"{sorted(masters)}"))
        masterless = self._masterless.overdue(
            live >= self._quorum and not masters
            and not self.cluster.net.partitioned, now)
        if masterless is not None:
            out.append(self._violation(
                f"no ns master for {masterless:.1f}s with {live} "
                f"replicas up"))
        return out

    def finish(self) -> List[Violation]:
        masters, live = self._masters()
        if live >= self._quorum and len(masters) != 1:
            return [self._violation(
                f"after quiesce: {len(masters)} masters with {live} "
                f"replicas up")]
        return []


class AuditConvergenceMonitor(Monitor):
    """Dead bindings must be audited out within the paper's bound.

    Tracks every leaf binding the acting master holds whose referent is
    no longer a live process; if one outlives
    ``Params.chaos_audit_bound`` the RAS/name-service audit chain
    (section 4.7) has failed to converge.  The clock pauses (resets)
    while a partition is in force or mastership is unsettled -- the
    audit cannot be expected to run across a split.
    """

    name = "audit_convergence"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self._dead_since: Dict[tuple, float] = {}
        self._server_ips = set(cluster.server_ips)

    def check(self) -> List[Violation]:
        now = self.cluster.now
        if self.cluster.net.partitioned:
            self._dead_since.clear()
            return []
        master = self._acting_master()
        if master is None:
            self._dead_since.clear()
            return []
        out: List[Violation] = []
        seen_dead = set()
        for path, ref in master.leaf_bindings():
            # The audit chain covers server-hosted objects (the RAS runs
            # on servers); settop-side refs age out by other means.
            if ref.ip not in self._server_ips:
                continue
            if _ref_alive(self.cluster, ref):
                continue
            key = (path, ref.ip, ref.port, tuple(ref.incarnation),
                   ref.object_id)
            seen_dead.add(key)
            first = self._dead_since.setdefault(key, now)
            if now - first > self.params.chaos_audit_bound:
                out.append(self._violation(
                    f"dead binding {path} -> {ref.ip}:{ref.port} not "
                    f"audited out after {now - first:.1f}s"))
                del self._dead_since[key]
        for key in list(self._dead_since):
            if key not in seen_dead:
                del self._dead_since[key]
        return out

    def finish(self) -> List[Violation]:
        master = self._acting_master()
        if master is None:
            return []
        stale = []
        for path, ref in master.leaf_bindings():
            if (ref.ip in self._server_ips
                    and not _ref_alive(self.cluster, ref)):
                stale.append(path)
        if stale:
            return [self._violation(
                f"after quiesce: {len(stale)} dead binding(s) remain: "
                f"{sorted(stale)[:5]}")]
        return []

    def _acting_master(self):
        return next((store.owner
                     for _ip, store in live_replicas(self.cluster, "ns")
                     if store.is_primary), None)


class CacheCoherenceMonitor(Monitor):
    """A binding cache must not keep *serving* a dead binding (PR 5).

    Coherence is by exception: a cache may lazily *hold* a dead entry
    forever (nobody is using it, so nobody learns it died), but if
    lookups keep hitting an entry whose referent process is dead, the
    very next use raises and the client must invalidate.  A dead entry
    that accumulates hits past ``Params.chaos_audit_bound`` after its
    referent died means the invalidation path is broken and the cache
    is masking the failure from the rebind machinery -- exactly the bug
    a coherence-free cache design must be policed against.  The clock
    pauses while a partition is in force (a partitioned settop's calls
    cannot raise, so it cannot learn).
    """

    name = "cache_coherence"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        # (host_ip, name, endpoint+incarnation) -> (first seen dead at,
        # entry.hits at that moment)
        self._dead_since: Dict[tuple, tuple] = {}

    def _caches(self):
        hosts = list(self.cluster.servers) + list(self.cluster.settops)
        for host in hosts:
            if not host.up:
                continue
            cache = getattr(host, "binding_cache", None)
            if cache is not None:
                yield host, cache

    def check(self) -> List[Violation]:
        now = self.cluster.now
        if self.cluster.net.partitioned:
            self._dead_since.clear()
            return []
        out: List[Violation] = []
        seen = set()
        for host, cache in self._caches():
            for name, entry in cache.entries():
                if tuple(entry.ref.incarnation) == tuple(ANY_INCARNATION):
                    continue  # bootstrap refs never go stale
                if _ref_alive(self.cluster, entry.ref):
                    continue
                key = (host.ip, name, entry.ref.ip, entry.ref.port,
                       tuple(entry.ref.incarnation))
                seen.add(key)
                first, hits_then = self._dead_since.setdefault(
                    key, (now, entry.hits))
                if (entry.hits > hits_then
                        and now - first > self.params.chaos_audit_bound):
                    out.append(self._violation(
                        f"{host.ip} cache still serving dead binding "
                        f"{name} -> {entry.ref.ip}:{entry.ref.port} "
                        f"{now - first:.1f}s after its referent died "
                        f"({entry.hits - hits_then} hits since)"))
                    del self._dead_since[key]
        for key in list(self._dead_since):
            if key not in seen:
                del self._dead_since[key]
        return out

    finish = check


class SettopServiceMonitor(Monitor):
    """Every settop is served, or its outage is on an availability timeline.

    A settop counts as *down* when its host is crashed or its current
    app holds an open movie that is neither playing nor finished (a
    mid-play stall).  Downtime itself is not a violation -- it is the
    accounting the paper's section 9.5 availability numbers come from.
    The violation is an outage that never closes: once faults heal and
    the quiesce has run, every powered-on settop must be served again.
    """

    name = "settop_service"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self.timelines: Dict[str, AvailabilityTimeline] = {}
        for stk in context.get("settop_kernels", []):
            self.timelines[stk.host.ip] = AvailabilityTimeline(cluster.kernel)

    def _is_served(self, stk) -> bool:
        if not stk.host.up:
            return False
        app = stk.app_manager.current_app if stk.app_manager else None
        if app is None:
            return True
        stalled = (getattr(app, "movie", None) is not None
                   and not getattr(app, "playing", False)
                   and not getattr(app, "finished", False))
        return not stalled

    def check(self) -> List[Violation]:
        for stk in self.context.get("settop_kernels", []):
            timeline = self.timelines[stk.host.ip]
            if self._is_served(stk):
                timeline.mark_up()
            else:
                timeline.mark_down()
        return []

    def finish(self) -> List[Violation]:
        self.check()
        out = []
        for stk in self.context.get("settop_kernels", []):
            if stk.host.up and not self.timelines[stk.host.ip].is_up:
                outage = self.timelines[stk.host.ip].outages()[-1]
                out.append(self._violation(
                    f"settop {stk.host.ip} still unserved after quiesce "
                    f"(outage open since t={outage[0]:.1f})"))
        return out

    def summaries(self) -> Dict[str, dict]:
        return {ip: tl.summary() for ip, tl in sorted(self.timelines.items())}


class FutureLeakMonitor(Monitor):
    """No Future survives its owner's crash (section 3.2.1).

    ``Process.kill`` cancels every task the incarnation owned and leaves
    the set on ``cancelled_tasks``; a task still pending ``LEAK_GRACE``
    seconds after a chaos kill is a Future that outlived its process --
    exactly the stale-incarnation hazard object references exist to
    prevent.
    """

    name = "future_leak"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self._checked = 0   # prefix of injector.killed already verified

    def check(self) -> List[Violation]:
        return self._sweep_kills(settled=False)

    def finish(self) -> List[Violation]:
        return self._sweep_kills(settled=True) + self._sweep_pending()

    def _sweep_kills(self, settled: bool) -> List[Violation]:
        """Judge unjudged kills; unless ``settled``, stop at a fresh one."""
        now = self.cluster.now
        out: List[Violation] = []
        records = self.injector.killed
        while self._checked < len(records):
            record = records[self._checked]
            proc = record["proc"]
            # A process snapshotted before the kill landed but survived
            # (e.g. one the SSC cascade did not reach) has nothing to check.
            if not proc.alive:
                if not settled and now - record["t"] <= LEAK_GRACE:
                    break   # too fresh; re-examine on a later probe
                leaked = [t for t in proc.cancelled_tasks if not t.done()]
                if leaked:
                    names = sorted(t.name or "?" for t in leaked)[:5]
                    out.append(self._violation(
                        f"process {proc.name} (pid {proc.pid}) leaked "
                        f"{len(leaked)} task(s) across its crash: {names}"))
            self._checked += 1
        return out

    def _sweep_pending(self) -> List[Violation]:
        """PR 4 extension: a shed or dropped call must still resolve the
        caller's Future.  Any pending client call whose *explicit*
        deadline passed more than ``LEAK_GRACE`` ago means the reply was
        lost *and* the local deadline timer never fired -- a leak the
        shed/expiry paths could introduce."""
        now = self.cluster.now
        out: List[Violation] = []
        for runtime in live_runtimes(self.cluster.servers):
            for call_id, pending in runtime._pending.items():
                deadline = pending.deadline
                if deadline is None or pending.future.done():
                    continue
                if now - deadline > LEAK_GRACE:
                    out.append(self._violation(
                        f"call {call_id} ({pending.method}) still pending "
                        f"{now - deadline:.1f}s past its deadline"))
        return out


class ExpiredWorkMonitor(Monitor):
    """No server executes work whose deadline already expired (PR 4).

    Deadline propagation has two enforcement points -- before enqueue
    and after dequeue -- and the runtime counts any expired call that
    slips through both in ``expired_executions``.  A nonzero count means
    a server burned capacity on an answer no caller was still waiting
    for, the exact waste the overload design exists to prevent.
    """

    name = "expired_work"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        # (ip, port) identifies one runtime incarnation.
        self._reported: Dict[tuple, int] = {}

    def check(self) -> List[Violation]:
        out: List[Violation] = []
        for runtime in live_runtimes(self.cluster.servers):
            count = runtime.expired_executions
            key = (runtime.ip, runtime.port)
            if count > self._reported.get(key, 0):
                self._reported[key] = count
                out.append(self._violation(
                    f"{runtime.process.name} on {runtime.ip} executed "
                    f"{count} call(s) past their deadline"))
        return out

    finish = check


class QueueBoundMonitor(Monitor):
    """Admission-gated queues stay within their configured bounds (PR 4).

    The gate's whole contract is that overload becomes *sheds* (bounded
    work, fast ``Overloaded`` replies) rather than unbounded queues; a
    probe catching ``queued > max_queue`` or ``inflight > max_inflight``
    means a code path admitted work around the gate.  Peak counters are
    checked at finish so a between-probes excursion is caught too.
    """

    name = "queue_bound"

    def check(self) -> List[Violation]:
        out: List[Violation] = []
        for runtime, gate in _gated_runtimes(self.cluster):
            total_bound = gate.max_inflight + gate.max_queue
            if gate.queued > gate.max_queue:
                out.append(self._violation(
                    f"{gate.service}: queue depth {gate.queued} exceeds "
                    f"bound {gate.max_queue}"))
            # A lag burst can move a full queue inflight at once, so the
            # hard bound on executing work is the admitted total.
            if gate.inflight + gate.queued > total_bound:
                out.append(self._violation(
                    f"{gate.service}: {gate.inflight} inflight + "
                    f"{gate.queued} queued exceeds admitted bound "
                    f"{total_bound}"))
        return out

    def finish(self) -> List[Violation]:
        out = self.check()
        for runtime, gate in _gated_runtimes(self.cluster):
            total_bound = gate.max_inflight + gate.max_queue
            if gate.peak_queue > gate.max_queue:
                out.append(self._violation(
                    f"{gate.service}: peak queue depth {gate.peak_queue} "
                    f"exceeded bound {gate.max_queue} during the run"))
            if gate.peak_inflight > total_bound:
                out.append(self._violation(
                    f"{gate.service}: peak inflight {gate.peak_inflight} "
                    f"exceeded admitted bound {total_bound} during the run"))
        return out


class HbRaceMonitor(Monitor):
    """Unordered conflicting writes to shared state (repro.analysis.hb).

    Only active when the run was built with ``Params.hb_trace``: the
    cluster then streams ``hb.*`` events (message edges + shared-state
    writes) into the trace, and the final sweep replays them through the
    vector-clock analyzer.  A race -- two writes to the same logical
    variable with different versions and no happens-before path between
    their actors -- is split-brain made visible *even when the damage
    healed* before the structural monitors could see it.
    """

    name = "hb_race"
    MAX_REPORTED = 5

    def finish(self) -> List[Violation]:
        if self.cluster.kernel.hb_log is None:
            return []
        from repro.analysis.hb import analyze_trace
        report = analyze_trace(self.cluster.trace.events)
        self.report = report  # exposed for ChaosResult / CLI summaries
        out = [self._violation(f"unordered conflicting writes: {race.describe()}")
               for race in report.races[:self.MAX_REPORTED]]
        if len(report.races) > self.MAX_REPORTED:
            out.append(self._violation(
                f"... and {len(report.races) - self.MAX_REPORTED} more "
                f"hb race(s) suppressed"))
        return out


def _gated_runtimes(cluster: Cluster):
    for runtime in live_runtimes(cluster.servers):
        if runtime.admission is not None:
            yield runtime, runtime.admission


class ReplicaLagMonitor(Monitor):
    """Every replica's change-log cursor keeps up with its primary (PR 7).

    Probes every NS and db replica's ``ReplicatedStore`` (the ``repl``
    process attachment) from the outside.  Incremental log shipping
    makes any gap O(gap) ops to close -- one heartbeat (NS)
    or one anti-entropy poll (db) away -- so a live, connected replica
    observed behind a settled primary's cursor must reach that cursor
    within ``REPLICA_LAG_BOUND``.  Lag that *persists* is the
    silent replication gap this monitor exists to expose: a promoted
    backup would serve diverged data.  The clock pauses while a
    partition is in force or while no single primary is settled; after
    the quiesce every live replica must match its primary exactly.
    """

    name = "replica_lag_bounded"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self._behind: Dict[tuple, Tuple[float, int]] = {}
        self._reported: set = set()

    def _groups(self) -> List[Tuple[str, int, List[Tuple[str, int]]]]:
        """Per service kind: the settled primary's seq + member cursors."""
        groups = []
        for kind in ("ns", "db"):
            stores = list(live_replicas(self.cluster, kind))
            primaries = [s.log.seq for _ip, s in stores if s.is_primary]
            if len(primaries) == 1:
                groups.append((kind, primaries[0],
                               [(ip, s.log.seq) for ip, s in stores]))
        return groups

    def check(self) -> List[Violation]:
        now = self.cluster.now
        if self.cluster.net.partitioned:
            self._behind.clear()
            return []
        out: List[Violation] = []
        seen = set()
        for kind, primary_seq, members in self._groups():
            for ip, seq in members:
                if seq >= primary_seq:
                    continue
                key = (kind, ip)
                seen.add(key)
                if key not in self._behind:
                    # First observation: remember the cursor to beat.
                    self._behind[key] = (now, primary_seq)
                    continue
                since, target = self._behind[key]
                if seq >= target:
                    # Reached the seq it was first seen behind: catch-up
                    # is live, re-arm against the primary's new cursor.
                    self._behind[key] = (now, primary_seq)
                    continue
                if (key not in self._reported
                        and now - since > REPLICA_LAG_BOUND):
                    self._reported.add(key)
                    out.append(self._violation(
                        f"{kind} replica {ip} wedged at seq {seq} < "
                        f"{target} for {now - since:.1f}s"))
        for key in list(self._behind):
            if key not in seen:
                del self._behind[key]
                self._reported.discard(key)
        return out

    def finish(self) -> List[Violation]:
        if self.cluster.net.partitioned:
            return []
        out: List[Violation] = []
        for kind, primary_seq, members in self._groups():
            for ip, seq in members:
                if seq != primary_seq:
                    out.append(self._violation(
                        f"after quiesce: {kind} replica {ip} at seq {seq}, "
                        f"primary at {primary_seq}"))
        return out


class EvidenceLedger:
    """What clients were promised and what servers ran: monitor evidence.

    :class:`MonitorBus` installs one as ``kernel.ledger``, outside every
    host, so crashes cannot lose it.  The db primary and the NS master
    call :meth:`ack_db` / :meth:`ack_ns` the instant a writer would see
    success (after ``ReplicatedStore.sync_before_ack``, or after the
    buffered write when that barrier is patched out).  Servant dispatch
    (``OCSRuntime._note_effect``) calls :meth:`record` for each
    non-idempotent execution *whether or not* the reply cache is on, so
    a dedup-disabled server's double execution shows up here.  A runtime
    that exits hands its counters to :meth:`retire`, so the evidence a
    killed process saw outlives it.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.db_acks: List[dict] = []
        self.ns_acks: List[dict] = []
        #: request id -> list of {"t", "actor", "method"} executions.
        self.executions: Dict[tuple, List[dict]] = {}
        #: request ids with two or more executions, the only candidates
        #: :meth:`double_executions` has to look at on each probe.
        self._repeated: Set[tuple] = set()
        self.total = 0
        #: ``ocs.*``/``replycache.*`` counts of every exited runtime.
        self.retired: Dict[str, int] = {}

    def retire(self, runtime) -> None:
        add_counts(self.retired, runtime_counters(runtime))

    def ack_db(self, ip: str, epoch: tuple, seq: int, table: str,
               key: str, value, deleted: bool) -> None:
        self.db_acks.append({
            "t": self.cluster.now, "ip": ip, "epoch": epoch, "seq": seq,
            "table": table, "key": key, "value": copy.deepcopy(value),
            "deleted": deleted,
            # An ack issued across a partition may belong to a minority
            # primary whose reign the heal erases; the monitor excuses it.
            "partitioned": self.cluster.net.partitioned,
        })

    def ack_ns(self, ip: str, epoch: int, seq: int, op: tuple) -> None:
        self.ns_acks.append({
            "t": self.cluster.now, "ip": ip, "epoch": epoch, "seq": seq,
            "op": copy.deepcopy(op),
            "partitioned": self.cluster.net.partitioned,
        })

    def record(self, request_id: tuple, actor: str, method: str,
               at: float) -> None:
        self.total += 1
        execs = self.executions.setdefault(request_id, [])
        execs.append({"t": at, "actor": actor, "method": method})
        if len(execs) == 2:
            self._repeated.add(request_id)

    def double_executions(self) -> List[Tuple[tuple, List[dict]]]:
        """Request ids executed 2+ times *by the same server process*.

        A re-execution on a different actor is the known failover cost:
        the client rebound to another replica after the first server
        died with the reply (at-most-once is per incarnation, like the
        reply cache itself).  Same-actor doubles are the unrecoverable
        bug the reply cache exists to prevent.
        """
        out = []
        for rid in sorted(self._repeated):
            execs = self.executions[rid]
            by_actor: Dict[str, int] = {}
            for e in execs:
                by_actor[e["actor"]] = by_actor.get(e["actor"], 0) + 1
            if any(n >= 2 for n in by_actor.values()):
                out.append((rid, execs))
        return out

    def summary(self) -> Dict[str, int]:
        doubles = self.double_executions()
        cross_actor = sum(
            1 for execs in self.executions.values()
            if len(execs) >= 2
            and len({e["actor"] for e in execs}) == len(execs))
        return {"executions": self.total,
                "request_ids": len(self.executions),
                "same_actor_doubles": len(doubles),
                "cross_actor_reexecutions": cross_actor}


class DurabilityMonitor(Monitor):
    """Every acked write is readable after any crash-and-recovery (PR 8).

    The replication design is primary/backup, not consensus, so the
    contract has a boundary: an ack is *binding* when the host that
    issued it is still the settled primary after the quiesce (it kept or
    reclaimed its role across any crash, so its durable image is the
    authoritative one).  Acks from a deposed primary or from a reign cut
    short by a partition are excused -- asynchronous fan-out means a
    promoted backup may legitimately miss the deposed primary's tail,
    and that loss is the known failover cost, not a storage bug.  What
    is *never* excused is the crash-reclaim path: a primary that synced,
    acked, crashed, and came back must still hold every acked value.
    With ``ReplicatedStore.sync_before_ack`` patched out the barrier is
    gone and this monitor is what goes red -- the falsifiability check.

    db rule: each ``(table, key)`` is judged by its highest-``seq`` ack
    in the last reign (``epoch``) that acked it -- acks land in stream-
    completion order, and a reclaimed primary may restart its numbering
    from a snapshot.  If that ack came from the current primary's host
    on a connected network, the primary's durable table must read
    exactly the acked value (or lack the key, for a delete).  NS rule:
    for every ack carried by the current master's reign, the master's
    change log must still cover ``seq`` with that epoch (or have
    compacted past it).
    """

    name = "durability"

    def finish(self) -> List[Violation]:
        return self._check_db() + self._check_ns()

    def _sole_primary(self, kind: str):
        primaries = [store.owner
                     for _ip, store in live_replicas(self.cluster, kind)
                     if store.is_primary]
        return primaries[0] if len(primaries) == 1 else None

    def _check_db(self) -> List[Violation]:
        primary = self._sole_primary("db")
        if primary is None:
            return []   # none, or unsettled primaryship: nothing to judge
        reign: Dict[tuple, tuple] = {}   # (table, key) -> its last epoch
        top: Dict[tuple, dict] = {}      # (cell, epoch) -> highest-seq ack
        for ack in self.cluster.kernel.ledger.db_acks:
            cell = (ack["table"], ack["key"])
            reign[cell] = ack["epoch"]
            held = top.get((cell, ack["epoch"]))
            if held is None or ack["seq"] > held["seq"]:
                top[(cell, ack["epoch"])] = ack
        out: List[Violation] = []
        disk = primary.host.disk
        for (table, key), epoch in sorted(reign.items()):
            ack = top[((table, key), epoch)]
            if ack["partitioned"] or ack["ip"] != primary.host.ip:
                continue
            row = read_row(disk, table, key, _ABSENT)
            if isinstance(row, CorruptBlob):
                out.append(self._violation(
                    f"db row {table}/{key} unreadable on primary "
                    f"{primary.host.ip}; acked write (seq "
                    f"{ack['seq']}) is gone"))
            elif ack["deleted"]:
                if row is not _ABSENT:
                    out.append(self._violation(
                        f"db {table}/{key}: acked delete (seq {ack['seq']}) "
                        f"resurrected as {row!r}"))
            elif row is _ABSENT:
                out.append(self._violation(
                    f"db {table}/{key}: acked write {ack['value']!r} "
                    f"(seq {ack['seq']}) lost after recovery"))
            elif row != ack["value"]:
                out.append(self._violation(
                    f"db {table}/{key}: acked value {ack['value']!r} "
                    f"(seq {ack['seq']}) reads back {row!r}"))
        return out

    def _check_ns(self) -> List[Violation]:
        master = self._sole_primary("ns")
        if master is None:
            return []   # none, or split mastership: ns_agreement's problem
        out: List[Violation] = []
        log = master.changelog
        for ack in self.cluster.kernel.ledger.ns_acks:
            if ack["partitioned"] or ack["epoch"] != master.epoch:
                continue
            seq = ack["seq"]
            if seq <= log.base_seq:
                continue   # compacted into the snapshot: durable
            if log.epoch_at(seq) != ack["epoch"]:
                out.append(self._violation(
                    f"ns seq {seq} ({ack['op'][0]} {ack['op'][1]}): acked "
                    f"in epoch {ack['epoch']} but the master log "
                    f"{'ends at ' + str(log.seq) if seq > log.seq else 'holds another reign there'}"))
        return out


class AtMostOnceMonitor(Monitor):
    """No non-idempotent request id executes twice on one server (PR 9).

    Under duplication, reordering, and retry-after-timeout the network
    hands a server the same call envelope more than once; the reply
    cache must collapse every re-arrival onto the single execution.  The
    monitor reads the kernel-resident :class:`EvidenceLedger` and flags
    any request id with two executions by the same actor (``ip/pid``).
    Cross-actor re-execution after a rebind is excused -- see
    :meth:`EvidenceLedger.double_executions`.  A corrupt frame that
    reaches dispatch (``corrupt_dispatched``, counted past the checksum
    guard, on live runtimes and those the ledger retired) is a violation
    too: its payload cannot be trusted to be the request it claims.
    Falsifiable both ways: with ``OCSRuntime._dedup_key`` patched to
    return None, or ``_checksum_fails`` to accept every frame (the
    sabotage fixtures), a hostile schedule makes exactly this monitor go
    red.
    """

    name = "at_most_once"

    def bind(self, cluster, injector, params, context) -> None:
        super().bind(cluster, injector, params, context)
        self._reported: set = set()
        self._corrupt_reported = 0

    def check(self) -> List[Violation]:
        out: List[Violation] = []
        cluster = self.cluster
        ledger = cluster.kernel.ledger
        corrupt = ledger.retired.get("ocs.corrupt_dispatched", 0) + sum(
            runtime.corrupt_dispatched
            for runtime in live_runtimes(cluster.servers + cluster.settops))
        if corrupt > self._corrupt_reported:
            out.append(self._violation(
                f"{corrupt - self._corrupt_reported} corrupt frame(s) "
                f"reached dispatch ({corrupt} this run)"))
            self._corrupt_reported = corrupt
        for rid, execs in ledger.double_executions():
            if rid in self._reported:
                continue
            self._reported.add(rid)
            times = ", ".join(f"{e['t']:.3f}@{e['actor']}" for e in execs)
            out.append(self._violation(
                f"request {rid[0]}#{rid[1]} ({execs[0]['method']}) "
                f"executed {len(execs)}x: {times}"))
        return out

    finish = check


def default_monitors() -> List[Monitor]:
    """The full invariant catalog, fresh instances."""
    return [CscPrimaryMonitor(), NsAgreementMonitor(),
            AuditConvergenceMonitor(), CacheCoherenceMonitor(),
            SettopServiceMonitor(), FutureLeakMonitor(),
            ExpiredWorkMonitor(), QueueBoundMonitor(),
            HbRaceMonitor(), ReplicaLagMonitor(),
            DurabilityMonitor(), AtMostOnceMonitor()]


class MonitorBus:
    """Runs every monitor on a cadence and collects violations.

    Violations are also emitted as ``chaos.violation`` trace events, so
    the run's digest distinguishes a clean run from a failing one.
    """

    def __init__(self, cluster: Cluster, injector: FaultInjector,
                 params: Params, context: Optional[dict] = None,
                 monitors: Optional[List[Monitor]] = None):
        self.cluster = cluster
        self.monitors = monitors if monitors is not None else default_monitors()
        self.violations: List[Violation] = []
        cluster.kernel.ledger = EvidenceLedger(cluster)
        for monitor in self.monitors:
            monitor.bind(cluster, injector, params, context or {})

    def probe(self) -> int:
        """One periodic sweep; returns the cumulative violation count."""
        for monitor in self.monitors:
            self._record(monitor.check())
        return len(self.violations)

    def finish(self) -> int:
        """The final sweep after the quiesce."""
        for monitor in self.monitors:
            self._record(monitor.finish())
        return len(self.violations)

    def _record(self, found: List[Violation]) -> None:
        for violation in found:
            self.cluster.trace.emit("chaos", "violation",
                                    monitor=violation.monitor,
                                    detail=violation.detail)
            self.violations.append(violation)

    def monitor(self, name: str) -> Monitor:
        for m in self.monitors:
            if m.name == name:
                return m
        raise KeyError(name)
