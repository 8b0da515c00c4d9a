"""Name-service replica: master/slave replication, election, auditing.

Section 4.6: "Because the name service is essential to all services, it
is replicated on every server node with master-slave replication.  The
master is elected using a majority scheme similar to the one in the Echo
file system.  Once a master is elected, all updates are forwarded to the
master, which serializes them and multicasts them to the slaves.  Any
name service replica can process a resolve or list operation without
contacting the master."

Section 4.7: the name service "uses the Resource Audit Service to
determine if a service object is alive or dead ... and removes an object
within a few seconds of its death" -- the master polls its local RAS
every ``Params.ns_audit_poll`` seconds (section 9.7).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import repro.core.naming.interfaces  # noqa: F401 - registers IDL types
from repro.core.naming.context import ContextServant
from repro.core.naming.errors import (
    NameNotFound,
    NamingError,
    NoMaster,
    NotAContext,
    SelectorFailed,
)
from repro.core.naming.selectors import SelectorState, run_builtin
from repro.core.naming.store import SELECTOR_NAME, NameStore, join_name, split_name
from repro.core.params import (
    NS_ELECTION_TIMEOUT,
    NS_HEARTBEAT,
    NS_PORT,
    RAS_CALL_TIMEOUT,
    Params,
)
from repro.core.replication import ReplicatedStore
from repro.idl import lookup_interface
from repro.net.network import Network
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.objref import ANY_INCARNATION, ObjectRef
from repro.ocs.runtime import CallContext, OCSRuntime
from repro.sim.host import DiskWedged, Host, Process
from repro.sim.kernel import Semaphore, gather
from repro.sim.rand import SeededRandom, stable_seed
from repro.sim.trace import TraceLog

ROOT_OID = ""
REPLICA_OID = "replica"

# CPU cost of one resolve on a replica (mid-90s SGI Challenge scale: a
# couple of thousand lookups per second per node).
RESOLVE_CPU_SECONDS = 0.0005


def _context_oid(path: str) -> str:
    return ROOT_OID if path == "" else f"ctx:{path}"


#: on-disk key of the replica's change log; its header is the one
#: durable record of the name tree (the log's checkpoint)
LOG_KEY = "ns/changelog"


class NameReplicaProcess:
    """One name-service replica: the ``ns`` process on a server."""

    def __init__(self, process: Process, runtime: OCSRuntime, params: Params,
                 replica_ips: List[str], rng: Optional[SeededRandom] = None,
                 trace: Optional[TraceLog] = None):
        self.process = process
        self.runtime = runtime
        self.kernel = process.kernel
        self.params = params
        self.ip = runtime.ip
        self.replica_ips = sorted(replica_ips)
        if self.ip not in self.replica_ips:
            raise ValueError(f"{self.ip} not in the replica set {replica_ips}")
        self.rng = rng or SeededRandom(stable_seed("ns", self.ip))
        self.trace = trace
        self.store = NameStore()
        self.repl = ReplicatedStore(self, runtime, params, "ns", LOG_KEY,
                                    checkpoint=True)
        self.changelog = self.repl.log
        self.selector_state = SelectorState(rng=self.rng.stream("selectors"))
        self._cpu = Semaphore(self.kernel, 1)
        # -- election state (Echo-style majority voting) ----------------
        self.role = "slave"                  # slave | candidate | master
        self.epoch = 0
        self.voted_for: Optional[str] = None
        self.master_ip: Optional[str] = None
        self.last_heartbeat = self.kernel.now
        self._election_timeout = self._new_timeout()
        # -- metrics ------------------------------------------------------
        self.resolves_served = 0
        self.updates_forwarded = 0
        self.updates_applied = 0
        self.audit_removals = 0
        self._restore_from_disk()
        # -- exports -------------------------------------------------------
        self._context_servants: Dict[str, ContextServant] = {}
        self.runtime.export(self, "NameReplica", object_id=REPLICA_OID)
        self._sync_context_exports()
        self.process.create_task(self._watchdog(), name="ns-watchdog").detach()

    # ------------------------------------------------------------------
    # public helpers
    # ------------------------------------------------------------------

    @property
    def quorum(self) -> int:
        return len(self.replica_ips) // 2 + 1

    @property
    def is_primary(self) -> bool:
        """Monitor probe: is this replica the acting master?"""
        return self.role == "master" and self.process.alive

    @property
    def catch_ups(self) -> int:
        return self.repl.catch_ups   # read by benchmarks/e2e/layers.py

    def leaf_bindings(self) -> List[Tuple[str, ObjectRef]]:
        """Monitor probe: the auditable leaf bindings of this replica's view.

        Only incarnation-specific references are returned -- wildcard
        (bootstrap) references never go stale, so the dead-binding audit
        (section 4.7) and the chaos audit-convergence monitor both ignore
        them.
        """
        return [(path, ref) for path, ref in self.store.iter_leaf_bindings()
                if ref.incarnation != ANY_INCARNATION]

    def context_ref(self, path: str, kind: str = "context") -> ObjectRef:
        """A persistent reference to one of this replica's contexts.

        Context references carry the wildcard incarnation: "name service
        context objects are persistent so that they can be activated on
        demand" (section 9.2).
        """
        type_id = "ReplicatedContext" if kind == "replicated" else "NamingContext"
        return ObjectRef(ip=self.ip, port=self.runtime.port,
                         incarnation=ANY_INCARNATION, type_id=type_id,
                         object_id=_context_oid(path))

    def root_ref(self) -> ObjectRef:
        return self.context_ref("")

    def peer_replica_ref(self, ip: str) -> ObjectRef:
        return ObjectRef(ip=ip, port=NS_PORT,
                         incarnation=ANY_INCARNATION, type_id="NameReplica",
                         object_id=REPLICA_OID)

    def emit(self, event: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit("ns", event, replica=self.ip, **fields)

    # ------------------------------------------------------------------
    # resolution (reads: served locally, never contact the master)
    # ------------------------------------------------------------------

    async def op_resolve(self, path: str, caller_ip: str):
        """Resolve an absolute path on behalf of ``caller_ip``."""
        self.resolves_served += 1
        # Model the replica's CPU: resolves are cheap ("the resolve
        # operation is quite fast", section 8.2) but not free, so one
        # replica has finite lookup capacity and capacity grows with
        # replicas (section 4.6) -- experiment E4b measures exactly this.
        await self._cpu.acquire()
        try:
            await self.kernel.sleep(RESOLVE_CPU_SECONDS)
        finally:
            self._cpu.release()
        walked = await self._walk(path, caller_ip)
        if walked[0] == "remote":
            _tag, ref, rest = walked
            return await self.runtime.invoke(ref, "resolveFor",
                                             (rest, caller_ip),
                                             timeout=self.params.call_timeout)
        _tag, node, prefix = walked
        while node.kind == "replicated":
            # Resolving the replicated context itself: the selector
            # chooses which member to return (Figure 6).
            chosen = await self._select(node, prefix, caller_ip)
            node = node.bindings[chosen]
            prefix.append(chosen)
        if node.kind == "leaf":
            return node.ref
        return self.context_ref(join_name(prefix), node.kind)

    async def op_list(self, path: str, caller_ip: str):
        """List bindings; a replicated context lists its *selected* member."""
        walked = await self._walk(path, caller_ip)
        if walked[0] == "remote":
            _tag, ref, rest = walked
            return await self.runtime.invoke(ref, "list", (rest,),
                                             timeout=self.params.call_timeout)
        _tag, node, prefix = walked
        if node.kind == "replicated":
            chosen = await self._select(node, prefix, caller_ip)
            child = node.bindings[chosen]
            return [(chosen, child.kind, child.ref)]
        if node.kind == "leaf":
            # A remotely implemented context bound as a leaf: delegate.
            if lookup_interface(node.ref.type_id).is_a("NamingContext"):
                return await self.runtime.invoke(
                    node.ref, "list", ("",), timeout=self.params.call_timeout)
            raise NotAContext(path)
        return [(name, child.kind, child.ref)
                for name, child in sorted(node.bindings.items())]

    async def op_list_repl(self, path: str, caller_ip: str):
        """``listRepl``: binding information about *all* members."""
        walked = await self._walk(path, caller_ip)
        if walked[0] == "remote":
            _tag, ref, rest = walked
            return await self.runtime.invoke(ref, "listRepl", (rest,),
                                             timeout=self.params.call_timeout)
        _tag, node, _prefix = walked
        if node.kind != "replicated":
            raise NotAContext(f"{path!r} is not a replicated context")
        return [(name, child.kind, child.ref) for name, child in node.members()]

    async def _walk(self, path: str, caller_ip: str):
        """Walk to the named node, or hand off at a remote context.

        Returns ``("local", node, prefix)`` or ``("remote", ref, rest)``:
        a leaf naming a context implemented by another name service
        (section 4.3, third class) takes the rest of the lookup.
        """
        components = split_name(path)
        node = self.store.root
        prefix: List[str] = []
        i = 0
        while i < len(components):
            comp = components[i]
            if node.kind == "leaf":
                if lookup_interface(node.ref.type_id).is_a("NamingContext"):
                    return ("remote", node.ref, join_name(components[i:]))
                raise NotAContext(join_name(prefix))
            if node.kind == "replicated" and comp not in node.bindings:
                if comp == SELECTOR_NAME:
                    raise NameNotFound(f"{join_name(prefix)}/selector")
                # Figure 7: the selector picks the member context in which
                # to complete the lookup; the component is not consumed.
                chosen = await self._select(node, prefix, caller_ip)
                node = node.bindings[chosen]
                prefix.append(chosen)
                continue
            node = self.store.child(node, comp)
            prefix.append(comp)
            i += 1
        return ("local", node, prefix)

    async def _select(self, node, prefix: List[str], caller_ip: str) -> str:
        path = join_name(prefix)
        members = node.members()
        if not members:
            raise SelectorFailed(f"replicated context {path!r} has no members")
        bindings = []
        for name, child in members:
            if child.kind == "leaf":
                bindings.append((name, child.ref))
            else:
                bindings.append(
                    (name, self.context_ref(join_name(prefix + [name]), child.kind)))
        spec = node.selector
        if spec[0] == "builtin":
            return run_builtin(spec[1], bindings, caller_ip, path,
                               self.selector_state)
        # Custom Selector object (Figure 6): invoked remotely.
        chosen = await self.runtime.invoke(
            spec[1], "select", (bindings, caller_ip),
            timeout=self.params.call_timeout)
        if not any(chosen == name for name, _ in bindings):
            raise SelectorFailed(
                f"selector for {path!r} chose unknown member {chosen!r}")
        return chosen

    # ------------------------------------------------------------------
    # updates (writes: serialized through the master)
    # ------------------------------------------------------------------

    async def op_mutate(self, op: tuple):
        """Entry point for update operations arriving at this replica."""
        remote = self._locate_remote_for_update(op[1])
        if remote is not None:
            ref, rest = remote
            await self._delegate_update(ref, rest, op)
            return
        await self.submit_update(op)

    def _locate_remote_for_update(self, path: str) -> Optional[Tuple[ObjectRef, str]]:
        """Does this path cross into a remotely implemented context?"""
        node = self.store.root
        components = split_name(path)
        for i, comp in enumerate(components):
            if node.kind == "leaf":
                if lookup_interface(node.ref.type_id).is_a("NamingContext"):
                    return node.ref, join_name(components[i:])
                raise NotAContext(join_name(components[:i]))
            if comp not in node.bindings:
                return None  # create/bind below a local context
            node = node.bindings[comp]
        return None

    async def _delegate_update(self, ref: ObjectRef, rest: str, op: tuple):
        kind = op[0]
        timeout = self.params.call_timeout
        if kind == "bind":
            await self.runtime.invoke(ref, "bind", (rest, op[2]), timeout=timeout)
        elif kind == "unbind":
            await self.runtime.invoke(ref, "unbind", (rest,), timeout=timeout)
        elif kind == "mkcontext":
            await self.runtime.invoke(ref, "bindNewContext", (rest,), timeout=timeout)
        elif kind == "mkrepl":
            await self.runtime.invoke(ref, "bindReplContext", (rest, op[2]),
                                      timeout=timeout)
        elif kind == "setselector":
            await self.runtime.invoke(ref, "setSelector", (rest, op[2]),
                                      timeout=timeout)
        else:
            raise NamingError(f"cannot delegate op {kind!r}")

    async def submit_update(self, op: tuple) -> int:
        if self.role == "master":
            return self._master_apply(op)
        if self.master_ip is None:
            raise NoMaster("no name-service master elected yet")
        self.updates_forwarded += 1
        try:
            seq, epoch, applied_op = await self.runtime.invoke(
                self.peer_replica_ref(self.master_ip), "forwardUpdate", (op,),
                timeout=self.params.call_timeout)
        except ServiceUnavailable as err:
            self._suspect_master()
            raise NoMaster(f"master {self.master_ip} unreachable: {err}") from err
        # Apply locally right away so the caller reads its own write; the
        # master's multicast of the same seq is deduplicated.
        self.repl.ingest(seq, epoch, applied_op)
        return seq

    def _master_apply(self, op: tuple) -> int:
        self.store.check(op)
        self.store.apply(op)
        seq = self.changelog.append(op, self.epoch)
        self.repl.sync_before_ack()
        self.updates_applied += 1
        self._sync_context_exports()
        self.emit("update", seq=seq, op=op[0], path=op[1])
        # The master is the decision point for this name-space mutation;
        # replica ingests are fan-out copies of the same decision and do
        # not emit.  Two masters deciding *conflicting* updates without a
        # happens-before path between them is the split-brain write the
        # hb race detector exists to flag.  The version is the op content
        # alone -- not the seq -- because two masters independently
        # applying the identical repair (e.g. both audit-unbind the same
        # dead binding across an election) converge and are not a race.
        self.runtime.hb_write(f"ns:{op[1]}", ver=repr(op))
        entry = (seq, self.epoch, op)
        for peer in self.replica_ips:
            if peer != self.ip:
                # Best-effort push; a missed peer streams the gap from
                # the change log on the next heartbeat (O(gap) ops).
                self.runtime.invoke(self.peer_replica_ref(peer),
                                    "applyUpdates", (seq - 1, [entry]),
                                    timeout=self.params.call_timeout).detach()
        ledger = self.kernel.ledger
        if ledger is not None:
            ledger.ack_ns(self.ip, self.epoch, seq, op)
        return seq

    def _sync_context_exports(self) -> None:
        """Keep one exported context object per tree context (section 9.2)."""
        wanted = set(self.store.context_paths())
        current = set(self._context_servants)
        for path in sorted(wanted - current):
            servant = ContextServant(self, path)
            self._context_servants[path] = servant
            self.runtime.export(servant, self._kind_of(path),
                                object_id=_context_oid(path))
        for path in sorted(current - wanted):
            del self._context_servants[path]
            self.runtime.unexport(_context_oid(path))

    def _kind_of(self, path: str) -> str:
        node = self.store.get_node(path)
        return "ReplicatedContext" if node.kind == "replicated" else "NamingContext"

    # ------------------------------------------------------------------
    # state transfer and restart: what ReplicatedStore asks of its owner
    # ------------------------------------------------------------------

    def _restore_from_disk(self) -> None:
        """Online bootstrap: the log's checkpoint, then its retained tail.

        The change log reopens self-consistent whatever the disk did to
        it (PR 8 storage fault model): the tree it checkpointed and the
        entries that still chain from there.  What it lost is repaired
        from a peer via the normal catch-up -- never a crash, never
        silent divergence.
        """
        log = self.changelog
        covered = 0
        if log.checkpoint_state is not None:
            self.store.load_snapshot(log.checkpoint_state)
            covered = log.checkpoint_state["seq"]
        # Retained entries at or below the checkpoint's cursor are already
        # in its tree, and replaying them is not harmless: a covered bind
        # under a context that a later covered entry removed has no parent.
        for seq, _epoch, op in log.entries:
            if seq > covered:
                self.store.apply(op)
        if log.recovered_corrupt or log.recovered_truncated:
            self.emit("restore_corrupt", snapshot=log.recovered_corrupt,
                      log_truncated=log.recovered_truncated, seq=log.seq)
            self.repl.schedule_catch_up()
        if log.seq:
            self.emit("restored", seq=log.seq)

    def knows_primary(self) -> bool:
        return self.master_ip not in (None, self.ip)

    async def primary_ref(self) -> ObjectRef:
        return self.peer_replica_ref(self.master_ip)

    def apply_op(self, seq: int, op: tuple) -> None:
        self.store.apply(op)
        self.updates_applied += 1
        self._sync_context_exports()

    def caught_up(self, from_seq: int, applied: int) -> bool:
        # Zero-op pulls are reported too: a new reign's fork check that
        # found shared history is worth seeing in the trace.
        self.emit("catch_up", from_seq=from_seq,
                  to_seq=self.changelog.seq, ops=applied)
        return True

    def snapshot_state(self) -> dict:
        return self.store.snapshot()

    def install_snapshot(self, body: dict) -> None:
        self.store.load_snapshot(body)
        self._sync_context_exports()

    # ------------------------------------------------------------------
    # election (Echo-style majority voting)
    # ------------------------------------------------------------------

    def _new_timeout(self) -> float:
        low, high = NS_ELECTION_TIMEOUT
        return self.rng.uniform(low, high)

    def _suspect_master(self) -> None:
        """A forward failed: treat it as a missed heartbeat, fast-path."""
        self.last_heartbeat = min(self.last_heartbeat,
                                  self.kernel.now - self._election_timeout)

    async def _watchdog(self) -> None:
        """Slave-side failure detector driving elections."""
        while True:
            await self.kernel.sleep(1.0)
            if self.role == "master":
                continue
            if self.kernel.now - self.last_heartbeat >= self._election_timeout:
                await self._run_election()

    async def _run_election(self) -> None:
        self.role = "candidate"
        self.epoch += 1
        epoch = self.epoch
        self.voted_for = self.ip
        self.emit("election_started", epoch=epoch)
        my_seq = self.changelog.seq
        peers = [p for p in self.replica_ips if p != self.ip]
        calls = [self.runtime.invoke(self.peer_replica_ref(p), "requestVote",
                                     (epoch, self.ip, my_seq), timeout=2.0)
                 for p in peers]
        results = await gather(self.kernel, calls, return_exceptions=True)
        if self.epoch != epoch or self.role != "candidate":
            return  # superseded while waiting
        votes = 1
        best_seq, best_peer = my_seq, None
        for peer, res in zip(peers, results):
            if isinstance(res, BaseException):
                continue
            granted, peer_seq = res
            if granted:
                votes += 1
                if peer_seq > best_seq:
                    best_seq, best_peer = peer_seq, peer
        if votes >= self.quorum:
            # Adopt the most up-to-date granter's state before serving:
            # an incremental pull from its change log (snapshot only if
            # our histories forked or its log was truncated).
            if best_peer is not None:
                try:
                    await self.repl.pull(self.peer_replica_ref(best_peer),
                                         timeout=2.0)
                except (ServiceUnavailable, DiskWedged):
                    pass
            if self.epoch != epoch or self.role != "candidate":
                return
            self.role = "master"
            self.master_ip = self.ip
            self.emit("master_elected", epoch=epoch, votes=votes)
            self.process.create_task(self._master_heartbeats(epoch),
                                     name="ns-heartbeats").detach()
            self.process.create_task(self._audit_loop(epoch), name="ns-audit").detach()
        else:
            self.role = "slave"
            self.last_heartbeat = self.kernel.now
            self._election_timeout = self._new_timeout()

    async def _master_heartbeats(self, epoch: int) -> None:
        """Beacon to slaves, and verify we still command a majority.

        "Availability is improved because the name service is available as
        long as a majority of replicas are alive" -- the flip side is that
        a master that can no longer reach a majority (partition, mass
        failure) must stop serving updates, or a second master elected on
        the other side would fork the name space.
        """
        missed_rounds = 0
        while self.role == "master" and self.epoch == epoch:
            peers = [p for p in self.replica_ips if p != self.ip]
            probes = [self.runtime.invoke(self.peer_replica_ref(p), "heartbeat",
                                          (epoch, self.ip, self.changelog.seq),
                                          timeout=NS_HEARTBEAT)
                      for p in peers]
            reachable = 1  # self
            results = await gather(self.kernel, probes, return_exceptions=True)
            if self.role != "master" or self.epoch != epoch:
                return
            for res in results:
                if not isinstance(res, BaseException):
                    reachable += 1
            if reachable >= self.quorum:
                missed_rounds = 0
            else:
                missed_rounds += 1
                if missed_rounds >= 3:
                    self.emit("lost_quorum", epoch=epoch, reachable=reachable)
                    self.role = "slave"
                    self.master_ip = None
                    self.last_heartbeat = self.kernel.now
                    self._election_timeout = self._new_timeout()
                    return
            await self.kernel.sleep(NS_HEARTBEAT)

    # -- the ``NameReplica`` operations (replica to replica) --------------

    def requestVote(self, ctx: CallContext, epoch: int, candidate_ip: str,
                    candidate_seq: int) -> Tuple[bool, int]:
        if epoch > self.epoch:
            self.epoch = epoch
            self.voted_for = None
            if self.role == "master":
                self._step_down(candidate_ip=None)
        granted = (epoch == self.epoch
                   and self.voted_for in (None, candidate_ip)
                   and candidate_seq >= 0)
        if granted:
            self.voted_for = candidate_ip
            self.last_heartbeat = self.kernel.now  # don't start a rival bid
        return granted, self.changelog.seq

    def heartbeat(self, ctx: CallContext, epoch: int, master_ip: str,
                  seq: int) -> None:
        if epoch < self.epoch:
            return
        if epoch > self.epoch or self.master_ip != master_ip:
            self.epoch = epoch
            self.voted_for = None
            if self.role == "master" and master_ip != self.ip:
                self._step_down(candidate_ip=master_ip)
            self.master_ip = master_ip
            if master_ip != self.ip:
                self.role = "slave"
            self.emit("adopted_master", epoch=epoch, master=master_ip)
            # A new reign: our history may have forked from the new
            # master's (minority-side updates during a partition).  The
            # catch-up request carries our cursor *epoch*, so the master
            # detects a fork and answers with a snapshot; a shared
            # history costs O(gap) ops -- not the old unconditional
            # full-state fetch.
            if master_ip != self.ip:
                self.repl.schedule_catch_up()
        self.last_heartbeat = self.kernel.now
        self.repl.primary_seq = seq
        if seq > self.changelog.seq:
            self.repl.schedule_catch_up()

    def _step_down(self, candidate_ip: Optional[str]) -> None:
        self.role = "slave"
        self.master_ip = candidate_ip
        self.last_heartbeat = self.kernel.now
        self._election_timeout = self._new_timeout()
        self.emit("stepped_down", epoch=self.epoch)

    def forwardUpdate(self, ctx: CallContext,
                      op: tuple) -> Tuple[int, Any, tuple]:
        if self.role != "master":
            raise NoMaster(f"{self.ip} is not the master")
        op = tuple(op)
        seq = self._master_apply(op)
        return seq, self.epoch, op

    def applyUpdates(self, ctx: CallContext, from_seq: int, entries) -> None:
        self.repl.on_apply_updates(from_seq, entries)

    def fetchUpdates(self, ctx: CallContext, from_seq: int, from_epoch):
        return self.repl.serve_updates(from_seq, from_epoch)

    def status(self, ctx: CallContext) -> dict:
        return {"ip": self.ip, "role": self.role, "epoch": self.epoch,
                "master": self.master_ip, "seq": self.changelog.seq,
                "log_base": self.changelog.base_seq,
                "catch_ups": self.repl.catch_ups,
                "snapshot_fetches": self.repl.snapshot_fetches}

    # ------------------------------------------------------------------
    # auditing (section 4.7): remove dead objects from the name space
    # ------------------------------------------------------------------

    async def _audit_loop(self, epoch: int) -> None:
        while self.role == "master" and self.epoch == epoch:
            await self.kernel.sleep(self.params.ns_audit_poll)
            if self.role != "master" or self.epoch != epoch:
                return
            await self._audit_once()

    async def _audit_once(self) -> None:
        bindings = self.leaf_bindings()
        if not bindings:
            return
        refs = [ref for _path, ref in bindings]
        statuses = await self._check_status(refs)
        if statuses is None:
            return
        for (path, ref), status in zip(bindings, statuses):
            if status != "dead":
                continue
            # Re-check: the service may have re-bound a fresh object
            # between the poll and now.
            try:
                node = self.store.get_node(path)
            except NamingError:
                continue
            if node.kind == "leaf" and node.ref == ref:
                try:
                    self._master_apply(("unbind", path))
                    self.audit_removals += 1
                    self.emit("audit_removed", path=path)
                except (NamingError, DiskWedged):
                    # DiskWedged: the audit loop must survive a wedged
                    # local log; the removal retries next cycle.
                    pass

    async def _check_status(self, refs: List[ObjectRef]) -> Optional[List[str]]:
        """Ask a RAS replica about ``refs``: local first, peers as fallback.

        The local RAS is the cheapest oracle, but the audit must not
        have a single-point dependency on it: a gray (slow-but-alive)
        master host stretches the loopback round trip past
        ``RAS_CALL_TIMEOUT``, and without a fallback every audit cycle
        times out and dead bindings linger cluster-wide.  Peer RAS
        replicas track remote liveness through their own peer polls, so
        any of them can answer.
        """
        candidates = [self.ip] + [ip for ip in self.replica_ips
                                  if ip != self.ip]
        for ip in candidates:
            try:
                ras_ref = await self.op_resolve(f"svc/ras/{ip}", self.ip)
            except (NamingError, ServiceUnavailable):
                continue  # RAS not registered yet (booting, or host down)
            try:
                return await self.runtime.invoke(
                    ras_ref, "checkStatus", (refs,),
                    timeout=RAS_CALL_TIMEOUT)
            except ServiceUnavailable:
                continue
        return None


def start_name_replica(host: Host, network: Network, params: Params,
                       replica_ips: List[str],
                       rng: Optional[SeededRandom] = None,
                       trace: Optional[TraceLog] = None,
                       parent: Optional[Process] = None) -> NameReplicaProcess:
    """Spawn the ``ns`` process on ``host`` and return its replica object."""
    process = host.spawn("ns", parent=parent)
    runtime = OCSRuntime(process, network, port=NS_PORT)
    return NameReplicaProcess(process, runtime, params, replica_ips,
                              rng=rng, trace=trace)
