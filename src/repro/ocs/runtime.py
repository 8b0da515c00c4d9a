"""The per-process OCS runtime: export, dispatch, and remote invocation.

One :class:`OCSRuntime` exists per simulated process (the paper's "OCS
runtime" that IDL-generated stubs call into; here every call is
``invoke(ref, "op", args)``).  It owns a network port,
the table of exported objects, and the table of in-flight outgoing calls.
When the process dies the port is unbound, so peers invoking stale
references get a fast ``port_unreachable`` and raise
:class:`InvalidObjectReference` -- the paper's "the client will detect
this on the next attempt to use the object reference".
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.idl.errors import IDLError, NoSuchMethod
from repro.idl.interface import (InterfaceDef, MethodDef, interface_registry,
                                 lookup_interface)
from repro.idl.types import estimated_size, resolve_exception
from repro.net.message import (
    CHECKSUM_BYTES,
    DEADLINE_BYTES,
    REQUEST_ID_BYTES,
    Message,
)
from repro.net.network import Network
from repro.ocs.admission import ADMISSION_RETRY_AFTER, AdmissionGate
from repro.ocs.replycache import ReplyCache
from repro.ocs.exceptions import (
    CallTimeout,
    DeadlineExceeded,
    InvalidObjectReference,
    OCSError,
    Overloaded,
    RemoteException,
)
from repro.ocs.objref import ANY_INCARNATION, ObjectRef
from repro.sim.errors import CancelledError
from repro.sim.host import Process
from repro.sim.kernel import Future, Queue

DEFAULT_CALL_TIMEOUT = 3.0

# Section 3.3: "Calls and returns can optionally be signed and/or
# encrypted.  By default, calls are signed but not encrypted; this allows
# the server to authenticate a customer without entailing the overhead of
# encryption."  Signing cost is part of the fixed header; encryption adds
# padding + cipher framing per message.
ENCRYPTION_OVERHEAD_BYTES = 48


class CallContext(NamedTuple):
    """Per-call caller identity handed to every servant method.

    Replaces Spring-style per-client capability objects: "each incoming
    call on an object contains the caller's identity and it is up to the
    service to determine if the caller is allowed to invoke the desired
    operation" (section 9.2).  Immutable, and a tuple rather than a
    frozen dataclass: one is built per served call.
    """

    caller: str
    caller_ip: str
    authenticated: bool = False
    encrypted: bool = False
    # The call envelope's absolute deadline (every call carries one:
    # explicit when the caller propagated a budget, now + timeout
    # otherwise).  Servants that issue downstream calls on the caller's
    # behalf pass this along so expiry stays end-to-end (rule P005).
    deadline: Optional[float] = None


@dataclass
class _Export:
    servant: Any
    interface: InterfaceDef
    single_threaded: bool = False
    queue: Optional[Queue] = None


class _PendingCall:
    __slots__ = ("future", "msg", "method", "timeout_handle", "deadline")

    def __init__(self, future: Future, msg: Message, method: str,
                 timeout_handle: Any, deadline: Optional[float]):
        self.future = future
        # The call datagram, numbered by Network.send after this exists.
        self.msg = msg
        self.method = method
        self.timeout_handle = timeout_handle
        self.deadline = deadline


class OCSRuntime:
    """Object adapter + transport endpoint for one process."""

    def __init__(self, process: Process, network: Network,
                 principal: Optional[str] = None, port: Optional[int] = None):
        self.process = process
        self.network = network
        self.kernel = process.kernel
        self.ip = process.host.ip
        if self.ip is None:
            raise OCSError(f"host {process.host.name} is not attached to a network")
        # Well-known ports are used by bootstrap services (the name
        # service); everything else gets a fresh ephemeral port per
        # incarnation.
        self.port = port if port is not None else network.allocate_port()
        self._addr = (self.ip, self.port)
        # This process's identity in the happens-before graph and in
        # request ids.  Pids are monotonic and never reused within a
        # run, so ``(client_id, call_seq)`` names one logical request
        # uniquely for the lifetime of the simulation.
        self.client_id = f"{self.ip}/{process.pid}"
        self.principal = principal or f"{process.name}@{process.host.name}"
        # Optional security hooks installed by repro.auth: credentials are
        # attached to outgoing calls, the verifier checks incoming ones.
        self.credentials: Any = None
        self.verifier: Optional[Callable[[Any, str], bool]] = None
        self._exports: Dict[str, _Export] = {}
        # Activation on demand (section 9.2): the owner of per-object
        # ids it does not export maps such an id to ``(servant, type_id)``,
        # or to None when no object stands behind it.
        self.activator: Optional[Callable[[str], Optional[Tuple[Any, str]]]] = None
        self._pending: Dict[int, _PendingCall] = {}
        self._call_counter = 0
        self.calls_sent = 0
        self.calls_served = 0
        # Overload controls.  ``admission`` is installed by
        # services that opt into load shedding; ``servant_lag`` is a
        # chaos knob (slow_consumer fault) that delays every servant
        # between dequeue and execution so queues genuinely build.
        self.admission: Optional[AdmissionGate] = None
        self.servant_lag: float = 0.0
        self.deadline_rejects = 0
        self.expired_executions = 0
        # At-most-once machinery: the reply cache dedups retried
        # request ids in front of non-idempotent dispatch, and the
        # checksum guard drops corrupt frames before they reach it.
        self.reply_cache = ReplyCache()
        self.corrupt_dropped = 0
        self.corrupt_dispatched = 0
        network.bind_port(self.ip, self.port, self._on_message)
        process.on_exit(self._on_process_exit)
        process.attachments["ocs"] = self
        hb = self.kernel.hb_log
        if hb is not None:
            # Teach the happens-before analyzer which (host, pid) actor
            # answers on this endpoint; later binds win, matching port
            # reuse across process incarnations.
            hb.emit("hb", "bind", ep=f"{self.ip}:{self.port}",
                    actor=self.client_id)

    def next_request_id(self) -> Tuple[str, int]:
        """Mint a request id for one *logical* call.

        Retry loops (``RebindingProxy``) mint one id up front and pass
        it to every :meth:`invoke` attempt, so a server that already
        executed the first attempt recognizes the retry.
        """
        self._call_counter += 1
        return (self.client_id, self._call_counter)

    def hb_write(self, var: str, ver: Optional[str] = None) -> None:
        """Record a mutation of shared cluster state for the race
        detector (no-op unless the run carries an hb sink)."""
        hb = self.kernel.hb_log
        if hb is not None:
            hb.emit("hb", "write", actor=self.client_id, var=var, ver=ver)

    # -- server side ---------------------------------------------------

    def export(self, servant: Any, type_id: str, object_id: str = "",
               single_threaded: bool = False) -> ObjectRef:
        """Make ``servant`` invocable as an object of type ``type_id``.

        Most services export exactly one object with a null object id
        (paper section 9.2) -- the service itself: each IDL operation is
        a method of the same name taking the :class:`CallContext` first,
        ``def`` or ``async def`` alike.  A separate servant class is for
        per-object state only: the dynamically created objects (MDS
        movies, selectors), which pass an explicit ``object_id``.
        Naming contexts and files are not exported one by one: their
        service builds the servant per call through :attr:`activator`.
        ``single_threaded`` serializes calls through a queue, modelling
        the paper's single-threaded services that could not answer pings
        while busy (section 7.2).
        """
        iface = lookup_interface(type_id)
        if object_id in self._exports:
            raise OCSError(
                f"object id {object_id!r} already exported by {self.process.name}")
        export = _Export(servant=servant, interface=iface,
                         single_threaded=single_threaded)
        if single_threaded:
            export.queue = Queue(self.kernel)
            self.process.create_task(
                self._single_thread_worker(export), name=f"st-{type_id}").detach()
        self._exports[object_id] = export
        return ObjectRef(ip=self.ip, port=self.port,
                         incarnation=self.process.incarnation,
                         type_id=type_id, object_id=object_id)

    def unexport(self, object_id: str = "") -> None:
        self._exports.pop(object_id, None)

    # -- client side -----------------------------------------------------

    def invoke(self, ref: Optional[ObjectRef], method: str, args: tuple = (),
               timeout: float = DEFAULT_CALL_TIMEOUT,
               encrypted: bool = False,
               deadline: Optional[float] = None,
               request_id: Optional[Tuple[str, int]] = None) -> Future:
        """Invoke ``method`` on the remote object; returns a future.

        Every call carries an absolute deadline in its message envelope:
        ``deadline`` if the caller propagates one, else ``now + timeout``.
        It also carries a ``(client_id, call_seq)`` request id -- minted
        fresh here unless the caller passes one, which is how a retry
        identifies itself as the *same* logical request so the server's
        reply cache can dedup it (at-most-once execution).
        Raises (through the future) :class:`InvalidObjectReference` when
        the implementor has died, :class:`CallTimeout` when no reply
        arrives, :class:`DeadlineExceeded` when the budget expires, or
        the servant's own registered exception type.
        """
        fut = Future(self.kernel)
        if ref is None:
            fut.set_exception(InvalidObjectReference("nil object reference"))
            return fut
        iface = interface_registry.get(ref.type_id)
        plan = None if iface is None else iface.plans.get(method)
        if plan is None or len(args) != plan.arity:
            # Unplanned or malformed: build the plan, or fail with its error.
            try:
                plan = lookup_interface(ref.type_id).plan(method)
                plan.method.check_args(args)
            except IDLError as err:
                fut.set_exception(err)
                return fut
        now = self.kernel.now
        # ``hard`` distinguishes a deadline the caller explicitly
        # propagated (its expiry is DeadlineExceeded -- rebinding cannot
        # help) from one derived from the per-attempt timeout (its
        # expiry stays CallTimeout so rebind loops retry as before).
        hard = deadline is not None
        if deadline is None:
            deadline = now + timeout
        else:
            # A propagated deadline bounds the per-attempt timer too: no
            # point waiting for a reply past the caller's total budget.
            timeout = min(timeout, deadline - now)
        if deadline <= now:
            # Budget already spent: fail fast without burning the wire.
            fut.set_exception(DeadlineExceeded(
                f"deadline passed before invoking {method}"))
            return fut
        self._call_counter += 1
        call_id = self._call_counter
        self.calls_sent += 1
        if request_id is None:
            request_id = (self.client_id, call_id)
        payload = {
            "call_id": call_id,
            "request_id": request_id,
            "object_id": ref.object_id,
            "incarnation": ref.incarnation,
            "type_id": ref.type_id,
            "method": method,
            "args": args,
            "caller": self.principal,
            "credentials": self.credentials,
            "encrypted": encrypted,
        }
        wire_bytes = (estimated_size(args) + DEADLINE_BYTES
                      + REQUEST_ID_BYTES + CHECKSUM_BYTES)
        if encrypted:
            wire_bytes += ENCRYPTION_OVERHEAD_BYTES
        msg = Message(self._addr, (ref.ip, ref.port), plan.kind, payload,
                      wire_bytes, None, deadline)
        if plan.method.oneway:
            self.network.send(msg)
            fut.set_result(None)
            return fut
        handle = self.kernel.call_later(timeout, self._on_timeout, call_id)
        self._pending[call_id] = _PendingCall(
            fut, msg, method, handle, deadline if hard else None)
        self.network.send(msg)
        return fut

    # -- message handling ---------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        if not self.process.alive:
            return
        if msg.corrupted:
            if self._checksum_fails(msg):
                # Drop the frame before any dispatch.  The sender's
                # timeout machinery retries under the same request id,
                # so the op still happens once.
                self.corrupt_dropped += 1
                trace = self.network.trace
                if trace is not None:
                    trace.emit("net", "corrupt_dropped",
                               dst=f"{self.ip}:{self.port}", kind=msg.kind)
                return
            # Evidence, counted past the guard: a corrupt frame reaches
            # dispatch, which is precisely what E18 asserts never happens.
            self.corrupt_dispatched += 1
        if msg.kind.startswith("rpc.call."):
            self._handle_call(msg)
        elif msg.kind.startswith("rpc.reply"):
            self._handle_reply(msg)
        elif msg.kind == "port_unreachable":
            self._handle_unreachable(msg)

    def _handle_call(self, msg: Message) -> None:
        payload = msg.payload
        call_id = payload["call_id"]
        object_id = payload["object_id"]
        export = self._exports.get(object_id)
        if export is None and self.activator is not None:
            found = self.activator(object_id)
            if found is not None:
                export = _Export(found[0], lookup_interface(found[1]))
        incarnation_ok = (payload["incarnation"] == self.process.incarnation
                          or payload["incarnation"] == ANY_INCARNATION)
        if export is None or not incarnation_ok:
            if export is not None:
                # The object id is exported, but by a newer incarnation
                # of this process: the caller holds a reference into a
                # previous life.  Distinguishing this lets binding
                # caches invalidate precisely (coherence by exception).
                self._reply_error(msg, call_id, "StaleReference",
                                  f"stale incarnation for {object_id!r}")
            else:
                self._reply_error(msg, call_id,
                                  "InvalidObjectReference",
                                  f"no live object {object_id!r} here")
            return
        if self.verifier is not None:
            if not self.verifier(payload.get("credentials"), payload["caller"]):
                self._reply_error(msg, call_id, "AuthError",
                                  f"bad credentials from {payload['caller']}")
                return
        try:
            mdef = export.interface.plan(payload["method"]).method
        except NoSuchMethod as err:
            # Remote reach is exactly the IDL: a frame naming anything
            # else is answered here, before any getattr on the servant.
            self._reply_error(msg, call_id, "NoSuchMethod", str(err))
            return
        if (msg.deadline is not None and self.kernel.now >= msg.deadline
                and self._rejects_expired()):
            # Pre-enqueue deadline check: the call expired in flight, so
            # queueing it would only burn servant time on work nobody is
            # waiting for.  The error reply resolves the caller's future
            # (it may race the caller's own deadline timer; first wins).
            self.deadline_rejects += 1
            self._reply_error(msg, call_id, "DeadlineExceeded",
                              f"{payload['method']} expired before dispatch")
            return
        # The one consult of the dedup seam: the key rides with the call
        # to _run_servant, which aborts or completes its entry.
        key = self._dedup_key(payload, mdef)
        encrypted = bool(payload.get("encrypted"))
        if key is not None:
            # At-most-once gate: a retried or duplicated request id is
            # answered from the reply cache (or parked on the inflight
            # execution) instead of reaching the servant again.  Sits in
            # front of admission: a replay costs no servant time, so it
            # must not burn (or leak) an admission slot.
            action, entry = self.reply_cache.begin(key[0], key[1])
            if action == "replay":
                self._send_record(msg, call_id, entry.reply, encrypted)
                return
            if action == "inflight":
                entry.waiters.append((msg, call_id))
                return
            if action == "stale":
                return   # evicted duplicate: drop, never re-execute
        if self.admission is not None and not self.admission.try_admit():
            if key is not None:
                # The begin() above recorded an inflight entry for a call
                # that will now never run; forget it so the client's next
                # retry can execute.
                self.reply_cache.abort(key[0], key[1])
            self._reply_error(
                msg, call_id, "Overloaded",
                f"{self.admission.service} shedding at "
                f"inflight={self.admission.inflight} "
                f"queued={self.admission.queued}",
                retry_after=ADMISSION_RETRY_AFTER)
            return
        ctx = CallContext(payload["caller"], msg.src[0],
                          self.verifier is not None, encrypted, msg.deadline)
        if export.single_threaded:
            export.queue.put((msg, ctx, export, mdef, key))
        else:
            self._dispatch(msg, ctx, export, mdef, key)

    def _dispatch(self, msg: Message, ctx: CallContext, export: _Export,
                  mdef: MethodDef, key: Optional[Tuple[str, int]]) -> None:
        # One event per call.  The hop takes the ready-lane place a
        # Task's first-step call_soon took, so event order is unchanged.
        self.kernel.call_soon(self._start_servant, msg, ctx, export, mdef,
                              key)

    def _start_servant(self, msg: Message, ctx: CallContext, export: _Export,
                       mdef: MethodDef,
                       key: Optional[Tuple[str, int]]) -> None:
        process = self.process
        if not process.alive:
            return   # killed since delivery: the caller hears silence
        task = process.start_task(
            self._run_servant(msg, ctx, export, mdef, key))
        if task is not None:    # the servant suspended
            task.name = f"{process.name}:serve-{mdef.name}"

    async def _single_thread_worker(self, export: _Export) -> None:
        while True:
            msg, ctx, exp, mdef, key = await export.queue.get()
            await self._run_servant(msg, ctx, exp, mdef, key)

    async def _run_servant(self, msg: Message, ctx: CallContext,
                           export: _Export, mdef: MethodDef,
                           key: Optional[Tuple[str, int]]) -> None:
        payload = msg.payload
        call_id = payload["call_id"]
        method_name = mdef.name
        oneway = mdef.oneway
        gate = self.admission
        if self.servant_lag > 0:
            # slow_consumer fault: the servant is slow to pick work off
            # its queue, so admitted calls sit queued while the lag
            # elapses -- exactly the state the deadline and queue-bound
            # monitors must cope with.
            await self.kernel.sleep(self.servant_lag)
        if msg.deadline is not None and self.kernel.now >= msg.deadline:
            # Post-dequeue deadline check: the call expired while it sat
            # in the queue.  Reject instead of executing dead work.
            if self._rejects_expired():
                if gate is not None:
                    gate.drop_queued()
                self.deadline_rejects += 1
                # The request never executed: forget its inflight reply-
                # cache entry so a retry can run, and give any parked
                # duplicates the same expiry verdict.
                if key is not None:
                    for wmsg, wcall_id in self.reply_cache.abort(*key):
                        self._reply_error(wmsg, wcall_id, "DeadlineExceeded",
                                          f"{method_name} expired in queue")
                if not oneway:
                    self._reply_error(msg, call_id, "DeadlineExceeded",
                                      f"{method_name} expired in queue")
                return
            # Evidence, counted past the guard: the expired call runs,
            # which is precisely what the expired_work monitor flags.
            self.expired_executions += 1
        if gate is not None:
            gate.begin()
        self.calls_served += 1
        record: Optional[Dict[str, Any]] = None
        try:
            try:
                self._note_effect(payload, mdef)
                handler = getattr(export.servant, method_name, None)
                if handler is None:
                    raise RemoteException(
                        f"servant for {export.interface.name} does not implement "
                        f"{method_name}")
                result = handler(ctx, *payload["args"])
                if hasattr(result, "__await__"):
                    result = await result
                record = {"ok": True, "result": result}
            except CancelledError:
                # The process died mid-call; the caller must observe silence
                # (and eventually a timeout), not a marshaled cancellation.
                raise
            except Exception as err:  # noqa: BLE001 - marshal back to caller
                if oneway:
                    return
                name = type(err).__name__
                if resolve_exception(name) is None and not isinstance(err, OCSError):
                    detail = "".join(traceback.format_exception_only(type(err), err))
                    record = {"ok": False, "error": "RemoteException",
                              "detail": detail.strip()}
                else:
                    record = {"ok": False, "error": name, "detail": str(err)}
        finally:
            if gate is not None:
                gate.done()
        if oneway:
            return
        # The executed outcome (result *or* marshaled exception) is what
        # this request id did; cache it and answer everyone waiting on it.
        waiters = []
        if key is not None:
            waiters = self.reply_cache.complete(key[0], key[1], record)
        self._send_record(msg, call_id, record, ctx.encrypted)
        for wmsg, wcall_id in waiters:
            self._send_record(wmsg, wcall_id, record,
                              bool(wmsg.payload.get("encrypted")))

    # Guards are patchable methods (tests/fixtures/sabotage.py swaps them
    # the way broken_quorum() swaps a class property); the evidence
    # counters are bumped *past* them, so they are live code either way.

    def _checksum_fails(self, msg: Message) -> bool:
        """Does the envelope checksum reject this frame?"""
        return msg.corrupted

    def _rejects_expired(self) -> bool:
        """Is a call whose deadline has passed refused, not executed?"""
        return True

    def _dedup_key(self, payload: Dict[str, Any],
                   mdef: MethodDef) -> Optional[Tuple[str, int]]:
        """The reply-cache key for this call, or None when dedup does
        not apply (no request id, or the method is oneway/idempotent)."""
        request_id = payload.get("request_id")
        if request_id is None:
            return None
        if mdef.oneway or mdef.idempotent:
            return None
        return (request_id[0], request_id[1])

    def _note_effect(self, payload: Dict[str, Any], mdef: MethodDef) -> None:
        """Stamp a non-idempotent execution into the kernel's evidence
        ledger (chaos runs only) -- the at_most_once monitor's evidence."""
        ledger = self.kernel.ledger
        if ledger is None or mdef.oneway or mdef.idempotent:
            return
        request_id = payload.get("request_id")
        if request_id is None:
            return
        ledger.record((request_id[0], request_id[1]),
                      actor=self.client_id,
                      method=f"{payload['type_id']}.{payload['method']}",
                      at=self.kernel.now)

    def _send_record(self, msg: Message, call_id: int, record: Dict[str, Any],
                     encrypted: bool) -> None:
        """Send one executed outcome (fresh or replayed) as a reply."""
        if record["ok"]:
            result = record["result"]
            reply_bytes = estimated_size(result) + CHECKSUM_BYTES
            if encrypted:
                # Returns are protected the same way the call was.
                reply_bytes += ENCRYPTION_OVERHEAD_BYTES
            self.network.send(Message(
                self._addr, msg.src, "rpc.reply",
                {"call_id": call_id, "ok": True, "result": result},
                reply_bytes))
        else:
            self._reply_error(msg, call_id, record["error"], record["detail"])

    def _reply_error(self, msg: Message, call_id: int, exc_name: str,
                     detail: str, retry_after: Optional[float] = None) -> None:
        payload = {"call_id": call_id, "ok": False,
                   "error": exc_name, "detail": detail}
        if retry_after is not None:
            payload["retry_after"] = retry_after
        self.network.send(Message(
            self._addr, msg.src, "rpc.reply.error", payload,
            estimated_size(detail) + CHECKSUM_BYTES))

    def _handle_reply(self, msg: Message) -> None:
        payload = msg.payload
        pending = self._pending.pop(payload["call_id"], None)
        if pending is None:
            return  # reply raced with a timeout
        pending.timeout_handle.cancel()
        if pending.future.done():
            return
        if payload["ok"]:
            pending.future.set_result(payload["result"])
        else:
            pending.future.set_exception(
                self._materialize(payload["error"], payload["detail"],
                                  payload.get("retry_after")))

    @staticmethod
    def _materialize(exc_name: str, detail: str,
                     retry_after: Optional[float] = None) -> BaseException:
        if exc_name == "Overloaded":
            return Overloaded(detail, retry_after=retry_after or 0.0)
        cls = resolve_exception(exc_name)
        if cls is not None:
            return cls(detail)
        return RemoteException(f"{exc_name}: {detail}")

    def _handle_unreachable(self, msg: Message) -> None:
        # Rare (a call to a dead port), so a scan of this runtime's own
        # calls in flight beats a msg-id index maintained on every call.
        msg_id = msg.payload["msg_id"]
        call_id = next((call_id for call_id, pending in self._pending.items()
                        if pending.msg.msg_id == msg_id), None)
        if call_id is None:
            return
        pending = self._pending.pop(call_id)
        pending.timeout_handle.cancel()
        if not pending.future.done():
            pending.future.set_exception(InvalidObjectReference(
                f"implementor of {pending.method} has exited"))

    def _on_timeout(self, call_id: int) -> None:
        pending = self._pending.pop(call_id, None)
        if pending is None:
            return
        if pending.future.done():
            return
        if (pending.deadline is not None
                and self.kernel.now >= pending.deadline):
            # The overall budget (not just this attempt's reply timer)
            # ran out -- even if the server silently dropped the expired
            # call, the caller's future resolves here, never leaks.
            pending.future.set_exception(DeadlineExceeded(
                f"deadline passed awaiting reply to {pending.method}"))
        else:
            pending.future.set_exception(CallTimeout(
                f"no reply to {pending.method} within deadline"))

    def _on_process_exit(self, _proc: Process) -> None:
        ledger = self.kernel.ledger
        if ledger is not None:
            # Chaos runs keep a dead runtime's evidence counters.
            ledger.retire(self)
        self.network.unbind_port(self.ip, self.port)
        self._exports.clear()
        for pending in self._pending.values():
            pending.timeout_handle.cancel()
            if not pending.future.done():
                pending.future.cancel()
        self._pending.clear()
