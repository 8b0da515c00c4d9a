"""Servant dispatch (ISSUE 23): one event per call, a Task only when
the servant suspends.

``OCSRuntime`` used to build a ``Task`` for every incoming call.  It now
runs the servant's first step inside the dispatch event and builds a Task
only for a coroutine that suspended there.  That must be invisible: the
Task-per-call body is kept here, verbatim, as the differential oracle, and
every observable -- what each caller hears and when, the instant of every
kernel event fired, the message count, the gate and reply-cache counters -- has to
come out identical.  The count tests then pin what the change is *for*.
"""

import gc
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.builder import fresh_run_state
from repro.idl import register_interface
from repro.idl.interface import MethodDef
from repro.idl.types import register_exception
from repro.ocs import OCSRuntime
from repro.sim import kernel as kernel_module
from tests.helpers import EventRecorder, small_gate, small_world

register_interface("DispatchToy", {
    "plain": ("value",),
    "suspends": ("duration",),
    "awaitable": ("duration",),
    "known": ("detail",),
    "unknown": ("detail",),
    "read": ("value",),
    "notify": MethodDef(name="notify", params=("value",), oneway=True),
}, idempotent=("read",), doc="one operation per way a servant can end")


@register_exception
class ToyRefused(Exception):
    pass


class Toy:
    def __init__(self, kernel):
        self.kernel = kernel
        self.executed = []

    def plain(self, ctx, value):
        self.executed.append(("plain", value))
        return value

    async def suspends(self, ctx, duration):
        self.executed.append(("suspends", duration))
        await self.kernel.sleep(duration)
        return self.kernel.now

    def awaitable(self, ctx, duration):
        self.executed.append(("awaitable", duration))
        return self.kernel.sleep(duration)

    def known(self, ctx, detail):
        raise ToyRefused(detail)

    def unknown(self, ctx, detail):
        raise ValueError(detail)

    def read(self, ctx, value):
        return (value, ctx.caller)

    def notify(self, ctx, value):
        self.executed.append(("notify", value))


class TaskPerCallRuntime(OCSRuntime):
    """The oracle: dispatch as it stood before the eager start."""

    def _dispatch(self, msg, ctx, export, mdef, key):
        self.process.create_task(
            self._run_servant(msg, ctx, export, mdef, key),
            name=f"serve-{mdef.name}").detach()


class NoHopRuntime(OCSRuntime):
    """A mutant: the eager start without the ``call_soon`` hop."""

    def _dispatch(self, msg, ctx, export, mdef, key):
        self._start_servant(msg, ctx, export, mdef, key)


# ---------------------------------------------------------------------------
# (a) differential test
# ---------------------------------------------------------------------------

OPS = ("plain", "suspends", "awaitable", "known", "unknown", "read", "notify")
# Few distinct instants, so several calls land in one: the FDDI latency
# is the same for both clients, equal send times mean equal arrivals.
SEND_AT = (0.0, 0.0, 0.001, 0.004, 0.02)
DURATIONS = (0.002, 0.03)
TIMEOUTS = (0.015, 3.0)

calls = st.fixed_dictionaries({
    "at": st.sampled_from(SEND_AT),
    "client": st.integers(0, 1),
    "op": st.sampled_from(OPS),
    "duration": st.sampled_from(DURATIONS),
    "timeout": st.sampled_from(TIMEOUTS),
    # A small id space: repeats are retries of one logical request, which
    # the reply cache parks (inflight) or replays (done).
    "request": st.one_of(st.none(), st.integers(1, 3)),
})

scripts = st.fixed_dictionaries({
    "calls": st.lists(calls, min_size=1, max_size=12),
    "lag": st.sampled_from((0.0, 0.0, 0.01)),
    "gate": st.sampled_from((None, None, (1, 1), (2, 3))),
    "kill_at": st.sampled_from((None, None, 0.0031, 0.0231)),
    # Kill the server inside the delivery of its n-th call: after the
    # dispatch event is queued, before it fires.
    "kill_on": st.one_of(st.none(), st.none(), st.integers(0, 5)),
})


class World:
    """One serving runtime under a script, and everything observable."""

    def __init__(self, runtime_cls, script):
        fresh_run_state()
        self.kernel, self.net, hosts = small_world(3)
        self.fired = EventRecorder(self.kernel).fired
        self.proc = hosts[0].spawn("toy")
        self.runtime = runtime_cls(self.proc, self.net)
        self.toy = Toy(self.kernel)
        self.ref = self.runtime.export(self.toy, "DispatchToy")
        self.runtime.servant_lag = script["lag"]
        if script["gate"] is not None:
            self.runtime.admission = small_gate(*script["gate"])
        self.clients = [OCSRuntime(host.spawn("client"), self.net)
                        for host in hosts[1:]]
        self.heard = []
        for number, call in enumerate(script["calls"]):
            self.kernel.call_later(call["at"], self.send, number, call)
        if script["kill_at"] is not None:
            self.kernel.call_later(script["kill_at"], self.proc.kill)
        if script["kill_on"] is not None:
            kill_inside_delivery(self.runtime, script["kill_on"])
        self.kernel.run(until=10.0)

    def send(self, number, call):
        client = self.clients[call["client"]]
        arg = (call["duration"] if call["op"] in ("suspends", "awaitable")
               else number)
        request_id = None
        if call["request"] is not None:
            request_id = (f"{call['client']}-{call['op']}", call["request"])
        fut = client.invoke(self.ref, call["op"], (arg,),
                            timeout=call["timeout"], request_id=request_id)
        fut.add_done_callback(
            lambda f: self.heard.append((self.kernel.now, number,
                                         call["client"], outcome(f))))

    def observed(self):
        gate, cache = self.runtime.admission, self.runtime.reply_cache
        return {
            "heard": self.heard,
            "executed": self.toy.executed,
            "fired": self.fired,
            "now": self.kernel.now,
            "sent": self.net.messages_sent,
            "dropped": self.net.messages_dropped,
            "served": self.runtime.calls_served,
            "deadline_rejects": self.runtime.deadline_rejects,
            "gate": None if gate is None else (
                gate.admitted, gate.shed_count, gate.peak_queue,
                gate.peak_inflight, gate.inflight, gate.queued),
            "cache": (cache.executions, cache.replays, cache.suppressed,
                      cache.stale_drops),
            "leaked": [t.name for t in self.proc.cancelled_tasks
                       if not t.done()],
        }


def kill_inside_delivery(runtime, nth=0):
    """Kill ``runtime``'s process at the instant its ``nth`` call is
    delivered: after ``_handle_call`` returns, so the dispatch event is
    queued but has not fired."""
    handle_call, delivered = runtime._handle_call, []

    def deliver_then_kill(msg):
        handle_call(msg)
        delivered.append(msg)
        if len(delivered) == nth + 1:
            runtime.process.kill()

    runtime._handle_call = deliver_then_kill


def outcome(fut):
    if fut.cancelled():
        return ("cancelled",)
    err = fut.exception()
    if err is not None:
        return ("raised", type(err).__name__, str(err))
    return ("returned", fut.result())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scripts)
def test_eager_dispatch_matches_the_task_per_call_oracle(script):
    assert (World(OCSRuntime, script).observed()
            == World(TaskPerCallRuntime, script).observed())


def test_the_oracle_notices_a_missing_hop():
    """Teeth: without the hop each call fires one kernel event fewer,
    which is exactly the drift the differential test exists to catch."""
    script = {"calls": [{"at": 0.0, "client": 0, "op": "plain",
                         "duration": 0.002, "timeout": 3.0, "request": None}],
              "lag": 0.0, "gate": None, "kill_at": None, "kill_on": None}
    oracle = World(TaskPerCallRuntime, script).observed()
    mutant = World(NoHopRuntime, script).observed()
    assert mutant["heard"] == oracle["heard"]
    assert len(mutant["fired"]) == len(oracle["fired"]) - 1


def test_script_space_reaches_every_path():
    """The strategies above can produce each case the oracle is for."""
    script = {
        "calls": [
            {"at": 0.0, "client": 0, "op": "suspends", "duration": 0.002,
             "timeout": 3.0, "request": 1},
            {"at": 0.001, "client": 0, "op": "suspends", "duration": 0.002,
             "timeout": 3.0, "request": 1},     # parked on the inflight one
            {"at": 0.001, "client": 1, "op": "plain", "duration": 0.002,
             "timeout": 3.0, "request": None},  # shed: gate at its bound
            {"at": 0.02, "client": 1, "op": "unknown", "duration": 0.002,
             "timeout": 3.0, "request": None},
        ],
        "lag": 0.0, "gate": (1, 1), "kill_at": None, "kill_on": None}
    seen = World(OCSRuntime, script).observed()
    assert seen == World(TaskPerCallRuntime, script).observed()
    kinds = {number: what for _t, number, _c, what in seen["heard"]}
    assert kinds[0] == kinds[1] and kinds[0][0] == "returned"
    assert kinds[2][:2] == ("raised", "Overloaded")
    assert kinds[3][:2] == ("raised", "RemoteException")
    assert seen["cache"][1:3] == (0, 1)         # no replay, one parked
    assert seen["executed"] == [("suspends", 0.002)]
    assert seen["gate"][:2] == (2, 1)


# ---------------------------------------------------------------------------
# (b) what the change is for: Tasks built per call
# ---------------------------------------------------------------------------

class CountingTasks:
    """Count ``Task`` objects built while the block runs."""

    def __enter__(self):
        self.built = 0
        self._init = kernel_module.Task.__init__
        counter = self

        def counting_init(task, *args, **kwargs):
            counter.built += 1
            counter._init(task, *args, **kwargs)

        kernel_module.Task.__init__ = counting_init
        return self

    def __exit__(self, *exc):
        kernel_module.Task.__init__ = self._init


def toy_rig():
    kernel, net, hosts = small_world(2)
    proc = hosts[0].spawn("toy")
    runtime = OCSRuntime(proc, net)
    toy = Toy(kernel)
    ref = runtime.export(toy, "DispatchToy")
    client = OCSRuntime(hosts[1].spawn("client"), net)
    return kernel, proc, runtime, toy, ref, client


N = 40


def test_non_suspending_calls_build_no_task():
    kernel, proc, runtime, _toy, ref, client = toy_rig()
    with CountingTasks() as tasks:
        futs = [client.invoke(ref, op, (i,))
                for i in range(N) for op in ("plain", "known", "notify")]
        kernel.run(until=1.0)
    assert tasks.built == 0
    assert proc._tasks == []
    assert runtime.calls_served == 3 * N
    assert [f.result() for f in futs[0::3]] == list(range(N))
    assert all(type(f.exception()) is ToyRefused for f in futs[1::3])


def test_suspending_calls_build_one_task_each():
    kernel, proc, runtime, _toy, ref, client = toy_rig()
    with CountingTasks() as tasks:
        futs = [client.invoke(ref, op, (0.01,))
                for _ in range(N // 2) for op in ("suspends", "awaitable")]
        kernel.run(until=0.005)          # delivered, every servant asleep
        assert tasks.built == N
        assert len(proc._tasks) == N
        assert {t.name for t in proc._tasks} == {"toy:serve-suspends",
                                                 "toy:serve-awaitable"}
        assert all(t.detached for t in proc._tasks)
        kernel.run(until=1.0)
    assert tasks.built == N
    assert all(f.done() and f.exception() is None for f in futs)
    assert all(t.done() for t in proc._tasks)


def test_servant_lag_suspends_even_a_plain_operation():
    kernel, proc, runtime, _toy, ref, client = toy_rig()
    runtime.servant_lag = 0.01
    with CountingTasks() as tasks:
        fut = client.invoke(ref, "plain", (7,))
        kernel.run(until=1.0)
    assert tasks.built == 1 and fut.result() == 7


# ---------------------------------------------------------------------------
# (c) process death around the dispatch instant
# ---------------------------------------------------------------------------

def test_kill_at_the_delivery_instant_reaches_no_servant():
    """Delivered at t, killed at t before the dispatch event fires: no
    servant, no reply, no admission slot begun, no coroutine created."""
    kernel, proc, runtime, toy, ref, client = toy_rig()
    runtime.admission = gate = small_gate(2, 3)
    kill_inside_delivery(runtime)
    fut = client.invoke(ref, "plain", (1,), timeout=0.5)
    sent_before_kill = []
    proc.on_exit(lambda _p: sent_before_kill.append(
        client.network.messages_sent))
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        with CountingTasks() as tasks:
            kernel.run(until=2.0)
        gc.collect()
    # A coroutine built for the dead process would die never awaited.
    assert [str(w.message) for w in warned] == []
    assert toy.executed == [] and runtime.calls_served == 0
    assert tasks.built == 0 and proc.cancelled_tasks == []
    assert (gate.admitted, gate.inflight, gate.peak_inflight) == (1, 0, 0)
    assert client.network.messages_sent == sent_before_kill[0]   # no reply
    assert type(fut.exception()).__name__ == "CallTimeout"


def test_kill_while_suspended_cancels_the_adopted_task():
    kernel, proc, runtime, toy, ref, client = toy_rig()
    fut = client.invoke(ref, "suspends", (5.0,), timeout=1.0)
    kernel.run(until=0.5)
    (task,) = proc._tasks
    proc.kill()
    assert proc.cancelled_tasks == [task] and proc._tasks == []
    kernel.run(until=3.0)
    assert task.cancelled()
    assert toy.executed == [("suspends", 5.0)]
    assert type(fut.exception()).__name__ == "CallTimeout"


def test_runtime_bug_in_the_first_step_fails_the_run():
    """What ``_run_servant`` does not marshal is a bug in the runtime,
    not in a servant.  It used to die unread in a detached Task; now it
    propagates out of the dispatch event and stops the run."""
    kernel, _proc, runtime, _toy, ref, client = toy_rig()

    def torn(msg, call_id, record, encrypted):
        raise RuntimeError("reply path bug")

    runtime._send_record = torn
    client.invoke(ref, "plain", (1,), timeout=0.5).detach()
    with pytest.raises(RuntimeError, match="reply path bug"):
        kernel.run(until=2.0)
