"""Virtual-time event loop with ``async``/``await`` support.

The kernel is a classic discrete-event scheduler: a timer heap of
``(time, sequence, handle)`` entries plus a FIFO ready lane of handles
for callbacks due *at the current timestamp* (``call_soon``, and
``call_at``/``call_later`` targets that are not in the future).  Time
only advances when a timer fires, so a million
simulated seconds of idle polling costs only the poll events
themselves.  Everything above this file -- the network, OCS, the name
service, the ITV services -- is written as ordinary ``async`` code
awaiting :class:`Future` objects created here.

Future timers live in one :class:`~repro.sim.wheel.TimerHeap` of
``(when, seq, handle)`` tuples; there is no other backend.  ``run``
drains its list in place -- it reads the top, drops cancelled shells and
pops with ``heapq`` -- so an event costs no method call on the store.
``tests/test_timer_wheel.py`` checks the kernel's firing order against
a one-list reference scheduler kept in that file, in which every event
(ready or not) carries a global ``(when, seq)`` pair.

Why the ready lane needs no sequence number.  The contract is "lowest
``(when, seq)`` first", with ``seq`` the arming order.  Two facts make
the lane's FIFO position enough:

- a timer enters the heap only when it is strictly in the future
  (``when > now``), so a heap timer due at ``now`` was armed at an
  earlier instant; and
- ``now`` only moves when the ready lane is empty (a heap timer is
  served ahead of the lane only when it is due at ``now``, and
  ``run(until)`` advances the clock only after the lane drains), so
  every ready entry was queued at the current instant.

So a heap timer due at ``now`` precedes every ready entry, every ready
entry precedes every later heap timer, and within the lane FIFO order
is arming order.  The run loop serves a heap timer before the lane only
when that timer is due at ``now``.  ``call_soon`` is the hottest
scheduling call (every future completion funnels through it): it is a
deque append of a :class:`TimerHandle` that takes no sequence number,
as is a ``call_at``/``call_later`` that is not in the future.

Determinism: ties in time are broken by arming order, and all
randomness in the simulation goes through :class:`repro.sim.rand.SeededRandom`,
so two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

import weakref
from collections import deque
from heapq import heappop
from math import inf
from typing import Any, Callable, Iterable, List, Optional

from repro.sim.errors import (
    CancelledError,
    InvalidStateError,
    SimTimeoutError,
)
from repro.sim.wheel import TimerHeap

_PENDING = "PENDING"
_DONE = "DONE"
_CANCELLED = "CANCELLED"


class Future:
    """A write-once result container bound to a :class:`Kernel`.

    Mirrors the asyncio future API closely enough that simulated services
    read like ordinary async Python, but completion callbacks are scheduled
    on the *virtual* clock (same timestamp, behind what is already queued).
    """

    __slots__ = ("_kernel", "_state", "_result", "_exception", "_callbacks",
                 "__weakref__")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def kernel(self) -> "Kernel":
        return self._kernel

    def done(self) -> bool:
        return self._state != _PENDING

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def result(self) -> Any:
        if self._state == _CANCELLED:
            raise CancelledError("future was cancelled")
        if self._state == _PENDING:
            raise InvalidStateError("result is not ready")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        if self._state == _CANCELLED:
            raise CancelledError("future was cancelled")
        if self._state == _PENDING:
            raise InvalidStateError("result is not ready")
        return self._exception

    def set_result(self, value: Any) -> None:
        if self._state != _PENDING:
            raise InvalidStateError("future already completed")
        self._state = _DONE
        self._result = value
        if self._callbacks:
            self._schedule_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise InvalidStateError("future already completed")
        if isinstance(exc, type):
            exc = exc()
        self._state = _DONE
        self._exception = exc
        if self._callbacks:
            self._schedule_callbacks()

    def cancel(self) -> bool:
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        if self._callbacks:
            self._schedule_callbacks()
        return True

    def detach(self) -> "Future":
        """Declare this future fire-and-forget.

        The creator promises nothing will await the result: background
        loops that live until their process dies, best-effort
        notifications, and the like.  Lint rule P004 flags a detached
        two-way reply.  Returns ``self`` so creation sites read
        ``kernel.create_task(coro).detach()``.
        """
        return self

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._state == _PENDING:
            self._callbacks.append(fn)
        else:
            self._kernel.call_soon(fn, self)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._kernel.call_soon(cb, self)

    def __await__(self):
        if self._state == _PENDING:
            yield self
        if self._state == _DONE:
            if self._exception is None:
                return self._result
            # The error's traceback holds this frame: drop the frame's
            # reference to the future, which holds the error, so the
            # two make no cycle.
            try:
                raise self._exception
            finally:
                self = None
        return self.result()    # cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self._state} at t={self._kernel.now:.3f}>"


class Task(Future):
    """Drives a coroutine to completion on the kernel.

    A task is itself a future completing with the coroutine's return value.
    Cancelling a task throws :class:`CancelledError` into the coroutine at
    its current await point -- this is how process death tears down a
    service's internal loops.
    """

    __slots__ = ("_coro", "name", "_waiting_on", "_must_cancel", "_coro_closer")

    def __init__(self, kernel: "Kernel", coro, name: str = "task",
                 started: bool = False):
        super().__init__(kernel)
        self._coro = coro
        self.name = name
        self._waiting_on: Optional[Future] = None
        self._must_cancel = False
        self._coro_closer = None
        if started:
            # Kernel.start_task parks us; a started coroutine warns
            # about nothing when it dies, so it needs no closer.
            return
        # Teardown hygiene: a task scheduled just before its kernel stops
        # never gets a first _step, leaving the coroutine unstarted.  A
        # plain __del__ cannot close it reliably -- task and coroutine die
        # together in one reference cycle and the coroutine's own
        # finalizer (which warns "never awaited") may run first.
        # weakref.finalize holds the coroutine alive until the task is
        # collected and is guaranteed to run before either finalizer.
        # Its registry is process-global, so _first_step drops it: kept,
        # it would pin the coroutine, its frame's kernel and the cluster.
        self._coro_closer = weakref.finalize(self, _close_coro_quietly, coro)
        kernel.call_soon(self._first_step)

    def cancel(self) -> bool:
        if self.done():
            return False
        if self._waiting_on is not None and not self._waiting_on.done():
            # Interrupt the await: cancelling the inner future resumes us,
            # and _wakeup converts the inner cancellation into one here.
            self._must_cancel = True
            self._waiting_on.cancel()
        else:
            self._must_cancel = True
        return True

    def _first_step(self) -> None:
        # A started coroutine warns about nothing when it dies.
        self._coro_closer.detach()
        self._coro_closer = None
        if self._state != _PENDING:
            self._coro.close()      # completed before it ever ran
            return
        self._step()

    def _step(self, send_value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._state != _PENDING:
            return
        if self._must_cancel:
            exc = CancelledError(f"task {self.name!r} cancelled")
            self._must_cancel = False
        self._waiting_on = None
        try:
            if exc is not None:
                yielded = self._coro.throw(exc)
            else:
                yielded = self._coro.send(send_value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except CancelledError:
            self._finish(cancelled=True)
            return
        except BaseException as err:  # repro: noqa D005 - the task stepper is the propagation boundary; failures land in the future
            self._finish(exception=err)
            return
        finally:
            # A thrown cancellation's traceback holds this frame; drop
            # the frame's reference to it so the two make no cycle.
            exc = None
        self._park(yielded)

    def _park(self, yielded: Any) -> None:
        if not isinstance(yielded, Future):
            self._finish(
                exception=RuntimeError(
                    f"task {self.name!r} awaited a non-kernel awaitable: {yielded!r}"
                )
            )
            return
        self._waiting_on = yielded
        if yielded._state == _PENDING:
            yielded._callbacks.append(self._wakeup)
        else:
            self._kernel.call_soon(self._wakeup, yielded)

    def _wakeup(self, fut: Future) -> None:
        # Only a completed future schedules its callbacks, so fut is done.
        if self._state != _PENDING:
            return
        if fut._state == _CANCELLED:
            self._step(exc=CancelledError(f"task {self.name!r} cancelled"))
        else:
            # A failed future raises its own error from ``__await__``:
            # thrown in here, the error's traceback would hold the
            # awaiting frame and with it the future, a reference cycle.
            self._step(send_value=fut._result)

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None,
                cancelled: bool = False) -> None:
        self._coro.close()
        if cancelled:
            Future.cancel(self)
        elif exception is not None:
            self.set_exception(exception)
        else:
            self.set_result(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} {self._state}>"


def _close_coro_quietly(coro) -> None:
    """Finalizer for tasks torn down before their first step."""
    coro.close()


class Kernel:
    """The virtual-time event loop.

    Use :meth:`create_task` to start coroutines, :meth:`run` to execute
    until the event heap drains or ``until`` is reached, and :meth:`sleep`
    / :meth:`sleep_until` inside coroutines.

    ``now`` is the current simulated time, in seconds.  It is a plain
    attribute for speed; only the run loop writes it (lint rule D011
    forbids assigning ``.now`` outside ``repro/sim/``).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._timers = TimerHeap()
        # Handles due at ``now``, in arming order; each has seq 0.
        self._ready: "deque[TimerHandle]" = deque()
        self._seq = 0               # arming order of heap timers only
        self._task_count = 0
        # The run's last pid (``Process`` takes the next one).
        self.last_pid = 0
        # Happens-before instrumentation sink (a TraceLog, usually the
        # cluster's own).  None (the default) keeps every emission site a
        # single attribute check, so runs that do not ask for HB events
        # (Params.hb_trace) stay byte-identical to the golden traces.
        self.hb_log: Optional[Any] = None
        # Chaos evidence sink (repro.chaos.monitors.EvidenceLedger, set
        # by MonitorBus): primaries record write acks and servant dispatch
        # records non-idempotent executions when one is installed.  Same
        # discipline as hb_log -- None by default so unmonitored runs pay
        # one attribute check and record nothing.
        self.ledger: Optional[Any] = None

    # -- scheduling ---------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args: Any) -> "TimerHandle":
        if when <= self.now:
            # Already due: the ready lane, which orders by position.
            handle = TimerHandle(self.now, 0, fn, args)
            self._ready.append(handle)
        else:
            self._seq += 1
            handle = TimerHandle(when, self._seq, fn, args)
            self._timers.push(handle)
        return handle

    def call_later(self, delay: float, fn: Callable,
                   *args: Any) -> "TimerHandle":
        # Body duplicated from call_at: every network delivery and every
        # sleep() comes through here, and delegating would cost an extra
        # frame plus an *args repack per timer.
        now = self.now
        when = now + delay
        if when > now:
            self._seq += 1
            handle = TimerHandle(when, self._seq, fn, args)
            self._timers.push(handle)
        else:
            # delay <= 0, or too small to move the clock: already due.
            handle = TimerHandle(now, 0, fn, args)
            self._ready.append(handle)
        return handle

    def call_soon(self, fn: Callable, *args: Any) -> "TimerHandle":
        """Schedule ``fn(*args)`` at the current timestamp (the ready lane).

        This is the hottest scheduling path -- every future completion
        callback lands here -- so it is one deque append of a handle that
        takes no sequence number (the lane orders by position).
        """
        handle = TimerHandle(self.now, 0, fn, args)
        self._ready.append(handle)
        return handle

    # -- tasks and futures --------------------------------------------

    def create_future(self) -> Future:
        return Future(self)

    def create_task(self, coro, name: Optional[str] = None) -> Task:
        self._task_count += 1
        return Task(self, coro, name=name or f"task-{self._task_count}")

    def start_task(self, coro, name: str) -> Optional[Task]:
        """Run ``coro``'s first step now; a Task only if it suspends.

        Fire-and-forget: ``None`` when that step finished (or cancelled)
        the coroutine, any other exception it raised propagates, else
        the Task that adopted the suspended coroutine.
        """
        try:
            yielded = coro.send(None)
        except (StopIteration, CancelledError):
            return None
        task = Task(self, coro, name, started=True)
        task._park(yielded)
        return task

    def sleep(self, delay: float) -> Future:
        """Return a future completing ``delay`` simulated seconds from now."""
        fut = Future(self)
        self.call_later(delay, _wake_sleeper, fut)
        return fut

    def sleep_until(self, when: float) -> Future:
        """Return a future completing at simulated time ``when``."""
        fut = Future(self)
        self.call_at(when, _wake_sleeper, fut)
        return fut

    def ensure_future(self, awaitable) -> Future:
        if isinstance(awaitable, Future):
            return awaitable
        return self.create_task(awaitable)

    # -- running ------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulated time at which the run stopped.  When
        ``until`` is given, time is advanced to exactly ``until`` even if
        the last event fired earlier (so repeated ``run(until=...)`` calls
        observe a monotone clock).
        """
        limit = inf if until is None else until
        if self.now > limit:
            return self.now     # nothing queued is due by ``until``
        timers = self._timers
        entries = timers.entries    # compaction rebuilds it in place
        ready = self._ready
        popleft = ready.popleft
        while True:
            if entries:
                when, _seq, head = entries[0]
                if head.cancelled:
                    heappop(entries)
                    if timers.shells:
                        timers.shells -= 1
                    continue
                # A heap timer due now was armed at an earlier instant,
                # so it precedes the whole ready lane (module docstring).
                if when <= self.now or not ready:
                    if when > limit:
                        break
                    heappop(entries)
                    head._store = None
                    self.now = when
                    head.fn(*head.args)
                    continue
            elif not ready:
                break
            # Nothing in the heap is due now, and nothing armed from here
            # on can be before the clock moves: drain the lane.
            head = popleft()
            if not head.cancelled:
                head.fn(*head.args)
            while ready:
                head = popleft()
                if not head.cancelled:
                    head.fn(*head.args)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_complete(self, awaitable, limit: float = 1e12) -> Any:
        """Run the loop until ``awaitable`` finishes; return its result."""
        fut = self.ensure_future(awaitable)
        while not fut.done():
            if not self._ready and self._timers.peek() is None:
                raise RuntimeError("event loop ran dry before future completed")
            if self.now > limit:
                raise SimTimeoutError(f"run_until_complete exceeded t={limit}")
            self.run_one()
        return fut.result()

    def run_one(self) -> None:
        """Process a single (non-cancelled) event."""
        timers = self._timers
        ready = self._ready
        while True:
            handle = timers.peek()
            if ready and (handle is None or handle.when > self.now):
                head = ready.popleft()
                if head.cancelled:
                    continue
                head.fn(*head.args)
            elif handle is not None:
                timers.pop()
                self.now = handle.when
                handle.fn(*handle.args)
            return

    def pending_events(self) -> int:
        return (sum(1 for _w, _s, h in self._timers.entries if not h.cancelled)
                + sum(1 for h in self._ready if not h.cancelled))


class TimerHandle:
    """A cancellable scheduled callback.

    ``_store`` is the :class:`TimerHeap` holding the handle, or None once
    it has left the heap (and always for a handle in the ready lane,
    whose ``seq`` is 0: the lane orders by position).
    """

    __slots__ = ("when", "seq", "fn", "args", "cancelled", "_store")

    def __init__(self, when: float, seq: int, fn: Callable, args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._store: Optional[TimerHeap] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Release the callback and its closed-over state immediately; the
        # shell of the handle stays queued until the run loop skips it.
        self.fn = None
        self.args = ()
        if self._store is not None:
            self._store.note_cancelled()


def _wake_sleeper(fut: Future) -> None:
    """A sleep's timer: mark its future done (unless it was cancelled)."""
    if fut._state == _PENDING:
        fut._state = _DONE
        if fut._callbacks:
            fut._schedule_callbacks()


def gather(kernel: Kernel, awaitables: Iterable, return_exceptions: bool = False) -> Future:
    """Await several awaitables; complete with the list of their results.

    With ``return_exceptions`` the result list holds exception objects for
    the entries that failed; otherwise the first failure fails the gather
    (remaining tasks keep running, as in asyncio).
    """
    futs = [kernel.ensure_future(a) for a in awaitables]
    outer = kernel.create_future()
    if not futs:
        outer.set_result([])
        return outer
    remaining = [len(futs)]

    def on_done(_fut: Future) -> None:
        remaining[0] -= 1
        if outer.done():
            return
        if not return_exceptions:
            if _fut.cancelled():
                outer.set_exception(CancelledError("gathered task cancelled"))
                return
            if _fut.exception() is not None:
                outer.set_exception(_fut.exception())
                return
        if remaining[0] == 0:
            results = []
            for f in futs:
                if f.cancelled():
                    results.append(CancelledError("cancelled"))
                elif f.exception() is not None:
                    results.append(f.exception())
                else:
                    results.append(f.result())
            outer.set_result(results)

    for f in futs:
        f.add_done_callback(on_done)
    return outer


class Event:
    """A level-triggered event: awaiting :meth:`wait` parks until set."""

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self._set = False
        self._waiters: List[Future] = []

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(True)

    async def wait(self) -> bool:
        if self._set:
            return True
        fut = self._kernel.create_future()
        self._waiters.append(fut)
        return await fut


class Queue:
    """An unbounded FIFO queue for task-to-task handoff."""

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self._items: List[Any] = []
        self._getters: List[Future] = []

    def put(self, item: Any) -> None:
        while self._getters:
            fut = self._getters.pop(0)
            if not fut.done():
                fut.set_result(item)
                return
        self._items.append(item)

    async def get(self) -> Any:
        if self._items:
            return self._items.pop(0)
        fut = self._kernel.create_future()
        self._getters.append(fut)
        return await fut


class Semaphore:
    """A counting semaphore; used to model bounded server resources."""

    def __init__(self, kernel: Kernel, value: int):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self._kernel = kernel
        self._value = value
        self._waiters: List[Future] = []

    async def acquire(self) -> None:
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        fut = self._kernel.create_future()
        self._waiters.append(fut)
        await fut

    def release(self) -> None:
        while self._waiters:
            fut = self._waiters.pop(0)
            if not fut.done():
                fut.set_result(None)
                return
        self._value += 1
