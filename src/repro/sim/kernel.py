"""Virtual-time event loop with ``async``/``await`` support.

The kernel is a classic discrete-event scheduler: a timer backend of
``(time, sequence, callback)`` entries plus a FIFO fast lane for
callbacks scheduled *at the current timestamp* (``call_soon`` and past
``call_at`` targets).  Time only advances when a timer fires, so a
million simulated seconds of idle polling costs only the poll events
themselves.  Everything above this file -- the network, OCS, the name
service, the ITV services -- is written as ordinary ``async`` code
awaiting :class:`Future` objects created here.

Future timers live in a pluggable backend (``repro.sim.wheel``): a
hierarchical timer wheel by default (O(1) arm/cancel, comparisons only
within one time slot), or the original binary heap
(``Kernel(timer_backend="heap")``), kept as the reference oracle for the
differential suite in ``tests/test_timer_wheel.py``.  Both yield the
same ``(when, seq)`` pop order, so traces are byte-identical across
backends.  The kernel keeps no timer count of its own: the run loop asks
the backend's ``peek()``, which skips and reaps cancelled shells.

The fast lane is purely an optimisation: every handle still carries a
global sequence number and the run loop always executes the lowest
``(when, seq)`` pair across both containers, so the observable event
order (and therefore every trace) is identical to the single-container
scheduler.  ``call_soon`` is the hottest scheduling call (every future
completion funnels through it), and a deque append/popleft avoids the
O(log n) sift a heap would charge per callback.

Determinism: ties in time are broken by insertion sequence number, and all
randomness in the simulation goes through :class:`repro.sim.rand.SeededRandom`,
so two runs with the same seed produce byte-identical traces.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Iterable, List, Optional

from repro.sim.errors import (
    CancelledError,
    InvalidStateError,
    KernelStopped,
    SimTimeoutError,
)
from repro.sim.wheel import TimerHeap, TimerWheel

_PENDING = "PENDING"
_DONE = "DONE"
_CANCELLED = "CANCELLED"


class Future:
    """A write-once result container bound to a :class:`Kernel`.

    Mirrors the asyncio future API closely enough that simulated services
    read like ordinary async Python, but completion callbacks are scheduled
    on the *virtual* clock (same timestamp, later sequence number).
    """

    __slots__ = ("_kernel", "_state", "_result", "_exception", "_callbacks",
                 "_detached", "__weakref__")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self._detached = False

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
        self._schedule_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        if self._state != _PENDING:
            raise InvalidStateError("future already completed")
        if isinstance(exc, type):
            exc = exc()
        self._state = _DONE
        self._exception = exc
        self._schedule_callbacks()

    def cancel(self) -> bool:
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self._schedule_callbacks()
        return True

    def detach(self) -> "Future":
        """Declare this future fire-and-forget (linter rule D008).

        The creator promises nothing will await the result: background
        loops that live until their process dies, best-effort
        notifications, and the like.  Detaching is an explicit statement
        of intent, so a discarded future is always a reviewable event.
        Returns ``self`` so creation sites read
        ``kernel.create_task(coro).detach()``.
        """
        self._detached = True
        return self

    @property
    def detached(self) -> bool:
        return self._detached

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self.done():
            self._kernel.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self._kernel.call_soon(cb, self)

    def __await__(self):
        if not self.done():
            yield self
        return self.result()

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
        self._coro_closer = weakref.finalize(self, _close_coro_quietly, coro)
        kernel.call_soon(self._step)

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

    def _step(self, send_value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self.done():
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
        yielded.add_done_callback(self._wakeup)

    def _wakeup(self, fut: Future) -> None:
        if self.done():
            return
        if fut.cancelled():
            self._step(exc=CancelledError(f"task {self.name!r} cancelled"))
            return
        err = fut.exception()
        if err is not None:
            self._step(exc=err)
        else:
            self._step(send_value=fut.result())

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None,
                cancelled: bool = False) -> None:
        if self._coro_closer is not None:
            self._coro_closer.detach()
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
    / :meth:`wait_for` inside coroutines.
    """

    def __init__(self, timer_backend: str = "wheel") -> None:
        self._now = 0.0
        if timer_backend == "wheel":
            self._timers: Any = TimerWheel()
        elif timer_backend == "heap":
            self._timers = TimerHeap()
        else:
            raise ValueError(f"unknown timer backend: {timer_backend!r}")
        self._ready: "deque[TimerHandle]" = deque()
        self._seq = 0
        self._stopped = False
        self._task_count = 0
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

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------

    def call_at(self, when: float, fn: Callable, *args: Any) -> "TimerHandle":
        if self._stopped:
            raise KernelStopped("kernel has been stopped")
        self._seq += 1
        if when <= self._now:
            # Fast lane: already due.  The deque is FIFO and every handle
            # in it shares when == now, so seq order is preserved.
            handle = TimerHandle(self._now, self._seq, fn, args, self)
            self._ready.append(handle)
        else:
            handle = TimerHandle(when, self._seq, fn, args, self)
            handle._in_timers = True
            self._timers.push(handle)
        return handle

    def call_later(self, delay: float, fn: Callable,
                   *args: Any) -> "TimerHandle":
        # Body duplicated from call_at: every network delivery and every
        # sleep() comes through here, and delegating would cost an extra
        # frame plus an *args repack per timer.
        if self._stopped:
            raise KernelStopped("kernel has been stopped")
        when = self._now if delay <= 0.0 else self._now + delay
        self._seq += 1
        handle = TimerHandle(when, self._seq, fn, args, self)
        if when <= self._now:
            self._ready.append(handle)
        else:
            handle._in_timers = True
            self._timers.push(handle)
        return handle

    def call_soon(self, fn: Callable, *args: Any) -> "TimerHandle":
        """Schedule ``fn`` at the current timestamp (FIFO fast lane).

        This is the hottest scheduling path -- every future completion
        callback lands here -- so it skips the timer backend entirely.
        """
        if self._stopped:
            raise KernelStopped("kernel has been stopped")
        self._seq += 1
        handle = TimerHandle(self._now, self._seq, fn, args, self)
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
        fut = self.create_future()
        self.call_later(delay, _set_result_if_pending, fut, None)
        return fut

    def wait_for(self, awaitable, timeout: float) -> Future:
        """Await ``awaitable`` with a deadline.

        Completes with the awaitable's result, or fails with
        :class:`SimTimeoutError` (cancelling the awaitable) when the
        deadline passes first.
        """
        inner = self.ensure_future(awaitable)
        outer = self.create_future()

        def on_timeout() -> None:
            if outer.done():
                return
            inner.cancel()
            outer.set_exception(SimTimeoutError(f"timed out after {timeout}s"))

        handle = self.call_later(timeout, on_timeout)

        def on_done(fut: Future) -> None:
            handle.cancel()
            if outer.done():
                return
            if fut.cancelled():
                outer.cancel()
            elif fut.exception() is not None:
                outer.set_exception(fut.exception())
            else:
                outer.set_result(fut.result())

        inner.add_done_callback(on_done)
        return outer

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
        timers = self._timers
        ready = self._ready
        peek = timers.peek
        while not self._stopped:
            # The next event is the lowest (when, seq) across the ready
            # deque and the timer backend.  Ready handles all sit at
            # when == now, which is <= every queued timer, so the only
            # real contest is a timer at the same timestamp with an
            # earlier seq.  peek() skips cancelled timers, so only the
            # ready lane can surface a cancelled head here.
            if ready:
                head = ready[0]
                from_timers = False
                timer_head = peek()
                if timer_head is not None and (
                        (timer_head.when, timer_head.seq)
                        < (head.when, head.seq)):
                    head = timer_head
                    from_timers = True
            else:
                head = peek()
                if head is None:
                    break
                from_timers = True
            if head.cancelled:
                ready.popleft()
                continue
            if until is not None and head.when > until:
                break
            if from_timers:
                timers.pop()
                head._in_timers = False
            else:
                ready.popleft()
            self._now = head.when
            head.fn(*head.args)
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def run_until_complete(self, awaitable, limit: float = 1e12) -> Any:
        """Run the loop until ``awaitable`` finishes; return its result."""
        fut = self.ensure_future(awaitable)
        while not fut.done():
            if not self._ready and self._timers.peek() is None:
                raise RuntimeError("event loop ran dry before future completed")
            if self._now > limit:
                raise SimTimeoutError(f"run_until_complete exceeded t={limit}")
            self.run_one()
        return fut.result()

    def run_one(self) -> None:
        """Process a single (non-cancelled) event."""
        timers = self._timers
        ready = self._ready
        while True:
            handle = timers.peek()
            if ready and (handle is None
                          or (ready[0].when, ready[0].seq)
                          < (handle.when, handle.seq)):
                handle = ready.popleft()
            elif handle is not None:
                timers.pop()
                handle._in_timers = False
            else:
                return
            if handle.cancelled:
                continue
            self._now = handle.when
            handle.fn(*handle.args)
            return

    def stop(self) -> None:
        self._stopped = True

    def pending_events(self) -> int:
        return (sum(1 for h in self._timers if not h.cancelled)
                + sum(1 for h in self._ready if not h.cancelled))


class TimerHandle:
    """A cancellable scheduled callback, orderable for the timer backends."""

    __slots__ = ("when", "seq", "fn", "args", "cancelled", "_kernel",
                 "_in_timers")

    def __init__(self, when: float, seq: int, fn: Callable, args: tuple,
                 kernel: Optional["Kernel"] = None):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._kernel = kernel
        self._in_timers = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # Release the callback and its closed-over state immediately; the
        # shell of the handle stays queued until the backend skips it.
        self.fn = None
        self.args = ()
        if self._in_timers and self._kernel is not None:
            self._kernel._timers.note_cancelled()

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _set_result_if_pending(fut: Future, value: Any) -> None:
    if not fut.done():
        fut.set_result(value)


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

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            if not fut.done():
                fut.set_result(True)

    def clear(self) -> None:
        self._set = False

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

    @property
    def value(self) -> int:
        return self._value

    async def acquire(self) -> None:
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        fut = self._kernel.create_future()
        self._waiters.append(fut)
        await fut

    def try_acquire(self) -> bool:
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        while self._waiters:
            fut = self._waiters.pop(0)
            if not fut.done():
                fut.set_result(None)
                return
        self._value += 1
