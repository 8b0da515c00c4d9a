"""Unit tests for the virtual-time kernel primitives."""

import gc
import warnings
import weakref

import pytest

from repro.sim import (
    CancelledError,
    Event,
    Kernel,
    Queue,
    Semaphore,
    gather,
)
from repro.sim.errors import InvalidStateError
from tests.helpers import EventRecorder


@pytest.fixture
def kernel():
    return Kernel()


class TestClock:
    def test_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_run_advances_to_until(self, kernel):
        kernel.run(until=42.0)
        assert kernel.now == 42.0

    def test_call_later_fires_at_right_time(self, kernel):
        seen = []
        kernel.call_later(5.0, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [5.0]

    def test_events_fire_in_time_order(self, kernel):
        seen = []
        kernel.call_later(3.0, lambda: seen.append("c"))
        kernel.call_later(1.0, lambda: seen.append("a"))
        kernel.call_later(2.0, lambda: seen.append("b"))
        kernel.run()
        assert seen == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, kernel):
        seen = []
        for tag in ("x", "y", "z"):
            kernel.call_later(1.0, seen.append, tag)
        kernel.run()
        assert seen == ["x", "y", "z"]

    def test_cancelled_timer_does_not_fire(self, kernel):
        seen = []
        handle = kernel.call_later(1.0, seen.append, "nope")
        handle.cancel()
        kernel.run()
        assert seen == []

    def test_run_until_stops_before_later_events(self, kernel):
        seen = []
        kernel.call_later(10.0, seen.append, "late")
        kernel.run(until=5.0)
        assert seen == []
        kernel.run(until=15.0)
        assert seen == ["late"]

    def test_call_at_in_past_clamps_to_now(self, kernel):
        kernel.run(until=10.0)
        seen = []
        kernel.call_at(5.0, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [10.0]


class TestFastLane:
    """The ready lane must interleave with the heap in arming order."""

    def test_soon_and_past_call_at_share_fifo_order(self, kernel):
        kernel.run(until=3.0)
        seen = []
        kernel.call_soon(seen.append, "a")
        kernel.call_at(1.0, seen.append, "b")   # past: clamps to now, FIFO
        kernel.call_soon(seen.append, "c")
        kernel.call_at(3.0, seen.append, "d")   # == now: also the fast lane
        kernel.run()
        assert seen == ["a", "b", "c", "d"]

    def test_soon_before_pending_heap_event_at_same_timestamp(self, kernel):
        seen = []

        def first():
            kernel.call_soon(seen.append, "soon")  # deque, later seq

        kernel.call_at(5.0, first)                 # heap, seq 1
        kernel.call_at(5.0, seen.append, "second")  # heap, seq 2
        kernel.run()
        # "second" (seq 2) precedes "soon" (seq 3): deque must not jump
        # ahead of an equal-timestamp heap entry with an earlier seq.
        assert seen == ["second", "soon"]

    def test_ready_events_respect_until(self, kernel):
        kernel.run(until=10.0)
        seen = []
        kernel.call_soon(seen.append, "now")
        kernel.run(until=4.0)   # until in the past: nothing may fire
        assert seen == []
        assert kernel.now == 10.0
        kernel.run()
        assert seen == ["now"]

    def test_cancelled_soon_callback_does_not_fire(self, kernel):
        seen = []
        handle = kernel.call_soon(seen.append, "nope")
        handle.cancel()
        kernel.call_soon(seen.append, "yes")
        kernel.run()
        assert seen == ["yes"]

    def test_pending_events_counts_ready_lane(self, kernel):
        kernel.call_soon(lambda: None)
        kernel.call_later(5.0, lambda: None)
        cancelled = kernel.call_soon(lambda: None)
        cancelled.cancel()
        assert kernel.pending_events() == 2

    def test_cancel_is_idempotent_and_releases_callback(self, kernel):
        handle = kernel.call_later(5.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.fn is None and handle.args == ()
        kernel.run()

    def test_mass_cancellation_compaction_keeps_order(self, kernel):
        """Cancelling most of the heap triggers in-place compaction; the
        survivors must still fire in exact (when, seq) order."""
        seen = []
        handles = [kernel.call_later(float(i), seen.append, i)
                   for i in range(1, 501)]
        for h in handles:
            if h.args and h.args[0] % 5:
                h.cancel()
        kernel.run()
        assert seen == [i for i in range(1, 501) if not i % 5]

    def test_compaction_during_run_does_not_lose_events(self, kernel):
        """Compaction must mutate the heap in place: the run loop holds a
        reference to the list across callbacks."""
        seen = []
        victims = [kernel.call_later(200.0 + i, seen.append, "victim")
                   for i in range(300)]

        def massacre():
            for h in victims:
                h.cancel()
            kernel.call_later(1.0, seen.append, "after")

        kernel.call_later(1.0, massacre)
        kernel.call_later(50.0, seen.append, "tail")
        kernel.run()
        assert seen == ["after", "tail"]


class TestFuture:
    def test_result_before_done_raises(self, kernel):
        fut = kernel.create_future()
        with pytest.raises(InvalidStateError):
            fut.result()

    def test_set_result(self, kernel):
        fut = kernel.create_future()
        fut.set_result(7)
        assert fut.done() and fut.result() == 7

    def test_double_set_raises(self, kernel):
        fut = kernel.create_future()
        fut.set_result(1)
        with pytest.raises(InvalidStateError):
            fut.set_result(2)

    def test_exception_propagates(self, kernel):
        fut = kernel.create_future()
        fut.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            fut.result()

    def test_cancel(self, kernel):
        fut = kernel.create_future()
        assert fut.cancel()
        assert fut.cancelled()
        with pytest.raises(CancelledError):
            fut.result()

    def test_callback_runs_on_completion(self, kernel):
        fut = kernel.create_future()
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        fut.set_result("hi")
        kernel.run()
        assert seen == ["hi"]

    def test_callback_added_after_done_still_runs(self, kernel):
        fut = kernel.create_future()
        fut.set_result(3)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        kernel.run()
        assert seen == [3]


class TestTask:
    def test_task_returns_value(self, kernel):
        async def main():
            return 99

        assert kernel.run_until_complete(main()) == 99

    def test_sleep_advances_time(self, kernel):
        async def main():
            await kernel.sleep(2.5)
            return kernel.now

        assert kernel.run_until_complete(main()) == 2.5

    def test_sequential_sleeps_accumulate(self, kernel):
        async def main():
            await kernel.sleep(1.0)
            await kernel.sleep(2.0)
            return kernel.now

        assert kernel.run_until_complete(main()) == 3.0

    def test_exception_in_task_propagates(self, kernel):
        async def main():
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            kernel.run_until_complete(main())

    def test_cancel_sleeping_task(self, kernel):
        state = {"cleaned": False}

        async def main():
            try:
                await kernel.sleep(100.0)
            except CancelledError:
                state["cleaned"] = True
                raise

        task = kernel.create_task(main())
        kernel.call_later(1.0, task.cancel)
        kernel.run(until=10.0)
        assert task.cancelled()
        assert state["cleaned"]

    def test_sleep_until_fires_at_exactly_when(self, kernel):
        when = 0.1 + 0.2        # not a float a sleep() delay would reach

        async def main():
            await kernel.sleep(0.1)
            await kernel.sleep_until(when)
            return kernel.now

        assert kernel.run_until_complete(main()) == when

    def test_sleep_until_the_past_resolves_in_the_ready_lane(self, kernel):
        kernel.run(until=10.0)
        rec = EventRecorder(kernel)
        seen = []
        kernel.call_soon(lambda: seen.append(("before", fut.done())))
        fut = kernel.sleep_until(5.0)
        kernel.call_soon(lambda: seen.append(("after", fut.done())))
        assert kernel._timers.entries == [] and not fut.done()
        kernel.run()
        # FIFO in the lane: woken after what was armed before it and
        # before what was armed after it, all at the current instant.
        assert seen == [("before", False), ("after", True)]
        assert rec.armed == ["call_soon", "call_at", "call_soon"]
        assert rec.fired == [10.0, 10.0, 10.0] and kernel.now == 10.0

    def test_sleep_until_cancels_cleanly_under_task_cancel(self, kernel):
        state = {"cleaned": False}

        async def main():
            try:
                await kernel.sleep_until(100.0)
            except CancelledError:
                state["cleaned"] = True
                raise

        task = kernel.create_task(main())
        kernel.call_later(1.0, task.cancel)
        kernel.run()        # the timer still fires at 100, on a dead future
        assert task.cancelled() and state["cleaned"]
        assert kernel.now == 100.0 and kernel.pending_events() == 0

    def test_task_awaiting_task(self, kernel):
        async def inner():
            await kernel.sleep(1.0)
            return "inner-done"

        async def outer():
            return await kernel.create_task(inner())

        assert kernel.run_until_complete(outer()) == "inner-done"

    def test_cancel_completed_task_is_noop(self, kernel):
        async def main():
            return 1

        task = kernel.create_task(main())
        kernel.run()
        assert not task.cancel()

    def test_gather_collects_results(self, kernel):
        async def delayed(v, d):
            await kernel.sleep(d)
            return v

        async def main():
            return await gather(kernel, [delayed("a", 3), delayed("b", 1)])

        assert kernel.run_until_complete(main()) == ["a", "b"]
        assert kernel.now == 3.0

    def test_gather_return_exceptions(self, kernel):
        async def bad():
            raise ValueError("x")

        async def good():
            return 1

        async def main():
            return await gather(kernel, [bad(), good()], return_exceptions=True)

        results = kernel.run_until_complete(main())
        assert isinstance(results[0], ValueError)
        assert results[1] == 1


class TestAwaitPath:
    """What an awaited future hands its task: the exception object, the
    cancellation, or the value -- and in which event."""

    def test_exception_object_reaches_the_awaiting_task(self, kernel):
        fut = kernel.create_future()
        boom = ValueError("boom")
        caught = []

        async def main():
            try:
                await fut
            except ValueError as err:
                caught.append(err)
                raise

        task = kernel.create_task(main(), "main")
        kernel.call_later(1.0, fut.set_exception, boom)
        kernel.run()
        assert caught == [boom]
        assert task.exception() is boom

    def test_cancelled_inner_future_cancels_the_task(self, kernel):
        fut = kernel.create_future()
        caught = []

        async def main():
            try:
                await fut
            except CancelledError as err:
                caught.append(str(err))
                raise

        task = kernel.create_task(main(), "main")
        kernel.call_later(1.0, fut.cancel)
        kernel.run()
        assert caught == ["task 'main' cancelled"]
        assert task.cancelled()

    def test_already_done_future_returns_in_the_same_step(self, kernel):
        done = kernel.create_future()
        done.set_result("ready")
        failed = kernel.create_future()
        failed.set_exception(KeyError("k"))
        cancelled = kernel.create_future()
        cancelled.cancel()
        seen = []
        events = EventRecorder(kernel)

        async def main():
            armed = len(events.armed)
            seen.append(await done)
            for fut in (failed, cancelled):
                try:
                    await fut
                except (KeyError, CancelledError) as err:
                    seen.append(repr(err))
            seen.append(len(events.armed) - armed)   # no wake-up armed

        kernel.run_until_complete(main())
        assert seen == ["ready", "KeyError('k')",
                        "CancelledError('future was cancelled')", 0]

    def test_a_failed_await_leaves_no_reference_cycle(self, kernel):
        # Every remote error (NoSuchKey, CallTimeout, ...) reaches its
        # caller through a failed future.  Neither the error nor the
        # future may be left for the cycle collector.
        def fail_later(exc):
            fut = kernel.create_future()
            kernel.call_later(1.0, fut.set_exception, exc)
            return fut

        async def main():
            try:
                await fail_later(KeyError("k"))
            except KeyError:
                return "handled"

        gc.collect()
        task = kernel.create_task(main(), "main")
        kernel.run()
        assert task.result() == "handled"
        assert gc.collect() == 0

    def test_a_cancelled_await_leaves_no_reference_cycle(self, kernel):
        async def main():
            await kernel.create_future()

        gc.collect()
        task = kernel.create_task(main(), "main")
        kernel.call_later(1.0, task.cancel)
        kernel.run()
        assert task.cancelled()
        assert gc.collect() == 0

    def test_set_result_without_waiters_schedules_nothing(self, kernel):
        fut = kernel.create_future()
        seen = []
        events = EventRecorder(kernel)
        kernel.call_soon(seen.append, "queued before")
        fut.set_result(1)
        assert events.armed == ["call_soon"]
        kernel.call_soon(seen.append, "queued after")
        fut.add_done_callback(lambda f: seen.append(("callback", f.result())))
        kernel.run()
        assert seen == ["queued before", "queued after", ("callback", 1)]


class TestStartTask:
    """``Kernel.start_task``: the first step runs in the caller's event,
    and a Task exists only for a coroutine that suspended in it."""

    def test_returns_none_when_the_first_step_finishes(self, kernel):
        seen = []

        async def quick():
            seen.append(kernel.now)

        events = EventRecorder(kernel)
        assert kernel.start_task(quick(), "quick") is None
        assert seen == [0.0]
        assert events.armed == []          # no event, no future, no Task
        assert kernel.pending_events() == 0

    def test_first_step_exception_propagates_to_the_caller(self, kernel):
        async def broken():
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            kernel.start_task(broken(), "broken")

    def test_first_step_cancellation_is_a_quiet_finish(self, kernel):
        async def gives_up():
            raise CancelledError("not today")

        assert kernel.start_task(gives_up(), "gives-up") is None

    def test_adopted_task_resumes_like_any_other(self, kernel):
        async def main():
            await kernel.sleep(1.0)
            await kernel.sleep(2.0)
            return kernel.now

        task = kernel.start_task(main(), "main")
        assert task.name == "main" and not task.done()
        assert kernel.pending_events() == 1    # the sleep; no _step event
        kernel.run()
        assert task.result() == 3.0

    def test_adopted_task_failure_lands_in_the_task(self, kernel):
        async def main():
            await kernel.sleep(1.0)
            raise RuntimeError("later")

        task = kernel.start_task(main(), "main")
        kernel.run()
        with pytest.raises(RuntimeError, match="later"):
            task.result()

    def test_adopted_task_cancels_like_any_other(self, kernel):
        state = {"cleaned": False}

        async def main():
            try:
                await kernel.sleep(100.0)
            except CancelledError:
                state["cleaned"] = True
                raise

        task = kernel.start_task(main(), "main")
        kernel.call_later(1.0, task.cancel)
        kernel.run(until=10.0)
        assert task.cancelled() and state["cleaned"]

    def test_same_order_as_create_task_after_the_first_step(self, kernel):
        """An adopted coroutine wakes in the same event a created one
        would: only the first step moved."""
        def trace(start):
            k = Kernel()
            seen = []

            async def worker(tag):
                seen.append((k.now, tag, "first"))
                await k.sleep(1.0)
                seen.append((k.now, tag, "second"))

            for tag in ("a", "b"):
                start(k, worker(tag), tag)
            k.run()
            return seen[2:]

        assert (trace(lambda k, coro, tag: k.start_task(coro, tag))
                == trace(lambda k, coro, tag: k.create_task(coro, tag)))

    def test_non_kernel_awaitable_fails_as_in_a_created_task(self, kernel):
        import types

        @types.coroutine
        def bare_yield():
            yield "not a future"

        async def main():
            await bare_yield()

        adopted = kernel.start_task(main(), "main")
        created = kernel.create_task(main(), "main")
        kernel.run()
        assert str(adopted.exception()) == str(created.exception())
        assert "non-kernel awaitable" in str(adopted.exception())


def registry_coroutines(code):
    """Coroutines of ``code`` held by ``weakref.finalize``'s registry."""
    return [arg for info in list(weakref.finalize._registry.values())
            for arg in info.args if getattr(arg, "cr_code", None) is code]


class TestTaskFinalizer:
    """A task's quiet-close finalizer lives only until its first step: a
    task that never finishes must not pin its kernel through the
    process-global finalizer registry."""

    def test_dropped_kernel_with_a_running_loop_is_freed(self):
        kernel = Kernel()

        async def loop():
            while True:
                await kernel.sleep(1.0)

        task = kernel.create_task(loop(), "loop")
        kernel.run(until=5.0)
        assert not task.done()
        alive = weakref.ref(kernel)
        del kernel, task
        gc.collect()
        assert alive() is None
        assert registry_coroutines(loop.__code__) == []

    @pytest.mark.parametrize("end", ["cancel", "set_result"])
    def test_task_ended_before_its_first_step_closes_quietly(self, kernel,
                                                              end):
        ran = []

        async def body():
            ran.append(True)        # pragma: no cover - must never run

        coro = body()
        task = kernel.create_task(coro, "early")
        if end == "cancel":
            task.cancel()
        else:
            task.set_result(None)
        kernel.run()
        assert ran == [] and task.done()
        assert task.cancelled() == (end == "cancel")
        assert coro.cr_frame is None            # closed, not just dropped
        assert registry_coroutines(body.__code__) == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del coro, task
            gc.collect()
        assert [w for w in caught if w.category is RuntimeWarning] == []

    def test_finished_task_leaves_no_registry_entry(self, kernel):
        async def short():
            await kernel.sleep(1.0)
            return 7

        task = kernel.create_task(short(), "short")
        kernel.run()
        assert task.result() == 7
        assert registry_coroutines(short.__code__) == []


class TestSyncPrimitives:
    def test_event_wakes_waiters(self, kernel):
        ev = Event(kernel)
        seen = []

        async def waiter(tag):
            await ev.wait()
            seen.append((tag, kernel.now))

        kernel.create_task(waiter("a"))
        kernel.create_task(waiter("b"))
        kernel.call_later(4.0, ev.set)
        kernel.run()
        assert seen == [("a", 4.0), ("b", 4.0)]

    def test_event_already_set(self, kernel):
        ev = Event(kernel)
        ev.set()

        async def main():
            await ev.wait()
            return kernel.now

        assert kernel.run_until_complete(main()) == 0.0

    def test_queue_fifo(self, kernel):
        q = Queue(kernel)

        async def main():
            q.put(1)
            q.put(2)
            return [await q.get(), await q.get()]

        assert kernel.run_until_complete(main()) == [1, 2]

    def test_queue_blocks_until_put(self, kernel):
        q = Queue(kernel)
        kernel.call_later(3.0, q.put, "item")

        async def main():
            item = await q.get()
            return (item, kernel.now)

        assert kernel.run_until_complete(main()) == ("item", 3.0)

    def test_semaphore_limits_concurrency(self, kernel):
        sem = Semaphore(kernel, 2)
        active = {"n": 0, "max": 0}

        async def worker():
            await sem.acquire()
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            await kernel.sleep(1.0)
            active["n"] -= 1
            sem.release()

        for _ in range(5):
            kernel.create_task(worker())
        kernel.run()
        assert active["max"] == 2
