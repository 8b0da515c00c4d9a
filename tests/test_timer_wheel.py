"""Differential proof that the timer wheel equals the reference heap.

The kernel's timer backend was swapped from a binary heap to a
hierarchical timer wheel (``repro.sim.wheel``).  The contract is strict:
*byte-identical* ``(when, seq)`` firing order, because every golden
trace digest depends on it.  This suite drives both backends through
identical workloads -- seeded unit scenarios plus hypothesis-generated
arm/cancel/advance programs -- and asserts the observable event streams
are equal.

Two layers:

- Backend-level: synthetic ``TimerHandle`` streams pushed straight into
  ``TimerWheel`` / ``TimerHeap``, popped in interleaved batches, with
  cancellations (including enough to trip the heap's mass-cancellation
  compaction).  Exercises slot math, cascades, head demotion and the
  overflow heap without kernel noise.

- Kernel-level: full ``Kernel(timer_backend=...)`` pairs running the
  same program of ``call_soon`` / ``call_at`` / ``call_later`` /
  ``cancel`` / ``run(until)`` steps, including callbacks that re-arm
  timers mid-fire and ``wait_for`` churn.  The recorded ``(now, tag)``
  stream must match exactly.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Kernel
from repro.sim.kernel import TimerHandle
from repro.sim.rand import SeededRandom
from repro.sim.wheel import TimerHeap, TimerWheel

# One tick at the wheel's 256 Hz resolution, and the spans of its four
# levels, in seconds: the boundaries where cascade bugs would live.
TICK = 1.0 / 256.0
LEVEL_SPANS = [256 * TICK, 256 ** 2 * TICK, 256 ** 3 * TICK, 256 ** 4 * TICK]


# ---------------------------------------------------------------------
# backend-level differential harness
# ---------------------------------------------------------------------

def _handles(whens):
    return [TimerHandle(when, seq, (lambda: None), ())
            for seq, when in enumerate(whens)]


def _drain(backend):
    out = []
    while True:
        h = backend.peek()
        if h is None:
            return out
        assert backend.pop() is h
        out.append((h.when, h.seq))


def _differential_pop_order(whens, cancel_idx=(), interleave=None):
    """Push the same handles into both backends; assert equal pop order.

    ``interleave`` is an optional list of pop-counts: after pushing
    handle i, if interleave says so, pop that many entries before
    continuing -- this moves the wheel cursor mid-arming, exercising the
    due-now buffer path and head demotion.
    """
    streams = []
    for backend_cls in (TimerWheel, TimerHeap):
        backend = backend_cls()
        handles = _handles(whens)
        for h in handles:
            if h.seq in cancel_idx and h.seq % 2 == 0:
                h.cancel()  # cancel-before-push
        popped = []
        floor = 0.0
        for i, h in enumerate(handles):
            # Respect the kernel contract: never arm behind an already
            # popped timer.
            if h.when <= floor:
                h.when = floor + TICK / 7
            backend.push(h)
            if h._in_timers is False:
                h._in_timers = True
            if interleave and i < len(interleave):
                for _ in range(interleave[i]):
                    live = backend.peek()
                    if live is None:
                        break
                    assert backend.pop() is live
                    popped.append((live.when, live.seq))
                    floor = live.when
            if h.seq in cancel_idx and h.seq % 2 == 1:
                if not h.cancelled:
                    h.cancel()   # cancel-after-push (lazy reap path)
                    backend.note_cancelled()
        popped.extend(_drain(backend))
        streams.append(popped)
        # Every cancelled-but-unpopped handle must be reaped exactly once.
        assert len(backend) == 0
    assert streams[0] == streams[1]
    return streams[0]


class TestBackendDifferential:
    def test_dense_same_tick(self):
        # Hundreds of distinct floats quantizing to a handful of ticks:
        # sub-tick order must come out exact.
        whens = [1.0 + i * (TICK / 50) for i in range(400)]
        order = _differential_pop_order(whens)
        assert order == sorted(order)
        assert len(order) == 400

    def test_equal_whens_pop_in_seq_order(self):
        whens = [5.0] * 100
        order = _differential_pop_order(whens)
        assert [seq for _w, seq in order] == list(range(100))

    def test_cascade_boundaries(self):
        whens = []
        for span in LEVEL_SPANS:
            for nudge in (-TICK, -TICK / 3, 0.0, TICK / 3, TICK):
                whens.append(span + nudge)
                whens.append(span * 0.5 + nudge)
        whens += [TICK, TICK * 2, TICK / 2, 3.0]
        order = _differential_pop_order(whens)
        assert order == sorted(order)

    def test_overflow_beyond_level_coverage(self):
        far = LEVEL_SPANS[-1]
        whens = [far * 3, 1.0, far + 1.0, 2.0, far * 2 + 0.5, far * 3 + TICK]
        order = _differential_pop_order(whens)
        assert order == sorted(order)
        assert len(order) == len(whens)

    def test_interleaved_pops_move_cursor(self):
        rng = SeededRandom(11)
        whens = [rng.uniform(0.01, 600.0) for _ in range(300)]
        interleave = [rng.randint(0, 2) for _ in range(300)]
        _differential_pop_order(whens, interleave=interleave)

    def test_mass_cancellation_compaction_parity(self):
        # >64 cancels with cancelled dominating trips the heap's
        # compaction; the wheel reaps lazily.  Survivor order must match.
        rng = SeededRandom(7)
        whens = [rng.uniform(0.01, 2000.0) for _ in range(400)]
        cancel_idx = set(range(0, 400, 2)) | set(range(1, 150, 3))
        order = _differential_pop_order(whens, cancel_idx=cancel_idx)
        assert order == sorted(order)

    def test_head_demotion_on_earlier_push(self):
        # peek() pops the head out of the wheel; a later push that beats
        # it must demote it back into the buffer.
        wheel = TimerWheel()
        late = TimerHandle(10.0, 1, (lambda: None), ())
        wheel.push(late)
        assert wheel.peek() is late
        early = TimerHandle(10.0 - TICK * 3, 2, (lambda: None), ())
        # The cursor has advanced to late's slot, so early's tick is
        # behind it -- the due-now buffer path.
        wheel.push(early)
        assert wheel.peek() is early
        assert wheel.pop() is early
        assert wheel.peek() is late

    def test_same_tick_seq_beats_head(self):
        wheel = TimerWheel()
        a = TimerHandle(4.0, 5, (lambda: None), ())
        wheel.push(a)
        assert wheel.peek() is a
        b = TimerHandle(4.0, 2, (lambda: None), ())
        wheel.push(b)
        assert [wheel.peek() and wheel.pop() for _ in range(2)] == [b, a]


# ---------------------------------------------------------------------
# kernel-level differential harness
# ---------------------------------------------------------------------

def _run_program(backend, program, tail_run=True):
    """Interpret an op program on a fresh kernel; return the fire stream."""
    kernel = Kernel(timer_backend=backend)
    fired = []
    handles = []

    def make_cb(tag):
        def cb():
            fired.append((round(kernel.now, 9), tag))
        return cb

    for n, op in enumerate(program):
        kind = op[0]
        if kind == "later":
            handles.append(kernel.call_later(op[1], make_cb(n)))
        elif kind == "at":
            handles.append(kernel.call_at(kernel.now + op[1], make_cb(n)))
        elif kind == "soon":
            handles.append(kernel.call_soon(make_cb(n)))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run_for":
            kernel.run(until=kernel.now + op[1])
        elif kind == "run_one":
            kernel.run_one()
    if tail_run:
        kernel.run()
    return fired, kernel


def assert_program_parity(program, tail_run=True):
    wheel_fired, wheel_k = _run_program("wheel", program, tail_run)
    heap_fired, heap_k = _run_program("heap", program, tail_run)
    assert wheel_fired == heap_fired
    assert wheel_k.now == heap_k.now
    assert wheel_k.pending_events() == heap_k.pending_events()
    return wheel_fired


class TestKernelDifferential:
    def test_mixed_soon_at_later(self):
        rng = SeededRandom(3)
        program = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.3:
                program.append(("soon",))
            elif roll < 0.6:
                program.append(("later", rng.uniform(0.0, 30.0)))
            elif roll < 0.8:
                program.append(("at", rng.uniform(0.0, 90.0)))
            elif roll < 0.9:
                program.append(("cancel", rng.randint(0, 999)))
            else:
                program.append(("run_for", rng.uniform(0.0, 10.0)))
        fired = assert_program_parity(program)
        assert fired  # the workload actually fired things

    def test_dense_duplicate_deadlines(self):
        program = [("later", (i % 7) * 0.25) for i in range(500)]
        fired = assert_program_parity(program)
        assert len(fired) == 500

    def test_cancel_heavy_wait_for_churn(self):
        # The archetype workload for heap compaction: thousands of
        # armed-then-disarmed timeouts.  wait_for cancels its timeout
        # handle whenever the inner future wins.
        def scenario(kernel):
            async def quick(n):
                await kernel.sleep(0.001 * (n % 5))
                return n

            async def main():
                total = 0
                for n in range(300):
                    total += await kernel.wait_for(quick(n), timeout=60.0)
                return total

            return kernel.run_until_complete(main())

        wheel_k = Kernel(timer_backend="wheel")
        heap_k = Kernel(timer_backend="heap")
        assert scenario(wheel_k) == scenario(heap_k)
        assert wheel_k.now == heap_k.now

    def test_rearm_from_callback_storm(self):
        # Callbacks that schedule more work mid-fire, including at the
        # current instant (due-now buffer + head demotion paths).
        def run(backend):
            kernel = Kernel(timer_backend=backend)
            fired = []
            rng = SeededRandom(19)

            def boom(depth, tag):
                fired.append((round(kernel.now, 9), tag))
                if depth:
                    kernel.call_soon(boom, depth - 1, tag * 31 + 1)
                    kernel.call_later(rng.uniform(0.0, 5.0) * depth,
                                      boom, depth - 1, tag * 31 + 2)

            for i in range(40):
                kernel.call_later(rng.uniform(0.0, 40.0), boom, 3, i)
            kernel.run()
            return fired, kernel.now

        assert run("wheel") == run("heap")

    def test_run_until_windows(self):
        program = [("later", d) for d in (0.1, 5.0, 5.0, 64.0, 256.5, 300.0)]
        program += [("run_for", 5.0), ("soon",), ("run_for", 0.0),
                    ("later", 1.0), ("run_for", 100.0), ("at", 2.0)]
        assert_program_parity(program)

    def test_run_one_stepping(self):
        program = ([("later", d) for d in (3.0, 1.0, 2.0, 1.0)]
                   + [("run_one",)] * 3 + [("soon",), ("run_one",)])
        assert_program_parity(program)

    def test_long_horizon_overflow(self):
        far = LEVEL_SPANS[-1]
        program = [("later", far * 2), ("later", 1.0), ("later", far + 5.0),
                   ("run_for", 2.0), ("later", far * 3), ("cancel", 2)]
        assert_program_parity(program)


# ---------------------------------------------------------------------
# hypothesis: arbitrary arm/cancel/advance programs
# ---------------------------------------------------------------------

# Delays mix boundary-hugging values (slot edges, level spans) with
# arbitrary floats, including zero (the ready-lane fast path).
_boundary = st.sampled_from(
    [0.0, TICK / 3, TICK, TICK * 2]
    + [span + nudge for span in LEVEL_SPANS[:3]
       for nudge in (-TICK, 0.0, TICK)])
_delay = st.one_of(
    _boundary,
    st.floats(min_value=0.0, max_value=700.0,
              allow_nan=False, allow_infinity=False))

_op = st.one_of(
    st.tuples(st.just("later"), _delay),
    st.tuples(st.just("at"), _delay),
    st.tuples(st.just("soon")),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("run_for"), _delay),
    st.tuples(st.just("run_one")),
)


class TestHypothesisPrograms:
    @settings(max_examples=120, deadline=None)
    @given(program=st.lists(_op, max_size=60))
    def test_arbitrary_programs_fire_identically(self, program):
        assert_program_parity(program)

    @settings(max_examples=80, deadline=None)
    @given(
        whens=st.lists(
            st.floats(min_value=1e-4, max_value=LEVEL_SPANS[-1] * 2,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=80),
        cancels=st.sets(st.integers(min_value=0, max_value=79)),
        interleave=st.lists(st.integers(min_value=0, max_value=2),
                            max_size=80),
    )
    def test_backend_pop_order_identical(self, whens, cancels, interleave):
        order = _differential_pop_order(
            whens, cancel_idx=cancels, interleave=interleave)
        assert order == sorted(order)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_seeded_cancel_compaction_storms(self, seed):
        # Heavy cancellation with seeded shape: enough dead shells to
        # trip the heap compaction threshold (>64, majority dead).
        rng = SeededRandom(seed)
        program = []
        for _ in range(150):
            program.append(("later", rng.uniform(0.0, 500.0)))
            if rng.random() < 0.6:
                program.append(("cancel", rng.randint(0, 999)))
            if rng.random() < 0.1:
                program.append(("run_for", rng.uniform(0.0, 20.0)))
        assert_program_parity(program)


class TestWheelInternals:
    """White-box checks on wheel bookkeeping the differential layer
    cannot see (counters, iteration, reap accounting)."""

    def test_len_and_iter_track_contents(self):
        wheel = TimerWheel()
        handles = _handles([1.0, 2.0, LEVEL_SPANS[1] + 1.0,
                            LEVEL_SPANS[3] * 2])
        for h in handles:
            wheel.push(h)
        assert len(wheel) == 4
        assert sorted(h.seq for h in wheel) == [0, 1, 2, 3]
        first = wheel.peek()
        assert first is handles[0]
        assert len(wheel) == 4          # peek holds, does not remove
        wheel.pop()
        assert len(wheel) == 3

    def test_pending_events_skips_cancelled_shells(self):
        for backend in ("wheel", "heap"):
            kernel = Kernel(timer_backend=backend)
            keep = kernel.call_later(5.0, lambda: None)
            drop = kernel.call_later(6.0, lambda: None)
            drop.cancel()
            assert kernel.pending_events() == 1
            keep.cancel()
            assert kernel.pending_events() == 0

    def test_call_soon_chain_drains_with_no_timer_ever_armed(self):
        # The ready lane asks an empty backend for its head on every
        # iteration; neither backend may invent one or stall the chain.
        for backend in ("wheel", "heap"):
            kernel = Kernel(timer_backend=backend)
            fired = []

            def step(n):
                fired.append(n)
                if n < 50:
                    kernel.call_soon(step, n + 1)

            kernel.call_soon(step, 0)
            assert kernel.run() == 0.0
            assert fired == list(range(51))
            assert len(kernel._timers) == 0
            assert kernel.pending_events() == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Kernel(timer_backend="calendar")
