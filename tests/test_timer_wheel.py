"""The kernel's event order against a one-list reference scheduler.

The contract is strict: events fire in *exact* ``(when, seq)`` order,
because every golden trace digest depends on it.  The kernel splits its
events over a ready deque and a ``TimerHeap`` of tuples, drains the heap
in place and compacts it under mass cancellation; the reference below
keeps one list and takes ``min`` over it.  Two layers:

- Heap-level: synthetic ``TimerHandle`` streams pushed straight into a
  ``TimerHeap``, popped in interleaved batches, with cancellations
  (including enough to trip the mass-cancellation compaction).  Every
  pop must be the minimum of what is queued.

- Kernel-level: ``Kernel`` and ``ReferenceKernel`` run the same program
  of ``call_soon`` / ``call_at`` / ``call_later`` / ``cancel`` /
  ``run(until)`` / ``run_one`` steps, including callbacks that re-arm
  timers mid-fire, compaction from inside a callback, and churn of
  armed-then-cancelled timeouts.  The recorded ``(now, tag)`` streams
  must be equal.

The kernel's ready lane holds handles with no ``seq`` of their own
(``call_soon``, and ``call_at``/``call_later`` that are not in the
future).  It relies on one invariant: a heap timer due at
``now`` was armed at an earlier instant, so it precedes every ready
entry.  ``TestSameInstantOrder`` holds the cases where that invariant
does the work.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Kernel
from repro.sim.kernel import TimerHandle
from repro.sim.rand import SeededRandom
from repro.sim.wheel import TimerHeap


class ReferenceKernel(Kernel):
    """The scheduling contract stated with one list: the next event is
    the live handle with the lowest ``(when, seq)``.  Futures, tasks,
    ``sleep`` and ``sleep_until`` are the kernel's own, so only the order
    of events is under test."""

    def __init__(self):
        super().__init__()
        self._events = []

    def call_at(self, when, fn, *args):
        self._seq += 1
        handle = TimerHandle(max(when, self.now), self._seq, fn, args)
        self._events.append(handle)
        return handle

    def call_later(self, delay, fn, *args):
        return self.call_at(self.now + max(delay, 0.0), fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    def _pop_next(self, until=None):
        self._events = [h for h in self._events if not h.cancelled]
        if not self._events:
            return None
        head = min(self._events, key=lambda h: (h.when, h.seq))
        if until is not None and head.when > until:
            return None
        self._events.remove(head)
        return head

    def run_one(self):
        head = self._pop_next()
        if head is not None:
            self.now = head.when
            head.fn(*head.args)

    def run(self, until=None):
        while True:
            head = self._pop_next(until)
            if head is None:
                break
            self.now = head.when
            head.fn(*head.args)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending_events(self):
        return sum(1 for h in self._events if not h.cancelled)


# ---------------------------------------------------------------------
# heap-level harness
# ---------------------------------------------------------------------

def _handles(whens):
    return [TimerHandle(when, seq, (lambda: None), ())
            for seq, when in enumerate(whens)]


def _pop_order(whens, cancel_idx=(), interleave=None):
    """Push handles into a TimerHeap; every pop must be the minimum.

    ``interleave`` is an optional list of pop-counts: after pushing
    handle i, pop that many entries before continuing.  Even indices in
    ``cancel_idx`` are cancelled before their push (a shell the heap was
    never told about), odd ones after it (``note_cancelled``).
    """
    heap = TimerHeap()
    queued, popped = [], []
    floor = 0.0

    def pop_one():
        live = [h for h in queued if not h.cancelled]
        expect = min(live, key=lambda h: (h.when, h.seq)) if live else None
        assert heap.peek() is expect
        if expect is None:
            return False
        assert heap.pop() is expect and expect._store is None
        queued.remove(expect)
        popped.append((expect.when, expect.seq))
        return True

    for i, h in enumerate(_handles(whens)):
        if h.seq in cancel_idx and h.seq % 2 == 0:
            h.cancel()
        # Respect the kernel contract: never arm behind a popped timer.
        h.when = max(h.when, floor + 1e-3)
        heap.push(h)
        queued.append(h)
        for _ in range(interleave[i] if interleave and i < len(interleave)
                       else 0):
            if not pop_one():
                break
            floor = popped[-1][0]
        if h.seq in cancel_idx and h.seq % 2 == 1:
            h.cancel()
    while pop_one():
        pass
    assert heap.entries == [] and heap.shells == 0
    return popped


class TestBackendDifferential:
    def test_dense_same_tick(self):
        # Hundreds of distinct floats a few milliseconds apart.
        whens = [1.0 + i * 1e-4 for i in range(400)]
        order = _pop_order(whens)
        assert order == sorted(order)
        assert len(order) == 400

    def test_equal_whens_pop_in_seq_order(self):
        order = _pop_order([5.0] * 100)
        assert [seq for _w, seq in order] == list(range(100))

    def test_interleaved_pops_move_cursor(self):
        rng = SeededRandom(11)
        whens = [rng.uniform(0.01, 600.0) for _ in range(300)]
        interleave = [rng.randint(0, 2) for _ in range(300)]
        _pop_order(whens, interleave=interleave)

    def test_mass_cancellation_compaction_parity(self):
        # >64 cancels with cancelled dominating trips the compaction;
        # survivors must still pop in sorted order.
        rng = SeededRandom(7)
        whens = [rng.uniform(0.01, 2000.0) for _ in range(400)]
        cancel_idx = set(range(0, 400, 2)) | set(range(1, 150, 3))
        order = _pop_order(whens, cancel_idx=cancel_idx)
        survivors = [(when, seq) for seq, when in enumerate(whens)
                     if seq not in cancel_idx]
        assert order == sorted(survivors)


# ---------------------------------------------------------------------
# kernel-level harness
# ---------------------------------------------------------------------

def _run_program(kernel_cls, program, tail_run=True):
    """Interpret an op program on a fresh kernel; return the fire stream."""
    kernel = kernel_cls()
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
    fired, kernel = _run_program(Kernel, program, tail_run)
    ref_fired, reference = _run_program(ReferenceKernel, program, tail_run)
    assert fired == ref_fired
    assert kernel.now == reference.now
    assert kernel.pending_events() == reference.pending_events()
    return fired


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
            elif roll < 0.7:
                program.append(("at", rng.uniform(0.0, 90.0)))
            elif roll < 0.8:
                program.append(("at", 0.0))     # already due: ready lane
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
        # Thousands of armed-then-disarmed timeouts: each call arms a
        # reply timeout and cancels it when the reply wins, as the OCS
        # client does.
        def scenario(kernel):
            expired = []

            async def quick(n):
                await kernel.sleep(0.001 * (n % 5))
                return n

            async def main():
                total = 0
                for n in range(300):
                    timeout = kernel.call_later(60.0, expired.append, n)
                    total += await kernel.create_task(quick(n))
                    timeout.cancel()
                return total

            task = kernel.create_task(main())
            kernel.run()
            assert expired == []
            return task.result(), kernel.now

        assert scenario(Kernel()) == scenario(ReferenceKernel())

    def test_rearm_from_callback_storm(self):
        # Callbacks that schedule more work mid-fire, including at the
        # current instant (the ready lane against same-time timers).
        def run(kernel_cls):
            kernel = kernel_cls()
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

        assert run(Kernel) == run(ReferenceKernel)

    def test_compaction_from_inside_a_callback(self):
        # A callback cancels 100 armed timers -- past 64 and a majority
        # of the heap -- so the heap compacts while run() drains it, and
        # then arms more.  A compaction that rebinds the list instead of
        # rebuilding it in place strands every timer armed after it.
        def run(kernel_cls):
            kernel = kernel_cls()
            fired, heap_sizes = [], []
            victims = [kernel.call_later(10.0 + i, fired.append, ("v", i))
                       for i in range(100)]
            for i in range(20):
                kernel.call_later(1.0 + 5 * i, fired.append, ("keep", i))

            def massacre():
                for h in victims:
                    h.cancel()
                heap_sizes.append(len(kernel._timers.entries))
                kernel.call_later(0.5, fired.append, ("after", kernel.now))
                kernel.call_soon(fired.append, ("soon", kernel.now))

            kernel.call_later(2.0, massacre)
            kernel.run(until=30.0)
            mid = (list(fired), kernel.pending_events())
            kernel.run()
            return (mid, fired, kernel.now), heap_sizes

        observed, heap_sizes = run(Kernel)
        assert observed == run(ReferenceKernel)[0]
        # Compacted at the 65th cancel: 19 live keeps plus the 35
        # victims cancelled after it, instead of 119 entries.
        assert heap_sizes == [19 + 35]

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
        far = 4.3e9       # ~136 simulated years
        program = [("later", far * 2), ("later", 1.0), ("later", far + 5.0),
                   ("run_for", 2.0), ("later", far * 3), ("cancel", 2)]
        assert_program_parity(program)


class TestSameInstantOrder:
    """A heap timer due at ``now`` goes before the ready lane.

    Each scenario leaves a timer in the heap at the current instant
    while ready entries are queued; a kernel that served the lane first
    would fire them in a different order from ``ReferenceKernel``.
    """

    @staticmethod
    def differential(scenario):
        def run(kernel_cls):
            kernel = kernel_cls()
            fired = []

            def tag(name):
                return lambda: fired.append((round(kernel.now, 9), name))

            scenario(kernel, tag)
            kernel.run()
            return fired, kernel.now, kernel.pending_events()

        observed = run(Kernel)
        assert observed == run(ReferenceKernel)
        return observed[0]

    @staticmethod
    def queue_same_instant(kernel, tag, prefix):
        kernel.call_soon(tag(prefix + "soon"))
        kernel.call_at(kernel.now, tag(prefix + "at-now"))
        kernel.call_later(0.0, tag(prefix + "later-0"))

    def test_run_until_lands_on_a_timer_instant_with_ready_queued(self):
        def scenario(kernel, tag):
            kernel.call_later(5.0, tag("t5-a"))
            kernel.call_later(5.0, lambda: self.queue_same_instant(
                kernel, tag, "t5-b:"))
            kernel.call_later(5.0, tag("t5-c"))
            kernel.call_later(7.0, tag("t7"))
            kernel.run(until=2.0)
            self.queue_same_instant(kernel, tag, "t2:")
            kernel.run(until=5.0)           # exactly the timers' instant
            self.queue_same_instant(kernel, tag, "t5:")
            kernel.run(until=5.0)

        fired = self.differential(scenario)
        assert [name for _t, name in fired] == [
            "t2:soon", "t2:at-now", "t2:later-0", "t5-a", "t5-c",
            "t5-b:soon", "t5-b:at-now", "t5-b:later-0",
            "t5:soon", "t5:at-now", "t5:later-0", "t7"]

    def test_run_until_before_now_keeps_a_queued_lane(self):
        # run_one stops between two timers of one instant: the second is
        # due at now, in the heap, behind nothing.
        def scenario(kernel, tag):
            kernel.call_later(5.0, tag("t5-a"))
            kernel.call_later(5.0, tag("t5-b"))
            kernel.run_one()
            self.queue_same_instant(kernel, tag, "")
            assert kernel.run(until=4.0) == 5.0
            assert kernel.pending_events() == 4

        fired = self.differential(scenario)
        assert [name for _t, name in fired] == [
            "t5-a", "t5-b", "soon", "at-now", "later-0"]

    def test_run_one_interleaved_with_run(self):
        def scenario(kernel, tag):
            for name in ("a", "b", "c"):
                kernel.call_later(3.0, tag("t3-" + name))
            kernel.call_later(3.0, lambda: self.queue_same_instant(
                kernel, tag, "t3-d:"))
            kernel.call_later(3.0, tag("t3-e"))
            kernel.run_one()
            self.queue_same_instant(kernel, tag, "1:")
            kernel.run_one()
            kernel.run(until=3.0)
            kernel.run_one()

        fired = self.differential(scenario)
        assert [name for _t, name in fired] == [
            "t3-a", "t3-b", "t3-c", "t3-e", "1:soon", "1:at-now",
            "1:later-0", "t3-d:soon", "t3-d:at-now", "t3-d:later-0"]

    def test_callback_queues_same_instant_work_before_a_due_timer(self):
        def scenario(kernel, tag):
            kernel.call_at(4.0, lambda: self.queue_same_instant(
                kernel, tag, "first:"))
            kernel.call_at(4.0, tag("second"))
            kernel.call_at(4.0, tag("third"))

        fired = self.differential(scenario)
        assert [name for _t, name in fired] == [
            "second", "third", "first:soon", "first:at-now",
            "first:later-0"]
        assert {when for when, _name in fired} == {4.0}


# ---------------------------------------------------------------------
# hypothesis: arbitrary arm/cancel/advance programs
# ---------------------------------------------------------------------

# Delays mix exact repeats (same-instant ties) with arbitrary floats,
# including zero (the ready-lane fast path).
_delay = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.25, 1.0, 5.0]),
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
            st.floats(min_value=1e-4, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=80),
        cancels=st.sets(st.integers(min_value=0, max_value=79)),
        interleave=st.lists(st.integers(min_value=0, max_value=2),
                            max_size=80),
    )
    def test_backend_pop_order_identical(self, whens, cancels, interleave):
        order = _pop_order(whens, cancel_idx=cancels, interleave=interleave)
        assert order == sorted(order)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 20))
    def test_seeded_cancel_compaction_storms(self, seed):
        # Heavy cancellation with seeded shape: enough dead shells to
        # trip the compaction threshold (>64, majority dead).
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
    """Kernel bookkeeping the differential layer cannot see."""

    def test_pending_events_skips_cancelled_shells(self):
        for kernel_cls in (Kernel, ReferenceKernel):
            kernel = kernel_cls()
            keep = kernel.call_later(5.0, lambda: None)
            drop = kernel.call_later(6.0, lambda: None)
            drop.cancel()
            assert kernel.pending_events() == 1
            keep.cancel()
            assert kernel.pending_events() == 0

    def test_call_soon_chain_drains_with_no_timer_ever_armed(self):
        # The ready lane runs alone while the heap is empty; the run
        # loop may neither invent a timer nor stall the chain.
        kernel = Kernel()
        fired = []

        def step(n):
            fired.append(n)
            if n < 50:
                kernel.call_soon(step, n + 1)

        kernel.call_soon(step, 0)
        assert kernel.run() == 0.0
        assert fired == list(range(51))
        assert kernel._timers.entries == []
        assert kernel.pending_events() == 0
