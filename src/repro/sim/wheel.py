"""Timer backends for the kernel: hierarchical wheel + reference heap.

The kernel needs one operation done fast: "give me the queued timer with
the lowest ``(when, seq)``".  Two interchangeable backends provide it:

- :class:`TimerHeap` is the original binary heap.  Every push/pop pays an
  O(log n) sift of Python-level ``TimerHandle.__lt__`` calls -- the
  dominant cost in timer-dense workloads.  It stays in-tree as the
  reference implementation and as the oracle for the differential suite
  (``tests/test_timer_wheel.py``).

- :class:`TimerWheel` is a hierarchical timing wheel (Varghese &
  Lauck).  Arming a timer is O(1): quantize ``when`` to a tick, bucket
  the handle by how far ahead the tick lies.  Near timers land in a
  fine-grained level-0 slot; far timers land in coarser levels and
  *cascade* down as the cursor approaches.  Comparison work happens only
  inside one slot at a time, on small ``(when, seq, handle)`` tuple
  heaps whose comparisons run at C speed.

Both backends expose the same five operations -- ``push`` / ``peek`` /
``pop`` / ``note_cancelled`` / iteration -- and both yield *exactly* the
same ``(when, seq)`` pop order, which is what keeps golden trace digests
byte-identical across the swap.  ``peek`` never returns a cancelled
handle; shells are reaped inside the backend and nobody is told.

Wheel geometry
--------------

Ticks are ``int(when * 256)``: ~4 ms granularity.  Resolution is a pure
performance knob -- it decides how many timers share a slot and how
often cascades run, never the emitted order, because sub-tick ordering
is preserved exactly (see below).  256 Hz keeps second-scale timeouts
within the two cheapest levels.  Four levels of 256 slots cover deltas
up to ``256**4`` ticks (~194 simulated days);
anything further sits in a small overflow heap until the cursor gets
close.  A timer ``delta = tick - cursor`` ticks ahead lives at level
``k`` where ``256**k < delta <= 256**(k+1)`` (level 0 for ``delta <=
256``), in slot ``(tick >> 8k) & 255``.  Because ``delta`` for level
``k`` never exceeds one full wrap of that level, the absolute slot index
is unambiguous: each occupied slot holds timers exactly one circular
scan ahead of the cursor's position at that level.

Sub-tick exactness: a slot may hold many distinct ``when`` floats that
quantize to the same tick (or, at higher levels, many ticks).  Slots are
unordered lists; ordering is imposed only when the cursor reaches a
slot and its contents spill into ``_buffer``, a heap of ``(when, seq,
handle)`` tuples.  Every pop comes off that heap, so the emitted order
is the true ``(when, seq)`` order, not the quantized one.

The cursor-advance rule ("refill") is where correctness lives: the next
event is the *earliest* of (a) the nearest occupied level-0 slot, (b)
the nearest cascade point of any higher level, and (c) the overflow
minimum.  Cascades must win ties -- a level-1 slot covering ticks
[t, t+256) may contain an entry at ``t`` itself, earlier than anything a
level-0 scan can see -- so higher levels cascade first and reinsert
their entries (now strictly nearer, ``delta <= 256**k``) into lower
levels.  Each occupancy scan is a rotate-and-count-trailing-zeros on a
256-bit occupancy bitmap per level.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional

_TICK_HZ = 256.0            # ticks per simulated second
_SLOT_BITS = 8
_SLOTS = 1 << _SLOT_BITS    # 256 slots per level
_MASK = _SLOTS - 1
_LEVELS = 4
_SPAN = _SLOTS ** _LEVELS   # widest delta the levels can hold, in ticks
_OCC_MASK = (1 << _SLOTS) - 1


class TimerWheel:
    """Hierarchical timing wheel over ``TimerHandle`` objects.

    ``len()`` counts queued handles, cancelled shells included, until
    the wheel reaps them on the way past.
    """

    __slots__ = ("_cursor", "_buffer", "_head", "_slots", "_occ",
                 "_overflow", "_size")

    def __init__(self) -> None:
        self._cursor = 0                  # all slotted ticks are > cursor
        self._buffer: List[tuple] = []    # heap of (when, seq, handle)
        self._head: Optional[Any] = None  # popped-out next candidate
        self._slots = [{} for _ in range(_LEVELS)]  # level -> {idx: [handle]}
        self._occ = [0] * _LEVELS         # level -> 256-bit occupancy bitmap
        self._overflow: List[tuple] = []  # heap of (when, seq, handle)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        """All queued handles (cancelled shells included), any order."""
        if self._head is not None:
            yield self._head
        for _w, _s, h in self._buffer:
            yield h
        for level in self._slots:
            for idx in sorted(level):
                for h in level[idx]:
                    yield h
        for _w, _s, h in self._overflow:
            yield h

    # -- arming --------------------------------------------------------

    def push(self, handle: Any) -> None:
        self._size += 1
        tick = int(handle.when * _TICK_HZ)
        delta = tick - self._cursor
        if delta <= 0:
            # Due at (or quantized behind) the cursor: compete directly
            # in the buffer.  If it beats the popped-out head, the head
            # is demoted so peek() re-runs the contest.
            head = self._head
            if head is not None and (handle.when, handle.seq) < (head.when,
                                                                 head.seq):
                heapq.heappush(self._buffer, (head.when, head.seq, head))
                self._head = None
            heapq.heappush(self._buffer, (handle.when, handle.seq, handle))
            return
        self._place(handle, tick, delta)

    def _place(self, handle: Any, tick: int, delta: int) -> None:
        """Bucket a strictly-future handle by its distance from the cursor."""
        if delta <= _SLOTS:
            k = 0
        elif delta <= _SLOTS ** 2:
            k = 1
        elif delta <= _SLOTS ** 3:
            k = 2
        elif delta <= _SPAN:
            k = 3
        else:
            heapq.heappush(self._overflow, (handle.when, handle.seq, handle))
            return
        idx = (tick >> (_SLOT_BITS * k)) & _MASK
        slots = self._slots[k]
        bucket = slots.get(idx)
        if bucket is None:
            slots[idx] = [handle]
            self._occ[k] |= 1 << idx
        else:
            bucket.append(handle)

    # -- draining ------------------------------------------------------

    def peek(self) -> Optional[Any]:
        """The live handle with the lowest ``(when, seq)``, or None.

        Stable: repeated peeks return the same handle until it is popped,
        cancelled, or beaten by a newly pushed earlier timer.
        """
        while True:
            head = self._head
            if head is not None:
                if not head.cancelled:
                    return head
                self._head = None
                self._size -= 1
            buffer = self._buffer
            while buffer:
                _when, _seq, handle = heapq.heappop(buffer)
                if handle.cancelled:
                    self._size -= 1
                    continue
                self._head = handle
                return handle
            if not self._refill():
                return None

    def pop(self) -> Any:
        """Remove and return the handle the last :meth:`peek` returned."""
        handle = self._head
        self._head = None
        self._size -= 1
        return handle

    def note_cancelled(self) -> None:
        """Cancelled handles are reaped lazily when their slot is reached."""

    def _refill(self) -> bool:
        """Advance the cursor to the next occupied position and load it.

        Returns True when the buffer gained at least one entry.  Picks
        the earliest candidate across all levels and the overflow heap;
        higher levels cascade (win ties) because their slot may hide
        entries earlier than anything level 0 can expose.
        """
        while True:
            best_start = -1
            best_k = -1
            cursor = self._cursor
            for k in range(_LEVELS):
                occ = self._occ[k]
                if not occ:
                    continue
                shift = _SLOT_BITS * k
                level_pos = cursor >> shift
                pos = level_pos & _MASK
                # Rotate so the slot just after the cursor is bit 0, then
                # count trailing zeros: d in [1, 256] circular steps ahead.
                rot = ((occ >> (pos + 1))
                       | (occ << (_MASK - pos))) & _OCC_MASK
                d = (rot & -rot).bit_length()
                start = (level_pos + d) << shift
                if best_start < 0 or start < best_start or \
                        (start == best_start and k > best_k):
                    best_start = start
                    best_k = k
            overflow = self._overflow
            if overflow:
                over_tick = int(overflow[0][0] * _TICK_HZ)
                if best_start < 0 or over_tick <= best_start:
                    # Far timers have drifted into (or tie) the scan
                    # horizon: pull them into the levels and rescan.
                    if best_start < 0:
                        # Levels are empty; jump the cursor so the
                        # earliest far timer fits, then redistribute.
                        self._cursor = cursor = max(cursor, over_tick - 1)
                        horizon = cursor + _SPAN
                    else:
                        horizon = best_start
                    while overflow and \
                            int(overflow[0][0] * _TICK_HZ) <= horizon:
                        when, seq, handle = heapq.heappop(overflow)
                        if handle.cancelled:
                            self._size -= 1
                            continue
                        tick = int(when * _TICK_HZ)
                        delta = tick - cursor
                        if delta <= 0:
                            heapq.heappush(self._buffer, (when, seq, handle))
                        else:
                            self._place(handle, tick, delta)
                    continue
            if best_start < 0:
                return False
            shift = _SLOT_BITS * best_k
            idx = (best_start >> shift) & _MASK
            bucket = self._slots[best_k].pop(idx)
            self._occ[best_k] &= ~(1 << idx)
            if best_k == 0:
                self._cursor = best_start
                loaded = False
                for handle in bucket:
                    if handle.cancelled:
                        self._size -= 1
                        continue
                    heapq.heappush(self._buffer,
                                   (handle.when, handle.seq, handle))
                    loaded = True
                if loaded:
                    return True
                continue  # slot was all cancelled shells; keep scanning
            # Cascade: step to just before the slot's range and re-place
            # its entries -- deltas are now in [1, 256**k], so every one
            # lands at a strictly lower level.
            self._cursor = cursor = best_start - 1
            for handle in bucket:
                if handle.cancelled:
                    self._size -= 1
                    continue
                tick = int(handle.when * _TICK_HZ)
                delta = tick - cursor
                if delta <= 0:
                    heapq.heappush(self._buffer,
                                   (handle.when, handle.seq, handle))
                else:
                    self._place(handle, tick, delta)


class TimerHeap:
    """The original binary-heap backend: reference implementation/oracle.

    Same five-operation interface as :class:`TimerWheel`.  Cancelled
    handles are dropped lazily at peek time; `note_cancelled` keeps the
    mass-cancellation compaction (``wait_for`` churn can leave the heap
    mostly dead shells) -- rebuilding via ``heapify`` preserves
    ``(when, seq)`` order exactly, so compaction is invisible to event
    ordering.
    """

    __slots__ = ("_heap", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._heap)

    def push(self, handle: Any) -> None:
        heapq.heappush(self._heap, handle)

    def peek(self) -> Optional[Any]:
        heap = self._heap
        while heap:
            handle = heap[0]
            if not handle.cancelled:
                return handle
            heapq.heappop(heap)
            if self._cancelled:
                self._cancelled -= 1
        return None

    def pop(self) -> Any:
        return heapq.heappop(self._heap)

    def note_cancelled(self) -> None:
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled * 2 > len(self._heap):
            heap = self._heap
            heap[:] = [h for h in heap if not h.cancelled]
            heapq.heapify(heap)
            self._cancelled = 0
