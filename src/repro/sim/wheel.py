"""The kernel's timer store: one binary heap of ``(when, seq, handle)``.

The kernel needs one operation done fast: "give me the queued timer with
the lowest ``(when, seq)``".  :class:`TimerHeap` keeps ``heapq`` tuples
whose first two fields decide every comparison: ``seq`` is unique, so a
handle is never compared and every sift runs at C speed.  The kernel's
run loop reads and pops ``entries`` itself; ``peek``/``pop`` serve the
single-step paths (``run_one``, ``run_until_complete``).

Cancellation is lazy: a cancelled handle stays queued as a shell until
it surfaces at the top.  When shells outnumber live entries (reply
timeouts armed and disarmed by the thousand) ``note_cancelled``
compacts the heap *in place* -- the run loop holds the list -- and
``heapify`` keeps the ``(when, seq)`` pop order exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, List, Optional


class TimerHeap:
    """Queued timers as a heap of ``(when, seq, handle)`` tuples.

    ``shells`` counts cancelled handles still in ``entries``; a handle's
    ``_store`` is this heap from ``push`` until it leaves by ``pop`` or
    the kernel's run loop.
    """

    __slots__ = ("entries", "shells")

    def __init__(self) -> None:
        self.entries: List[tuple] = []
        self.shells = 0

    def push(self, handle: Any) -> None:
        handle._store = self
        heappush(self.entries, (handle.when, handle.seq, handle))

    def peek(self) -> Optional[Any]:
        """The live handle with the lowest ``(when, seq)``, or None."""
        entries = self.entries
        while entries:
            handle = entries[0][2]
            if not handle.cancelled:
                return handle
            heappop(entries)
            if self.shells:
                self.shells -= 1
        return None

    def pop(self) -> Any:
        """Remove and return the handle the last :meth:`peek` returned."""
        handle = heappop(self.entries)[2]
        handle._store = None
        return handle

    def note_cancelled(self) -> None:
        self.shells += 1
        entries = self.entries
        if self.shells > 64 and self.shells * 2 > len(entries):
            entries[:] = [e for e in entries if not e[2].cancelled]
            heapify(entries)
            self.shells = 0


class TimerWheel(TimerHeap):
    """Kept only for ``benchmarks/e2e/layers.py``, which still imports it."""
