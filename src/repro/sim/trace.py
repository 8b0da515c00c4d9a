"""Structured event tracing for simulations.

A :class:`TraceLog` collects ``(time, category, event, fields)`` tuples.
Benchmarks and availability analysis consume these instead of scraping
stdout; tests assert on them to check exact mechanism behaviour (e.g. the
sequence of bind-retry failures before a backup takes over).

Cost model (see DESIGN.md, "Hot-path cost model"): ``emit`` is on the
simulation hot path -- every message, failover and viewer action emits --
so it is a bare append of a slotted event object.  Queries are served
from lazily built per-``(category, event)`` indices: the first
``select("mms", "promoted")`` scans whatever suffix of the log the index
has not seen yet, and every later query for the same key costs
O(new events since last query) to catch the index up plus O(matches) to
answer.  Repeated polling of the same keys (what tests and experiments
do) therefore never rescans the log from the start.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class TraceEvent:
    """One trace record.  Slotted: a simulation emits millions of these."""

    __slots__ = ("time", "category", "event", "fields")

    def __init__(self, time: float, category: str, event: str,
                 fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.category = category
        self.event = event
        self.fields = fields if fields is not None else {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.time == other.time and self.category == other.category
                and self.event == other.event and self.fields == other.fields)

    # Events carry a dict, so like the frozen dataclass this replaces they
    # are not hashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:10.3f}] {self.category}.{self.event} {kv}"


class TraceLog:
    """An append-only trace with indexed category/event filtering."""

    def __init__(self, kernel, enabled: bool = True):
        self._kernel = kernel
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        # (category|None, event|None) -> [events_scanned, matches]
        self._index: Dict[Tuple[Optional[str], Optional[str]],
                          List[Any]] = {}

    def emit(self, category: str, event: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(self._kernel.now, category, event, fields))

    def _matches(self, category: Optional[str],
                 event: Optional[str]) -> List[TraceEvent]:
        """The index lane: catch the (category, event) slot up, return it."""
        entry = self._index.get((category, event))
        if entry is None:
            entry = [0, []]
            self._index[(category, event)] = entry
        events = self.events
        n = len(events)
        scanned = entry[0]
        if scanned < n:
            out = entry[1]
            for i in range(scanned, n):
                ev = events[i]
                if category is not None and ev.category != category:
                    continue
                if event is not None and ev.event != event:
                    continue
                out.append(ev)
            entry[0] = n
        return entry[1]

    def select(self, category: Optional[str] = None,
               event: Optional[str] = None, **field_filters: Any) -> List[TraceEvent]:
        """Return events matching category, event name, and field values."""
        matches = self._matches(category, event)
        if not field_filters:
            return list(matches)
        items = list(field_filters.items())
        return [ev for ev in matches
                if not any(ev.fields.get(k) != v for k, v in items)]

    def count(self, category: Optional[str] = None, event: Optional[str] = None) -> int:
        return len(self._matches(category, event))

    def last(self, category: Optional[str] = None,
             event: Optional[str] = None) -> Optional[TraceEvent]:
        matches = self._matches(category, event)
        return matches[-1] if matches else None

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
