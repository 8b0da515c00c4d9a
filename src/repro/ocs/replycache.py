"""Server-side at-most-once dedup: the per-service reply cache.

Every two-way call envelope carries a ``(client_id, call_seq)`` request
id; retries re-issue under the *same* id.  The cache gives the dispatch
path one question to ask per incoming call -- :meth:`ReplyCache.begin`
-- with four possible verdicts:

- ``execute``: first sighting; run the servant and :meth:`complete`.
- ``inflight``: the same request id is executing right now (a duplicate
  or an impatient retry overtook the reply).  The caller is parked as a
  waiter and answered from the original execution when it completes.
- ``replay``: the request already executed; the stored reply record is
  re-sent verbatim.  The servant never runs again.
- ``stale``: the id fell below the client's eviction floor.  It can
  only be a duplicate of a long-completed request, so it is dropped
  (never executed) -- re-execution is the one unrecoverable error.

Eviction is LRU over *completed* entries only, bounded by ``capacity``;
an entry with a retry still executing can never be evicted, so a parked
waiter always finds its reply.  Evicting a completed entry raises that
client's floor to the evicted sequence number: any later arrival at or
below the floor with no entry is dropped as stale.  The floor trades a
sliver of liveness (a request reordered behind ``capacity`` completed
calls from the same client is dropped and must fail over) for the
safety guarantee that an executed-and-forgotten request id is never
executed a second time by this incarnation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple


class _Entry:
    """One request id's lifecycle: inflight (waiters park) or done."""

    __slots__ = ("seq", "done", "reply", "waiters")

    def __init__(self, seq: int):
        self.seq = seq
        self.done = False
        #: the marshaled reply record (``{"ok": ...}``), once done.
        self.reply: Any = None
        #: duplicate arrivals parked while the first execution runs:
        #: (incoming message, its call_id) pairs, answered at complete().
        self.waiters: List[Tuple[Any, int]] = []


class ReplyCache:
    """Seq-windowed dedup keyed by ``(client_id, call_seq)``."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("reply cache capacity must be >= 1")
        self.capacity = capacity
        self._clients: Dict[str, Dict[int, _Entry]] = {}
        #: per-client eviction floor: seqs <= floor with no entry are
        #: stale duplicates (monotonically non-decreasing).
        self._floor: Dict[str, int] = {}
        #: LRU order over completed entries only.
        self._lru: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self.executions = 0
        self.replays = 0
        self.suppressed = 0
        self.stale_drops = 0
        self.evictions = 0

    def begin(self, client: str, seq: int) -> Tuple[str, Optional[_Entry]]:
        """Classify one arrival; records an inflight entry on ``execute``."""
        entries = self._clients.get(client)
        if entries is not None:
            entry = entries.get(seq)
            if entry is not None:
                if entry.done:
                    self.replays += 1
                    self._lru.move_to_end((client, seq))
                    return "replay", entry
                self.suppressed += 1
                return "inflight", entry
        if seq <= self._floor.get(client, 0):
            self.stale_drops += 1
            return "stale", None
        entry = _Entry(seq)
        if entries is None:
            entries = self._clients[client] = {}
        entries[seq] = entry
        self.executions += 1
        return "execute", entry

    def complete(self, client: str, seq: int,
                 reply: Any) -> List[Tuple[Any, int]]:
        """Store the executed reply; returns the parked waiters to answer."""
        entries = self._clients.get(client)
        entry = entries.get(seq) if entries is not None else None
        if entry is None:
            return []   # aborted (or this runtime's cache was disabled)
        entry.done = True
        entry.reply = reply
        waiters, entry.waiters = entry.waiters, []
        self._lru[(client, seq)] = None
        self._evict()
        return waiters

    def abort(self, client: str, seq: int) -> List[Tuple[Any, int]]:
        """The request was rejected *before* executing (expired in
        queue): forget the inflight entry so a retry can run, and hand
        back any parked waiters for an error reply.  A *completed*
        entry is never forgotten here -- aborting it would orphan its
        LRU slot and, worse, let the executed id run again."""
        entries = self._clients.get(client)
        if entries is None:
            return []
        entry = entries.get(seq)
        if entry is None or entry.done:
            return []
        del entries[seq]
        if not entries:
            del self._clients[client]
        return entry.waiters

    def _evict(self) -> None:
        while len(self._lru) > self.capacity:
            (client, seq), _ = self._lru.popitem(last=False)
            entries = self._clients.get(client)
            if entries is not None:
                entries.pop(seq, None)
                if not entries:
                    del self._clients[client]
            if seq > self._floor.get(client, 0):
                self._floor[client] = seq
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """This cache's counters and its current ``cached`` depth."""
        return {"executions": self.executions, "replays": self.replays,
                "suppressed": self.suppressed,
                "stale_drops": self.stale_drops,
                "evictions": self.evictions,
                "cached": len(self._lru)}
