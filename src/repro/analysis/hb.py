"""Happens-before analysis over a run's ``hb.*`` trace events.

When a run is started with ``Params.hb_trace`` the kernel carries an
``hb_log`` sink and the instrumented layers emit four event kinds into
the trace under category ``hb``:

- ``bind``  (ep, actor): an OCS runtime bound ``ip:port`` for process
  ``ip/pid`` -- the mapping that attributes wire endpoints to actors;
- ``send``  (msg, src, dst): the network accepted datagram ``msg`` from
  endpoint ``src``;
- ``recv``  (msg, dst): the datagram was handed to ``dst``'s handler;
- ``write`` (actor, var, ver): an actor mutated a piece of shared
  cluster state (a name-space path, a database row, a binding-cache
  entry), tagged with a version so replicated copies of *the same*
  update stay distinguishable from conflicting ones.

This module replays those events in trace order and maintains one
vector clock per actor (a ``(host, pid)`` pair rendered ``ip/pid``):
program order advances an actor's own component, a ``recv`` joins the
clock snapshot captured at the matching ``send``.  Two writes to the same
variable *race* when they come from different actors, carry different
versions, and neither happens-before the other -- the unordered
dual-write that split-brain masters and stale primaries produce, and
that replicated fan-out of one update (same version everywhere) does
not.

The per-variable write chains double as a conformance oracle: two runs
conform when :func:`write_order_digests` agree, i.e. every piece of
shared state saw the same updates in the same order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: stop reporting races on one variable after this many pairs (a true
#: split-brain touches many rows; the first few pin the bug).
MAX_RACES_PER_VAR = 4
MAX_RACES_TOTAL = 64

VectorClock = Dict[str, int]


def _leq(a: VectorClock, b: VectorClock) -> bool:
    """a happens-before-or-equals b."""
    for actor, count in a.items():
        if count > b.get(actor, 0):
            return False
    return True


@dataclass(frozen=True)
class HbWrite:
    """One recorded mutation of shared state."""

    actor: str
    time: float
    var: str
    ver: Optional[str]
    clock: Tuple[Tuple[str, int], ...]   # frozen vector snapshot

    def vclock(self) -> VectorClock:
        return dict(self.clock)

    def describe(self) -> str:
        return f"{self.var}={self.ver!r} by {self.actor} at t={self.time:.3f}"


@dataclass(frozen=True)
class HbRace:
    """Two unordered conflicting writes to the same variable."""

    var: str
    first: HbWrite
    second: HbWrite

    def describe(self) -> str:
        return (f"unordered conflicting writes to {self.var}: "
                f"[{self.first.ver!r} by {self.first.actor} "
                f"t={self.first.time:.3f}] vs [{self.second.ver!r} by "
                f"{self.second.actor} t={self.second.time:.3f}]")


@dataclass
class HbReport:
    """What one run's happens-before graph says about its shared state."""

    events: int = 0
    writes: Dict[str, List[HbWrite]] = field(default_factory=dict)
    races: List[HbRace] = field(default_factory=list)

    def write_count(self) -> int:
        return sum(len(ws) for ws in self.writes.values())


class HbAnalyzer:
    """Replays hb events in order, building clocks and catching races."""

    def __init__(self) -> None:
        self._clocks: Dict[str, VectorClock] = {}
        self._ep_actor: Dict[str, str] = {}
        self._sends: Dict[Any, Tuple[Tuple[str, int], ...]] = {}
        self.report = HbReport()

    # -- clock plumbing -------------------------------------------------

    def _actor_for(self, endpoint: str) -> str:
        """The process behind ``ip:port`` (endpoints outlive processes;
        the latest bind wins, matching port reuse across incarnations).
        Unmapped endpoints stay their own actor -- sound, because
        under-merging can only *add* order edges that actually exist."""
        return self._ep_actor.get(endpoint, endpoint)

    def _tick(self, actor: str) -> VectorClock:
        clock = self._clocks.get(actor)
        if clock is None:
            clock = {}
            self._clocks[actor] = clock
        clock[actor] = clock.get(actor, 0) + 1
        return clock

    @staticmethod
    def _join(clock: VectorClock, snapshot: Tuple[Tuple[str, int], ...]) -> None:
        for actor, count in snapshot:
            if count > clock.get(actor, 0):
                clock[actor] = count

    @staticmethod
    def _freeze(clock: VectorClock) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(clock.items()))

    # -- event intake ---------------------------------------------------

    def feed(self, event: Mapping[str, Any]) -> None:
        """Consume one hb event dict (kind + fields, trace order)."""
        kind = event["event"]
        self.report.events += 1
        if kind == "bind":
            self._ep_actor[event["ep"]] = event["actor"]
        elif kind == "send":
            actor = self._actor_for(event["src"])
            clock = self._tick(actor)
            self._sends[event["msg"]] = self._freeze(clock)
        elif kind == "recv":
            actor = self._actor_for(event["dst"])
            clock = self._tick(actor)
            snapshot = self._sends.get(event["msg"])
            if snapshot is not None:
                self._join(clock, snapshot)
        elif kind == "write":
            self._on_write(event)

    def _on_write(self, event: Mapping[str, Any]) -> None:
        actor = event["actor"]
        var = event["var"]
        ver = event.get("ver")
        ver = None if ver is None else str(ver)
        clock = self._tick(actor)
        write = HbWrite(actor=actor, time=float(event.get("time", 0.0)),
                        var=var, ver=ver, clock=self._freeze(clock))
        chain = self.report.writes.setdefault(var, [])
        self._check_conflicts(chain, write)
        chain.append(write)

    def _check_conflicts(self, chain: List[HbWrite], new: HbWrite) -> None:
        if len(self.report.races) >= MAX_RACES_TOTAL:
            return
        found = sum(1 for r in self.report.races if r.var == new.var)
        new_clock = new.vclock()
        for prior in chain:
            if found >= MAX_RACES_PER_VAR:
                return
            if prior.actor == new.actor:
                continue  # program order
            if prior.ver is not None and prior.ver == new.ver:
                continue  # the same update, replicated: benign fan-out
            # The prior write is ordered before `new` iff its snapshot is
            # contained in new's clock.  (The reverse cannot hold: events
            # feed in trace order, so `new` never precedes `prior`.)
            if _leq(prior.vclock(), new_clock):
                continue
            self.report.races.append(HbRace(var=new.var, first=prior,
                                            second=new))
            found += 1
            if len(self.report.races) >= MAX_RACES_TOTAL:
                return


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def hb_events_from_trace(trace_events: Iterable[Any]) -> List[Dict[str, Any]]:
    """Project a TraceLog's ``hb`` category into plain event dicts."""
    out = []
    for ev in trace_events:
        if ev.category != "hb":
            continue
        rec = {"time": ev.time, "event": ev.event}
        rec.update(ev.fields)
        out.append(rec)
    return out


def analyze_events(events: Iterable[Mapping[str, Any]]) -> HbReport:
    """Run the detector over hb event dicts (trace order)."""
    analyzer = HbAnalyzer()
    for event in events:
        analyzer.feed(event)
    return analyzer.report


def analyze_trace(trace_events: Iterable[Any]) -> HbReport:
    """Run the detector over a TraceLog's events (any categories)."""
    return analyze_events(hb_events_from_trace(trace_events))


# ----------------------------------------------------------------------
# the write-order conformance oracle
# ----------------------------------------------------------------------

def write_order_digests(report: HbReport) -> Dict[str, str]:
    """Per-variable sha256 over the ordered update versions.

    Actor names and timestamps deliberately stay out of the digest: a
    real-socket backend will use different pids and wall-clock-free
    virtual times, but a conforming run must apply *the same updates in
    the same order* to every piece of shared state.  Consecutive
    duplicate versions collapse (replicated fan-out applies one update
    to N copies).
    """
    out = {}
    for var, writes in sorted(report.writes.items()):
        chain: List[str] = []
        for w in writes:
            ver = "?" if w.ver is None else w.ver
            if not chain or chain[-1] != ver:
                chain.append(ver)
        digest = hashlib.sha256("\n".join(chain).encode()).hexdigest()
        out[var] = digest
    return out
