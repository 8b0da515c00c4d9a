"""Selector policies for replicated contexts (paper sections 4.5, 5.1).

Two kinds exist:

- **builtin** policies, interpreted locally by whichever name-service
  replica performs the resolve.  The deployed system's two selectors --
  per-neighbourhood and per-server static assignment -- are builtins, as
  are the extras used by the ablation experiments (round-robin, random,
  least-loaded).
- **object** selectors: arbitrary ``Selector`` objects bound under the
  name ``selector`` inside the replicated context (Figure 6), invoked
  remotely.  :class:`SelectorServant` is a base class for writing them.

Builtins receive the member binding list, the original caller's IP, and a
per-replica :class:`SelectorState` for policies that need memory (e.g.
round-robin counters), and return the chosen member *name*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.naming.errors import SelectorFailed
from repro.net.address import is_settop_ip, neighborhood_of
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext
from repro.sim.rand import SeededRandom

Binding = Tuple[str, Optional[ObjectRef]]


class SelectorState:
    """Per-replica scratch state shared by all builtin policies."""

    def __init__(self, rng: Optional[SeededRandom] = None):
        self.rr_counters: Dict[str, int] = {}
        self.loads: Dict[str, Dict[str, float]] = {}
        self.rng = rng or SeededRandom(0)
        # Load threshold at which the load-aware policy skips a member.
        self.shed_level: float = SHED_LOAD

    def report_load(self, path: str, member: str, load: float) -> None:
        self.loads.setdefault(path, {})[member] = load


def _require_members(bindings: List[Binding]) -> List[Binding]:
    if not bindings:
        raise SelectorFailed("replicated context has no member bindings")
    return bindings


def select_first(bindings: List[Binding], caller_ip: str, path: str,
                 state: SelectorState) -> str:
    """The paper's "simple policy, like returning the first object"."""
    return _require_members(bindings)[0][0]


def select_round_robin(bindings: List[Binding], caller_ip: str, path: str,
                       state: SelectorState) -> str:
    members = _require_members(bindings)
    count = state.rr_counters.get(path, 0)
    state.rr_counters[path] = count + 1
    return members[count % len(members)][0]


def select_random(bindings: List[Binding], caller_ip: str, path: str,
                  state: SelectorState) -> str:
    members = _require_members(bindings)
    return members[state.rng.randint(0, len(members) - 1)][0]


def select_neighborhood(bindings: List[Binding], caller_ip: str, path: str,
                        state: SelectorState) -> str:
    """Static per-neighbourhood assignment (section 5.1).

    "The neighborhood selector object determines the neighborhood number
    of the caller from its IP address, and returns an object reference
    for the appropriate replica."  Members are bound under their
    neighbourhood number (Figure 8: ``svc/cmgr/1``, ``svc/cmgr/2``).
    """
    members = _require_members(bindings)
    if not is_settop_ip(caller_ip):
        raise SelectorFailed(
            f"neighborhood selector needs a settop caller, got {caller_ip}")
    wanted = str(neighborhood_of(caller_ip))
    for name, _ref in members:
        if name == wanted:
            return name
    raise SelectorFailed(f"no replica bound for neighborhood {wanted} in {path!r}")


def select_same_server(bindings: List[Binding], caller_ip: str, path: str,
                       state: SelectorState) -> str:
    """Static per-server assignment (section 5.1).

    "For services replicated on a per-server basis, the selector we use
    chooses the replica whose IP address matches the caller's."  Member
    names are server IPs (Figure 8's file service contexts) or the member
    reference itself lives at the caller's address.
    """
    members = _require_members(bindings)
    for name, _ref in members:
        if name == caller_ip:
            return name
    for name, ref in members:
        if ref is not None and ref.ip == caller_ip:
            return name
    raise SelectorFailed(f"no replica on caller's server {caller_ip} in {path!r}")


def select_least_loaded(bindings: List[Binding], caller_ip: str, path: str,
                        state: SelectorState) -> str:
    """Dynamic load balancing (section 5.1's "could be accomplished").

    Members report load through ``reportLoadBatch``; unreported members
    count as idle, and ties break by name for determinism.
    """
    members = _require_members(bindings)
    loads = state.loads.get(path, {})
    return min(members, key=lambda b: (loads.get(b[0], 0.0), b[0]))[0]


# Load at or above this level means the member is shedding (its
# admission gate's inflight capacity is full); the load-aware policy
# treats it as unavailable.  Overridable per replica via
# ``SelectorState.shed_level``.
SHED_LOAD = 1.0


def select_load_aware(bindings: List[Binding], caller_ip: str, path: str,
                      state: SelectorState) -> str:
    """Shed-aware rotation (PR 4; section 5.1's load-balancing knob).

    Members whose last reported load is at or above the shed level are
    skipped while any healthy member exists -- an overloaded replica
    stops receiving *new* bindings without being declared dead.  The
    healthy pool rotates round-robin so a recovered member (load report
    drops below the level, or its report ages out via ``report_load``)
    resumes service automatically.  If every member is shedding, fall
    back to plain rotation: a saturated answer still beats none, and the
    server-side gate is the final authority.
    """
    members = _require_members(bindings)
    loads = state.loads.get(path, {})
    shed_level = state.shed_level
    healthy = [b for b in members if loads.get(b[0], 0.0) < shed_level]
    pool = healthy or members
    count = state.rr_counters.get(path, 0)
    state.rr_counters[path] = count + 1
    return pool[count % len(pool)][0]


BUILTIN_SELECTORS: Dict[str, Callable[..., str]] = {
    "first": select_first,
    "roundrobin": select_round_robin,
    "random": select_random,
    "neighborhood": select_neighborhood,
    "sameserver": select_same_server,
    "leastloaded": select_least_loaded,
    "loadaware": select_load_aware,
}


def run_builtin(policy: str, bindings: List[Binding], caller_ip: str,
                path: str, state: SelectorState) -> str:
    fn = BUILTIN_SELECTORS.get(policy)
    if fn is None:
        raise SelectorFailed(f"unknown builtin selector {policy!r}")
    return fn(bindings, caller_ip, path, state)


class SelectorServant:
    """Base class for custom ``Selector`` objects (Figure 6).

    Subclasses override :meth:`choose`; export with
    ``runtime.export(servant, "Selector", object_id=...)`` and bind the
    resulting reference under ``<replicated-context>/selector``.
    """

    def choose(self, bindings: List[Binding], caller_ip: str) -> str:
        raise NotImplementedError

    async def select(self, ctx: CallContext, bindings: List[Binding],
                     caller_ip: str) -> str:
        name = self.choose(list(bindings), caller_ip)
        if not any(name == n for n, _ in bindings):
            raise SelectorFailed(f"selector chose unknown member {name!r}")
        return name


class PreferredMemberSelector(SelectorServant):
    """A custom selector preferring an explicit member, with fallback."""

    def __init__(self, preferred: str):
        self.preferred = preferred

    def choose(self, bindings: List[Binding], caller_ip: str) -> str:
        for name, _ref in bindings:
            if name == self.preferred:
                return name
        if not bindings:
            raise SelectorFailed("no members")
        return bindings[0][0]
