"""Fault schedules: ordered fault lists, generated or loaded, replayable.

A :class:`FaultSchedule` is the unit the whole engine deals in: the
generator samples one from a seeded stream, the runner replays one
deterministically, the minimizer shrinks one, and JSON files round-trip
one (``repro chaos --schedule FILE``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.chaos.faults import Fault, FaultError, sort_key
from repro.core.naming.replica import LOG_KEY as NS_LOG_KEY
from repro.core.replication import entry_key
from repro.db.service import LOG_KEY as DB_LOG_KEY
from repro.sim.rand import SeededRandom

#: services the generator may kill (every SSC-restartable process; the
#: SSC itself has its own fault kind since killing it kills its children).
KILLABLE_SERVICES = ["mds", "rds", "mms", "cmgr", "vod", "shopping", "game",
                     "ras", "settopmgr", "db", "fileservice", "boot", "kbs",
                     "csc", "ns"]

#: services a generated load_surge / slow_consumer may target: the
#: admission-gated ones with a known cheap probe operation.
SURGEABLE_SERVICES = ["vod", "shopping", "mms", "mds"]

#: durable keys a generated disk_corrupt may bit-rot: the replication
#: state the storage recovery paths must survive losing.  The first
#: entry key of either change log -- garbling it invalidates the whole
#: on-disk chain, the worst case the truncate-to-valid-prefix recovery
#: must absorb -- and the NS log's header, its checkpoint of the name
#: tree (written once the log first compacts).
DISK_FAULT_KEYS = [entry_key(DB_LOG_KEY, 1), entry_key(NS_LOG_KEY, 1),
                   NS_LOG_KEY]

SCHEDULE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted fault script plus its horizon.

    ``horizon`` is when active disturbance ends: the engine heals all
    partitions and link faults there, then lets the cluster quiesce
    before the final invariant checks.
    """

    faults: tuple = field(default_factory=tuple)
    horizon: float = 240.0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=sort_key))
        object.__setattr__(self, "faults", ordered)
        for fault in ordered:
            if fault.at >= self.horizon:
                raise FaultError(
                    f"fault at t={fault.at} is past the horizon "
                    f"{self.horizon} (faults must precede the heal-all)")

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    # -- shrinking operations (repro.chaos.minimize) --------------------

    def without(self, index: int) -> "FaultSchedule":
        """A copy with fault ``index`` dropped."""
        kept = self.faults[:index] + self.faults[index + 1:]
        return FaultSchedule(faults=kept, horizon=self.horizon)

    def advanced(self, index: int, new_at: float) -> "FaultSchedule":
        """A copy with fault ``index`` moved to ``new_at`` (re-sorted)."""
        moved = self.faults[index].moved_to(new_at)
        rest = self.faults[:index] + self.faults[index + 1:]
        return FaultSchedule(faults=rest + (moved,), horizon=self.horizon)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"version": SCHEDULE_FORMAT_VERSION,
                "horizon": self.horizon,
                "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSchedule":
        """A schedule, or the minimizer's record by its ``schedule``."""
        data = data.get("schedule", data)
        version = data.get("version", SCHEDULE_FORMAT_VERSION)
        if version != SCHEDULE_FORMAT_VERSION:
            raise FaultError(f"unsupported schedule version {version}")
        if not isinstance(data.get("faults"), list):
            raise FaultError("a schedule needs a 'faults' list")
        faults = tuple(Fault.from_dict(f) for f in data["faults"])
        return cls(faults=faults, horizon=float(data.get("horizon", 240.0)))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps() + "\n")

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def describe(self) -> List[str]:
        return [f"t={f.at:8.2f}  {f.describe()}" for f in self.faults]


def generate_schedule(rng: SeededRandom, n_faults: int = 8,
                      horizon: float = 240.0, n_servers: int = 3,
                      n_settops: int = 4,
                      services: Optional[List[str]] = None) -> FaultSchedule:
    """Sample a fault schedule from a seeded substream.

    The mix favors process kills (the paper's common case) over node
    crashes and network faults.  Two generation invariants keep random
    schedules *survivable*, so a monitor violation means a real bug
    rather than an impossible situation:

    - at most one server is crash-downed at a time, and every crash is
      paired with a reboot before the horizon (a majority of name-service
      replicas must eventually exist for the cluster to recover);
    - at most one partition is open at a time, and every partition is
      paired with a heal.
    """
    if n_faults < 1:
        raise FaultError("n_faults must be >= 1")
    if horizon < 60.0:
        raise FaultError("horizon must be >= 60 s (boot + one audit cycle)")
    services = services or KILLABLE_SERVICES
    faults: List[Fault] = []
    crash_used = False
    partition_used = False
    lo, hi = 10.0, horizon - 15.0

    while len(faults) < n_faults:
        at = rng.uniform(lo, hi)
        roll = rng.random()
        if roll < 0.36:
            faults.append(Fault(at, "kill_service", {
                "server": rng.randint(0, n_servers - 1),
                "service": rng.choice(services)}))
        elif roll < 0.44:
            faults.append(Fault(at, "kill_ssc",
                                {"server": rng.randint(0, n_servers - 1)}))
        elif roll < 0.54:
            if crash_used:
                continue
            crash_used = True
            server = rng.randint(0, n_servers - 1)
            back = min(at + rng.uniform(20.0, 50.0), hi)
            faults.append(Fault(at, "crash_server", {"server": server}))
            faults.append(Fault(back, "reboot_server", {"server": server}))
        elif roll < 0.64:
            if partition_used:
                continue
            partition_used = True
            isolated = rng.randint(0, n_servers - 1)
            others = [i for i in range(n_servers) if i != isolated]
            heal_at = min(at + rng.uniform(15.0, 40.0), hi)
            faults.append(Fault(at, "partition", {"servers_a": [isolated],
                                                  "servers_b": others}))
            faults.append(Fault(heal_at, "heal", {}))
        elif roll < 0.69:
            faults.append(Fault(at, "loss", {
                "target": _pick_target(rng, n_servers, n_settops),
                "probability": round(rng.uniform(0.05, 0.25), 3)}))
        elif roll < 0.73:
            faults.append(Fault(at, "delay", {
                "target": _pick_target(rng, n_servers, n_settops),
                "extra": round(rng.uniform(0.2, 1.0), 3)}))
        elif roll < 0.77:
            faults.append(Fault(at, "duplicate", {
                "target": _pick_target(rng, n_servers, n_settops),
                "probability": round(rng.uniform(0.1, 0.5), 3)}))
        # -- hostile-delivery faults ------------------------------------
        elif roll < 0.805:
            faults.append(Fault(at, "reorder", {
                "target": _pick_target(rng, n_servers, n_settops),
                "probability": round(rng.uniform(0.1, 0.5), 3),
                "max_skew": round(rng.uniform(0.02, 0.2), 3)}))
        elif roll < 0.83:
            faults.append(Fault(at, "corrupt", {
                "target": _pick_target(rng, n_servers, n_settops),
                "probability": round(rng.uniform(0.05, 0.3), 3)}))
        elif roll < 0.855:
            faults.append(Fault(at, "gray", {
                "server": rng.randint(0, n_servers - 1),
                "reply_lag": round(rng.uniform(0.3, 1.5), 3)}))
        elif roll < 0.88:
            # Flash crowd against an overload-aware service.
            faults.append(Fault(at, "load_surge", {
                "service": rng.choice(SURGEABLE_SERVICES),
                "calls": rng.randint(50, 300),
                "duration": round(rng.uniform(5.0, 20.0), 1)}))
        elif roll < 0.905:
            faults.append(Fault(at, "slow_consumer", {
                "server": rng.randint(0, n_servers - 1),
                "service": rng.choice(SURGEABLE_SERVICES),
                "lag": round(rng.uniform(0.2, 2.0), 3)}))
        # -- storage faults ---------------------------------------------
        elif roll < 0.93:
            faults.append(Fault(at, "disk_lose_unsynced",
                                {"server": rng.randint(0, n_servers - 1)}))
        elif roll < 0.955:
            faults.append(Fault(at, "disk_torn_write",
                                {"server": rng.randint(0, n_servers - 1)}))
        elif roll < 0.98:
            faults.append(Fault(at, "disk_corrupt", {
                "server": rng.randint(0, n_servers - 1),
                "key": rng.choice(DISK_FAULT_KEYS)}))
        else:
            # Bounded wedge: the duration guarantees self-heal, so a
            # random schedule stays survivable (generation invariant).
            faults.append(Fault(at, "disk_wedge", {
                "server": rng.randint(0, n_servers - 1),
                "duration": round(rng.uniform(10.0, 30.0), 1)}))
    return FaultSchedule(faults=tuple(faults), horizon=horizon)


def _pick_target(rng: SeededRandom, n_servers: int, n_settops: int) -> str:
    if n_settops and rng.random() < 0.5:
        return f"settop:{rng.randint(0, n_settops - 1)}"
    return f"server:{rng.randint(0, n_servers - 1)}"
