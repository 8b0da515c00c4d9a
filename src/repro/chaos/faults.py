"""The fault vocabulary: every disturbance the chaos engine can inject.

Each fault is a small, serializable record -- *what* happens and *when*,
never *how* (the how lives in :mod:`repro.chaos.injector`).  Keeping
faults as data is what makes the rest of the engine possible: schedules
can be generated from a seeded stream, written to JSON, replayed
byte-identically, and shrunk fault-by-fault by the minimizer.

The vocabulary covers the paper's failure model (section 4.7 "failures
we handle": process death, node death, and the audits that clean up
after both) plus the plant-level faults the deployed system saw but the
paper only alludes to: message loss on the cable plant, delay,
duplication, and gray failures (a replica that answers, slowly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

#: fault kind -> (required arg names, optional arg names).
#: ``target`` args name a host as ``server:<i>`` or ``settop:<i>``.
FAULT_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # -- process and node failures (paper section 4.7) ------------------
    "kill_service": (("server", "service"), ()),
    "kill_ssc": (("server",), ()),
    "stop_service": (("server", "service"), ()),   # operator stop: no restart
    "crash_server": (("server",), ()),
    "reboot_server": (("server",), ()),
    "crash_settop": (("settop",), ()),
    # -- network faults --------------------------------------------------
    "partition": (("servers_a", "servers_b"), ()),
    "heal": ((), ()),
    "loss": (("target", "probability"), ()),
    "delay": (("target", "extra"), ()),
    "duplicate": (("target", "probability"), ()),
    # reorder: a hit message is held back up to ``max_skew`` seconds on
    # the target's in-link, so later sends overtake it.
    "reorder": (("target", "probability"), ("max_skew",)),
    # corrupt: a hit message is delivered payload-damaged; the receiver's
    # envelope checksum is expected to catch and drop it.
    "corrupt": (("target", "probability"), ()),
    "gray": (("server", "reply_lag"), ()),
    "clear_link_faults": ((), ()),
    # -- overload faults -------------------------------------------------
    # load_surge: burst clients hammer ``service`` with ``calls`` short-
    # deadline invocations spread over ``duration`` seconds (flash crowd).
    "load_surge": (("service", "calls"), ("duration", "settop")),
    # slow_consumer: the named service's servants acquire ``lag`` seconds
    # of dequeue delay, so queues build and deadlines expire in-queue.
    "slow_consumer": (("server", "service", "lag"), ()),
    # -- storage faults --------------------------------------------------
    # disk_lose_unsynced: switch the server's disk to write-barrier mode,
    # so writes not followed by sync() evaporate at the next crash.
    "disk_lose_unsynced": (("server",), ()),
    # disk_torn_write: arm a one-shot torn write -- the next buffered key
    # survives the next crash only as a CorruptBlob (partial sector).
    "disk_torn_write": (("server",), ()),
    # disk_corrupt: bit-rot the named durable key in place, immediately.
    "disk_corrupt": (("server", "key"), ()),
    # disk_wedge: every disk op raises DiskWedged until healed (or until
    # ``duration`` seconds elapse, when given).
    "disk_wedge": (("server",), ("duration",)),
}


class FaultError(ValueError):
    """A fault record is malformed (unknown kind or bad arguments)."""


@dataclass(frozen=True)
class Fault:
    """One injected disturbance at one simulated instant.

    ``at`` is seconds after the schedule starts (scenario-relative, like
    :meth:`repro.cluster.scenario.Scenario.at` offsets).
    """

    at: float
    kind: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_fault(self.kind, self.args, at=self.at)

    def to_dict(self) -> Dict[str, Any]:
        return {"at": self.at, "kind": self.kind, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fault":
        try:
            return cls(at=float(data["at"]), kind=str(data["kind"]),
                       args=dict(data.get("args", {})))
        except KeyError as err:
            raise FaultError(f"fault record missing field {err}") from err

    def describe(self) -> str:
        """One-line rendering for trace lines and schedule listings."""
        args = " ".join(f"{k}={self.args[k]}" for k in sorted(self.args))
        return f"{self.kind}({args})" if args else self.kind

    def moved_to(self, new_at: float) -> "Fault":
        return Fault(at=new_at, kind=self.kind, args=dict(self.args))


def validate_fault(kind: str, args: Mapping[str, Any], at: float = 0.0) -> None:
    if at < 0:
        raise FaultError(f"fault time must be >= 0, got {at}")
    spec = FAULT_KINDS.get(kind)
    if spec is None:
        known = ", ".join(sorted(FAULT_KINDS))
        raise FaultError(f"unknown fault kind {kind!r} (known: {known})")
    required, optional = spec
    missing = [name for name in required if name not in args]
    if missing:
        raise FaultError(f"{kind}: missing argument(s) {missing}")
    extra = [name for name in args if name not in required + optional]
    if extra:
        raise FaultError(f"{kind}: unknown argument(s) {extra}")
    for name in ("probability",):
        if name in args and not 0.0 <= float(args[name]) <= 1.0:
            raise FaultError(f"{kind}: {name} must be in [0, 1]")
    for name in ("extra", "reply_lag", "lag", "duration"):
        if name in args and float(args[name]) < 0:
            raise FaultError(f"{kind}: {name} must be >= 0")
    for name in ("max_skew",):
        if name in args and float(args[name]) <= 0:
            raise FaultError(f"{kind}: {name} must be > 0")
    for name in ("calls",):
        if name in args and int(args[name]) <= 0:
            raise FaultError(f"{kind}: {name} must be > 0")
    for name in ("target",):
        if name in args:
            parse_target(str(args[name]))


def parse_target(target: str) -> Tuple[str, int]:
    """``server:0`` / ``settop:2`` -> ("server", 0) / ("settop", 2)."""
    kind, sep, index = target.partition(":")
    if not sep or kind not in ("server", "settop") or not index.isdigit():
        raise FaultError(
            f"bad target {target!r}: expected server:<i> or settop:<i>")
    return kind, int(index)


def sort_key(fault: Fault) -> Tuple[float, str, str]:
    """Deterministic total order for schedules (time, then rendering)."""
    return (fault.at, fault.kind, fault.describe())
