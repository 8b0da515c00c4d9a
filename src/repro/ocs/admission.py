"""Per-service admission control: bounded inflight + bounded queue.

The paper's VOD servers capped out near 1,000 settops each (section 9.2)
and relied on Selectors (section 5.1) plus RAS load data to spread work.
A saturated replica that keeps accepting calls defeats both: queues grow
without bound, every caller waits its full timeout, and the name service
keeps routing new work at the slowest member.

:class:`AdmissionGate` bounds the damage at the server.  A call is
*admitted* only while inflight executions are below ``max_inflight``
*and* the wait queue is below ``max_queue``; otherwise it is shed
immediately with :class:`~repro.ocs.exceptions.Overloaded` carrying a
``retry_after`` hint.  That admits at most ``max_inflight + max_queue``
outstanding calls at any instant -- the bound the queue-depth chaos
monitor holds the system to.  Shedding is cheap (one reply message, no
servant work) and gives the client library a signal to steer its retry
at a different replica.
"""

from __future__ import annotations

from repro.core.params import Params

ADMISSION_RETRY_AFTER = 2.0    # server's cool-down hint on a shed call


class AdmissionGate:
    """Inflight/queue accounting for one service's OCS runtime.

    The runtime calls :meth:`try_admit` before enqueueing a call,
    :meth:`begin` when the servant starts executing, and :meth:`done`
    when it finishes (including error paths).  Between admit and begin
    the call counts as *queued*; between begin and done as *inflight*.
    """

    __slots__ = ("service", "max_inflight", "max_queue", "inflight",
                 "queued", "admitted", "shed_count", "peak_queue",
                 "peak_inflight")

    def __init__(self, service: str, params: Params):
        self.service = service
        self.max_inflight = params.admission_max_inflight
        self.max_queue = params.admission_max_queue
        self.inflight = 0
        self.queued = 0
        self.admitted = 0
        self.shed_count = 0
        self.peak_queue = 0
        self.peak_inflight = 0

    def try_admit(self) -> bool:
        """Admit (and count as queued) or shed the incoming call."""
        if self.inflight >= self.max_inflight or self.queued >= self.max_queue:
            self.shed_count += 1
            return False
        self.queued += 1
        self.admitted += 1
        if self.queued > self.peak_queue:
            self.peak_queue = self.queued
        return True

    def begin(self) -> None:
        """An admitted call left the queue and started executing."""
        if self.queued > 0:
            self.queued -= 1
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight

    def done(self) -> None:
        """The servant finished (normally or with an error)."""
        if self.inflight > 0:
            self.inflight -= 1

    def drop_queued(self) -> None:
        """An admitted call was rejected before executing (expired)."""
        if self.queued > 0:
            self.queued -= 1

    def load(self) -> float:
        """Occupancy in [0, ~2]: 1.0 means inflight capacity is full."""
        capacity = max(1, self.max_inflight)
        return (self.inflight + self.queued) / capacity

    def shedding(self) -> bool:
        return (self.inflight >= self.max_inflight
                or self.queued >= self.max_queue)

    def gauges(self) -> dict:
        """Snapshot for RAS reporting and the chaos monitors."""
        return {
            "load": self.load(),
            "inflight": self.inflight,
            "queue_depth": self.queued,
            "shedding": self.shedding(),
            "shed_count": self.shed_count,
        }


def coalesce_gauges(gauges_by_service: dict) -> dict:
    """Roll per-service gate gauges up into one server-level snapshot.

    Used by the SSC's aggregated load report: the wire carries
    one batch per server per interval, and this rollup rides along so
    operators and monitors get a single server-health number without
    re-deriving it.  Keys mirror :meth:`AdmissionGate.gauges`.
    """
    rollup = {"load": 0.0, "inflight": 0, "queue_depth": 0,
              "shedding": False, "shed_count": 0, "services": 0,
              "repl_lag": 0}
    for name in sorted(gauges_by_service):
        g = gauges_by_service[name]
        rollup["load"] = max(rollup["load"], g.get("load", 0.0))
        rollup["inflight"] += g.get("inflight", 0)
        rollup["queue_depth"] += g.get("queue_depth", 0)
        rollup["shedding"] = rollup["shedding"] or bool(g.get("shedding"))
        rollup["shed_count"] += g.get("shed_count", 0)
        rollup["services"] += 1
        # Replicated services report their change-log lag; the
        # server-level number is the worst replica on this host.
        rollup["repl_lag"] = max(rollup["repl_lag"], g.get("repl_lag", 0))
    return rollup
