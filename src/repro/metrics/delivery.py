"""Delivery accounting: what the hostile network did and what survived.

One collection surface shared by the chaos engine and the E18 drill, so
both report the same numbers the same way.  Like every other collector
it only *reads* state (network counters, runtime reply-cache stats, the
kernel-resident evidence ledger) -- it must never perturb the run.

The load-bearing numbers mirror the PR 8 disks collector: a run where
``duplicated``/``reordered``/``corrupted`` are all zero never actually
exercised the at-most-once machinery, so a green ``at_most_once``
verdict on it proves nothing.  E18 asserts they are *nonzero* for
exactly that reason -- and that ``corrupt_dispatched`` and
``same_actor_doubles`` are zero, which is the whole contract.
"""

from __future__ import annotations

from typing import Dict, Iterable


def live_runtimes(hosts) -> Iterable:
    """The OCS runtime of every process on ``hosts`` (a host lists only
    its live processes): the collectors' and monitors' probe surface."""
    for host in hosts:
        for proc in host.processes:
            runtime = proc.attachments.get("ocs")
            if runtime is not None:
                yield runtime


def collect_delivery(cluster) -> Dict[str, dict]:
    """Aggregate hostile-delivery counters across one cluster run.

    Returns a dict with three sections:

    - ``"net"``: what the fault surfaces injected (duplicated,
      reordered, corrupted message counts);
    - ``"envelopes"``: what the receivers did about it -- checksum-failed
      frames dropped vs. (should-be-zero) dispatched, plus the summed
      reply-cache counters of every live runtime;
    - ``"effects"``: the execution summary of the
      :class:`~repro.chaos.monitors.EvidenceLedger` (executions, distinct
      request ids, same-actor doubles, excused cross-actor
      re-executions), or an empty dict when no ledger was installed
      (non-chaos runs).
    """
    net = cluster.net
    envelopes = {"corrupt_dropped": 0, "corrupt_dispatched": 0,
                 "executions": 0, "replays": 0, "suppressed": 0,
                 "stale_drops": 0, "evictions": 0, "cached": 0,
                 "caching_runtimes": 0}
    for runtime in live_runtimes(list(cluster.servers)
                                 + list(cluster.settops)):
        envelopes["corrupt_dropped"] += runtime.corrupt_dropped
        envelopes["corrupt_dispatched"] += runtime.corrupt_dispatched
        envelopes["caching_runtimes"] += 1
        for key, value in runtime.reply_cache.stats().items():
            envelopes[key] += value

    ledger = cluster.kernel.ledger
    return {
        "net": {"duplicated": net.messages_duplicated,
                "reordered": net.messages_reordered,
                "corrupted": net.messages_corrupted,
                "lost": net.messages_lost},
        "envelopes": envelopes,
        "effects": ledger.summary() if ledger is not None else {},
    }


def faults_exercised(delivery: Dict[str, dict]) -> bool:
    """Did the run actually deliver duplicates/reorders/corruption?"""
    net = delivery.get("net", {})
    return (net.get("duplicated", 0) > 0 and net.get("reordered", 0) > 0
            and net.get("corrupted", 0) > 0)


def double_executions(delivery: Dict[str, dict]) -> int:
    """Same-actor double executions -- the number that must stay zero."""
    return delivery.get("effects", {}).get("same_actor_doubles", 0)
