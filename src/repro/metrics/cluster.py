"""The cluster counter walk: one read-only pass, one flat mapping.

:func:`cluster_counters` visits every OCS runtime, admission gate,
server disk and NS/db replica of a cluster once and returns flat
``Dict[str, int]`` names.  It is what a chaos run reports, what
``repro chaos`` prints and what the drills' tests assert on.  Like the
monitors, it only *reads* state -- it must never perturb the run.

- ``ocs.*`` / ``replycache.*``: runtime counters summed over every
  runtime.  When a chaos run installed ``kernel.ledger``, each runtime
  hands it these counts on exit, and the walk adds them: a process
  killed mid-drill still counts.  Without a ledger the sums cover the
  live runtimes only.
- ``gate.<service>.*``: each service's admission gates (``replicas``,
  ``admitted``, ``shed`` summed; ``peak_queue``, ``peak_inflight`` the
  maxima).
- ``disk.*``: :meth:`~repro.sim.host.Disk.counters` summed over server
  disks.  A run whose ``lost_writes`` and ``torn_writes`` are zero never
  exercised crash consistency.
- ``repl.<ns|db>.*``: live replicas, catch-up counters, and
  ``converged`` -- 1 when every live replica holds one change-log
  digest, a running hash over ``(seq, op)``: the same updates in the
  same order.
- ``net.*``: what the fault surfaces injected.  A run that duplicated,
  reordered or corrupted nothing never exercised at-most-once.
- ``effects.*``: the evidence ledger's execution summary (chaos runs
  only); ``effects.same_actor_doubles`` must stay zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

RUNTIME_COUNTERS = ("corrupt_dropped", "corrupt_dispatched",
                    "deadline_rejects", "expired_executions")
CACHE_COUNTERS = ("executions", "replays", "suppressed", "stale_drops",
                  "evictions")


def live_runtimes(hosts) -> Iterable:
    """The OCS runtime of every process on ``hosts`` (a host lists only
    its live processes): the walk's and the monitors' probe surface."""
    for host in hosts:
        for proc in host.processes:
            runtime = proc.attachments.get("ocs")
            if runtime is not None:
                yield runtime


def live_replicas(cluster, kind: str) -> Iterator[Tuple[str, object]]:
    """``(server ip, store)`` for every live replica of ``"ns"``/``"db"``.

    The one way monitors, the walk and ``Cluster`` introspection reach
    replica state: each :class:`~repro.core.replication.ReplicatedStore`
    attaches itself to its process, so cursor, digest, primary flag and
    catch-up counters read the same for both services.
    """
    for host in cluster.servers:
        proc = host.find_process(kind)
        store = proc.attachments.get("repl") if proc is not None else None
        if store is not None:
            yield host.ip, store


def runtime_counters(runtime) -> Dict[str, int]:
    """One runtime's share of the ``ocs.*`` and ``replycache.*`` sums."""
    out = {f"ocs.{name}": getattr(runtime, name) for name in RUNTIME_COUNTERS}
    cache = runtime.reply_cache
    for name in CACHE_COUNTERS:
        out[f"replycache.{name}"] = getattr(cache, name)
    return out


def add_counts(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def cluster_counters(cluster) -> Dict[str, int]:
    """Every counter of one cluster run, by flat name (sorted)."""
    out: Dict[str, int] = {}
    ledger = cluster.kernel.ledger
    if ledger is not None:
        add_counts(out, ledger.retired)
    for runtime in live_runtimes(cluster.servers + cluster.settops):
        add_counts(out, runtime_counters(runtime))
        gate = runtime.admission
        if gate is not None:
            prefix = f"gate.{gate.service}."
            add_counts(out, {prefix + "replicas": 1,
                             prefix + "admitted": gate.admitted,
                             prefix + "shed": gate.shed_count})
            for name in ("peak_queue", "peak_inflight"):
                out[prefix + name] = max(out.get(prefix + name, 0),
                                         getattr(gate, name))
    for host in cluster.servers:
        add_counts(out, {f"disk.{name}": value
                         for name, value in host.disk.counters().items()})
    for kind in ("ns", "db"):
        stores = [store for _ip, store in live_replicas(cluster, kind)]
        prefix = f"repl.{kind}."
        out[prefix + "replicas"] = len(stores)
        out[prefix + "converged"] = int(
            len({store.log.digest for store in stores}) <= 1)
        for name in ("catch_ups", "catch_up_ops", "snapshot_fetches"):
            out[prefix + name] = sum(getattr(store, name) for store in stores)
    for name in ("duplicated", "reordered", "corrupted", "lost"):
        out[f"net.{name}"] = getattr(cluster.net, f"messages_{name}")
    if ledger is not None:
        for name, value in ledger.summary().items():
            out[f"effects.{name}"] = value
    return dict(sorted(out.items()))
