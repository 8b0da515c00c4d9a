"""Replication accounting: what the change-log shipping actually did.

One collection surface shared by the chaos engine, the replication
tests, and experiment E16, so they all report the same numbers the same
way.  Like every other collector it only *reads* replica state
(attachments, change-log cursors, counters) -- it must never perturb
the run it measures.

The load-bearing number is the per-group ``converged`` verdict: the
change-log digest is a running hash chain over ``(seq, op)``, so two
replicas holding the same digest applied the *same updates in the same
order* -- a far stronger claim than matching sequence numbers.  A chaos
run that quiesces with ``converged`` false on any group has hit exactly
the silent replication gap PR 7 exists to close.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


def live_replicas(cluster, kind: str) -> Iterator[Tuple[str, object]]:
    """``(server ip, store)`` for every live replica of ``"ns"``/``"db"``.

    The one way monitors, collectors and ``Cluster`` introspection reach
    replica state: each :class:`~repro.core.replication.ReplicatedStore`
    attaches itself to its process, so cursor, digest, primary flag and
    catch-up counters read the same for both services.
    """
    for host in cluster.servers:
        proc = host.find_process(kind)
        store = proc.attachments.get("repl") if proc is not None else None
        if store is not None:
            yield host.ip, store


def collect_replication(cluster) -> Dict[str, dict]:
    """Aggregate replication state across one cluster run.

    Returns one section per replicated service (``"ns"``, ``"db"``),
    each with the per-replica rows (cursor, digest, catch-up counters),
    the elected primary's ip, and the ``converged`` verdict: every live
    replica's log digest equals the primary's.
    """
    out: Dict[str, dict] = {}
    for kind in ("ns", "db"):
        stores = list(live_replicas(cluster, kind))
        rows = [{
            "ip": ip,
            "seq": store.log.seq,
            "digest": store.log.digest,
            "catch_ups": store.catch_ups,
            "catch_up_ops": store.catch_up_ops,
            "snapshot_fetches": store.snapshot_fetches,
            # A wedged disk (PR 8) stalls this replica's log and gauges;
            # the marker tells a convergence report why the row froze.
            "wedged": store.log.disk.wedged,
        } for ip, store in stores]
        primaries = [ip for ip, store in stores if store.is_primary]
        out[kind] = {
            "primary": primaries[-1] if primaries else None,
            "replicas": rows,
            "converged": len({row["digest"] for row in rows}) <= 1,
            "catch_ups": sum(r["catch_ups"] for r in rows),
            "catch_up_ops": sum(r["catch_up_ops"] for r in rows),
            "snapshot_fetches": sum(r["snapshot_fetches"] for r in rows),
        }
    return out


def all_converged(replication: Dict[str, dict]) -> bool:
    """True when every replicated group quiesced with one log digest."""
    return all(section.get("converged", False)
               for section in replication.values())
