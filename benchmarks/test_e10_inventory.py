"""E10 -- System inventory (paper sections 9.1-9.2).

Paper: "The resulting system contains about 25 services" and "The
typical service in our system only exports a single object ...  The only
services that dynamically create objects are the Media Delivery Service,
which creates one object for every open movie, and the name service,
which creates one object for every context."

Regenerated: the running system's census -- service types, processes,
and exported-object counts -- checking both claims structurally.
"""

import pytest

from common import booted_cluster, once, report

# Settop-side software also counts toward the paper's "about 25
# services" (applications are services too, section 1).
SETTOP_SOFTWARE = ["settop-kernel", "appmgr", "navigator", "vod-app",
                   "shopping-app", "game-app"]


def _contexts(node):
    """The context nodes at and below ``node``."""
    if not node.is_context():
        return 0
    return 1 + sum(_contexts(child) for child in node.bindings.values())


def census(seed=10001):
    cluster, (stk,) = booted_cluster(n_servers=3, seed=seed,
                                     neighborhoods=[1])
    cluster.run_async(stk.app_manager.tune(5))
    vod = stk.app_manager.current_app
    cluster.run_async(vod.play("T2"))
    cluster.run_for(10.0)

    rows = []
    dynamic = {}
    for host in cluster.servers:
        for proc in sorted(host.processes, key=lambda p: p.name):
            runtime = proc.attachments.get("ocs")
            if runtime is None:
                continue
            exported = len(runtime._exports)
            replica = proc.attachments.get("ns_replica")
            if replica is not None:
                # The root is exported; every other context is one
                # object too, activated on demand from the tree.
                exported += _contexts(replica.store.root) - 1
            rows.append((host.name, proc.name, exported))
            dynamic.setdefault(proc.name, []).append(exported)
    server_service_types = sorted(cluster.registry.names())
    return rows, server_service_types, dynamic


@pytest.mark.benchmark(group="e10")
def test_e10_service_census(benchmark):
    rows, service_types, dynamic = once(benchmark, census)
    per_type = {}
    for _host, name, exported in rows:
        per_type.setdefault(name, []).append(exported)
    table = [(name, len(counts), max(counts))
             for name, counts in sorted(per_type.items())]
    report("E10", "service census (sections 9.1-9.2)",
           ["service", "processes", "max_objects_exported"], table,
           notes=f"server service types: {len(service_types)}; with settop "
                 f"software: {len(service_types) + len(SETTOP_SOFTWARE)} "
                 f"(paper: about 25 services built in under 15 months)")
    total_services = len(service_types) + len(SETTOP_SOFTWARE)
    # "about 25 services"
    assert 20 <= total_services <= 30

    # "The typical service ... only exports a single object."
    single_object = [name for name, counts in per_type.items()
                     if max(counts) <= 2 and name not in ("ns", "mds",
                                                          "fileservice")]
    multi_object = [name for name, counts in per_type.items()
                    if max(counts) > 2]
    assert len(single_object) >= 9, single_object
    # Dynamic object creators are exactly the paper's set (plus the file
    # service, whose contexts mirror the name service's behaviour).
    assert set(multi_object) <= {"ns", "mds", "fileservice"}, multi_object
    # The MDS with an open movie exports the service object + a movie
    # object; the name service has one object per context.
    assert max(per_type["mds"]) >= 2
    assert max(per_type["ns"]) >= 10
