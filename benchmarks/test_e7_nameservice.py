"""E7 -- Name service replication behaviour (paper section 4.6).

Paper: "all updates are forwarded to the master, which serializes them
and multicasts them to the slaves.  Any name service replica can process
a resolve or list operation without contacting the master. ...  We
expect updates to the name space to be infrequent -- updates only occur
when services are started or restarted."

Regenerated series: (a) all updates serialize through one master no
matter which replica clients talk to; (b) election time after a master
crash; (c) steady-state update rate of a full idle cluster is ~zero
while reads keep flowing.
"""

import pytest

from repro.cluster import build_cluster, build_full_cluster
from repro.ocs.objref import ObjectRef

from common import once, report


def replica_of(cluster, host):
    proc = host.find_process("ns")
    return proc.attachments["ns_replica"] if proc else None


def make_ref(ip, port):
    return ObjectRef(ip=ip, port=port, incarnation=(0.0, 1),
                     type_id="NamingContext", object_id="x")


def run_update_serialization(seed=7001):
    cluster = build_cluster(n_servers=3, seed=seed)
    clients = [cluster.client_on(h, name=f"e7-{h.name}")
               for h in cluster.servers]
    cluster.run_async(clients[0].names.ensure_context("bench"))

    async def binder(client, tag, count):
        for i in range(count):
            await client.names.bind(f"bench/{tag}-{i}",
                                    make_ref(client.process.host.ip, i + 1))

    per_client = 40
    for i, client in enumerate(clients):
        cluster.kernel.create_task(binder(client, f"c{i}", per_client))
    cluster.run_for(30.0)
    replicas = [replica_of(cluster, h) for h in cluster.servers]
    masters = [r for r in replicas if r.role == "master"]
    rows = [(r.ip, r.role, r.changelog.seq, r.updates_forwarded)
            for r in replicas]
    return rows, masters, per_client * len(clients)


def run_master_elections(crashes=3, seed=7002):
    cluster = build_cluster(n_servers=3, seed=seed)
    times = []
    for _ in range(crashes):
        replicas = {h.ip: replica_of(cluster, h) for h in cluster.servers
                    if replica_of(cluster, h) is not None}
        master_ip = next(ip for ip, r in replicas.items()
                         if r.role == "master")
        index = cluster.server_ips.index(master_ip)
        cluster.kill_service(index, "ns")
        t0 = cluster.now
        while cluster.now - t0 < 120.0:
            cluster.run_for(0.5)
            current = [replica_of(cluster, h) for h in cluster.servers
                       if h.find_process("ns") is not None]
            live_masters = [r for r in current
                            if r is not None and r.role == "master"
                            and r.process.alive]
            if live_masters and live_masters[0].ip != master_ip:
                times.append(cluster.now - t0)
                break
        else:
            raise AssertionError("no re-election within 120s")
        cluster.run_for(10.0)  # let the restarted replica rejoin
    return times


def run_steady_state(seed=7003, window=120.0):
    cluster = build_full_cluster(n_servers=3, seed=seed)
    stk = cluster.add_settop_kernel(1)
    assert cluster.boot_settops([stk])
    cluster.run_for(30.0)  # shake out start-up binds
    replicas = [replica_of(cluster, h) for h in cluster.servers]
    seq_before = max(r.changelog.seq for r in replicas)
    reads_before = sum(r.resolves_served for r in replicas)
    cluster.run_for(window)
    seq_after = max(r.changelog.seq for r in replicas)
    reads_after = sum(r.resolves_served for r in replicas)
    return {"updates": seq_after - seq_before,
            "reads": reads_after - reads_before, "window": window}


@pytest.mark.benchmark(group="e7")
def test_e7_updates_serialize_through_master(benchmark):
    rows, masters, total_updates = once(benchmark, run_update_serialization)
    report("E7", "update serialization through the master (section 4.6)",
           ["replica", "role", "applied_seq", "updates_forwarded"], rows)
    assert len(masters) == 1
    # Every replica converged to the same sequence, which covers all the
    # client updates (plus the start-up binds).
    seqs = {seq for _ip, _role, seq, _fwd in rows}
    assert len(seqs) == 1
    assert seqs.pop() >= total_updates
    # Slaves forwarded their clients' updates instead of applying locally.
    slave_rows = [r for r in rows if r[1] == "slave"]
    assert all(fwd >= 30 for _ip, _role, _seq, fwd in slave_rows)


@pytest.mark.benchmark(group="e7")
def test_e7_master_election_time(benchmark):
    times = once(benchmark, run_master_elections)
    report("E7b", "master re-election after NS master crash",
           ["crash", "election_s"],
           [(i + 1, t) for i, t in enumerate(times)],
           notes="bound ~ election timeout (4-8s randomized) + vote round")
    assert all(t <= 20.0 for t in times)
    assert all(t >= 1.0 for t in times)


@pytest.mark.benchmark(group="e7")
def test_e7_steady_state_updates_rare(benchmark):
    result = once(benchmark, run_steady_state)
    report("E7c", "steady-state name space churn (full idle cluster)",
           ["window_s", "updates", "reads"],
           [(result["window"], result["updates"], result["reads"])],
           notes="paper: updates only occur when services are started or "
                 "restarted")
    assert result["updates"] <= 2
    assert result["reads"] > 50  # liveness machinery keeps reading
