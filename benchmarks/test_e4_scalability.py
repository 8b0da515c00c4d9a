"""E4 -- Capacity scales with servers (paper sections 1, 5.1, 9.6).

Paper: "Scalable services in our system are typically implemented with a
replica running on each server. ... To expand the system's capacity, one
acquires a new server to run an additional replica for each service.  In
our system, most service replicas operate nearly independently, so that
system capacity grows linearly with the number of servers."

Series to regenerate: (a) concurrent movie streams sustained vs number
of servers; (b) aggregate name-resolve throughput vs number of servers
(reads are local, section 4.6); both should grow ~linearly.
"""

import pytest

from repro.cluster import build_full_cluster
from repro.cluster.media import seed_default_content
from repro.core.params import Params
from repro.ocs.runtime import OCSRuntime
from repro.core.naming.client import NameClient

from common import once, report

STREAMS_PER_SERVER = 8  # scaled-down MDS disk budget for the bench


def stream_capacity(n_servers: int, seed: int = 3000) -> dict:
    params = Params(mds_disk_streams=STREAMS_PER_SERVER)
    cluster = build_full_cluster(n_servers=n_servers, params=params,
                                 seed=seed)
    # Every title on every server so placement never constrains capacity.
    seed_default_content(cluster, copies=n_servers)
    # Enough settops that per-settop downlinks never constrain it either.
    titles = ["T2", "Casablanca", "Sneakers"]
    wanted = n_servers * STREAMS_PER_SERVER
    settops = []
    per_nbhd = max(1, (wanted // 2) // len(cluster.neighborhoods) + 1)
    for nbhd in cluster.neighborhoods:
        for _ in range(per_nbhd):
            settops.append(cluster.add_settop(nbhd))
    opened = 0
    refused = 0
    probes = []
    for settop in settops:
        proc = settop.spawn("probe")
        runtime = OCSRuntime(proc, cluster.net)
        names = NameClient(runtime, cluster.server_ips, cluster.params)
        probes.append((settop, runtime, names))

    async def open_two(runtime, names, index):
        nonlocal opened, refused
        try:
            mms = await names.resolve("svc/mms")
        except Exception:  # noqa: BLE001
            refused += 2
            return
        for k in range(2):
            title = titles[(index + k) % len(titles)]
            try:
                port = runtime.network.allocate_port()
                await runtime.invoke(mms, "open", (title, port),
                                     timeout=10.0)
                opened += 1
            except Exception:  # noqa: BLE001 - capacity exhausted
                refused += 1

    for index, (settop, runtime, names) in enumerate(probes):
        cluster.kernel.create_task(open_two(runtime, names, index))
    cluster.run_for(120.0)
    return {"servers": n_servers, "capacity": n_servers * STREAMS_PER_SERVER,
            "opened": opened, "refused": refused}


def resolve_throughput(n_servers: int, clients_per_server: int = 3,
                       window: float = 10.0, seed: int = 3100) -> dict:
    """Closed-loop resolvers saturate each replica's lookup CPU; the
    aggregate rate measures cluster lookup capacity."""
    cluster = build_full_cluster(n_servers=n_servers, seed=seed)
    done = [0]

    async def resolver(client):
        while True:
            try:
                await client.names.resolve("svc/mds")
                done[0] += 1
            except Exception:  # noqa: BLE001
                await cluster.kernel.sleep(0.1)

    for host in cluster.servers:
        for i in range(clients_per_server):
            client = cluster.client_on(host, name=f"resolver-{i}")
            cluster.kernel.create_task(resolver(client))
    cluster.run_for(2.0)  # warm-up
    start = done[0]
    cluster.run_for(window)
    return {"servers": n_servers,
            "resolves_per_s": (done[0] - start) / window}


@pytest.mark.benchmark(group="e4")
def test_e4_stream_capacity_scales_linearly(benchmark):
    def run():
        return [stream_capacity(n) for n in (1, 2, 3)]

    rows_data = once(benchmark, run)
    rows = [(d["servers"], d["capacity"], d["opened"], d["refused"])
            for d in rows_data]
    report("E4", "concurrent movie streams vs servers (section 9.6)",
           ["servers", "disk_capacity", "streams_opened", "refused"],
           rows, notes="capacity grows linearly: each server adds its MDS")
    opened = {d["servers"]: d["opened"] for d in rows_data}
    # Each added server adds ~a server's worth of streams.
    assert opened[1] >= STREAMS_PER_SERVER - 1
    assert opened[2] >= 2 * STREAMS_PER_SERVER - 2
    assert opened[3] >= 3 * STREAMS_PER_SERVER - 3
    # And admission control did kick in (we over-offered on purpose).
    assert all(d["refused"] > 0 for d in rows_data)


@pytest.mark.benchmark(group="e4")
def test_e4_resolve_throughput_scales(benchmark):
    def run():
        return [resolve_throughput(n) for n in (1, 2, 4)]

    rows_data = once(benchmark, run)
    rows = [(d["servers"], round(d["resolves_per_s"], 1)) for d in rows_data]
    report("E4b", "aggregate resolve throughput vs servers (section 4.6)",
           ["servers", "resolves_per_s"], rows,
           notes="reads served locally by each replica; no master contact")
    rate = {d["servers"]: d["resolves_per_s"] for d in rows_data}
    # Aggregate read throughput grows with replicas (allow sub-linear
    # slack for simulation quanta).
    assert rate[2] >= 1.7 * rate[1]
    assert rate[4] >= 3.0 * rate[1]
