"""A4 -- Ablation: the cost of *not* replicating MMS state (section 9.4).

Paper: "we chose not to provide support for state replication ...  The
volatile state of the MMS can be reconstructed by querying each MDS in
the cluster" -- the design trade is fail-over-time cost (a promoted
backup must rebuild) against steady-state simplicity (no update
shipping).

Regenerated series: state-rebuild time and completeness for a promoted
MMS backup, vs the number of open sessions it must recover.  Shape: the
rebuild is a handful of RPCs (one listOpen per MDS replica), so its cost
is flat in sessions and negligible against the 25 s fail-over bound --
which is exactly why the authors could afford stateless recovery.
"""

import pytest

from repro.cluster import build_full_cluster
from repro.cluster.media import seed_default_content
from repro.core.control.tools import OperatorConsole
from repro.core.naming.client import NameClient
from repro.core.params import Params
from repro.ocs.runtime import OCSRuntime

from common import once, report


def run_recovery(n_sessions: int, seed: int):
    params = Params(mds_disk_streams=max(20, n_sessions))
    cluster = build_full_cluster(n_servers=3, params=params, seed=seed)
    seed_default_content(cluster, copies=3)
    titles = ["T2", "Casablanca", "Sneakers", "Jurassic Park"]
    # One stream per settop (3 Mbit/s on a 6 Mbit/s downlink).
    for i in range(n_sessions):
        settop = cluster.add_settop(cluster.neighborhoods[i % 6])
        proc = settop.spawn("viewer")
        runtime = OCSRuntime(proc, cluster.net)
        names = NameClient(runtime, cluster.server_ips, params)

        async def open_one(runtime=runtime, names=names, i=i):
            mms = await names.resolve("svc/mms")
            port = runtime.network.allocate_port()
            await runtime.invoke(mms, "open", (titles[i % len(titles)], port),
                                 timeout=15.0)

        cluster.kernel.create_task(open_one())
    cluster.run_for(30.0)

    client = cluster.client_on(cluster.servers[2], name="a4")

    async def status():
        ref = await client.names.resolve("svc/mms")
        return await client.runtime.invoke(ref, "status", ())

    before = cluster.run_async(status())
    assert before["sessions"] == n_sessions
    console = OperatorConsole(client.runtime, client.names, params)
    primary_ip = next(h.ip for h in cluster.servers
                      if h.name == before["host"])
    cluster.run_async(console.stop_service("mms", primary_ip))
    t_fail = cluster.now
    # Wait for the backup's promotion + recovery trace events.
    while cluster.now - t_fail < 2 * params.max_failover:
        cluster.run_for(0.5)
        promoted = [e for e in cluster.trace.select("mms", "promoted")
                    if e.time > t_fail]
        recovered = [e for e in cluster.trace.select("mms", "state_recovered")
                     if e.time > t_fail]
        if promoted and recovered:
            break
    after = cluster.run_async(status())
    rebuild_time = recovered[0].time - promoted[0].time
    return {"sessions": n_sessions,
            "failover_s": promoted[0].time - t_fail,
            "rebuild_s": rebuild_time,
            "recovered": after["sessions"]}


@pytest.mark.benchmark(group="a4")
def test_a4_stateless_recovery_cost(benchmark):
    def run():
        return [run_recovery(n, seed=16000 + n) for n in (4, 12, 24)]

    rows_data = once(benchmark, run)
    rows = [(d["sessions"], round(d["failover_s"], 1),
             round(d["rebuild_s"], 3), d["recovered"]) for d in rows_data]
    report("A4", "MMS stateless recovery cost vs open sessions "
           "(section 9.4/10.1.1)",
           ["sessions", "failover_s", "rebuild_s", "sessions_recovered"],
           rows,
           notes="rebuild = one listOpen per MDS; negligible against the "
                 "fail-over bound, which is why stateless recovery sufficed")
    for d in rows_data:
        # Full recovery, every time.
        assert d["recovered"] == d["sessions"]
        # The rebuild itself is sub-second -- dwarfed by the bind race.
        assert d["rebuild_s"] < 1.0
        assert d["failover_s"] <= Params().max_failover + 3.0
    # Flat in sessions: 6x the sessions costs < 3x the rebuild time.
    assert rows_data[2]["rebuild_s"] < 3 * max(rows_data[0]["rebuild_s"],
                                               0.01)
