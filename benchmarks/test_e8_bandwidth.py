"""E8 -- Network budget and trial-scale concurrency (paper section 3.1).

Paper: "each settop is allowed a maximum of 50 Kbits per second from the
settop to the server and 6 Mbits per second from the server to the
settop" and "the requirement was to support 1,000 concurrent users from
a community of 4,000".

Regenerated: (a) the asymmetric per-settop caps are enforced end to end;
(b) a 1:40-scaled community (100 settops, 25 concurrent viewers) runs
with every concurrent viewer holding a live stream.
"""

import os

import pytest

from repro.cluster import build_full_cluster
from repro.cluster.media import seed_default_content
from repro.core.naming.client import NameClient
from repro.core.params import Params
from repro.net.message import Message
from repro.ocs.runtime import OCSRuntime

from common import once, report

COMMUNITY = 100          # 4,000 scaled by 1/40
CONCURRENT = 25          # 1,000 scaled by 1/40


def run_caps(seed=8001):
    cluster = build_full_cluster(n_servers=3, seed=seed)
    settop = cluster.add_settop(1)
    server = cluster.servers[0]
    results = {}

    # Downstream: 1.5 MB at 6 Mbit/s -> ~2 s.
    arrival = []
    cluster.net.bind_port(settop.ip, 9000, lambda m: arrival.append(cluster.now))
    t0 = cluster.now
    cluster.net.send(Message(src=(server.ip, 9000), dst=(settop.ip, 9000),
                             kind="cap-test", payload_bytes=1_500_000))
    cluster.run_for(10.0)
    results["down_s_per_1.5MB"] = arrival[0] - t0

    # Upstream: 12.5 kB at 50 kbit/s -> ~2 s.
    arrival2 = []
    cluster.net.bind_port(server.ip, 9001, lambda m: arrival2.append(cluster.now))
    t0 = cluster.now
    cluster.net.send(Message(src=(settop.ip, 9001), dst=(server.ip, 9001),
                             kind="cap-test", payload_bytes=12_500 - 256))
    cluster.run_for(30.0)
    results["up_s_per_12.5kB"] = arrival2[0] - t0
    return results


def run_community(seed=8002):
    params = Params(mds_disk_streams=12)   # 36 disk streams across 3 servers
    cluster = build_full_cluster(n_servers=3, params=params, seed=seed)
    seed_default_content(cluster, copies=3)
    # The community: all attached; the concurrent subset streams.
    settops = [cluster.add_settop(cluster.neighborhoods[i % 6])
               for i in range(COMMUNITY)]
    titles = ["T2", "Casablanca", "Sneakers", "Jurassic Park"]
    opened = [0]
    failed = [0]
    latencies = []

    async def stream(settop, index):
        proc = settop.spawn("viewer")
        runtime = OCSRuntime(proc, cluster.net)
        names = NameClient(runtime, cluster.server_ips, params)
        t0 = cluster.kernel.now
        try:
            mms = await names.resolve("svc/mms")
            movie = await runtime.invoke(
                mms, "open", (titles[index % len(titles)],
                              runtime.network.allocate_port()),
                timeout=15.0)
            await runtime.invoke(movie, "play", (), timeout=5.0)
            opened[0] += 1
            latencies.append(cluster.kernel.now - t0)
        except Exception:  # noqa: BLE001
            failed[0] += 1

    for index, settop in enumerate(settops[:CONCURRENT]):
        cluster.kernel.create_task(stream(settop, index))
    cluster.run_for(60.0)
    reserved = sum(cluster.net.downlink_of(s.ip).reserved_bps
                   for s in settops[:CONCURRENT])
    return {"opened": opened[0], "failed": failed[0],
            "reserved_mbps": reserved / 1e6,
            "max_latency": max(latencies) if latencies else None}


@pytest.mark.benchmark(group="e8")
def test_e8_per_settop_caps_enforced(benchmark):
    results = once(benchmark, run_caps)
    report("E8", "per-settop bandwidth caps (section 3.1)",
           ["direction", "payload", "seconds", "implies"],
           [("down", "1.5 MB", round(results["down_s_per_1.5MB"], 2),
             "~6 Mbit/s"),
            ("up", "12.5 kB", round(results["up_s_per_12.5kB"], 2),
             "~50 kbit/s")])
    assert 1.9 <= results["down_s_per_1.5MB"] <= 2.4
    assert 1.8 <= results["up_s_per_12.5kB"] <= 2.4


@pytest.mark.benchmark(group="e8")
@pytest.mark.skipif("REPRO_FULL_SCALE" not in os.environ,
                    reason="full 4,000-settop run; set REPRO_FULL_SCALE=1 "
                           "(several minutes of wall time)")
def test_e8_full_orlando_scale(benchmark):
    """Section 9.6's open question, answerable here: "whether there are
    unsuspected bottlenecks ... can only be determined by full-scale
    testing."  The full trial target: 1,000 concurrent streams from a
    4,000-settop community on a proportionally provisioned cluster."""

    def run():
        n_servers = 30   # ~34 streams/server, Challenge-scale
        params = Params(mds_disk_streams=40)
        cluster = build_full_cluster(
            n_servers=n_servers, neighborhoods_per_server=5, params=params,
            seed=8500, settle_timeout=600.0)
        # Popular titles must be replicated wide enough to cover demand:
        # a title on k servers serves at most k x 40 streams.  (An early
        # run of this experiment with copies=3 found exactly that wall:
        # 120 of 1,000 streams for a single-title audience.)
        seed_default_content(cluster, copies=n_servers)
        titles = ["T2", "Casablanca", "Sneakers", "Jurassic Park",
                  "Toy Story", "The Fugitive"]
        settops = [cluster.add_settop(
            cluster.neighborhoods[i % len(cluster.neighborhoods)])
            for i in range(4000)]
        opened = [0]
        failed = [0]
        latencies = []

        async def stream(settop, index):
            proc = settop.spawn("viewer")
            runtime = OCSRuntime(proc, cluster.net)
            names = NameClient(runtime, cluster.server_ips, params)
            t0 = cluster.kernel.now
            try:
                mms = await names.resolve("svc/mms")
                # A 60s deadline covers the worst of the thundering herd:
                # all 1,000 viewers press play in the same instant, far
                # harsher than any real arrival process.
                movie = await runtime.invoke(
                    mms, "open", (titles[index % len(titles)],
                                  runtime.network.allocate_port()),
                    timeout=60.0)
                await runtime.invoke(movie, "play", (), timeout=10.0)
                opened[0] += 1
                latencies.append(cluster.kernel.now - t0)
            except Exception:  # noqa: BLE001
                failed[0] += 1

        for index, settop in enumerate(settops[:1000]):
            cluster.kernel.create_task(stream(settop, index))
        cluster.run_for(120.0)
        mean = sum(latencies) / len(latencies) if latencies else None
        return {"opened": opened[0], "failed": failed[0],
                "mean_latency": mean,
                "max_latency": max(latencies) if latencies else None}

    result = once(benchmark, run)
    report("E8c", "full Orlando scale: 1,000 concurrent of 4,000",
           ["target", "streams_up", "failed", "mean_open_s", "max_open_s"],
           [(1000, result["opened"], result["failed"],
             round(result["mean_latency"], 1),
             round(result["max_latency"], 1))],
           notes="the same-instant burst is the worst case; steady-state "
                 "opens are sub-second (E8b)")
    assert result["opened"] >= 995


@pytest.mark.benchmark(group="e8")
def test_e8_trial_scale_concurrency(benchmark):
    result = once(benchmark, run_community)
    report("E8b", "1:40-scale Orlando community (section 3.1)",
           ["community", "concurrent", "streams_up", "failed",
            "reserved_mbps"],
           [(COMMUNITY, CONCURRENT, result["opened"], result["failed"],
             round(result["reserved_mbps"], 1))],
           notes="paper target: 1,000 concurrent users from 4,000 homes")
    assert result["opened"] == CONCURRENT
    assert result["failed"] == 0
    assert result["reserved_mbps"] == pytest.approx(CONCURRENT * 3.0, rel=0.01)
    assert result["max_latency"] <= 2.0
