"""E9 -- RAS poll-interval trade-off (paper section 7.2.1 + 9.7).

Paper: "Currently, each RAS instance polls the others every five
seconds.  The time between polls is somewhat arbitrary and could be
increased to reduce the number of messages. ... because the RAS is used
by the name service to remove dead objects, polling intervals cannot
grow too high without adversely impacting fail-over speed."

Regenerated series: RAS poll interval vs (messages per second of RAS
traffic, measured fail-over time) -- the two curves cross in opposite
directions, which is the paper's point.
"""

import pytest

from repro.cluster import build_cluster
from repro.core.control.ssc import ssc_ref
from repro.core.params import Params

from common import once, report
from tests.helpers import PBPingService


def run_point(ras_poll: float, seed: int = 9001):
    params = Params(ras_peer_poll=ras_poll)
    cluster = build_cluster(n_servers=3, params=params, seed=seed)
    cluster.registry.register("pbping", PBPingService)
    client = cluster.client_on(cluster.servers[0], name="e9")
    for i in (0, 1):
        cluster.run_async(client.runtime.invoke(
            ssc_ref(cluster.servers[i].ip), "startService", ("pbping",)))
    assert cluster.settle(extra_names=["svc/pbping"])

    # Measure steady-state RAS message rates over a quiet window.  The
    # poll-scaled audit traffic (checkStatus) is what the paper's knob
    # controls; the SSC's coalesced load reports (PR 5) ride their own
    # fixed LOAD_REPORT_INTERVAL cadence, so they are accounted
    # separately rather than diluting the trade-off curve.
    window = 120.0
    before_polls = cluster.net.count_kind("rpc.call.RAS.checkStatus")
    before_reports = cluster.net.count_kind("rpc.call.RAS.reportLoad")
    cluster.run_for(window)
    ras_rate = (cluster.net.count_kind("rpc.call.RAS.checkStatus")
                - before_polls) / window
    report_rate = (cluster.net.count_kind("rpc.call.RAS.reportLoad")
                   - before_reports) / window

    # Then measure fail-over time (mean of 2 crashes).
    times = []
    for _ in range(2):
        ref = cluster.run_async(client.names.resolve("svc/pbping"))
        old = ref.ip
        cluster.run_async(client.runtime.invoke(
            ssc_ref(old), "stopService", ("pbping",)))
        t0 = cluster.now
        while cluster.now - t0 < 4 * params.max_failover + 30:
            cluster.run_for(0.5)
            try:
                ref = cluster.run_async(client.names.resolve("svc/pbping"))
            except Exception:  # noqa: BLE001
                continue
            if ref.ip != old:
                times.append(cluster.now - t0)
                break
        else:
            raise AssertionError("no fail-over")
        cluster.run_async(client.runtime.invoke(
            ssc_ref(old), "startService", ("pbping",)))
        cluster.run_for(5.0)
    return {"poll": ras_poll, "ras_msgs_per_s": ras_rate,
            "report_msgs_per_s": report_rate,
            "failover_s": sum(times) / len(times),
            "bound_s": params.max_failover}


@pytest.mark.benchmark(group="e9")
def test_e9_poll_interval_tradeoff(benchmark):
    def run():
        return [run_point(p) for p in (1.0, 5.0, 15.0, 30.0)]

    points = once(benchmark, run)
    report("E9", "RAS poll interval: messages vs fail-over (section 7.2.1)",
           ["poll_s", "poll_msgs_per_s", "report_msgs_per_s",
            "mean_failover_s", "bound_s"],
           [(p["poll"], round(p["ras_msgs_per_s"], 2),
             round(p["report_msgs_per_s"], 2),
             round(p["failover_s"], 1), p["bound_s"]) for p in points],
           notes="paper setting is 5s: cheap enough, fast enough; load "
                 "reports ride LOAD_REPORT_INTERVAL, not the poll knob")
    by = {p["poll"]: p for p in points}
    # Messages fall as the interval grows...
    assert by[1.0]["ras_msgs_per_s"] > by[5.0]["ras_msgs_per_s"] > \
        by[30.0]["ras_msgs_per_s"]
    # ...roughly inversely (5x interval -> ~1/5 the traffic, +-50%).
    ratio = by[1.0]["ras_msgs_per_s"] / by[5.0]["ras_msgs_per_s"]
    assert 2.5 <= ratio <= 7.5
    # The load-report channel is poll-invariant: same rate at every
    # point (it scales with LOAD_REPORT_INTERVAL instead).
    rates = [p["report_msgs_per_s"] for p in points]
    assert max(rates) - min(rates) <= 0.25 * max(rates)
    # ...while fail-over slows down.
    assert by[30.0]["failover_s"] > by[1.0]["failover_s"]
    # Every point respects its own analytic bound.
    for p in points:
        assert p["failover_s"] <= p["bound_s"] + 3.0
