"""Tests for the metrics helpers and the viewer workload generator."""

import pytest

from repro.metrics.availability import AvailabilityTimeline
from repro.metrics.counters import MessageCensus
from repro.metrics.latency import percentile, summarize
from repro.net import Message, Network, server_ip
from repro.sim import Host, Kernel
from repro.sim.rand import SeededRandom


@pytest.fixture
def kernel():
    return Kernel()


class TestPercentiles:
    def test_simple(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == 50
        assert percentile(data, 99) == 99
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 100

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0

    def test_summarize_empty(self):
        assert summarize([]) == {"count": 0}

    def test_nearest_rank_uses_ceil_not_bankers_rounding(self):
        """Regression: round() picked rank 22 for p90 of 25 samples.

        Nearest-rank is ceil(p/100 * n): for n=25, p90 -> ceil(22.5) =
        rank 23.  Banker's rounding (round-half-to-even) gave 22.
        """
        data = list(range(1, 26))          # values equal their rank
        assert percentile(data, 90) == 23  # round() would say 22
        assert percentile(data, 50) == 13  # ceil(12.5) = 13; round() said 12
        assert percentile(data, 10) == 3   # ceil(2.5) = 3; round() said 2
        # Ranks where ceil and round agree must be unchanged.
        assert percentile(data, 99) == 25
        assert percentile(data, 4) == 1

    def test_percentile_presorted_skips_sort(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 50) == 3.0
        assert percentile(sorted(data), 50, presorted=True) == 3.0

    def test_summarize_percentiles_consistent_with_percentile(self):
        data = [float(v) for v in range(100, 0, -1)]
        s = summarize(data)
        assert s["p50"] == percentile(data, 50)
        assert s["p90"] == percentile(data, 90)
        assert s["p99"] == percentile(data, 99)


class TestAvailabilityTimeline:
    def test_no_outage(self, kernel):
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=100.0)
        assert tl.availability() == 1.0
        assert tl.outages() == []

    def test_single_outage(self, kernel):
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=10.0)
        tl.mark_down()
        kernel.run(until=15.0)
        tl.mark_up()
        kernel.run(until=100.0)
        assert tl.outages() == [(10.0, 5.0)]
        assert tl.downtime() == 5.0
        assert tl.availability() == pytest.approx(0.95)

    def test_open_outage_counts_to_now(self, kernel):
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=90.0)
        tl.mark_down()
        kernel.run(until=100.0)
        assert tl.downtime() == pytest.approx(10.0)
        assert not tl.is_up

    def test_double_mark_is_idempotent(self, kernel):
        tl = AvailabilityTimeline(kernel)
        tl.mark_down()
        tl.mark_down()
        kernel.run(until=5.0)
        tl.mark_up()
        tl.mark_up()
        assert len(tl.outages()) == 1

    def test_until_clamps_out_of_scope_transitions(self, kernel):
        """Regression: an up-transition after ``until`` closed the outage
        at its real end, overstating downtime(until)."""
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=5.0)
        tl.mark_down()
        kernel.run(until=15.0)
        tl.mark_up()
        kernel.run(until=30.0)
        assert tl.outages(until=10.0) == [(5.0, 5.0)]
        assert tl.downtime(until=10.0) == pytest.approx(5.0)
        # The cutoff exactly at the up-transition is the closed interval.
        assert tl.downtime(until=15.0) == pytest.approx(10.0)
        # Transitions entirely past the cutoff are invisible.
        assert tl.outages(until=5.0) == []
        assert tl.downtime() == pytest.approx(10.0)

    def test_availability_with_clamped_window(self, kernel):
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=5.0)
        tl.mark_down()
        kernel.run(until=15.0)
        tl.mark_up()
        kernel.run(until=20.0)
        assert tl.availability(until=10.0) == pytest.approx(0.5)

    def test_summary_fields(self, kernel):
        tl = AvailabilityTimeline(kernel)
        kernel.run(until=10.0)
        tl.mark_down()
        kernel.run(until=12.0)
        tl.mark_up()
        kernel.run(until=20.0)
        s = tl.summary()
        assert s["outages"] == 1
        assert s["longest_outage"] == 2.0


class TestMessageCensus:
    def test_delta_and_groups(self, kernel):
        net = Network(kernel)
        a = Host(kernel, "a")
        b = Host(kernel, "b")
        net.attach(a, server_ip(0))
        net.attach(b, server_ip(1))
        net.bind_port(b.ip, 1, lambda m: None)
        census = MessageCensus(net)
        for _ in range(4):
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 1),
                             kind="rpc.call.RAS.checkStatus"))
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="mds.stream"))
        kernel.run()
        groups = census.by_group()
        assert groups["ras"] == 4
        assert groups["media-data"] == 1
        assert census.total() == 5
        census.snapshot()
        assert census.total() == 0

    def test_rate_requires_positive_duration(self, kernel):
        net = Network(kernel)
        census = MessageCensus(net)
        with pytest.raises(ValueError):
            census.rate_per_second(0)


class TestZipf:
    def test_zipf_skews_to_head(self):
        rng = SeededRandom(5)
        draws = [rng.zipf_index(10, skew=1.2) for _ in range(2000)]
        head = sum(1 for d in draws if d == 0)
        tail = sum(1 for d in draws if d == 9)
        assert head > 5 * max(tail, 1)
        assert all(0 <= d < 10 for d in draws)

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRandom(1).zipf_index(0)


class TestViewerWorkload:
    def test_sessions_generate_activity(self):
        from repro.cluster import build_full_cluster
        from repro.workloads import run_viewers
        cluster = build_full_cluster(n_servers=3, seed=111)
        kernels = [cluster.add_settop_kernel(n)
                   for n in cluster.neighborhoods[:3]]
        assert cluster.boot_settops(kernels)
        stats = run_viewers(cluster, kernels, duration=300.0, seed=5)
        assert stats.opens + stats.orders + stats.game_rounds > 0
        assert stats.open_failures == 0
        assert stats.tunes > 0
        # Channel changes hit the paper's 2-4s app start band.
        assert all(0.5 <= t <= 6.0 for t in stats.tune_latencies)
