"""Unit tests for the section 7.1 resource-recovery alternatives."""

import pytest

from repro.core.ras.alternatives import (
    DurationTimeout,
    PerServiceTracking,
    RASStyle,
    ShortLease,
    make_all,
)
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel()


class TestDurationTimeout:
    def test_reclaims_after_estimate(self, kernel):
        mech = DurationTimeout(kernel, slack=2.0)
        mech.grant("c1", "r1", estimated_duration=10.0)
        mech.client_crashed("c1")
        kernel.now = 19.0
        mech.run(19.0)
        assert mech.stats.reclaimed == 0   # estimate*slack not reached
        kernel.now = 21.0
        mech.run(21.0)
        assert mech.stats.reclaimed == 1
        # Leaked from death (t=0) to reclamation (t=20... measured at run).
        assert mech.stats.leak_seconds == pytest.approx(21.0)

    def test_revokes_healthy_long_runner(self, kernel):
        mech = DurationTimeout(kernel, slack=2.0)
        mech.grant("c1", "r1", estimated_duration=10.0)
        kernel.now = 25.0
        mech.run(25.0)
        assert mech.stats.false_revocations == 1
        assert mech.stats.reclaimed == 0

    def test_sends_no_messages(self, kernel):
        mech = DurationTimeout(kernel)
        mech.grant("c1", "r1", 5.0)
        kernel.now = 100.0
        mech.run(100.0)
        assert mech.stats.messages == 0


class TestShortLease:
    def test_renewals_cost_messages(self, kernel):
        mech = ShortLease(kernel, lease=10.0)
        mech.grant("c1", "r1", 0.0)
        kernel.now = 100.0
        mech.run(100.0)
        # grant + 10 renewals x (request + ack)
        assert mech.stats.messages == 1 + 10 * 2

    def test_crash_reclaims_at_next_lease_boundary(self, kernel):
        mech = ShortLease(kernel, lease=10.0)
        mech.grant("c1", "r1", 0.0)
        kernel.now = 12.0
        mech.run(12.0)
        mech.client_crashed("c1")
        kernel.now = 25.0
        mech.run(25.0)
        assert mech.stats.reclaimed == 1
        # Died at t=12, lease expired unrenewed at t=20 -> ~8s of leak.
        assert mech.stats.leak_seconds <= 15.0

    def test_explicit_release_costs_nothing_more(self, kernel):
        mech = ShortLease(kernel, lease=10.0)
        mech.grant("c1", "r1", 0.0)
        mech.release("r1")
        kernel.now = 100.0
        mech.run(100.0)
        assert mech.stats.messages == 1   # just the grant


class TestPerServiceTracking:
    def test_pings_scale_with_clients(self, kernel):
        mech = PerServiceTracking(kernel, ping_interval=5.0)
        for i in range(10):
            mech.grant(f"c{i}", f"r{i}", 0.0)
        mech.run(50.0)
        # 11 ping rounds (t=0..50) x 10 clients x (ping+pong)
        assert mech.stats.messages == 11 * 10 * 2

    def test_dead_client_reclaimed(self, kernel):
        mech = PerServiceTracking(kernel, ping_interval=5.0)
        mech.grant("c1", "r1", 0.0)
        mech.run(4.0)
        mech.client_crashed("c1")
        kernel.now = 5.0
        mech.run(10.0)
        assert mech.stats.reclaimed == 1


class TestRASStyle:
    def test_messages_independent_of_clients(self, kernel):
        small = RASStyle(kernel, servers=3)
        big = RASStyle(kernel, servers=3)
        small.grant("c1", "r1", 0.0)
        for i in range(100):
            big.grant(f"c{i}", f"r{i}", 0.0)
        small.run(100.0)
        big.run(100.0)
        assert small.stats.messages == big.stats.messages

    def test_detection_pipeline_delay(self, kernel):
        mech = RASStyle(kernel, servers=3, peer_poll=5.0, client_poll=10.0)
        mech.grant("c1", "r1", 0.0)
        mech.run(1.0)
        mech.client_crashed("c1")
        # Death at t=1; next peer poll detects; next client poll reclaims.
        mech.run(30.0)
        assert mech.stats.reclaimed == 1
        assert mech.stats.leak_seconds <= (5.0 + 10.0 + 1.0)

    def test_make_all_lineup(self, kernel):
        names = [m.name for m in make_all(kernel)]
        assert names == ["duration-timeout", "short-lease",
                         "per-service-tracking", "ras"]
