"""PR 4 overload robustness: deadlines, admission control, degradation.

Four layers under test:

- unit: the backoff sleep budget, the admission gate's bounds, and the
  load-aware selector policy;
- OCS: deadline envelopes end to end (client timer, pre-dispatch and
  in-queue server rejection, shed replies resolving the caller's
  future);
- client library: the rebinding proxy's shed cooldown and steering;
- cluster: a viewer-session surge against a 2-replica VOD pool must
  shed (bounded queues), never execute expired work, and keep p99 open
  latency under ``SURGE_P99_BOUND``.
"""

import os

import pytest

from repro.core.backoff import Backoff
from repro.core.naming.errors import NamingError
from repro.core.params import Params
from repro.core.rebind import RebindError, RebindingProxy
from repro.metrics import cluster_counters
from repro.ocs.admission import ADMISSION_RETRY_AFTER
from repro.ocs import CallTimeout, DeadlineExceeded, Overloaded
from repro.sim import SeededRandom
from tests.fixtures.sabotage import (allowed_expired_work,
                                     unbounded_admission_queue)
from tests.helpers import (
    StubNames,
    client_runtime,
    small_gate,
    small_world,
    start_echo,
)

SURGE_P99_BOUND = 10.0   # E14 acceptance: p99 open latency (seconds)
E14_SCHEDULE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "schedules", "e14_surge.json")


@pytest.fixture
def world():
    return small_world(n_hosts=2)


# ---------------------------------------------------------------------------
# Backoff sleep budget (satellite bugfix)
# ---------------------------------------------------------------------------


class TestBackoffBudget:
    def test_unbudgeted_backoff_grows_as_before(self):
        backoff = Backoff(SeededRandom(3))
        backoff.jitter = 0.0
        delays = [backoff.next_delay() for _ in range(4)]
        assert delays == sorted(delays)
        assert not backoff.exhausted

    def test_total_sleep_clamped_to_max_elapsed(self):
        backoff = Backoff(SeededRandom(3), max_elapsed=4.5)
        backoff.jitter = 0.0
        delays = [backoff.next_delay() for _ in range(5)]
        assert sum(delays) == pytest.approx(4.5)
        # 1.0 + 2.0 fit; the 4.0 draw is clamped to the 1.5 remaining.
        assert delays[2] == pytest.approx(1.5)
        assert delays[3] == 0.0 and delays[4] == 0.0
        assert backoff.exhausted

    def test_jittered_draws_also_respect_budget(self):
        backoff = Backoff(SeededRandom(11), max_elapsed=3.0)
        backoff.base, backoff.jitter = 2.0, 0.5
        total = sum(backoff.next_delay() for _ in range(10))
        assert total <= 3.0 + 1e-9
        assert backoff.exhausted

    def test_reset_restores_budget(self):
        backoff = Backoff(SeededRandom(3), max_elapsed=1.0)
        backoff.jitter = 0.0
        assert backoff.next_delay() == pytest.approx(1.0)
        assert backoff.exhausted
        backoff.reset()
        assert not backoff.exhausted
        assert backoff.next_delay() > 0.0


# ---------------------------------------------------------------------------
# Admission gate (unit)
# ---------------------------------------------------------------------------


class TestAdmissionGate:
    def test_sheds_when_queue_full(self):
        gate = small_gate(max_inflight=2, max_queue=3)
        assert all(gate.try_admit() for _ in range(3))   # queue fills
        assert not gate.try_admit()                      # 4th is shed
        assert gate.shed_count == 1
        assert gate.queued == 3 and gate.peak_queue == 3

    def test_sheds_when_inflight_full(self):
        gate = small_gate(max_inflight=2, max_queue=3)
        for _ in range(2):
            assert gate.try_admit()
            gate.begin()
        assert gate.inflight == 2 and gate.queued == 0
        assert not gate.try_admit()
        gate.done()
        assert gate.try_admit()   # capacity freed: admitted again

    def test_admitted_total_is_bounded(self):
        gate = small_gate(max_inflight=2, max_queue=3)
        admitted = 0
        for _ in range(100):
            if gate.try_admit():
                admitted += 1
                if gate.inflight < gate.max_inflight:
                    gate.begin()
        assert admitted <= gate.max_inflight + gate.max_queue
        assert gate.shed_count == 100 - admitted

    def test_drop_queued_releases_slot(self):
        gate = small_gate(max_inflight=1, max_queue=1)
        assert gate.try_admit()
        gate.drop_queued()   # expired in queue before executing
        assert gate.queued == 0
        assert gate.try_admit()

    def test_gauges_and_load(self):
        gate = small_gate(max_inflight=2, max_queue=2)
        gate.try_admit()
        gate.begin()
        gauges = gate.gauges()
        assert gauges["inflight"] == 1 and gauges["queue_depth"] == 0
        assert gauges["load"] == pytest.approx(0.5)
        assert not gauges["shedding"]
        gate.try_admit()
        gate.begin()
        assert gate.shedding()
        assert gate.gauges()["load"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Deadline envelopes (OCS layer)
# ---------------------------------------------------------------------------


class TestDeadlineEnvelope:
    def test_spent_deadline_fails_fast_without_sending(self, world):
        kernel, net, hosts = world
        _, ref = start_echo(kernel, net, hosts[0])
        client = client_runtime(net, hosts[1])
        kernel.run(until=5.0)
        fut = client.invoke(ref, "echo", ("hi",), deadline=kernel.now - 1.0)

        async def wait():
            return await fut

        with pytest.raises(DeadlineExceeded):
            kernel.run_until_complete(wait())
        assert client.calls_sent == 0

    def test_explicit_deadline_raises_deadline_exceeded(self, world):
        kernel, net, hosts = world
        _, ref = start_echo(kernel, net, hosts[0])
        client = client_runtime(net, hosts[1])

        async def call():
            await client.invoke(ref, "slow", (30.0,), timeout=60.0,
                                deadline=kernel.now + 2.0)

        with pytest.raises(DeadlineExceeded):
            kernel.run_until_complete(call())
        assert kernel.now == pytest.approx(2.0, abs=0.1)

    def test_derived_deadline_still_raises_call_timeout(self, world):
        # No explicit deadline: the per-attempt timer stays CallTimeout
        # (a ServiceUnavailable) so existing rebind loops retry as before.
        kernel, net, hosts = world
        _, ref = start_echo(kernel, net, hosts[0])
        client = client_runtime(net, hosts[1])

        async def call():
            await client.invoke(ref, "slow", (30.0,), timeout=2.0)

        with pytest.raises(CallTimeout):
            kernel.run_until_complete(call())

    def test_expired_in_queue_rejected_and_counted(self, world):
        kernel, net, hosts = world
        server, ref = start_echo(kernel, net, hosts[0])
        server.servant_lag = 5.0   # slow consumer: work expires in queue
        client = client_runtime(net, hosts[1])

        async def call():
            await client.invoke(ref, "echo", ("hi",), timeout=60.0,
                                deadline=kernel.now + 1.0)

        with pytest.raises(DeadlineExceeded):
            kernel.run_until_complete(call())
        kernel.run(until=kernel.now + 10.0)   # let the servant-side lag pass
        assert server.deadline_rejects == 1
        assert server.expired_executions == 0

    def test_expired_work_executes_only_when_guard_disabled(self, world):
        # The falsifiability check for the expired_work monitor: with the
        # guard off, the same scenario runs the dead call and counts it.
        kernel, net, hosts = world
        server, ref = start_echo(kernel, net, hosts[0])
        server.servant_lag = 5.0
        client = client_runtime(net, hosts[1])

        with allowed_expired_work():
            fut = client.invoke(ref, "echo", ("hi",), timeout=60.0,
                                deadline=kernel.now + 1.0)
            fut.detach()   # the client timer raises; the servant still runs
            kernel.run(until=kernel.now + 10.0)
        assert server.expired_executions == 1
        assert server.deadline_rejects == 0

    def test_shed_reply_resolves_future_with_overloaded(self, world):
        kernel, net, hosts = world
        server, ref = start_echo(kernel, net, hosts[0])
        server.admission = small_gate(max_inflight=0, max_queue=1)
        client = client_runtime(net, hosts[1])

        async def call():
            await client.invoke(ref, "echo", ("hi",), timeout=30.0)

        with pytest.raises(Overloaded) as excinfo:
            kernel.run_until_complete(call())
        assert excinfo.value.retry_after == ADMISSION_RETRY_AFTER
        # The shed resolved the future immediately, not at the timeout.
        assert kernel.now < 1.0
        assert server.admission.shed_count == 1
        # No pending-call leak on either side.
        assert client._pending == {}


# ---------------------------------------------------------------------------
# Rebinding proxy: cooldown and steering
# ---------------------------------------------------------------------------


class TestRebindCooldown:
    def test_shed_replica_cooled_and_retry_steered(self, world):
        kernel, net, hosts = world
        shedding, ref_a = start_echo(kernel, net, hosts[0], "echo-a")
        shedding.admission = small_gate(max_inflight=0, max_queue=1)
        _, ref_b = start_echo(kernel, net, hosts[1], "echo-b")
        client = client_runtime(net, hosts[0])
        params = Params()
        proxy = RebindingProxy(client, StubNames([ref_a, ref_b]),
                               "svc/echo", params=params,
                               rng=SeededRandom(5), give_up_after=30.0)

        result = kernel.run_until_complete(proxy.call("echo", "hi"))
        assert result == "hi"
        assert proxy.sheds_seen == 1
        assert (ref_a.ip, ref_a.port) in proxy._cooldowns

    def test_fail_fast_when_pool_is_cooling(self, world):
        kernel, net, hosts = world
        shedding, ref_a = start_echo(kernel, net, hosts[0], "echo-a")
        shedding.admission = small_gate(max_inflight=0, max_queue=1)
        client = client_runtime(net, hosts[1])
        proxy = RebindingProxy(client, StubNames([ref_a]), "svc/echo",
                               params=Params(), rng=SeededRandom(5),
                               give_up_after=30.0)

        with pytest.raises(Overloaded):
            kernel.run_until_complete(proxy.call("echo", "hi"))
        # One real shed; the second resolve fails fast on the cooldown
        # instead of re-hammering the saturated replica for the budget.
        assert proxy.sheds_seen == 1
        assert kernel.now < 5.0

    def test_cooldown_expires(self, world):
        kernel, net, hosts = world
        shedding, ref_a = start_echo(kernel, net, hosts[0], "echo-a")
        shedding.admission = small_gate(max_inflight=0, max_queue=1)
        client = client_runtime(net, hosts[1])
        proxy = RebindingProxy(client, StubNames([ref_a]), "svc/echo",
                               params=Params(), rng=SeededRandom(5),
                               give_up_after=30.0)
        with pytest.raises(Overloaded):
            kernel.run_until_complete(proxy.call("echo", "hi"))
        shedding.admission = None   # replica drained
        kernel.run(until=kernel.now + 10.0)   # past the jittered cooldown
        assert kernel.run_until_complete(proxy.call("echo", "hi")) == "hi"

    def test_deadline_bounds_the_rebind_loop(self, world):
        kernel, net, hosts = world
        client = client_runtime(net, hosts[1])
        proxy = RebindingProxy(client,
                               StubNames([NamingError("not bound")]),
                               "svc/gone", params=Params(),
                               rng=SeededRandom(5), give_up_after=60.0)

        with pytest.raises(DeadlineExceeded):
            kernel.run_until_complete(
                proxy.call("echo", "hi", deadline=kernel.now + 3.0))
        assert kernel.now <= 3.5   # never slept past the deadline

    def test_no_deadline_still_raises_rebind_error(self, world):
        kernel, net, hosts = world
        client = client_runtime(net, hosts[1])
        proxy = RebindingProxy(client,
                               StubNames([NamingError("not bound")]),
                               "svc/gone", params=Params(),
                               rng=SeededRandom(5), give_up_after=2.0)
        with pytest.raises(RebindError):
            kernel.run_until_complete(proxy.call("echo", "hi"))


# ---------------------------------------------------------------------------
# Cluster surge (integration)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def surge_run():
    """5 viewer sessions + an injected flash crowd vs a 2-server pool.

    Gates are shrunk so the surge genuinely saturates the VOD service;
    a slow_consumer fault on both replicas makes queues real (servants
    are instant in virtual time otherwise).
    """
    from repro.chaos.faults import Fault
    from repro.chaos.injector import FaultInjector
    from tests.helpers import booted_cluster, viewer_evening

    params = Params().with_overrides(admission_max_inflight=4,
                                     admission_max_queue=8)
    cluster, kernels = booted_cluster(n_servers=2, seed=41, params=params,
                                      settops=5)

    injector = FaultInjector(cluster, SeededRandom(41).stream("inj"))
    plan = [
        (15.0, Fault(0.0, "slow_consumer",
                     {"server": 0, "service": "vod", "lag": 1.0})),
        (15.0, Fault(0.0, "slow_consumer",
                     {"server": 1, "service": "vod", "lag": 1.0})),
        (20.0, Fault(0.0, "load_surge",
                     {"service": "vod", "calls": 300, "duration": 10.0})),
    ]
    for delay, fault in plan:
        cluster.kernel.call_later(delay, injector.inject, fault)

    stats = viewer_evening(cluster, kernels, 150.0, seed=7)
    injector.heal_all()
    return params, stats, cluster_counters(cluster)


class TestViewerSurge:
    def test_surge_sheds_instead_of_queueing(self, surge_run):
        params, _stats, counters = surge_run
        assert counters["gate.vod.shed"] > 0

    def test_queue_depth_stays_bounded(self, surge_run):
        params, _stats, counters = surge_run
        assert counters["gate.vod.peak_queue"] <= params.admission_max_queue
        assert counters["gate.vod.peak_inflight"] <= (
            params.admission_max_inflight + params.admission_max_queue)

    def test_no_expired_work_executed(self, surge_run):
        _params, _stats, counters = surge_run
        assert counters["ocs.expired_executions"] == 0

    def test_expired_work_monitor_trips_when_guard_patched_out(self):
        # The other direction, cluster-wide: the E14 replay with the
        # deadline guard sabotaged runs dead work on live servers, and
        # exactly the expired_work monitor goes red.
        from repro.chaos.engine import run_schedule
        from repro.chaos.schedule import FaultSchedule
        with allowed_expired_work():
            result = run_schedule(FaultSchedule.load(E14_SCHEDULE),
                                  seed=1, settops=8)
        assert result.violated_monitors() == ["expired_work"]
        assert result.counters["ocs.expired_executions"] > 0
        assert result.counters["ocs.deadline_rejects"] == 0

    def test_queue_bound_trips_when_the_queue_check_is_patched_out(self):
        # E14 stays green with the gate intact and trips exactly
        # queue_bound once try_admit forgets max_queue.
        from repro.chaos.engine import run_schedule
        from repro.chaos.schedule import FaultSchedule
        schedule = FaultSchedule.load(E14_SCHEDULE)
        assert run_schedule(schedule, seed=1, settops=2).ok
        with unbounded_admission_queue():
            result = run_schedule(schedule, seed=1, settops=2)
        assert result.violated_monitors() == ["queue_bound"]

    def test_p99_open_latency_within_bound(self, surge_run):
        from repro.metrics import percentile
        params, stats, _counters = surge_run
        assert stats.opens > 0, "surge run produced no successful opens"
        p99 = percentile(stats.open_latencies, 99)
        assert p99 < SURGE_P99_BOUND, \
            f"p99 open latency {p99:.2f}s over bound"

    def test_viewers_survived_the_surge(self, surge_run):
        _params, stats, _counters = surge_run
        # Sessions kept going: every viewer operation either succeeded
        # or was served by a degraded path, and at least one op ran.
        assert stats.opens + stats.degraded + stats.tunes > 0


# ---------------------------------------------------------------------------
# The E14 fixture stays loadable
# ---------------------------------------------------------------------------


class TestSurgeFixture:
    def test_e14_schedule_parses(self):
        from repro.chaos.schedule import FaultSchedule
        schedule = FaultSchedule.load(E14_SCHEDULE)
        kinds = {f.kind for f in schedule}
        assert "load_surge" in kinds and "slow_consumer" in kinds
        assert schedule.horizon >= 60.0
