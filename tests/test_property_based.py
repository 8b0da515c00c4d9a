"""Property-based tests (hypothesis) on core invariants.

Targets the data structures whose correctness everything else leans on:
the name store's update semantics, link reservation accounting, the
kernel's event ordering, selector totality, and marshal-size sanity.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.naming.errors import NamingError
from repro.core.naming.store import NameStore, join_name, split_name
from repro.idl import estimated_size
from repro.net.link import Link, ReservationError
from repro.ocs.objref import ObjectRef
from repro.sim import Kernel

# -- strategies -------------------------------------------------------

name_component = st.text(
    alphabet=st.sampled_from("abcdefgh0123456789-_"), min_size=1, max_size=8)
path_strategy = st.lists(name_component, min_size=1, max_size=4).map(join_name)


def ref_strategy():
    return st.builds(
        ObjectRef,
        ip=st.sampled_from(["192.26.65.1", "192.26.65.2", "10.0.1.1"]),
        port=st.integers(min_value=1, max_value=65535),
        incarnation=st.tuples(st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False),
                              st.integers(min_value=1, max_value=10**6)),
        type_id=st.just("NamingContext"),
        object_id=st.text(max_size=4),
    )


op_strategy = st.one_of(
    st.tuples(st.just("mkcontext"), path_strategy),
    st.tuples(st.just("mkrepl"), path_strategy,
              st.just(("builtin", "first"))),
    st.tuples(st.just("bind"), path_strategy, ref_strategy()),
    st.tuples(st.just("unbind"), path_strategy),
)


class TestNameStoreProperties:
    @given(st.lists(op_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_checked_ops_never_corrupt_the_tree(self, ops):
        """Any sequence of validated updates leaves a consistent tree."""
        store = NameStore()
        applied = []
        for op in ops:
            try:
                store.check(op)
            except NamingError:
                continue
            store.apply(op)
            applied.append(op)
        # Every leaf binding reachable via iter_leaf_bindings
        # resolves through get_node to the same ref.
        for path, ref in store.iter_leaf_bindings():
            if path.endswith("/selector"):
                continue
            assert store.get_node(path).ref == ref

    @given(st.lists(op_strategy, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_round_trip_is_identity(self, ops):
        store = NameStore()
        for op in ops:
            try:
                store.check(op)
            except NamingError:
                continue
            store.apply(op)
        clone = NameStore()
        clone.load_snapshot(store.snapshot())
        assert clone.snapshot() == store.snapshot()
        assert (sorted(clone.iter_leaf_bindings())
                == sorted(store.iter_leaf_bindings()))

    @given(st.lists(op_strategy, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_replicas_applying_same_ops_converge(self, ops):
        """Determinism: the replication safety property."""
        a, b = NameStore(), NameStore()
        for op in ops:
            try:
                a.check(op)
            except NamingError:
                continue
            a.apply(op)
            b.apply(op)
        assert a.snapshot() == b.snapshot()

    @given(path_strategy)
    def test_split_join_round_trip(self, path):
        assert join_name(split_name(path)) == path


class TestLinkProperties:
    @given(st.lists(st.tuples(st.sampled_from(["reserve", "release", "clear"]),
                              st.integers(min_value=0, max_value=9),
                              st.floats(min_value=1, max_value=2e6,
                                        allow_nan=False)),
                    max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_reservations_never_exceed_capacity(self, actions):
        kernel = Kernel()
        link = Link(kernel, rate_bps=6_000_000)
        for action, key_i, bps in actions:
            key = f"k{key_i}"
            if action == "reserve":
                try:
                    link.reserve(key, bps)
                except (ReservationError, ValueError):
                    pass
            elif action == "release":
                link.release(key)
            else:
                link.clear_reservations()
            assert 0 <= link.reserved_bps <= link.rate_bps + 1e-6
            assert link.available_bps >= -1e-6
            # The cached rate is exactly what summing would give now.
            assert link.effective_rate_bps == max(
                link.rate_bps - link.reserved_bps, link.rate_bps * 0.01)
            assert link.effective_rate_bps > 0

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                    max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fifo_delays_are_monotone(self, sizes):
        """Messages queued back-to-back never reorder on one link."""
        kernel = Kernel()
        link = Link(kernel, rate_bps=1_000_000, latency=0.001)
        delays = [link.occupy(size) for size in sizes]
        arrivals = [d for d in delays]
        assert arrivals == sorted(arrivals)


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        kernel = Kernel()
        fired = []
        for d in delays:
            kernel.call_later(d, lambda d=d: fired.append(kernel.now))
        kernel.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.001, max_value=100,
                              allow_nan=False), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_sequential_sleeps_sum(self, naps):
        kernel = Kernel()

        async def sleeper():
            for nap in naps:
                await kernel.sleep(nap)
            return kernel.now

        total = kernel.run_until_complete(sleeper())
        assert total == pytest.approx(sum(naps))


class TestSelectorProperties:
    @given(st.lists(st.tuples(name_component, st.none()), min_size=1,
                    max_size=8, unique_by=lambda b: b[0]),
           st.sampled_from(["first", "roundrobin", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_builtin_selectors_choose_a_member(self, bindings, policy):
        from repro.core.naming.selectors import SelectorState, run_builtin
        state = SelectorState()
        chosen = run_builtin(policy, bindings, "10.0.1.1", "svc/x", state)
        assert chosen in {name for name, _ in bindings}

    @given(st.lists(st.tuples(name_component, st.none()), min_size=1,
                    max_size=6, unique_by=lambda b: b[0]),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_round_robin_is_fair(self, bindings, rounds):
        from repro.core.naming.selectors import SelectorState, run_builtin
        state = SelectorState()
        counts = {name: 0 for name, _ in bindings}
        for _ in range(rounds * len(bindings)):
            counts[run_builtin("roundrobin", bindings, "x", "p", state)] += 1
        assert max(counts.values()) - min(counts.values()) == 0


class TestMarshalProperties:
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                  st.binary(max_size=64)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=20))
    @settings(max_examples=80, deadline=None)
    def test_size_positive_and_grows_with_nesting(self, value):
        size = estimated_size(value)
        assert size >= 1
        assert estimated_size([value]) > size


class TestBindingCacheProperties:
    """PR 5: the binding cache is coherent *by exception* -- it may hand
    out a stale reference, but using one against a restarted exporter
    must raise StaleReference (never silently hit the wrong incarnation,
    never error against the live one)."""

    # derandomize: every run of the suite replays the same examples.
    @given(st.lists(st.sampled_from(["use", "restart", "invalidate"]),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    def test_stale_hits_always_raise_stale_reference(self, ops):
        from repro.core.naming.cache import BindingCache
        from repro.ocs import OCSRuntime, StaleReference
        from tests.helpers import EchoServant, small_world

        kernel, net, hosts = small_world(n_hosts=2)
        server_host, client_host = hosts
        live = {}

        def start_server():
            proc = server_host.spawn("echo")
            runtime = OCSRuntime(proc, net, port=7001)
            live["proc"] = proc
            live["ref"] = runtime.export(EchoServant(kernel), "OverloadEcho")

        start_server()
        client = OCSRuntime(client_host.spawn("client"), net)
        cache = BindingCache.for_host(client_host)

        async def resolver(name):
            return live["ref"]

        async def use():
            ref = await cache.resolve("svc/echo", resolver)
            try:
                result = await client.invoke(ref, "echo", ("x",),
                                             timeout=3.0)
            except StaleReference:
                # Legal only when the exporter really did restart ...
                assert ref.incarnation != live["proc"].incarnation
                # ... and the coherence protocol repairs the cache.
                cache.invalidate("svc/echo", ref)
                return
            # A silent success must have gone to the live incarnation.
            assert result == "x"
            assert ref.incarnation == live["proc"].incarnation

        for op in ops:
            if op == "use":
                kernel.run_until_complete(use())
            elif op == "restart":
                live["proc"].kill()
                start_server()
            else:
                cache.invalidate("svc/echo")
        # After one repair round the cache always converges on the live
        # exporter: use() either hits live or invalidates, so the second
        # use() must succeed.
        kernel.run_until_complete(use())
        kernel.run_until_complete(use())
        assert [entry.ref.incarnation for _name, entry in cache.entries()] \
            == [live["proc"].incarnation]


class TestAdmissionGateProperties:
    """PR 5: the outstanding-work bound under arbitrary legal traffic."""

    @given(st.lists(st.sampled_from(["admit", "begin", "done", "drop"]),
                    min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    def test_outstanding_work_never_exceeds_bound(self, ops):
        from tests.helpers import small_gate
        gate = small_gate(max_inflight=3, max_queue=5)
        bound = gate.max_inflight + gate.max_queue
        queued = inflight = shed = 0
        for op in ops:
            if op == "admit":
                if gate.try_admit():
                    queued += 1
                else:
                    shed += 1
            elif op == "begin" and queued > 0:
                gate.begin()
                queued -= 1
                inflight += 1
            elif op == "done" and inflight > 0:
                gate.done()
                inflight -= 1
            elif op == "drop" and queued > 0:
                gate.drop_queued()
                queued -= 1
            # The gate's books match the model exactly ...
            assert gate.queued == queued
            assert gate.inflight == inflight
            assert gate.shed_count == shed
            # ... and the paper-facing invariants hold at every step.
            assert queued + inflight <= bound
            assert gate.queued <= gate.max_queue
            assert gate.peak_queue <= gate.max_queue
            assert gate.load() >= 0.0
            gauges = gate.gauges()
            assert gauges["inflight"] == inflight
            assert gauges["queue_depth"] == queued
        # Everything offered was either admitted or shed -- no losses.
        assert gate.admitted + gate.shed_count == \
            sum(1 for op in ops if op == "admit")
