"""At-most-once RPC under a hostile network (PR 9, ISSUE 9).

The server-side reply cache (seq-windowed dedup with LRU eviction,
inflight waiter parking, and the stale floor); request identity reuse
across ``RebindingProxy`` retries (the latent double-execution fix);
the envelope checksum guard dropping corrupt frames before dispatch;
the kernel-resident evidence ledger behind the ``at_most_once`` monitor;
and the committed E18 hostile-network drill -- green with the guards
on, red under the dedup/checksum sabotage fixtures.
"""

import contextlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultSchedule, run_schedule
from repro.chaos.monitors import EvidenceLedger
from repro.core.params import Params
from repro.core.rebind import RebindingProxy
from repro.idl import register_interface
from repro.net import Network
from repro.ocs import CallTimeout, OCSRuntime, RemoteException
from repro.ocs.replycache import ReplyCache
from repro.sim import SeededRandom

from tests.fixtures.sabotage import (NO_DEDUP_SCHEDULE, disabled_checksums,
                                     disabled_dedup)
from tests.helpers import StubNames, client_runtime, small_world

E18_SCHEDULE = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "schedules" / "e18_hostile_net.json")

register_interface("TallyCounter", {
    "bump": ("amount",),
    "slow_bump": ("amount", "duration"),
    "boom": (),
    "peek": (),
}, doc="toy non-idempotent counter for at-most-once tests",
    idempotent=("peek",))


class TallyServant:
    """Counts real executions so a replayed request is visible."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.total = 0
        self.executions = 0
        self.peeks = 0
        self.booms = 0

    async def bump(self, ctx, amount):
        self.executions += 1
        self.total += amount
        return self.total

    async def slow_bump(self, ctx, amount, duration):
        await self.kernel.sleep(duration)
        self.executions += 1
        self.total += amount
        return self.total

    async def boom(self, ctx):
        self.booms += 1
        raise RuntimeError("tally exploded")

    async def peek(self, ctx):
        self.peeks += 1
        return self.total


def tally_world():
    """kernel, net, server runtime, servant, ref, client runtime."""
    kernel, net, hosts = small_world(n_hosts=2)
    proc = hosts[0].spawn("tally-svc")
    server = OCSRuntime(proc, net)
    servant = TallyServant(kernel)
    ref = server.export(servant, "TallyCounter")
    client = client_runtime(net, hosts[1])
    return kernel, net, server, servant, ref, client


# ---------------------------------------------------------------------------
# ReplyCache unit contract
# ---------------------------------------------------------------------------


class TestReplyCache:
    def test_execute_then_replay(self):
        cache = ReplyCache(capacity=4)
        verdict, entry = cache.begin("c", 1)
        assert verdict == "execute"
        assert cache.complete("c", 1, {"ok": True, "result": 7}) == []
        verdict, entry = cache.begin("c", 1)
        assert verdict == "replay"
        assert entry.reply == {"ok": True, "result": 7}
        assert cache.replays == 1

    def test_inflight_parks_waiters_until_complete(self):
        cache = ReplyCache(capacity=4)
        cache.begin("c", 1)
        verdict, entry = cache.begin("c", 1)
        assert verdict == "inflight"
        entry.waiters.append(("msg", 42))
        assert cache.complete("c", 1, {"ok": True}) == [("msg", 42)]
        # Once done, a third arrival replays instead of parking.
        assert cache.begin("c", 1)[0] == "replay"
        assert cache.suppressed == 1

    def test_abort_forgets_entry_so_retry_can_run(self):
        cache = ReplyCache(capacity=4)
        _, entry = cache.begin("c", 1)
        entry.waiters.append(("msg", 9))
        assert cache.abort("c", 1) == [("msg", 9)]
        # The request never executed: the same id may run now.
        assert cache.begin("c", 1)[0] == "execute"
        # Aborting an unknown id is harmless.
        assert cache.abort("nobody", 99) == []

    def test_abort_never_forgets_a_completed_entry(self):
        # Found by the property test below: an abort racing a completed
        # entry must not forget it, or the executed id could run again.
        cache = ReplyCache(capacity=4)
        cache.begin("c", 1)
        cache.complete("c", 1, {"ok": True, "result": 7})
        assert cache.abort("c", 1) == []
        verdict, entry = cache.begin("c", 1)
        assert verdict == "replay"
        assert entry.reply == {"ok": True, "result": 7}

    def test_eviction_raises_floor_and_drops_stale(self):
        cache = ReplyCache(capacity=2)
        for seq in (1, 2, 3):
            cache.begin("c", seq)
            cache.complete("c", seq, {"ok": True, "result": seq})
        assert cache.evictions == 1
        # seq 1 was evicted; its floor drop is the liveness cost of the
        # safety guarantee (never execute a forgotten id again).
        verdict, entry = cache.begin("c", 1)
        assert verdict == "stale" and entry is None
        assert cache.stale_drops == 1
        # seqs above the floor still replay.
        assert cache.begin("c", 3)[0] == "replay"

    def test_inflight_entries_are_never_evicted(self):
        cache = ReplyCache(capacity=1)
        cache.begin("slow", 1)          # stays inflight throughout
        for seq in (1, 2, 3):
            cache.begin("fast", seq)
            cache.complete("fast", seq, {"ok": True})
        # Completed entries churned through the LRU, the inflight one
        # survived: its waiter can still find the reply.
        verdict, entry = cache.begin("slow", 1)
        assert verdict == "inflight"
        entry.waiters.append(("msg", 1))
        assert cache.complete("slow", 1, {"ok": True}) == [("msg", 1)]

    def test_error_replies_are_cached_too(self):
        cache = ReplyCache(capacity=4)
        cache.begin("c", 1)
        record = {"ok": False, "error": "TeapotError", "detail": "nope"}
        cache.complete("c", 1, record)
        verdict, entry = cache.begin("c", 1)
        assert verdict == "replay" and entry.reply == record

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ReplyCache(capacity=0)

    def test_stats_shape(self):
        cache = ReplyCache(capacity=4)
        cache.begin("c", 1)
        cache.complete("c", 1, {"ok": True})
        cache.begin("c", 1)
        assert cache.stats() == {"executions": 1, "replays": 1,
                                 "suppressed": 0, "stale_drops": 0,
                                 "evictions": 0, "cached": 1}


class TestReplyCacheProperty:
    """Random interleavings of begin/complete/abort never double-execute."""

    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                              st.integers(min_value=1, max_value=12),
                              st.sampled_from(["begin", "begin_complete",
                                               "abort"])),
                    max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_no_request_id_executes_twice(self, ops):
        cache = ReplyCache(capacity=3)
        completed = {}
        live = set()
        for client, seq, action in ops:
            key = (client, seq)
            if action == "abort":
                cache.abort(client, seq)
                live.discard(key)
                continue
            verdict, entry = cache.begin(client, seq)
            if verdict == "execute":
                # The core safety property: a completed request id never
                # earns a second execution, no matter what was evicted
                # in between; an inflight one never runs concurrently.
                assert key not in completed
                assert key not in live
                live.add(key)
            elif verdict == "replay":
                assert entry.reply == completed[key]
            elif verdict == "inflight":
                assert key in live
            else:
                assert verdict == "stale"
                assert key not in live   # inflight entries are unevictable
            if action == "begin_complete" and key in live:
                reply = f"{client}:{seq}"
                cache.complete(client, seq, reply)
                completed[key] = reply
                live.discard(key)


# ---------------------------------------------------------------------------
# Request identity through the runtime
# ---------------------------------------------------------------------------


class TestRequestIdentity:
    def test_same_request_id_replays_instead_of_reexecuting(self):
        kernel, net, server, servant, ref, client = tally_world()
        rid = client.next_request_id()

        async def main():
            first = await client.invoke(ref, "bump", (3,), request_id=rid)
            second = await client.invoke(ref, "bump", (3,), request_id=rid)
            return first, second

        first, second = kernel.run_until_complete(main())
        assert (first, second) == (3, 3)
        assert servant.executions == 1
        assert server.reply_cache.replays == 1

    def test_fresh_request_ids_execute_independently(self):
        kernel, net, server, servant, ref, client = tally_world()

        async def main():
            a = await client.invoke(ref, "bump", (1,))
            b = await client.invoke(ref, "bump", (1,))
            return a, b

        assert kernel.run_until_complete(main()) == (1, 2)
        assert servant.executions == 2
        assert server.reply_cache.replays == 0

    def test_wire_duplicate_executes_once(self):
        kernel, net, server, servant, ref, client = tally_world()
        net.set_duplicate(server.ip, 1.0, SeededRandom(3))
        result = kernel.run_until_complete(client.invoke(ref, "bump", (2,)))
        assert result == 2
        assert servant.executions == 1
        assert net.messages_duplicated > 0
        cache = server.reply_cache
        assert cache.replays + cache.suppressed >= 1

    def test_exception_outcome_is_replayed_not_reraised_fresh(self):
        kernel, net, server, servant, ref, client = tally_world()
        rid = client.next_request_id()

        async def attempt():
            try:
                await client.invoke(ref, "boom", (), request_id=rid)
            except RemoteException as err:
                return str(err)
            return None

        async def main():
            return await attempt(), await attempt()

        first, second = kernel.run_until_complete(main())
        assert first is not None and "tally exploded" in first
        assert second == first
        assert servant.booms == 1

    def test_idempotent_method_bypasses_the_cache(self):
        kernel, net, server, servant, ref, client = tally_world()
        rid = client.next_request_id()

        async def main():
            await client.invoke(ref, "peek", (), request_id=rid)
            await client.invoke(ref, "peek", (), request_id=rid)

        kernel.run_until_complete(main())
        # Declared idempotent: re-running is cheaper than remembering.
        assert servant.peeks == 2
        assert server.reply_cache.executions == 0

    def test_dedup_disabled_double_executes(self):
        with disabled_dedup():
            kernel, net, server, servant, ref, client = tally_world()
            rid = client.next_request_id()

            async def main():
                await client.invoke(ref, "bump", (1,), request_id=rid)
                await client.invoke(ref, "bump", (1,), request_id=rid)

            kernel.run_until_complete(main())
        assert servant.executions == 2

    @pytest.mark.parametrize("sabotaged", [False, True])
    def test_dedup_seam_is_consulted_once_per_call(self, sabotaged):
        """The dispatch path asks ``_dedup_key`` once per incoming call
        and carries the key to completion, so the sabotage patch of that
        one consult is the whole of dedup: two concurrent copies of one
        request park (cache on) or both execute (patched)."""
        consults = []
        with disabled_dedup() if sabotaged else contextlib.nullcontext():
            seam = OCSRuntime._dedup_key

            def counted(self, payload, mdef):
                consults.append(payload["call_id"])
                return seam(self, payload, mdef)

            OCSRuntime._dedup_key = counted
            try:
                kernel, net, server, servant, ref, client = tally_world()
                rid = client.next_request_id()
                futs = [client.invoke(ref, "slow_bump", (1, 0.5),
                                      request_id=rid) for _ in range(2)]
                kernel.run(until=2.0)
            finally:
                OCSRuntime._dedup_key = seam
        assert len(consults) == len(set(consults)) == 2
        cache = server.reply_cache
        if sabotaged:
            assert servant.executions == 2
            assert [f.result() for f in futs] == [1, 2]
            assert (cache.executions, cache.suppressed) == (0, 0)
        else:
            assert servant.executions == 1
            assert [f.result() for f in futs] == [1, 1]
            assert (cache.executions, cache.suppressed) == (1, 1)


class TestRetryAfterTimeout:
    """The latent double-execution fix (satellite 1): a retry after
    CallTimeout against a slow-but-alive server must not run the op
    twice."""

    def test_timed_out_retry_parks_on_the_original_execution(self):
        kernel, net, server, servant, ref, client = tally_world()
        names = StubNames([ref])
        params = Params().with_overrides(call_timeout=1.0,
                                         rebind_backoff=0.0)
        proxy = RebindingProxy(client, names, "svc/tally", params,
                               give_up_after=30.0)
        # The servant takes 1.8s; the per-attempt timeout is 1.0s.  The
        # first attempt times out, the proxy rebinds and re-invokes
        # under the SAME request id; the server parks the retry on the
        # still-running execution and answers it from the one result.
        result = kernel.run_until_complete(
            proxy.call("slow_bump", 5, 1.8))
        assert result == 5
        assert servant.executions == 1
        assert servant.total == 5
        assert proxy.rebinds >= 1
        assert server.reply_cache.suppressed >= 1

    def test_slow_retry_lands_after_completion_and_replays(self):
        kernel, net, server, servant, ref, client = tally_world()
        names = StubNames([ref])
        params = Params().with_overrides(call_timeout=1.0,
                                         rebind_backoff=2.0)
        proxy = RebindingProxy(client, names, "svc/tally", params,
                               rng=SeededRandom(4), give_up_after=30.0)
        # With backoff the retry arrives after the first execution
        # finished: the replay path, same single execution.
        result = kernel.run_until_complete(
            proxy.call("slow_bump", 5, 1.5))
        assert result == 5
        assert servant.executions == 1
        assert server.reply_cache.replays >= 1


@contextlib.contextmanager
def every_runtime():
    """Collect every OCSRuntime built inside the block, live or dead."""
    built = []
    original = OCSRuntime.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    OCSRuntime.__init__ = spy
    try:
        yield built
    finally:
        OCSRuntime.__init__ = original


class TestChecksumGuard:
    def test_corrupt_frames_dropped_before_dispatch(self):
        kernel, net, server, servant, ref, client = tally_world()
        net.set_corrupt(server.ip, 1.0, SeededRandom(5))
        with pytest.raises(CallTimeout):
            kernel.run_until_complete(
                client.invoke(ref, "bump", (1,), timeout=2.0))
        assert servant.executions == 0
        assert server.corrupt_dropped > 0
        assert server.corrupt_dispatched == 0

    def test_guard_disabled_dispatches_corrupt_frames(self):
        with disabled_checksums():
            kernel, net, server, servant, ref, client = tally_world()
            net.set_corrupt(server.ip, 1.0, SeededRandom(5))
            result = kernel.run_until_complete(
                client.invoke(ref, "bump", (4,)))
        # The damaged frame reached the servant -- exactly what E18
        # asserts never happens with the guard on.
        assert result == 4
        assert servant.executions == 1
        assert server.corrupt_dispatched > 0
        assert server.corrupt_dropped == 0

    def test_exiting_runtime_hands_its_counters_to_the_ledger(self):
        kernel, net, server, servant, ref, client = tally_world()
        kernel.ledger = EvidenceLedger(None)
        net.set_corrupt(server.ip, 1.0, SeededRandom(5))
        with pytest.raises(CallTimeout):
            kernel.run_until_complete(
                client.invoke(ref, "bump", (1,), timeout=2.0))
        dropped = server.corrupt_dropped
        assert dropped > 0 and kernel.ledger.retired == {}
        server.process.kill()
        assert kernel.ledger.retired["ocs.corrupt_dropped"] == dropped
        assert kernel.ledger.retired["ocs.corrupt_dispatched"] == 0


# ---------------------------------------------------------------------------
# The evidence ledger and the at_most_once monitor's evidence
# ---------------------------------------------------------------------------


class TestEffectLedger:
    def test_same_actor_double_is_flagged(self):
        ledger = EvidenceLedger(None)
        ledger.record(("c", 1), actor="a1", method="Shopping.order", at=1.0)
        ledger.record(("c", 1), actor="a1", method="Shopping.order", at=2.0)
        ledger.record(("c", 2), actor="a1", method="Shopping.order", at=3.0)
        doubles = ledger.double_executions()
        assert [rid for rid, _ in doubles] == [("c", 1)]
        summary = ledger.summary()
        assert summary["same_actor_doubles"] == 1
        assert summary["cross_actor_reexecutions"] == 0
        assert summary["executions"] == 3
        assert summary["request_ids"] == 2

    def test_cross_actor_reexecution_is_excused(self):
        # Failover: the first server died with the reply; the rebound
        # attempt executing on a different incarnation is the known
        # at-most-once-per-incarnation cost, not a violation.
        ledger = EvidenceLedger(None)
        ledger.record(("c", 1), actor="a1", method="VOD.play", at=1.0)
        ledger.record(("c", 1), actor="a2", method="VOD.play", at=2.0)
        assert ledger.double_executions() == []
        assert ledger.summary()["cross_actor_reexecutions"] == 1

    def test_runtime_stamps_executions_into_kernel_ledger(self):
        kernel, net, server, servant, ref, client = tally_world()
        kernel.ledger = EvidenceLedger(None)
        rid = client.next_request_id()

        async def main():
            await client.invoke(ref, "bump", (2,), request_id=rid)
            await client.invoke(ref, "peek", ())   # idempotent: no stamp

        kernel.run_until_complete(main())
        ledger = kernel.ledger
        assert ledger.total == 1
        assert list(ledger.executions) == [rid]
        assert ledger.executions[rid][0]["method"] == "TallyCounter.bump"


# ---------------------------------------------------------------------------
# E18: the committed hostile-network drill, falsifiable both ways
# ---------------------------------------------------------------------------


class TestE18HostileNetDrill:
    @pytest.fixture(scope="class")
    def e18_run(self):
        with every_runtime() as runtimes:
            result = run_schedule(FaultSchedule.load(E18_SCHEDULE), seed=7)
        return result, runtimes

    @pytest.fixture(scope="class")
    def e18(self, e18_run):
        return e18_run[0]

    def test_e18_green(self, e18):
        assert e18.ok, e18.violated_monitors()

    def test_e18_exercised_all_three_fault_surfaces(self, e18):
        # A hostile-net drill that duplicated, reordered, and corrupted
        # nothing proves nothing.
        assert e18.counters["net.duplicated"] > 0
        assert e18.counters["net.reordered"] > 0
        assert e18.counters["net.corrupted"] > 0

    def test_e18_zero_double_executions(self, e18):
        assert e18.counters["effects.same_actor_doubles"] == 0

    def test_e18_zero_corrupt_dispatches(self, e18_run):
        e18, runtimes = e18_run
        assert e18.counters["ocs.corrupt_dispatched"] == 0
        assert e18.counters["ocs.corrupt_dropped"] > 0
        # Every runtime of the run, the killed ones included.
        assert sum(rt.corrupt_dispatched for rt in runtimes) == 0

    def test_e18_dedup_actually_fired(self, e18):
        # The duplicates really reached servers and really were
        # collapsed -- replays and suppressions, not silence.
        assert e18.counters["replycache.replays"] > 0
        assert e18.counters["replycache.executions"] > 0

    def test_e18_viewers_made_progress(self, e18):
        assert e18.counters["viewer_ops"] > 0


class TestChecksumGuardFalsifiable:
    """With the guard patched out, E18 dispatches corrupt frames, and the
    evidence outlives the runtimes the drill kills."""

    @pytest.fixture(scope="class")
    def sabotaged(self):
        with disabled_checksums(), every_runtime() as runtimes:
            result = run_schedule(FaultSchedule.load(E18_SCHEDULE), seed=7)
        return result, runtimes

    def test_checksum_sabotage_trips_exactly_at_most_once(self, sabotaged):
        assert sabotaged[0].violated_monitors() == ["at_most_once"]

    def test_walker_counts_killed_runtimes(self, sabotaged):
        result, runtimes = sabotaged
        total = sum(rt.corrupt_dispatched for rt in runtimes)
        live = sum(rt.corrupt_dispatched for rt in runtimes
                   if rt.process.alive)
        # 387 over all 73 runtimes, 385 of them on the 61 alive at quiesce.
        assert result.counters["ocs.corrupt_dispatched"] == total > live


class TestAtMostOnceFalsifiable:
    @pytest.fixture(scope="class")
    def sabotaged(self):
        with disabled_dedup():
            return run_schedule(NO_DEDUP_SCHEDULE, seed=11)

    def test_dedup_sabotage_trips_exactly_at_most_once(self, sabotaged):
        assert not sabotaged.ok
        assert sabotaged.violated_monitors() == ["at_most_once"]

    def test_sabotage_actually_double_executed(self, sabotaged):
        assert sabotaged.counters["effects.same_actor_doubles"] > 0
