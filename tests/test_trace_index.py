"""The indexed TraceLog must be observationally identical to a linear scan.

The index is a pure query accelerator: for every interleaving of emits
and queries, ``select``/``count``/``last`` must return exactly what the
reference O(n) scan (``select_linear`` below) returns.
Property-based interleavings are the point -- the index catches up
lazily, so the bugs to guard against live at the emit/query boundaries.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Kernel
from repro.sim.trace import TraceEvent, TraceLog

CATEGORIES = ["mms", "ras", "ns", "boot"]
EVENTS = ["start", "stop", "poll", "fail"]


def select_linear(trace, category=None, event=None, **field_filters):
    """Reference O(n) scan over ``trace.events``: the oracle for the index."""
    out = []
    for ev in trace.events:
        if category is not None and ev.category != category:
            continue
        if event is not None and ev.event != event:
            continue
        if any(ev.fields.get(k) != v for k, v in field_filters.items()):
            continue
        out.append(ev)
    return out


op_strategy = st.one_of(
    # emit(category, event, host=...)
    st.tuples(st.just("emit"), st.sampled_from(CATEGORIES),
              st.sampled_from(EVENTS), st.integers(0, 3)),
    # advance the clock so events spread over time
    st.tuples(st.just("tick"), st.floats(0.1, 5.0, allow_nan=False)),
    # query(category?, event?)
    st.tuples(st.just("query"),
              st.one_of(st.none(), st.sampled_from(CATEGORIES)),
              st.one_of(st.none(), st.sampled_from(EVENTS))),
)


class TestIndexEquivalence:
    @given(st.lists(op_strategy, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_indexed_matches_linear_under_interleaving(self, ops):
        kernel = Kernel()
        trace = TraceLog(kernel)
        for op in ops:
            if op[0] == "emit":
                _, cat, ev, host = op
                trace.emit(cat, ev, host=f"h{host}")
            elif op[0] == "tick":
                kernel.run(until=kernel.now + op[1])
            else:
                _, cat, ev = op
                linear = select_linear(trace, cat, ev)
                assert trace.select(cat, ev) == linear
                assert trace.count(cat, ev) == len(linear)
                assert trace.last(cat, ev) == (linear[-1] if linear else None)
        # Final full sweep over every key, including the match-all key.
        for cat in [None] + CATEGORIES:
            for ev in [None] + EVENTS:
                assert trace.select(cat, ev) == select_linear(trace, cat, ev)

    @given(st.lists(op_strategy, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_field_filters_match_linear(self, ops):
        kernel = Kernel()
        trace = TraceLog(kernel)
        for op in ops:
            if op[0] == "emit":
                _, cat, ev, host = op
                trace.emit(cat, ev, host=f"h{host}")
        for host in ("h0", "h1", "h9"):
            assert (trace.select("mms", None, host=host)
                    == select_linear(trace, "mms", None, host=host))


class TestTraceLogBasics:
    def test_select_returns_fresh_lists(self):
        trace = TraceLog(Kernel())
        trace.emit("a", "x")
        first = trace.select("a")
        first.append("junk")
        assert trace.select("a") == select_linear(trace, "a")

    def test_events_emitted_after_a_query_are_found(self):
        trace = TraceLog(Kernel())
        trace.emit("a", "x", n=1)
        assert trace.count("a", "x") == 1
        trace.emit("a", "x", n=2)
        trace.emit("b", "y")
        assert trace.count("a", "x") == 2
        assert trace.last("a", "x").fields["n"] == 2
        assert trace.count() == 3

    def test_disabled_log_emits_nothing(self):
        trace = TraceLog(Kernel(), enabled=False)
        trace.emit("a", "x")
        assert len(trace) == 0 and trace.select() == []

    def test_trace_event_equality(self):
        a = TraceEvent(1.0, "c", "e", {"k": 1})
        b = TraceEvent(1.0, "c", "e", {"k": 1})
        c = TraceEvent(1.0, "c", "e", {"k": 2})
        assert a == b and a != c

