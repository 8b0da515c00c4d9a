"""Unit tests for the pure name tree (NameStore)."""

import pytest

from repro.core.naming.errors import (
    AlreadyBound,
    InvalidName,
    NameNotFound,
    NotAContext,
)
from repro.core.naming.store import NameStore, join_name, split_name
from repro.ocs.objref import ObjectRef


def make_ref(ip="192.26.65.1", port=7000, type_id="TestEcho", oid=""):
    return ObjectRef(ip=ip, port=port, incarnation=(0.0, 1),
                     type_id=type_id, object_id=oid)


@pytest.fixture
def store():
    return NameStore()


class TestNames:
    def test_split_simple(self):
        assert split_name("svc/rds/1") == ["svc", "rds", "1"]

    def test_split_strips_slashes(self):
        assert split_name("/svc/rds/") == ["svc", "rds"]

    def test_split_root(self):
        assert split_name("") == []
        assert split_name("/") == []

    def test_split_rejects_empty_component(self):
        with pytest.raises(InvalidName):
            split_name("svc//rds")

    def test_split_rejects_dots(self):
        with pytest.raises(InvalidName):
            split_name("svc/../etc")

    def test_join_round_trips(self):
        assert join_name(split_name("a/b/c")) == "a/b/c"


class TestUpdates:
    def apply(self, store, *ops):
        for op in ops:
            store.check(op)
            store.apply(op)

    def test_bind_and_get(self, store):
        ref = make_ref()
        self.apply(store, ("mkcontext", "svc"), ("bind", "svc/mms", ref))
        assert store.get_node("svc/mms").ref == ref

    def test_bind_without_parent_fails(self, store):
        with pytest.raises(NameNotFound):
            store.check(("bind", "svc/mms", make_ref()))

    def test_bind_duplicate_raises_already_bound(self, store):
        self.apply(store, ("mkcontext", "svc"), ("bind", "svc/mms", make_ref()))
        with pytest.raises(AlreadyBound):
            store.check(("bind", "svc/mms", make_ref(port=8000)))

    def test_bind_non_ref_rejected(self, store):
        self.apply(store, ("mkcontext", "svc"))
        with pytest.raises(InvalidName):
            store.check(("bind", "svc/mms", "not-a-ref"))

    def test_unbind(self, store):
        self.apply(store, ("mkcontext", "svc"), ("bind", "svc/mms", make_ref()),
                   ("unbind", "svc/mms"))
        assert not store.exists("svc/mms")

    def test_unbind_missing_raises(self, store):
        self.apply(store, ("mkcontext", "svc"))
        with pytest.raises(NameNotFound):
            store.check(("unbind", "svc/ghost"))

    def test_bind_into_leaf_raises(self, store):
        self.apply(store, ("mkcontext", "svc"), ("bind", "svc/mms", make_ref()))
        with pytest.raises(NotAContext):
            store.check(("bind", "svc/mms/x", make_ref()))

    def test_cannot_create_root(self, store):
        with pytest.raises(InvalidName):
            store.check(("mkcontext", ""))

    def test_mkrepl_members(self, store):
        self.apply(store, ("mkcontext", "svc"),
                   ("mkrepl", "svc/rds", ("builtin", "first")),
                   ("bind", "svc/rds/1", make_ref(port=1)),
                   ("bind", "svc/rds/2", make_ref(port=2)))
        node = store.get_node("svc/rds")
        assert node.kind == "replicated"
        assert [n for n, _ in node.members()] == ["1", "2"]

    def test_selector_binding_sets_selector(self, store):
        sel = make_ref(type_id="Selector", oid="sel")
        self.apply(store, ("mkrepl", "rds", ("builtin", "first")),
                   ("bind", "rds/selector", sel))
        node = store.get_node("rds")
        assert node.selector == ("object", sel)
        # The selector binding is excluded from member selection.
        assert node.members() == []

    def test_unbind_selector_restores_builtin(self, store):
        sel = make_ref(type_id="Selector", oid="sel")
        self.apply(store, ("mkrepl", "rds", ("builtin", "roundrobin")),
                   ("bind", "rds/selector", sel), ("unbind", "rds/selector"))
        assert store.get_node("rds").selector == ("builtin", "first")

    def test_setselector_requires_replicated(self, store):
        self.apply(store, ("mkcontext", "svc"))
        with pytest.raises(NotAContext):
            store.check(("setselector", "svc", ("builtin", "roundrobin")))

    def test_unknown_op_rejected(self, store):
        with pytest.raises(InvalidName):
            store.check(("frobnicate", "x"))


class TestSnapshot:
    def test_round_trip(self, store):
        ref = make_ref()
        for op in [
            ("mkcontext", "svc"),
            ("mkrepl", "svc/rds", ("builtin", "neighborhood")),
            ("bind", "svc/rds/1", ref),
            ("bind", "svc/mms", make_ref(port=9)),
        ]:
            store.apply(op)
        snap = store.snapshot()
        assert list(snap) == ["root"]       # the tree only: no cursor
        other = NameStore()
        other.load_snapshot(snap)
        assert other.snapshot() == snap
        assert other.get_node("svc/rds").selector == ("builtin", "neighborhood")
        assert other.get_node("svc/rds/1").ref == ref

    def test_iter_leaf_bindings(self, store):
        r1, r2 = make_ref(port=1), make_ref(port=2)
        sel = make_ref(type_id="Selector", port=3)
        for op in [
            ("mkcontext", "svc"),
            ("bind", "svc/mms", r1),
            ("mkrepl", "svc/rds", ("builtin", "first")),
            ("bind", "svc/rds/1", r2),
            ("bind", "svc/rds/selector", sel),
        ]:
            store.apply(op)
        bindings = dict(store.iter_leaf_bindings())
        assert bindings["svc/mms"] == r1
        assert bindings["svc/rds/1"] == r2
        assert bindings["svc/rds/selector"] == sel
