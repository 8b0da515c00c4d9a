"""Unit tests for the IDL layer: declarations, subtyping, marshal sizes."""

from collections import namedtuple
from enum import IntEnum
from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.auth.tickets import Ticket
from repro.idl import types as idl_types
from repro.idl import (
    MethodDef,
    estimated_size,
    lookup_interface,
    register_exception,
    register_interface,
    resolve_exception,
)
from repro.idl.errors import (
    DuplicateInterface,
    NoSuchMethod,
    SignatureError,
    UnknownInterface,
)
from repro.ocs.objref import ObjectRef
from repro.services.data import Blob

register_interface("IdlBase", {"ping": (), "add": ("a", "b")})
register_interface("IdlDerived", {"extra": ("x",)}, base="IdlBase")


class TestInterfaces:
    def test_lookup_registered(self):
        iface = lookup_interface("IdlBase")
        assert iface.name == "IdlBase"

    def test_lookup_unknown_raises(self):
        with pytest.raises(UnknownInterface):
            lookup_interface("Nope")

    def test_method_lookup(self):
        iface = lookup_interface("IdlBase")
        assert iface.method("add").params == ("a", "b")

    def test_missing_method_raises(self):
        with pytest.raises(NoSuchMethod):
            lookup_interface("IdlBase").method("frob")

    def test_inherited_method_found(self):
        derived = lookup_interface("IdlDerived")
        assert derived.method("ping").name == "ping"
        assert derived.method("extra").params == ("x",)

    def test_is_a_subtype(self):
        derived = lookup_interface("IdlDerived")
        assert derived.is_a("IdlBase")
        assert derived.is_a("IdlDerived")
        assert not lookup_interface("IdlBase").is_a("IdlDerived")

    def test_all_methods_merges_chain(self):
        methods = lookup_interface("IdlDerived").all_methods()
        assert set(methods) >= {"ping", "add", "extra"}

    def test_arity_check(self):
        mdef = lookup_interface("IdlBase").method("add")
        mdef.check_args((1, 2))
        with pytest.raises(SignatureError):
            mdef.check_args((1,))

    def test_idempotent_reregistration(self):
        again = register_interface("IdlBase", {"ping": (), "add": ("a", "b")})
        assert again is lookup_interface("IdlBase")

    def test_conflicting_redefinition_rejected(self):
        with pytest.raises(DuplicateInterface):
            register_interface("IdlBase", {"ping": (), "other": ()})

    def test_oneway_methoddef(self):
        register_interface("IdlOneway", {
            "notify": MethodDef("notify", ("event",), oneway=True)})
        assert lookup_interface("IdlOneway").method("notify").oneway


class TestExceptionRegistry:
    def test_registered_resolvable(self):
        @register_exception
        class IdlTestError(Exception):
            pass

        assert resolve_exception("IdlTestError") is IdlTestError

    def test_unregistered_returns_none(self):
        assert resolve_exception("TotallyUnknownError") is None


class TestEstimatedSize:
    def test_scalars(self):
        assert estimated_size(None) == 1
        assert estimated_size(True) == 1
        assert estimated_size(42) == 8
        assert estimated_size(3.14) == 8

    def test_string_scales_with_length(self):
        assert estimated_size("abc") == 4 + 3
        assert estimated_size("a" * 100) == 4 + 100

    def test_bytes(self):
        assert estimated_size(b"x" * 1000) == 4 + 1000

    def test_containers_sum_members(self):
        assert estimated_size([1, 2, 3]) == 4 + 24
        assert estimated_size({"k": 1}) == 4 + (4 + 1) + 8

    def test_objref_uses_hint(self):
        ref = ObjectRef(ip="1.2.3.4", port=1, incarnation=(0.0, 1),
                        type_id="IdlBase")
        assert estimated_size(ref) == 64

    def test_blob_uses_declared_size(self):
        from repro.services.data import Blob
        blob = Blob(name="app", size=2_000_000)
        assert estimated_size(blob) == 2_000_000

    def test_nested_structure(self):
        value = {"refs": [ObjectRef(ip="1.1.1.1", port=1,
                                    incarnation=(0.0, 1),
                                    type_id="IdlBase")] * 3}
        assert estimated_size(value) > 3 * 64


# ---------------------------------------------------------------------
# estimated_size against the plain isinstance chain
# ---------------------------------------------------------------------

def _chain_size(value):
    """The cost model as one isinstance chain: the oracle the exact-type
    fast path in ``estimated_size`` must agree with."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set)):
        return 4 + sum(_chain_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(
            _chain_size(k) + _chain_size(v) for k, v in value.items())
    hint = getattr(value, "wire_size", None)
    if hint is not None:
        return int(hint)
    return 64


class _Colour(IntEnum):
    RED = 1
    BLUE = 2


_Pair = namedtuple("_Pair", "left right")


class _Span(NamedTuple):
    start: float
    label: str


class _Label(str):
    pass


class _Hinted:
    wire_size = 123


class _Unhinted:
    pass


_hashable_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(list(_Colour)),
    st.text(), st.text().map(_Label), st.binary(),
    st.builds(ObjectRef, ip=st.just("1.2.3.4"), port=st.integers(0, 9),
              incarnation=st.just((0.0, 1)), type_id=st.just("IdlBase")),
    st.builds(_Hinted), st.builds(_Unhinted))
_hashable = st.recursive(
    _hashable_leaf,
    lambda kids: st.one_of(st.tuples(kids, kids), st.builds(_Pair, kids, kids),
                           st.frozensets(kids, max_size=4)),
    max_leaves=8)
# Wire-hinted values beside ObjectRef: a class-attribute hint (Ticket),
# a property hint (Blob, one size per instance) and a typing.NamedTuple.
_hinted = st.sampled_from([
    Ticket("viewer", 1.0, 2.0, "mac"), Ticket("", 0.0, 0.0, ""),
    Blob("font", 0), Blob("kernel", 7), Blob("movie", 10 ** 9),
    _Span(0.5, "x"), _Span(-1.0, "naïve")])
_value = st.recursive(
    st.one_of(_hashable_leaf, _hinted, st.binary().map(bytearray)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.builds(_Pair, kids, kids),
        st.dictionaries(_hashable, kids, max_size=4),
        st.sets(_hashable, max_size=4), st.frozensets(_hashable, max_size=4)),
    max_leaves=20)


class TestEstimatedSizeDifferential:
    @settings(max_examples=300, deadline=None)
    @given(value=_value)
    def test_agrees_with_the_isinstance_chain(self, value):
        # Twice: the first sight of a hinted class may enter it in the
        # fixed-size table, the second is answered from it.
        assert estimated_size(value) == _chain_size(value)
        assert estimated_size(value) == _chain_size(value)

    @pytest.mark.parametrize("value", [
        True, False, _Colour.BLUE, _Pair(1, "x"), _Label("lbl"),
        "naïve ☃", "", bytearray(b"abc"), {1, 2.5}, frozenset({"a"}),
        ObjectRef(ip="1.2.3.4", port=1, incarnation=(0.0, 1),
                  type_id="IdlBase"),
        _Hinted(), _Unhinted(), {"k": [None, (b"v", 3)]},
        Ticket("viewer", 1.0, 2.0, "mac"), Blob("font", 1234),
        _Span(0.5, "x"), [Blob("a", 7), (Blob("b", 9), 1)],
    ])
    def test_each_fall_through_kind(self, value):
        assert estimated_size(value) == _chain_size(value)
        assert estimated_size(value) == _chain_size(value)

    def test_only_class_attribute_hints_are_learned(self):
        estimated_size([Ticket("v", 1.0, 2.0, "m"), Blob("b", 5)])
        assert idl_types._FIXED_SIZE[Ticket] == 96
        assert Blob not in idl_types._FIXED_SIZE     # a property hint
        assert estimated_size(Blob("big", 10 ** 6)) == 10 ** 6
