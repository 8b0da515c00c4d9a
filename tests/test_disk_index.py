"""The sorted key index and the frozen-value rule of ``Disk``.

``Disk.keys(prefix)`` answers from one sorted list of every key in the
durable image and the write buffer, and ``read``/``write`` hand a frozen
value (an exact atom, or an exact tuple of frozen items) through
uncopied.  Both must be invisible.  The linear disk they replaced is
kept here, verbatim, as the differential oracle: hypothesis drives both
through writes, deletes, the write barrier, syncs, torn writes, crashes,
bit rot and wedges, and after every step ``keys``, ``read``,
``in`` and ``counters`` must agree.  The copy-rule tests then pin what
the frozen rule may and may not pass through, and a mutant index that
keeps a synced tombstone shows the differential can fail.
"""

import copy
from typing import Any, Dict, List, NamedTuple, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ocs.objref import ObjectRef
from repro.sim.host import _TOMBSTONE, CorruptBlob, Disk, DiskWedged


class LinearDisk:
    """The oracle: ``Disk`` as it stood before the key index, one
    ``startswith`` per key on every ``keys`` call and a deep copy of
    every value read or written."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}     # durable (synced) image
        self._buffer: Dict[str, Any] = {}   # written but not yet synced
        self.write_barrier = False
        self.wedged = False
        self._torn_armed = False
        self._last_buffered: Optional[str] = None
        self.writes = 0
        self.syncs = 0
        self.lost_writes = 0
        self.torn_writes = 0
        self.corrupted_keys = 0

    def _check_wedged(self) -> None:
        if self.wedged:
            raise DiskWedged("disk is wedged")

    def read(self, key: str, default: Any = None) -> Any:
        self._check_wedged()
        if key in self._buffer:
            value = self._buffer[key]
            return default if value is _TOMBSTONE else copy.deepcopy(value)
        if key in self._data:
            return copy.deepcopy(self._data[key])
        return default

    def write(self, key: str, value: Any) -> None:
        self._check_wedged()
        self.writes += 1
        value = copy.deepcopy(value)
        if self.write_barrier:
            self._buffer[key] = value
            self._last_buffered = key
        else:
            self._data[key] = value

    def delete(self, key: str) -> None:
        self._check_wedged()
        if self.write_barrier:
            self._buffer[key] = _TOMBSTONE
            self._last_buffered = key
        else:
            self._data.pop(key, None)

    def sync(self) -> None:
        self._check_wedged()
        self.syncs += 1
        if not self._buffer:
            return
        for key, value in self._buffer.items():
            if value is _TOMBSTONE:
                self._data.pop(key, None)
            else:
                self._data[key] = value
        self._buffer.clear()
        self._last_buffered = None

    def keys(self, prefix: str = "") -> List[str]:
        self._check_wedged()
        live = {key for key in self._data if key.startswith(prefix)}
        for key, value in self._buffer.items():
            if value is _TOMBSTONE:
                live.discard(key)
            elif key.startswith(prefix):
                live.add(key)
        return sorted(live)

    def __contains__(self, key: str) -> bool:
        self._check_wedged()
        if key in self._buffer:
            return self._buffer[key] is not _TOMBSTONE
        return key in self._data

    def arm_torn_write(self) -> None:
        self.write_barrier = True
        self._torn_armed = True

    def corrupt(self, key: str) -> bool:
        present = (key in self._buffer and self._buffer[key] is not _TOMBSTONE
                   ) or key in self._data
        if not present:
            return False
        self._buffer.pop(key, None)
        self._data[key] = CorruptBlob(key, "bit rot")
        self.corrupted_keys += 1
        return True

    def heal(self) -> None:
        self.wedged = False
        self._torn_armed = False

    def crash(self) -> None:
        if not self._buffer:
            self._torn_armed = False
            return
        lost = len(self._buffer)
        if self._torn_armed and self._last_buffered in self._buffer:
            value = self._buffer[self._last_buffered]
            if value is not _TOMBSTONE:
                self._data[self._last_buffered] = CorruptBlob(
                    self._last_buffered, "torn write")
                self.torn_writes += 1
                lost -= 1
        self._torn_armed = False
        self.lost_writes += lost
        self._buffer.clear()
        self._last_buffered = None

    def counters(self) -> Dict[str, int]:
        return {"writes": self.writes, "syncs": self.syncs,
                "lost_writes": self.lost_writes,
                "torn_writes": self.torn_writes,
                "corrupted_keys": self.corrupted_keys,
                "unsynced": len(self._buffer)}


# ---------------------------------------------------------------------------
# differential test
# ---------------------------------------------------------------------------

# "t/1" is a prefix of "t/10"; "a" of "ab" and "abc".
KEYS = ("a", "ab", "abc", "b", "t/1", "t/10", "t/2", "z")
# "": everything; a full key; keys that prefix other keys; a prefix with
# no key under it but keys on both sides; one past every key.
PREFIXES = ("", "abc", "a", "t/1", "t/", "c", "zz")

values = st.one_of(
    st.integers(), st.text(max_size=3), st.none(), st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=2)),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))

ops = st.lists(st.one_of(
    st.tuples(st.just("write"), st.sampled_from(KEYS), values),
    st.tuples(st.just("delete"), st.sampled_from(KEYS + ("absent",))),
    st.tuples(st.just("barrier"), st.booleans()),
    st.tuples(st.just("sync")),
    st.tuples(st.just("arm_torn_write")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("corrupt"), st.sampled_from(KEYS)),
    st.tuples(st.just("wedge")),
    st.tuples(st.just("heal")),
), max_size=40)


def apply(disk, op):
    """Run one step; what it returned, or the type it raised."""
    name, *args = op
    try:
        if name == "barrier":
            disk.write_barrier = args[0]
        elif name == "wedge":
            disk.wedged = True
        else:
            return ("ok", getattr(disk, name)(*args))
    except DiskWedged:
        return ("raised", DiskWedged)
    return ("ok", None)


def seen(value):
    """A stored value as an observer compares it (a CorruptBlob has no
    equality of its own)."""
    if isinstance(value, CorruptBlob):
        return ("CorruptBlob", value.key, value.reason)
    return value


def observe(disk):
    out = {"counters": disk.counters()}
    for prefix in PREFIXES:
        out[f"keys {prefix!r}"] = apply(disk, ("keys", prefix))
    for key in KEYS + ("absent",):
        outcome, value = apply(disk, ("read", key, "default"))
        out[f"read {key}"] = (outcome, seen(value))
        out[f"in {key}"] = apply(disk, ("__contains__", key))
    return out


def check_same(program, disk_cls=Disk):
    disk, oracle = disk_cls(), LinearDisk()
    for step, op in enumerate(program):
        assert apply(disk, op) == apply(oracle, op), (step, op)
        assert observe(disk) == observe(oracle), (step, op)
    return disk


@settings(max_examples=300, deadline=None)
@given(ops)
def test_index_and_copy_rule_are_indistinguishable_from_the_linear_disk(
        program):
    check_same(program)


def test_differential_harness_exercises_every_path():
    """Tombstones synced and lost, a torn key landing, bit rot of a
    buffered key, a wedge and every key deleted, all in one program."""
    program = [
        ("write", "t/1", 1), ("write", "t/10", (1, "x")), ("barrier", True),
        ("write", "t/2", [2]), ("delete", "t/1"), ("delete", "absent"),
        ("sync",), ("write", "a", {"k": 1}), ("delete", "t/10"),
        ("arm_torn_write",), ("write", "ab", 3), ("crash",),
        ("write", "b", 4), ("corrupt", "b"), ("wedge",), ("write", "z", 5),
        ("heal",), ("delete", "ab"), ("delete", "b"), ("delete", "t/10"),
        ("delete", "t/2"), ("sync",), ("write", "abc", 6), ("delete", "abc"),
        ("crash",),
    ]
    disk = check_same(program)
    assert disk.counters() == {"writes": 7, "syncs": 2, "lost_writes": 3,
                               "torn_writes": 1, "corrupted_keys": 1,
                               "unsynced": 0}
    assert disk.keys("") == [] and disk._keys == []


def test_callers_may_delete_while_walking_keys():
    """``ChangeLog._sweep`` and ``install_snapshot`` do: ``keys`` must
    hand out a fresh list, never the index itself."""
    disk = Disk()
    for key in KEYS:
        disk.write(key, 1)
    for key in disk.keys(""):
        disk.delete(key)
    assert disk.keys("") == [] and disk._keys == []


class _StaleTombstoneDisk(Disk):
    """Mutant: ``sync`` drops a tombstoned key from the durable image but
    leaves it in the key index."""

    def sync(self) -> None:
        self._unindex = lambda key: None
        try:
            super().sync()
        finally:
            del self._unindex


def test_a_stale_tombstone_in_the_index_goes_red():
    program = [("barrier", True), ("write", "t/1", 1), ("sync",),
               ("delete", "t/1"), ("sync",)]
    check_same(program)
    with pytest.raises(AssertionError):
        check_same(program, _StaleTombstoneDisk)


# ---------------------------------------------------------------------------
# the copy rule
# ---------------------------------------------------------------------------


class Tag(str):
    """A str subclass: not frozen, so it is copied."""


class Point(NamedTuple):
    """A tuple subclass of atoms: not frozen either."""

    x: int
    y: int


class TestCopyRule:
    def test_all_atom_tuple_is_passed_through(self):
        disk = Disk()
        entry = (7, ("t", 1.5), "sum", None, b"x", True, ())
        disk.write("k", entry)
        assert disk.read("k") is entry

    def test_atoms_are_passed_through_under_the_barrier_too(self):
        disk = Disk()
        disk.write_barrier = True
        text = "x" * 40
        disk.write("k", text)
        assert disk.read("k") is text

    @pytest.mark.parametrize("item", [
        [1, 2],
        ObjectRef("10.0.0.1", 7, (0.0, 1), "IDL:X:1.0"),
        Tag("t"),
    ], ids=["list", "ObjectRef", "str-subclass"])
    def test_a_tuple_holding_a_non_frozen_item_is_copied(self, item):
        disk = Disk()
        entry = (1, item)
        disk.write("k", entry)
        got = disk.read("k")
        assert got == entry and type(got[1]) is type(item)
        assert got is not entry and got[1] is not item
        assert disk.read("k") is not got

    @pytest.mark.parametrize("value", [
        ObjectRef("10.0.0.1", 7, (0.0, 1), "IDL:X:1.0"),
        Tag("t"),
        Point(1, 2),
    ], ids=["ObjectRef", "str-subclass", "NamedTuple"])
    def test_non_frozen_values_are_copied(self, value):
        disk = Disk()
        disk.write("k", value)
        got = disk.read("k")
        assert got == value and type(got) is type(value)
        assert got is not value

    def test_mutating_either_side_never_reaches_the_disk(self):
        disk = Disk()
        row = {"a": [1]}
        entry = (1, [2])
        disk.write("row", row)
        disk.write("entry", entry)
        row["a"].append(99)
        entry[1].append(99)
        assert disk.read("row") == {"a": [1]}
        assert disk.read("entry") == (1, [2])
        disk.read("row")["a"].append(99)
        disk.read("entry")[1].append(99)
        assert disk.read("row") == {"a": [1]}
        assert disk.read("entry") == (1, [2])
