"""Hypothesis stateful testing: the NameStore as a state machine.

A model-based test: random interleavings of bind/unbind/mkcontext/mkrepl
against a NameStore, mirrored into a plain-dict model, checking after
every step that the two agree -- plus snapshot/replica-divergence checks
woven into the machine.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.naming.errors import NamingError
from repro.core.naming.store import NameStore
from repro.ocs.objref import ObjectRef

COMPONENTS = ["svc", "apps", "mds", "rds", "a", "b", "c"]


def make_ref(tag: int) -> ObjectRef:
    return ObjectRef(ip="192.26.65.1", port=1000 + tag,
                     incarnation=(0.0, tag), type_id="NamingContext",
                     object_id="")


class NameStoreMachine(RuleBasedStateMachine):
    """Drives a store + a twin replica + a flat-dict model in lockstep."""

    paths = Bundle("paths")

    def __init__(self):
        super().__init__()
        self.store = NameStore()
        self.twin = NameStore()      # receives the identical ops
        self.model = {}              # path -> ("context"|"replicated"|tag)

    def _apply(self, op) -> bool:
        try:
            self.store.check(op)
        except NamingError:
            return False
        self.store.apply(op)
        self.twin.apply(op)
        return True

    @rule(target=paths, parent=st.sampled_from(["", "svc", "apps"]),
          name=st.sampled_from(COMPONENTS))
    def make_path(self, parent, name):
        return f"{parent}/{name}".strip("/")

    @rule(path=paths)
    def mkcontext(self, path):
        if self._apply(("mkcontext", path)):
            self.model[path] = "context"

    @rule(path=paths)
    def mkrepl(self, path):
        if self._apply(("mkrepl", path, ("builtin", "first"))):
            self.model[path] = "replicated"

    @rule(path=paths, tag=st.integers(min_value=0, max_value=50))
    def bind(self, path, tag):
        if self._apply(("bind", path, make_ref(tag))):
            self.model[path] = tag

    @rule(path=paths)
    def unbind(self, path):
        if self._apply(("unbind", path)):
            # Children vanish with their subtree root.
            doomed = [p for p in self.model
                      if p == path or p.startswith(path + "/")]
            for p in doomed:
                del self.model[p]

    @invariant()
    def model_agrees(self):
        for path, expected in self.model.items():
            node = self.store.get_node(path)
            if expected == "context":
                assert node.kind == "context", path
            elif expected == "replicated":
                assert node.kind == "replicated", path
            else:
                assert node.kind == "leaf" and node.ref == make_ref(expected)

    @invariant()
    def replicas_converged(self):
        assert self.twin.snapshot() == self.store.snapshot()

    @invariant()
    def snapshot_round_trips(self):
        clone = NameStore()
        clone.load_snapshot(self.store.snapshot())
        assert clone.context_paths() == self.store.context_paths()


TestNameStoreMachine = NameStoreMachine.TestCase
TestNameStoreMachine.settings = __import__("hypothesis").settings(
    max_examples=30, stateful_step_count=30, deadline=None)
