"""The replicated name tree: pure data structure + deterministic updates.

A :class:`NameStore` holds one replica's copy of the cluster name space
(paper Figure 5/8).  All mutation goes through numbered update operations
-- ``("bind", path, ref)`` etc. -- applied in master-assigned sequence
order, so every replica that has applied the same prefix has an identical
tree.  The store is deliberately free of I/O: the replica machinery in
:mod:`repro.core.naming.replica` owns forwarding, multicast and election.

Node kinds mirror section 4.3's three classes of bound objects:

- ``context``      -- a locally implemented :class:`NamingContext`;
- ``replicated``   -- a :class:`ReplicatedContext` (section 4.5) whose
  member bindings are hidden behind a selector;
- ``leaf``         -- any other object reference, *including* contexts
  implemented by other name services (the file service), which traversal
  hands off to remotely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.naming.errors import (
    AlreadyBound,
    InvalidName,
    NameNotFound,
    NotAContext,
)
from repro.ocs.objref import ObjectRef

SELECTOR_NAME = "selector"

# Selector specs stored in the tree.  A builtin spec is interpreted by
# whichever replica performs the resolve (every replica carries the same
# builtin implementations); an object spec is a user-provided Selector
# object invoked remotely, exactly as in Figure 6.
BuiltinSpec = Tuple[str, str]          # ("builtin", policy_name)
ObjectSpec = Tuple[str, ObjectRef]     # ("object", ref)


def split_name(name: str) -> List[str]:
    """Split and validate a path name like ``svc/mds/forge``."""
    if not isinstance(name, str):
        raise InvalidName(f"name must be a string, got {type(name).__name__}")
    stripped = name.strip("/")
    if stripped == "":
        return []
    components = stripped.split("/")
    for comp in components:
        if comp == "" or comp in (".", ".."):
            raise InvalidName(f"bad component in name {name!r}")
    return components


def join_name(components: List[str]) -> str:
    return "/".join(components)


@dataclass
class Node:
    kind: str                       # "context" | "replicated" | "leaf"
    ref: Optional[ObjectRef] = None  # leaf only
    bindings: Dict[str, "Node"] = field(default_factory=dict)
    selector: Any = ("builtin", "first")   # replicated only

    def is_context(self) -> bool:
        return self.kind in ("context", "replicated")

    def members(self) -> List[Tuple[str, "Node"]]:
        """Bindings eligible for selection (excludes the selector slot)."""
        return [(n, node) for n, node in sorted(self.bindings.items())
                if n != SELECTOR_NAME]


# The two tree walks are module functions: a recursive closure holds
# itself through its own cell, a reference cycle per call.

def _leaf_bindings(prefix: List[str],
                   node: Node) -> Iterator[Tuple[str, ObjectRef]]:
    if node.kind == "leaf":
        if node.ref is not None:
            yield join_name(prefix), node.ref
        return
    if node.kind == "replicated" and node.selector[0] == "object":
        yield join_name(prefix + [SELECTOR_NAME]), node.selector[1]
    for name, child in sorted(node.bindings.items()):
        yield from _leaf_bindings(prefix + [name], child)


def _context_paths(prefix: List[str], node: Node, out: List[str]) -> None:
    if node.is_context():
        out.append(join_name(prefix))
        for name, child in node.bindings.items():
            _context_paths(prefix + [name], child, out)


class NameStore:
    """One replica's copy of the name space (its cursor is the change
    log's: :mod:`repro.core.naming.replica`)."""

    def __init__(self) -> None:
        self.root = Node(kind="context")

    # -- lookup ----------------------------------------------------------

    def get_node(self, path: str) -> Node:
        """Fetch the node at ``path`` with plain traversal (no selectors).

        Used by update validation and by operations that must address a
        replicated context *itself* (binding members into it).
        """
        node = self.root
        for comp in split_name(path):
            node = self.child(node, comp)
        return node

    def child(self, node: Node, comp: str) -> Node:
        if not node.is_context():
            raise NotAContext(f"{comp!r} looked up inside a non-context")
        if comp not in node.bindings:
            raise NameNotFound(comp)
        return node.bindings[comp]

    def exists(self, path: str) -> bool:
        try:
            self.get_node(path)
            return True
        except (NameNotFound, NotAContext):
            return False

    def iter_leaf_bindings(self) -> Iterator[Tuple[str, ObjectRef]]:
        """Yield every bound object reference with its full path.

        This is the set the master's audit submits to the RAS (section
        4.7): every object in the name space is checked for liveness.
        """
        yield from _leaf_bindings([], self.root)

    # -- updates -----------------------------------------------------------

    def check(self, op: tuple) -> None:
        """Validate an update against the current tree (master-side).

        Raises the same exceptions the paper's IDL operations raise;
        crucially, ``bind`` on an existing name raises
        :class:`AlreadyBound`, which serializing through the master turns
        into the primary-election race of section 5.2.
        """
        kind = op[0]
        if kind in ("bind", "mkcontext", "mkrepl"):
            path = op[1]
            components = split_name(path)
            if not components:
                raise InvalidName("cannot create the root")
            parent = self.get_node(join_name(components[:-1]))
            if not parent.is_context():
                raise NotAContext(join_name(components[:-1]))
            leafname = components[-1]
            if leafname in parent.bindings:
                raise AlreadyBound(path)
            if kind == "bind" and not isinstance(op[2], ObjectRef):
                raise InvalidName(f"bind requires an object reference, got {op[2]!r}")
        elif kind == "unbind":
            path = op[1]
            components = split_name(path)
            if not components:
                raise InvalidName("cannot unbind the root")
            parent = self.get_node(join_name(components[:-1]))
            if components[-1] not in parent.bindings:
                raise NameNotFound(path)
        elif kind == "setselector":
            node = self.get_node(op[1])
            if node.kind != "replicated":
                raise NotAContext(f"{op[1]!r} is not a replicated context")
            spec = op[2]
            if (not isinstance(spec, tuple) or len(spec) != 2
                    or spec[0] not in ("builtin", "object")):
                raise InvalidName(f"bad selector spec {spec!r}")
        else:
            raise InvalidName(f"unknown update op {kind!r}")

    def apply(self, op: tuple) -> None:
        """Apply a validated update.  Deterministic across replicas."""
        kind = op[0]
        if kind == "bind":
            parent, leaf = self._parent_of(op[1])
            # Binding the literal name "selector" inside a replicated
            # context installs the selector object (Figure 6).
            if parent.kind == "replicated" and leaf == SELECTOR_NAME:
                parent.selector = ("object", op[2])
            parent.bindings[leaf] = Node(kind="leaf", ref=op[2])
        elif kind == "mkcontext":
            parent, leaf = self._parent_of(op[1])
            parent.bindings[leaf] = Node(kind="context")
        elif kind == "mkrepl":
            parent, leaf = self._parent_of(op[1])
            selector = op[2] if len(op) > 2 else ("builtin", "first")
            parent.bindings[leaf] = Node(kind="replicated", selector=selector)
        elif kind == "unbind":
            parent, leaf = self._parent_of(op[1])
            node = parent.bindings.pop(leaf, None)
            if (parent.kind == "replicated" and leaf == SELECTOR_NAME
                    and node is not None):
                parent.selector = ("builtin", "first")
        elif kind == "setselector":
            self.get_node(op[1]).selector = op[2]
        else:  # pragma: no cover - check() rejects these first
            raise InvalidName(f"unknown update op {kind!r}")

    def _parent_of(self, path: str) -> Tuple[Node, str]:
        components = split_name(path)
        parent = self.get_node(join_name(components[:-1]))
        return parent, components[-1]

    # -- snapshot (state transfer to lagging/new replicas) -----------------

    def snapshot(self) -> dict:
        def encode(node: Node) -> dict:
            out: Dict[str, Any] = {"kind": node.kind}
            if node.kind == "leaf":
                out["ref"] = node.ref
            else:
                if node.kind == "replicated":
                    out["selector"] = node.selector
                out["bindings"] = {n: encode(c) for n, c in node.bindings.items()}
            return out

        return {"root": encode(self.root)}

    def load_snapshot(self, snap: dict) -> None:
        def decode(data: dict) -> Node:
            node = Node(kind=data["kind"])
            if node.kind == "leaf":
                node.ref = data["ref"]
            else:
                if node.kind == "replicated":
                    node.selector = data["selector"]
                node.bindings = {n: decode(c) for n, c in data["bindings"].items()}
            return node

        self.root = decode(snap["root"])

    def context_paths(self) -> List[str]:
        """All context/replicated paths (for exporting context objects)."""
        out: List[str] = []
        _context_paths([], self.root, out)
        return sorted(out)
