"""Protocol conformance checking (rules P004, P005).

The runtime already enforces the IDL at every call, the way an ORB
does: :meth:`OCSRuntime.invoke` resolves the operation through its
interface's call plan and checks the argument count, so a call that
names a missing operation or passes the wrong count fails the first
time any test runs it.  What a call site can get wrong that no call
fails on is what these rules check, statically:

1. :func:`registry_model` imports every ``repro`` module and takes the
   interfaces they registered from :data:`repro.idl.interface_registry`
   -- the same definitions the runtime enforces -- into a
   :class:`ProtocolModel`.

2. The P-rules then classify every ``invoke(ref, "method", args)`` and
   ``proxy.call("method", ...)`` site in the tree against the model:

   - P004: a two-way call's future is ``.detach()``-ed, silently
     dropping the reply (and any marshalled exception);
   - P005: a function that holds a ``deadline`` budget issues a call
     without propagating it (the flow-sensitive upgrade of D010).

Sites whose operation name is not a string literal (the rebinding
proxy's own forwarder, the fault injector) are *dynamic*: they cannot be
checked against a signature, and fall back to the runtime check.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import pkgutil
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import repro
from repro.analysis.engine import FileContext, Rule, Violation
from repro.idl import InterfaceDef, MethodDef, interface_registry

#: operation-name arguments that mark an OCS call site.
_INVOKE_ATTR = "invoke"
_PROXY_ATTR = "call"


class ProtocolModel:
    """Every interface a ``repro`` module registered, by name."""

    def __init__(self, interfaces: Dict[str, InterfaceDef]):
        self.interfaces = interfaces
        self._candidates: Dict[str, List[Tuple[str, MethodDef]]] = {}
        for iface_name in sorted(interfaces):
            for mdef in interfaces[iface_name].methods.values():
                self._candidates.setdefault(mdef.name, []).append(
                    (iface_name, mdef))

    def candidates(self, method: str) -> List[Tuple[str, MethodDef]]:
        """Every ``(interface, declaration)`` of ``method``.

        Call sites rarely pin the interface statically (references flow
        through the name service), so a site checks against the union:
        a detached reply is flagged only when *no* declaration of the
        name is oneway (the db's ``applyUpdates`` is two-way, the NS
        one oneway).  Conservative by construction -- zero false
        positives at the price of letting a cross-interface confusion
        through.  Each pair names the interface that declares the
        operation; bases are in the model too, so inherited operations
        are covered.
        """
        return self._candidates.get(method, [])


def registry_model() -> ProtocolModel:
    """A model of the interfaces ``repro`` modules have registered,
    after importing every one of them (``__main__`` aside).

    Interfaces registered from elsewhere (tests, benchmarks) stay out,
    so they cannot widen what a call site is judged against.  A module
    that does not compile is skipped: the lint engine reports it as
    E000.
    """
    # The walk re-imports each package to find its children; the only
    # failure it can meet there is a SyntaxError already skipped below.
    for info in pkgutil.walk_packages(repro.__path__, "repro.",
                                      onerror=lambda _name: None):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        try:
            importlib.import_module(info.name)
        except SyntaxError:
            continue
    return ProtocolModel({name: iface for name, iface
                          in interface_registry.items()
                          if iface.module.startswith("repro.")})


@functools.lru_cache(maxsize=None)
def default_model() -> ProtocolModel:
    """:func:`registry_model`, built once per process."""
    return registry_model()


# ----------------------------------------------------------------------
# call-site scanning
# ----------------------------------------------------------------------

def _literal_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@dataclass
class Site:
    """One OCS call site as the scanner classified it."""

    node: ast.Call
    style: str                 # "invoke" | "proxy"
    method: Optional[str]      # literal operation name, None = dynamic
    detached: bool = False
    has_deadline: bool = False
    has_kwargs: bool = False


def _classify_call(node: ast.Call) -> Optional[Site]:
    if not isinstance(node.func, ast.Attribute):
        return None
    attr = node.func.attr
    if attr == _INVOKE_ATTR:
        if len(node.args) < 2:
            return None  # not the invoke(ref, method, args) shape
        site = Site(node=node, style="invoke",
                    method=_literal_str(node.args[1]))
    elif attr == _PROXY_ATTR:
        if not node.args:
            return None
        method = _literal_str(node.args[0])
        if method is None and not (isinstance(node.args[0], ast.Name)
                                   and len(node.args) >= 2):
            # An arbitrary `.call(x)` that does not look like the proxy
            # forwarder (`self.call(name, *args, ...)`) is not a site.
            return None
        site = Site(node=node, style="proxy", method=method)
    else:
        return None
    kw = {k.arg for k in site.node.keywords}
    site.has_deadline = "deadline" in kw
    site.has_kwargs = None in kw
    parent = getattr(node, "parent", None)
    if isinstance(parent, ast.Attribute) and parent.attr == "detach" \
            and isinstance(getattr(parent, "parent", None), ast.Call):
        site.detached = True
    return site


def scan_sites(tree: ast.Module) -> List[Site]:
    """Every OCS call site in one parsed (parent-annotated) module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            site = _classify_call(node)
            if site is not None:
                out.append(site)
    return out


# ----------------------------------------------------------------------
# the rules
# ----------------------------------------------------------------------

class _ProtocolRule(Rule):
    """Base for P-rules: shares the model and skips test files."""

    def __init__(self, model: Optional[ProtocolModel] = None):
        self._model = model

    @property
    def model(self) -> ProtocolModel:
        if self._model is None:
            self._model = default_model()
        return self._model

    def _exempt(self, ctx: FileContext) -> bool:
        return os.path.basename(ctx.relpath).startswith("test_")


class DetachedReplyRule(_ProtocolRule):
    rule_id = "P004"
    title = "two-way replies must not be detached"
    rationale = ("`.detach()` on a two-way call discards the reply and "
                 "any marshalled exception -- failures become silent.  "
                 "Await the future, or declare the operation oneway so "
                 "the protocol itself says no reply is coming.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if self._exempt(ctx):
            return []
        out = []
        for site in scan_sites(tree):
            if site.method is None or not site.detached:
                continue
            cands = self.model.candidates(site.method)
            if cands and not any(m.oneway for _, m in cands):
                out.append(self.violation(
                    ctx, site.node,
                    f"reply of two-way operation {site.method!r} is "
                    "detached; await it or declare the operation oneway"))
        return out


class DeadlinePropagationRule(_ProtocolRule):
    rule_id = "P005"
    title = "a held deadline budget must be propagated"
    rationale = ("A function that received (or computed) a `deadline` "
                 "and then invokes without passing it breaks the "
                 "propagation chain D010 exists for: downstream servers "
                 "keep working on a budget that upstream already "
                 "started, so expiry stops being end-to-end.  "
                 "Flow-sensitive upgrade of D010.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if self._exempt(ctx):
            return []
        out: List[Violation] = []
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._holds_deadline(scope):
                continue
            for site in self._own_sites(scope):
                if site.has_deadline or site.has_kwargs:
                    continue
                out.append(self.violation(
                    ctx, site.node,
                    f"`{scope.name}` holds a `deadline` budget but this "
                    "call does not propagate it; pass `deadline=` so the "
                    "budget stays end-to-end"))
        return out

    def _holds_deadline(self, scope: ast.AST) -> bool:
        args = scope.args
        names = [a.arg for a in args.args + args.kwonlyargs
                 + getattr(args, "posonlyargs", [])]
        if "deadline" in names:
            return True
        for node in self._own_nodes(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "deadline":
                        return True
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name) \
                        and node.target.id == "deadline":
                    return True
        return False

    def _own_nodes(self, scope: ast.AST) -> Iterable[ast.AST]:
        """Walk ``scope`` without descending into nested function scopes
        (a nested function's `deadline` is its own budget, not ours)."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _own_sites(self, scope: ast.AST) -> List[Site]:
        out = []
        for node in self._own_nodes(scope):
            if isinstance(node, ast.Call):
                site = _classify_call(node)
                if site is not None:
                    out.append(site)
        out.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
        return out


def protocol_rules(model: Optional[ProtocolModel] = None) -> List[Rule]:
    """The P-rule set, sharing one model."""
    return [DetachedReplyRule(model),
            DeadlinePropagationRule(model)]
