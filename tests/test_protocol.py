"""Protocol conformance checker (P004, P005): the model + rules.

The checker's model is the interface registry the runtime enforces,
filled by importing every ``repro`` module; then every ``invoke``/proxy
call site is judged against the union of candidate declarations -- a
violation only fires when *no* registered interface could satisfy the
call, so cross-interface method-name reuse never false-positives.
"""

import ast
import inspect
import os

from repro.analysis.engine import annotate_parents, lint_paths, lint_source
from repro.analysis.protocol import (default_model, protocol_rules,
                                     registry_model, scan_sites)
from repro.analysis.rules import RawFaultSurfaceRule, default_rules
from repro.idl import MethodDef, register_interface
from repro.net.network import Network

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
SRC = os.path.join(REPO_ROOT, "src", "repro")


def lint_fixture(name, rules=None):
    path = os.path.join(FIXTURES, name)
    with open(path) as fh:
        source = fh.read()
    return lint_source(source, path, rules or default_rules(), relpath=name)


def hits(violations, rule):
    return [(v.rule, v.line) for v in violations if v.rule == rule]


class TestModelExtraction:
    def test_tree_model_covers_figure2_services(self):
        model = default_model()
        for iface in ("Database", "NameReplica", "SettopManager", "MDS",
                      "MMS", "VOD", "ServiceController", "RAS"):
            assert iface in model.interfaces, iface

    def test_method_params_and_oneway(self):
        model = default_model()
        db = model.interfaces["Database"].all_methods()
        assert tuple(db["forwardWrite"].params) == \
            ("table", "key", "value", "deleted")
        assert not db["forwardWrite"].oneway
        # The db change-log stream is acknowledged; the NS variant of the
        # same method name is oneway -- the checker must hold both.
        assert not db["applyUpdates"].oneway
        ns = model.interfaces["NameReplica"].all_methods()
        assert ns["applyUpdates"].oneway
        mgr = model.interfaces["SettopManager"].all_methods()
        assert mgr["reportShutdown"].oneway

    def test_base_chain_resolution(self):
        model = default_model()
        fsc = model.interfaces["FileSystemContext"].all_methods()
        # Inherited from the naming-context base plus its own additions.
        assert "resolve" in fsc and "bind" in fsc
        assert "createFile" in fsc

    def test_candidates_union_across_interfaces(self):
        model = default_model()
        oneway = {iface: m.oneway
                  for iface, m in model.candidates("applyUpdates")}
        # Both replication streams answer to "applyUpdates"; a detached
        # one is judged against the union, so it is never flagged.
        assert oneway == {"Database": False, "NameReplica": True}

    def test_interfaces_registered_outside_repro_stay_out(self):
        # Declared oneway here, the fixture's detached "put" must still
        # be flagged: a model that took every registered interface would
        # go blind.
        register_interface("ProtocolTestFrobnicator", {
            "put": MethodDef("put", ("table", "key", "value"), oneway=True)})
        model = registry_model()
        assert "ProtocolTestFrobnicator" not in model.interfaces
        violations = lint_fixture("p004_detach.py", protocol_rules(model))
        assert hits(violations, "P004") == [("P004", 5)]


class TestRawFaultSurface:
    def test_surface_table_matches_network(self):
        # D009 recognises a raw fault call by name and positional count;
        # a renamed or re-signed Network method would slip out of it.
        for name, allowed in RawFaultSurfaceRule._SURFACE.items():
            method = getattr(Network, name, None)
            assert callable(method), name
            arity = sum(1 for p in inspect.signature(method).parameters
                        .values() if p.kind in (p.POSITIONAL_ONLY,
                                                p.POSITIONAL_OR_KEYWORD)) - 1
            allowed = allowed if isinstance(allowed, tuple) else (allowed,)
            assert arity in allowed, (name, arity, allowed)


class TestProtocolRules:
    def test_p004_detached_two_way(self):
        violations = lint_fixture("p004_detach.py")
        assert hits(violations, "P004") == [("P004", 5)]
        # detaching the oneway reportShutdown on line 7 stays clean
        assert all(v.line != 7 for v in violations if v.rule == "P004")

    def test_p005_deadline_propagation(self):
        violations = lint_fixture("p005_deadline.py")
        assert hits(violations, "P005") == [("P005", 5), ("P005", 16)]

    def test_rules_exempt_test_files(self):
        source = ("def f(r, ref, deadline):\n"
                  "    r.invoke(ref, 'put', (), timeout=1.0).detach()\n")
        assert lint_source(source, "test_x.py", default_rules(),
                           relpath="test_x.py") == []
        assert [v.rule for v in lint_source(source, "x.py", default_rules(),
                                            relpath="db/x.py")] == \
            ["P004", "P005"]


class TestScopeEdgeCases:
    def test_edge_fixture(self):
        violations = lint_fixture("edge_cases.py")
        # Only the decorated handler and the async generator leak their
        # deadline; nested def and lambda are separate scopes.
        assert hits(violations, "P005") == [("P005", 31), ("P005", 36)]

    def test_no_stale_warning_when_one_listed_rule_fires(self):
        violations = lint_fixture("edge_cases.py")
        assert hits(violations, "W001") == []
        assert hits(violations, "D003") == []  # suppressed, and not stale


class TestFalsifiability:
    """If the checker goes blind, these assertions fail loudly."""

    def test_sabotage_module_is_flagged(self):
        violations = lint_fixture("sabotage_protocol.py")
        assert hits(violations, "P005") == [("P005", 13)]
        assert hits(violations, "P004") == [("P004", 15)]


def _method_holding(node):
    """``Class.method`` (or ``function``) whose body holds ``node``."""
    scopes = []
    while node is not None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scopes.insert(0, node.name)
        node = getattr(node, "parent", None)
    return ".".join(scopes[:2])


class TestCoverage:
    def test_full_tree_classifies_every_call_site(self):
        report = lint_paths([SRC])
        cov = report.protocol
        assert cov is not None
        assert cov.total >= 90          # the tree's real RPC surface
        assert cov.classified == cov.total
        stats = "\n".join(cov.stats_lines())
        assert "100.0%" in stats

    def test_dynamic_sites_are_the_named_forwarders(self):
        # A computed operation name escapes P004, so the tree keeps
        # exactly these forwarders and no attribute-call sugar.
        owners = set()
        for dirpath, _dirs, files in os.walk(SRC):
            for fname in files:
                if not fname.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, fname)) as fh:
                    tree = ast.parse(fh.read())
                annotate_parents(tree)
                for site in scan_sites(tree):
                    if site.method is None:
                        owners.add(_method_holding(site.node))
        assert owners == {"NameClient._invoke", "RebindingProxy.call",
                          "MediaManagementService._cached_fetch",
                          "ServerServiceController._call_callback",
                          "FaultInjector._surge_driver"}

    def test_src_has_no_protocol_violations(self):
        report = lint_paths([SRC])
        bad = [v for v in report.violations
               if v.rule.startswith(("P", "W"))]
        assert bad == [], bad
