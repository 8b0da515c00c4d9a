"""Protocol conformance checker (P001-P005): the model + rules.

The checker's model is the interface registry the runtime enforces,
filled by importing every ``repro`` module; then every ``invoke``/proxy
call site is judged against the union of candidate declarations -- a
violation only fires when *no* registered interface could satisfy the
call, so cross-interface method-name reuse never false-positives.
"""

import inspect
import os

from repro.analysis import (
    default_model,
    default_rules,
    lint_paths,
    lint_source,
    protocol_rules,
)
from repro.analysis.protocol import registry_model
from repro.analysis.rules import RawFaultSurfaceRule
from repro.idl import register_interface
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
        arities = {len(m.params) for _, m in model.candidates("open")}
        # MDS.open (4 args) and MMS.open (2 args) both answer to "open".
        assert {2, 4} <= arities

    def test_interfaces_registered_outside_repro_stay_out(self):
        # Declared here, the fixture's unknown op must still be unknown:
        # a model that took every registered interface would go blind.
        register_interface("ProtocolTestFrobnicator",
                           {"frobnicate": ("x",)})
        model = registry_model()
        assert "ProtocolTestFrobnicator" not in model.interfaces
        violations = lint_fixture("p001_unknown.py", protocol_rules(model))
        assert hits(violations, "P001") == [("P001", 5), ("P001", 6)]


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
    def test_p001_unknown_operation(self):
        violations = lint_fixture("p001_unknown.py")
        assert hits(violations, "P001") == [("P001", 5), ("P001", 6)]

    def test_p002_arity_mismatch(self):
        violations = lint_fixture("p002_arity.py")
        assert hits(violations, "P002") == [("P002", 5), ("P002", 6)]

    def test_p002_message_names_declarations(self):
        violations = lint_fixture("p002_arity.py")
        first = [v for v in violations if v.rule == "P002"][0]
        assert "guess" in first.message and "3" in first.message

    def test_p003_await_oneway(self):
        violations = lint_fixture("p003_await_oneway.py")
        assert hits(violations, "P003") == [("P003", 5)]

    def test_p004_detached_two_way(self):
        violations = lint_fixture("p004_detach.py")
        assert hits(violations, "P004") == [("P004", 5)]
        # detaching the oneway reportShutdown on line 7 stays clean
        assert all(v.line != 7 for v in violations if v.rule == "P004")

    def test_p005_deadline_propagation(self):
        violations = lint_fixture("p005_deadline.py")
        assert hits(violations, "P005") == [("P005", 5), ("P005", 16)]

    def test_rules_exempt_test_files(self):
        source = "async def f(r, ref):\n    await r.invoke(ref, 'nope', ())\n"
        assert lint_source(source, "test_x.py", default_rules(),
                           relpath="test_x.py") == []


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
        assert hits(violations, "P002") == [("P002", 14)]
        assert hits(violations, "P001") == [("P001", 16)]
        assert hits(violations, "P004") == [("P004", 18)]


class TestCoverage:
    def test_full_tree_classifies_every_call_site(self):
        report = lint_paths([SRC])
        cov = report.protocol
        assert cov is not None
        assert cov.total >= 90          # the tree's real RPC surface
        assert cov.classified == cov.total
        stats = "\n".join(cov.stats_lines())
        assert "100.0%" in stats

    def test_src_has_no_protocol_violations(self):
        report = lint_paths([SRC])
        bad = [v for v in report.violations
               if v.rule.startswith(("P", "W"))]
        assert bad == [], bad
