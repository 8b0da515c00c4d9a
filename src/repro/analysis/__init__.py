"""Static analysis for the reproduction's determinism invariants.

``repro lint`` front-end: an AST linter with repo-specific rules --
determinism/layering (D001..D011, :mod:`repro.analysis.rules`),
protocol conformance against the interface registry the runtime
enforces (P001..P005, :mod:`repro.analysis.protocol`), and suppression
hygiene (W001) -- plus two runtime checkers: the reference scenario's
canonical trace (:mod:`repro.analysis.determinism`, run twice and
against golden digests by the tests) and a vector-clock happens-before
race detector over instrumented traces (:mod:`repro.analysis.hb`, armed
as the ``hb_race`` monitor by ``repro chaos --hb``).  Together they keep two
promises enforceable forever: two runs with the same seed produce
byte-identical traces, and every RPC call site agrees with the interface
it is calling.
"""

from repro.analysis.determinism import reference_scenario_trace
from repro.analysis.engine import (
    FileContext,
    LintReport,
    Rule,
    Violation,
    collect_files,
    lint_paths,
    lint_source,
)
from repro.analysis.hb import (
    HbRace,
    HbReport,
    HbWrite,
    analyze_events,
    analyze_trace,
    hb_events_from_trace,
    write_order_digests,
)
from repro.analysis.protocol import (
    ProtocolModel,
    SiteCoverage,
    default_model,
    protocol_rules,
    scan_sites,
)
from repro.analysis.rules import default_rules, rules_by_id

__all__ = [
    "FileContext",
    "HbRace",
    "HbReport",
    "HbWrite",
    "LintReport",
    "ProtocolModel",
    "Rule",
    "SiteCoverage",
    "Violation",
    "analyze_events",
    "analyze_trace",
    "collect_files",
    "default_model",
    "default_rules",
    "hb_events_from_trace",
    "lint_paths",
    "lint_source",
    "protocol_rules",
    "reference_scenario_trace",
    "rules_by_id",
    "scan_sites",
    "write_order_digests",
]
