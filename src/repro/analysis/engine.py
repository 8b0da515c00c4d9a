"""Rule engine for the repro determinism linter.

The linter parses every file into an :mod:`ast` tree and runs each
registered :class:`Rule` over it.  Rules are pure functions from a tree
to :class:`Violation` objects; the engine owns file discovery, parent
annotation, per-line ``# repro: noqa`` suppression, and report
formatting.  No third-party dependencies -- this must run anywhere the
simulation runs.

Suppressions: a violation is ignored when its source line carries
``# repro: noqa`` (all rules) or ``# repro: noqa D003`` /
``# repro: noqa: D003, D005`` (listed rules only).
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?::?\s*(?P<codes>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*))?")


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, and what to do about it."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may need to know about the file under analysis."""

    path: str               # path as given on the command line
    relpath: str            # posix path relative to the package root
    source: str
    lines: List[str] = field(default_factory=list)

    def in_dir(self, *parts: str) -> bool:
        """True when the file lives under any of the given package dirs."""
        return any(self.relpath.startswith(p + "/") for p in parts)

    def is_file(self, *names: str) -> bool:
        return os.path.basename(self.relpath) in names


class Rule:
    """Base class: subclasses set the id/title/rationale and implement check."""

    rule_id = "D000"
    title = ""
    rationale = ""

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(rule=self.rule_id, path=ctx.path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0) + 1,
                         message=message)


def annotate_parents(tree: ast.Module) -> None:
    """Attach a ``.parent`` pointer to every node (rules walk upward)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def suppressed_codes(line: str) -> Optional[List[str]]:
    """Parse a noqa comment: None = no comment, [] = all rules, else codes."""
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    codes = m.group("codes")
    if not codes:
        return []
    return [c.strip() for c in codes.split(",")]


def _comment_map(source: str, lines: Sequence[str]) -> Dict[int, Tuple[int, str]]:
    """Map line number -> (column, comment text) for real ``#`` comments.

    Tokenizing (rather than regex-scanning raw lines) keeps noqa
    detection from matching ``# repro: noqa`` examples that live inside
    string literals and docstrings -- those are prose, not suppressions.
    Falls back to raw lines when tokenization fails (the caller already
    parsed the source, so this is belt and braces).
    """
    out: Dict[int, Tuple[int, str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = (tok.start[1], tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for i, line in enumerate(lines, start=1):
            idx = line.find("#")
            if idx >= 0:
                out[i] = (idx, line[idx:])
    return out


def _is_suppressed(violation: Violation,
                   comments: Dict[int, Tuple[int, str]]) -> bool:
    entry = comments.get(violation.line)
    if entry is None:
        return False
    codes = suppressed_codes(entry[1])
    if codes is None:
        return False
    return not codes or violation.rule in codes


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()       # deterministic walk order (rule D003 applies
                for name in sorted(files):  # to the linter itself)
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    seen: Dict[str, bool] = {}
    unique = []
    for path in out:
        if path not in seen:
            seen[path] = True
            unique.append(path)
    unique.sort()
    return unique


def _relpath_in_package(path: str) -> str:
    """Path relative to the ``repro`` package root (or the file name)."""
    norm = path.replace(os.sep, "/")
    marker = "repro/"
    idx = norm.rfind("/" + marker)
    if idx >= 0:
        return norm[idx + 1 + len(marker):]
    if norm.startswith(marker):
        return norm[len(marker):]
    return os.path.basename(norm)


def lint_source(source: str, path: str, rules: Sequence[Rule],
                relpath: Optional[str] = None) -> List[Violation]:
    """Lint one file's source text; returns surviving (unsuppressed) hits."""
    ctx = FileContext(path=path,
                      relpath=relpath if relpath is not None
                      else _relpath_in_package(path),
                      source=source, lines=source.splitlines())
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [Violation(rule="E000", path=path, line=err.lineno or 1,
                          col=(err.offset or 0) + 1,
                          message=f"syntax error: {err.msg}")]
    annotate_parents(tree)
    found: List[Violation] = []
    for rule in rules:
        found.extend(rule.check(tree, ctx))
    comments = _comment_map(source, ctx.lines)
    survivors = [v for v in found if not _is_suppressed(v, comments)]
    if any(rule.rule_id == "W001" for rule in rules):
        survivors.extend(_stale_suppressions(ctx, found, comments))
    survivors.sort(key=lambda v: (v.line, v.col, v.rule))
    return survivors


def _stale_suppressions(ctx: FileContext, found: Sequence[Violation],
                        comments: Dict[int, Tuple[int, str]]) -> List[Violation]:
    """W001: a ``# repro: noqa`` comment that masks no violation is stale.

    Stale suppressions are dead weight that silently disables future
    rules on the line, so they are flagged rather than honored -- which
    also means W001 itself cannot be noqa'd away: the fix is deleting
    (or narrowing) the comment.
    """
    out = []
    for line, (col, text) in sorted(comments.items()):
        codes = suppressed_codes(text)
        if codes is None:
            continue
        masked = [v for v in found if v.line == line
                  and (not codes or v.rule in codes)]
        if masked:
            continue
        what = "blanket `# repro: noqa`" if not codes else \
            f"`# repro: noqa {', '.join(codes)}`"
        out.append(Violation(
            rule="W001", path=ctx.path, line=line, col=col + 1,
            message=f"stale suppression: {what} masks no violation on "
                    "this line; delete it (or name the rule it is for)"))
    return out


@dataclass
class LintReport:
    """Violations plus the file census, with text renderers for the CLI."""

    violations: List[Violation]
    files_checked: int
    #: call-site census from the protocol checker (None when the rule
    #: set carried no P-rules); see repro.analysis.protocol.SiteCoverage.
    protocol: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_lines(self) -> List[str]:
        lines = [v.format() for v in self.violations]
        lines.append(f"{len(self.violations)} violation(s) in "
                     f"{self.files_checked} file(s) checked")
        return lines

    def to_json(self) -> str:
        doc: Dict[str, object] = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [{"rule": v.rule, "path": v.path, "line": v.line,
                            "col": v.col, "message": v.message}
                           for v in self.violations],
        }
        if self.protocol is not None:
            doc["protocol_coverage"] = self.protocol.to_dict()
        return json.dumps(doc, indent=2, sort_keys=True)

    def stats_lines(self) -> List[str]:
        """Violations grouped by rule and by file (``--stats`` output)."""
        by_rule: Dict[str, int] = {}
        by_file: Dict[str, int] = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
            by_file[v.path] = by_file.get(v.path, 0) + 1
        lines = ["== violations by rule =="]
        for rule in sorted(by_rule):
            lines.append(f"  {rule}: {by_rule[rule]}")
        if not by_rule:
            lines.append("  (none)")
        lines.append("== violations by file ==")
        for path in sorted(by_file):
            lines.append(f"  {path}: {by_file[path]}")
        if not by_file:
            lines.append("  (none)")
        if self.protocol is not None:
            lines.extend(self.protocol.stats_lines())
        lines.append(f"total: {len(self.violations)} violation(s) in "
                     f"{self.files_checked} file(s)")
        return lines


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint files/directories with the default (or given) rule set."""
    if rules is None:
        from repro.analysis.rules import default_rules
        rules = default_rules()
    violations: List[Violation] = []
    files = collect_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        violations.extend(lint_source(source, path, rules))
    coverage = None
    for rule in rules:
        coverage = getattr(rule, "coverage", None)
        if coverage is not None:
            break
    return LintReport(violations=violations, files_checked=len(files),
                      protocol=coverage)
