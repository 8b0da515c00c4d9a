"""The documents cite what exists: test ids, paths and DESIGN sections.

DESIGN.md names, for each invariant, the test or CI job that holds it;
README, EXPERIMENTS and the verify skill cite tests and benchmark files
too.  A citation that outlives a rename points a reader at nothing, so
this file checks, from the files alone (no cluster is built):

- every ``tests/…`` / ``benchmarks/…`` path the documents cite exists,
  and every ``::Class::name`` after a ``.py`` path names a class,
  function or attribute defined in that file (a bare ``::name`` in
  backticks is a sibling of the id cited just before it, and a
  ``<N>`` template checks its directory);
- every ``CI job `name``` cited in DESIGN.md is a job of the workflow;
- every "DESIGN §N" / "DESIGN.md section N" reference anywhere in the
  repository, and every ``§N`` inside DESIGN.md that is not a
  ``paper §N``, resolves to a numbered DESIGN.md heading.  CHANGES.md
  is history and cites DESIGN.md as it was then, so it is not read.
"""

import ast
import functools
import glob
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md",
        os.path.join(".claude", "skills", "verify", "SKILL.md"))
#: where a "DESIGN §N" reference may live, and what is not scanned
SCAN_ROOTS = ("src", "tests", "benchmarks", "examples", ".github", ".claude")
SCAN_FILES = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "ROADMAP.md")
SCAN_SUFFIXES = (".py", ".md", ".yml", ".yaml", ".toml", ".txt")

_CITE = re.compile(
    r"(?P<path>(?:tests|benchmarks)/[\w./*<>-]*)"
    r"(?P<names>(?:::\w+(?:\[[^\]`]*\])?)*)"
    r"|`::(?P<sibling>\w+)`")
_CI_JOB = re.compile(r"CI jobs? `([\w-]+)`")
_DESIGN_REF = re.compile(
    r"DESIGN(?:\.md)?[\s#*,\"']*(?:§|section\s+)(\d+(?:\.\d+)*)")
_SECTION_SIGN = re.compile(r"§(\d+(?:\.\d+)*)")
_HEADING = re.compile(r"^#{2,3} (\d+(?:\.\d+)?)[. ]", re.M)


def _read(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
        return fh.read()


@functools.lru_cache(maxsize=None)
def _defined(relpath):
    """``{top-level name: set of names in its body}`` for one .py file."""
    names = {}
    for node in ast.parse(_read(relpath)).body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = {
                sub.name for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = set()
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = set()
    return names


def _citations(text):
    """``(path, names)`` per citation, sibling shorthand resolved."""
    out = []
    last = None
    for m in _CITE.finditer(text):
        if m.group("sibling"):
            if last is None:
                out.append((None, (m.group("sibling"),)))
                continue
            path, names = last
            out.append((path, names[:-1] + (m.group("sibling"),)))
            continue
        path = m.group("path").rstrip(".,-")
        names = tuple(re.sub(r"\[.*\]$", "", part)
                      for part in m.group("names").split("::") if part)
        out.append((path, names))
        if names:
            last = (path, names)
    return out


def _missing(path, names):
    """Why ``path::names`` resolves to nothing, or None when it exists."""
    if path is None:
        return "a bare ::name with no id before it"
    if "<" in path:   # a template such as chaos_min_seed<N>.json
        path = os.path.dirname(path)
    if "*" in path:
        return None if glob.glob(os.path.join(REPO_ROOT, path)) \
            else "no file matches"
    if not os.path.exists(os.path.join(REPO_ROOT, path)):
        return "no such path"
    if not names:
        return None
    if not path.endswith(".py"):
        return "::names after a file that is not Python"
    defined = _defined(path)
    if names[0] not in defined:
        return f"{names[0]} is not defined there"
    if len(names) > 1 and names[1] not in defined[names[0]]:
        return f"{names[0]} has no {names[1]}"
    return None


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_test_and_path_exists(doc):
    bad = []
    for path, names in _citations(_read(doc)):
        why = _missing(path, names)
        if why is not None:
            bad.append(f"{path}::{'::'.join(names)}: {why}")
    assert bad == []


def test_every_cited_ci_job_exists():
    workflow = _read(os.path.join(".github", "workflows", "ci.yml"))
    jobs = set(re.findall(r"^  ([\w-]+):$", workflow, re.M))
    cited = set(_CI_JOB.findall(_read("DESIGN.md")))
    assert cited and cited <= jobs, sorted(cited - jobs)


def _design_sections():
    return set(_HEADING.findall(_read("DESIGN.md")))


def _scanned_files():
    for name in SCAN_FILES:
        yield name
    for top in SCAN_ROOTS:
        for folder, dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            dirs[:] = sorted(d for d in dirs
                             if d != "__pycache__" and d != "out")
            for name in sorted(files):
                if name.endswith(SCAN_SUFFIXES):
                    yield os.path.relpath(os.path.join(folder, name),
                                          REPO_ROOT)


def test_every_design_section_reference_resolves():
    sections = _design_sections()
    bad = []
    for relpath in _scanned_files():
        text = _read(relpath)
        for m in _DESIGN_REF.finditer(text):
            if m.group(1) not in sections:
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{relpath}:{line}: {m.group(0)!r}")
    assert bad == []


def test_design_cross_references_resolve():
    text = _read("DESIGN.md")
    sections = _design_sections()
    bad = []
    for m in _SECTION_SIGN.finditer(text):
        if text[:m.start()].rstrip().endswith("paper"):
            continue
        if m.group(1) not in sections:
            line = text.count("\n", 0, m.start()) + 1
            bad.append(f"DESIGN.md:{line}: §{m.group(1)}")
    assert bad == []


def test_the_checks_see_what_they_check():
    """Each check has something to find, and finds a broken citation."""
    assert len(_design_sections()) >= 14
    cited = _citations(_read("DESIGN.md"))
    assert sum(1 for _path, names in cited if len(names) == 2) >= 50
    assert _missing("tests/test_docs.py",
                    ("test_every_cited_test_and_path_exists",)) is None
    assert _missing("tests/test_docs.py", ("no_such_test",)) is not None
    assert _missing("tests/test_docs.py", ("REPO_ROOT", "x")) is not None
    assert _citations("`tests/a.py::K::t`, `::u`") == [
        ("tests/a.py", ("K", "t")), ("tests/a.py", ("K", "u"))]
