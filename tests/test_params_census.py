"""A knob is something somebody turns: the ``Params`` field census.

``core/params.py`` states the rule -- a field is something an
experiment, the CLI, a drill or a test sets to another value; everything
else is a named constant.  This test keeps the count honest from the
source alone (no cluster): it parses every ``.py`` under ``src/``,
``tests/``, ``benchmarks/`` and ``examples/`` and collects the keywords
of each ``Params(...)`` / ``.with_overrides(...)`` call and each
``params.<name> = ...`` store.
"""

import ast
import dataclasses
import os

import pytest

from repro.core.params import Params

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELDS = {f.name for f in dataclasses.fields(Params)}
#: fields nobody assigns, each with the reason it stays a field
UNASSIGNED_ALLOWED = {
    "chaos_monitor_interval":
        "read by benchmarks/e2e/workloads.py, which BENCHMARK.json freezes",
}


def _python_files():
    for top in ("src", "tests", "benchmarks", "examples"):
        for folder, _dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            for name in files:
                path = os.path.join(folder, name)
                if (name.endswith(".py")
                        and not path.endswith(os.path.join("core", "params.py"))):
                    yield path


def _names_set_by(node):
    """The ``Params`` names this AST node assigns, if it assigns any."""
    if isinstance(node, ast.Call):
        func = node.func
        called = (func.id if isinstance(func, ast.Name)
                  else getattr(func, "attr", None))
        if called in ("Params", "with_overrides"):
            return [kw.arg for kw in node.keywords if kw.arg]
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        owner = node.value     # ``params.x = ...`` or ``<obj>.params.x = ...``
        if "params" in (getattr(owner, "id", None),
                        getattr(owner, "attr", None)):
            return [node.attr]
    return []


@pytest.fixture(scope="module")
def assigned():
    """``{name: ["path:line", ...]}`` over the whole repository."""
    found = {}
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            for name in _names_set_by(node):
                found.setdefault(name, []).append(
                    f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}")
    return found


def test_every_field_is_assigned_somewhere(assigned):
    unassigned = FIELDS - set(assigned) - set(UNASSIGNED_ALLOWED)
    assert not unassigned, (
        f"Params fields nobody sets (make them constants): {sorted(unassigned)}")
    assert set(UNASSIGNED_ALLOWED) <= FIELDS


def test_every_assigned_keyword_is_a_field(assigned):
    stale = {kw: where for kw, where in assigned.items()
             if kw not in FIELDS}
    assert not stale, f"keywords that name no Params field: {stale}"
