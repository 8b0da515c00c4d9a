"""The repo-specific rule set (D001..D007, D009..D011).

Every rule guards the one invariant the reproduction rests on: two runs
with the same seed produce byte-identical traces (see
:mod:`repro.sim.kernel`).  Rules are syntactic and conservative -- when
a hit is a considered exception, suppress it at the site with
``# repro: noqa Dxxx`` and a comment saying why.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Set

from repro.analysis.engine import FileContext, Rule, Violation

#: Consumers whose result does not depend on iteration order; iterating
#: an unordered collection directly inside them is harmless.
ORDER_INSENSITIVE_CALLS = {
    "sorted", "any", "all", "sum", "min", "max", "len", "set", "frozenset",
}

#: Methods on sets that yield sets (so set-typedness propagates).
_SET_METHODS = {"difference", "union", "intersection", "symmetric_difference",
                "copy"}


class RandomModuleRule(Rule):
    rule_id = "D001"
    title = "no `random` module outside sim/rand.py"
    rationale = ("Global `random` state is invisible to the seed; all "
                 "randomness must flow through SeededRandom so one seed "
                 "fully determines a run.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if ctx.relpath == "sim/rand.py":
            return []
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        out.append(self.violation(
                            ctx, node,
                            "import of `random` outside sim/rand.py; draw "
                            "from a SeededRandom stream instead"))
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "") == "random":
                    out.append(self.violation(
                        ctx, node,
                        "import from `random` outside sim/rand.py; draw "
                        "from a SeededRandom stream instead"))
        return out


class WallClockRule(Rule):
    rule_id = "D002"
    title = "no wall-clock time"
    rationale = ("The simulation runs on virtual time (Kernel.now); any "
                 "wall-clock read makes traces differ between runs and "
                 "hosts.")

    _CLOCK_ATTRS = {"now", "utcnow", "today"}

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        out = []
        datetime_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        out.append(self.violation(
                            ctx, node,
                            "import of `time` (wall clock); use Kernel.now "
                            "/ kernel.sleep on virtual time"))
                    elif alias.name == "datetime":
                        datetime_names.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "time":
                    out.append(self.violation(
                        ctx, node,
                        "import from `time` (wall clock); use Kernel.now "
                        "/ kernel.sleep on virtual time"))
                elif mod == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_names.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CLOCK_ATTRS):
                continue
            base = node.func.value
            hit = (isinstance(base, ast.Name) and base.id in datetime_names) \
                or (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in datetime_names)
            if hit:
                out.append(self.violation(
                    ctx, node,
                    f"wall-clock call `.{node.func.attr}()`; simulated "
                    "code must use Kernel.now"))
        return out


class UnorderedIterationRule(Rule):
    rule_id = "D003"
    title = "no iteration over unordered collections"
    rationale = ("Iterating a set (or bare dict.keys()) makes event order "
                 "depend on PYTHONHASHSEED; wrap scheduling-visible "
                 "iteration in sorted(...).")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        out: List[Violation] = []
        self._check_scope(tree, ctx, out, set())
        return out

    # -- scope walking -------------------------------------------------

    def _check_scope(self, scope: ast.AST, ctx: FileContext,
                     out: List[Violation], inherited: Set[str]) -> None:
        """Walk one function/module body, tracking set-typed local names."""
        set_names = set(inherited)
        body = getattr(scope, "body", [])
        for stmt in body:
            self._check_stmt(stmt, ctx, out, set_names)

    def _check_stmt(self, stmt: ast.AST, ctx: FileContext,
                    out: List[Violation], set_names: Set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self._check_scope(stmt, ctx, out, set_names)
            return
        # Track `name = <set expr>` bindings.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if self._is_set_expr(stmt.value, set_names):
                set_names.add(name)
            else:
                set_names.discard(name)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_iter(stmt.iter, stmt, ctx, out, set_names)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, (ast.stmt, ast.ExceptHandler)):
                self._check_stmt(node, ctx, out, set_names)
            else:
                self._check_expr(node, ctx, out, set_names)

    def _check_expr(self, node: ast.AST, ctx: FileContext,
                    out: List[Violation], set_names: Set[str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if self._comprehension_exempt(sub):
                    continue
                for gen in sub.generators:
                    if self._is_unordered(gen.iter, set_names):
                        out.append(self._hit(ctx, gen.iter))

    def _check_iter(self, iter_expr: ast.AST, stmt: ast.AST, ctx: FileContext,
                    out: List[Violation], set_names: Set[str]) -> None:
        if self._is_unordered(iter_expr, set_names):
            out.append(self._hit(ctx, stmt))

    def _hit(self, ctx: FileContext, node: ast.AST) -> Violation:
        return self.violation(
            ctx, node,
            "iteration over an unordered collection (set / bare .keys()); "
            "wrap in sorted(...) for a deterministic order")

    # -- classification ------------------------------------------------

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _SET_METHODS:
                return self._is_set_expr(node.func.value, set_names)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    def _is_unordered(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "keys" and not node.args:
            return True
        return self._is_set_expr(node, set_names)

    def _comprehension_exempt(self, comp: ast.AST) -> bool:
        """A comprehension feeding an order-insensitive consumer is fine."""
        parent = getattr(comp, "parent", None)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name) \
                and parent.func.id in ORDER_INSENSITIVE_CALLS \
                and comp in parent.args:
            return True
        return False


class HashSeedRule(Rule):
    rule_id = "D004"
    title = "no hash()/id() in ordering or seeds"
    rationale = ("`hash()` of a str varies with PYTHONHASHSEED and `id()` "
                 "with allocation order; deriving seeds or sort keys from "
                 "them breaks cross-run reproducibility.  Use "
                 "repro.sim.rand.stable_seed.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("hash", "id"):
                out.append(self.violation(
                    ctx, node,
                    f"`{node.func.id}()` is PYTHONHASHSEED/allocation "
                    "sensitive; derive keys/seeds with "
                    "repro.sim.rand.stable_seed"))
        return out


class ExceptionSwallowRule(Rule):
    rule_id = "D005"
    title = "no blanket except that can swallow cancellation"
    rationale = ("`except:` / `except BaseException` absorbs "
                 "CancelledError, so a cancelled task never unwinds and "
                 "kernel teardown wedges; catch Exception, or re-raise.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        out = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_blanket(node.type):
                continue
            if self._reraises(node):
                continue
            what = "bare `except:`" if node.type is None \
                else "`except BaseException`"
            out.append(self.violation(
                ctx, node,
                f"{what} can swallow CancelledError; catch "
                "Exception or re-raise"))
        return out

    def _is_blanket(self, type_node) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Name) and type_node.id == "BaseException":
            return True
        if isinstance(type_node, ast.Tuple):
            return any(isinstance(e, ast.Name) and e.id == "BaseException"
                       for e in type_node.elts)
        return False

    def _reraises(self, handler: ast.ExceptHandler) -> bool:
        return any(isinstance(n, ast.Raise) and n.exc is None
                   for n in ast.walk(handler))


class LayeringRule(Rule):
    rule_id = "D006"
    title = "services/settop must not import repro.net directly"
    rationale = ("The application layer talks through the OCS object "
                 "layer; direct net imports re-create the implicit "
                 "transport coupling the paper's OCS exists to remove.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if not ctx.in_dir("services", "settop"):
            return []
        out = []
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                if name == "repro.net" or name.startswith("repro.net."):
                    out.append(self.violation(
                        ctx, node,
                        f"direct import of `{name}` from the application "
                        "layer; import via repro.ocs"))
        return out


class PrintRule(Rule):
    rule_id = "D007"
    title = "no print() outside cli.py"
    rationale = ("Simulated components report through sim.trace so tests "
                 "and benchmarks see structured, diffable events; stdout "
                 "is for the CLI only.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if ctx.is_file("cli.py") or "examples" in ctx.relpath.split("/"):
            return []
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "print":
                out.append(self.violation(
                    ctx, node,
                    "print() outside cli.py; emit through sim.trace "
                    "(or return data for the CLI to render)"))
        return out


class RawFaultSurfaceRule(Rule):
    rule_id = "D009"
    title = "fault injection goes through repro.chaos"
    rationale = ("Raw Network fault calls (partition, set_loss, set_delay, "
                 "set_duplicate, set_gray, heal/clear) leave no chaos.inject "
                 "trace event, so the run's digest no longer pins the fault "
                 "schedule and a failing run cannot be replayed or "
                 "minimized.  Inject a Fault through "
                 "repro.chaos.FaultInjector instead.")

    #: raw surface method -> how many positional args the *Network*
    #: variant takes.  The count disambiguates `Network.partition(a, b)`
    #: from the 1-arg `str.partition(sep)`.
    _SURFACE = {"partition": 2, "heal_partitions": 0, "set_loss": (2, 3),
                "set_delay": 2, "set_duplicate": (2, 3), "set_gray": 2,
                "set_reorder": 4, "set_corrupt": 3, "clear_faults": 0}

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        # The chaos injector owns the surface; repro.net implements it.
        # Test files may poke it directly (that is how the parity tests
        # drive partitions) -- they lint with a bare-basename relpath.
        if ctx.in_dir("chaos", "net") or \
                os.path.basename(ctx.relpath).startswith("test_"):
            return []
        out = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            want = self._SURFACE.get(node.func.attr)
            if want is None:
                continue
            n_args = len(node.args) + len(node.keywords)
            if n_args != want and not (isinstance(want, tuple)
                                       and n_args in want):
                continue   # e.g. str.partition(sep): wrong arity
            out.append(self.violation(
                ctx, node,
                f"direct `.{node.func.attr}(...)` on the raw fault "
                "surface; inject a Fault through repro.chaos so the "
                "fault is trace-logged and replayable"))
        return out


class DeadlineRule(Rule):
    rule_id = "D010"
    title = "OCS invocations must carry a time budget"
    rationale = ("An `invoke(...)` without an explicit `timeout=` or "
                 "`deadline=` falls back to the default call timeout and "
                 "cannot participate in deadline propagation -- under "
                 "overload the server may burn capacity on an answer no "
                 "caller still wants.  Pass the remaining budget down, or "
                 "suppress a considered exception with "
                 "`# repro: noqa: D010`.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if os.path.basename(ctx.relpath).startswith("test_"):
            return []
        out = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "invoke"):
                continue
            if len(node.args) < 2:
                continue   # not the OCS invoke(ref, method, args) shape
            kw = {k.arg for k in node.keywords}
            if "timeout" in kw or "deadline" in kw or None in kw:
                continue   # budgeted (None = **kwargs: assume it is)
            out.append(self.violation(
                ctx, node,
                "`invoke(...)` without `timeout=` or `deadline=`; pass "
                "the remaining budget so deadline propagation works"))
        return out


class ClockWriteRule(Rule):
    rule_id = "D011"
    title = "only the kernel moves the clock"
    rationale = ("`Kernel.now` is a plain attribute that the run loop "
                 "writes; code outside repro/sim/ that assigns `.now` "
                 "would move simulated time behind the event queue's "
                 "back, so an event could fire before one armed earlier "
                 "for the same instant.  Advance time with kernel.run / "
                 "kernel.sleep.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        if ctx.in_dir("sim") or \
                os.path.basename(ctx.relpath).startswith("test_"):
            return []
        # Every assignment form (=, +=, annotated, tuple targets, for
        # and with targets) stores through an Attribute in Store context.
        return [self.violation(ctx, node,
                               "assignment to `.now` outside repro/sim/; "
                               "only the kernel's run loop moves the clock")
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "now"
                and isinstance(node.ctx, ast.Store)]


class StaleSuppressionRule(Rule):
    """W001 -- enforced by the engine, declared here for the catalog.

    The engine (``lint_source``) flags every ``# repro: noqa`` comment
    that masks no violation on its line whenever this rule is in the
    active set; the check needs the full pre-suppression violation list,
    which individual rules never see, so :meth:`check` itself is empty.
    """

    rule_id = "W001"
    title = "no stale `# repro: noqa` suppressions"
    rationale = ("A noqa that suppresses nothing is dead weight that "
                 "silently disables future rules on its line; delete it "
                 "or name the rule it is for.")

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Violation]:
        return []  # engine-driven; see repro.analysis.engine._stale_suppressions


def default_rules() -> List[Rule]:
    """The rule set `repro lint` runs: determinism (D), protocol
    conformance (P), and suppression hygiene (W), in id order."""
    from repro.analysis.protocol import protocol_rules
    return [RandomModuleRule(), WallClockRule(), UnorderedIterationRule(),
            HashSeedRule(), ExceptionSwallowRule(), LayeringRule(),
            PrintRule(), RawFaultSurfaceRule(),
            DeadlineRule(), ClockWriteRule()] + protocol_rules() + [
                StaleSuppressionRule()]


def rules_by_id() -> Dict[str, Rule]:
    return {r.rule_id: r for r in default_rules()}
