"""The determinism linter: rule coverage, suppressions, and the clean tree.

Each fixture under ``tests/lint_fixtures/`` seeds known violations for
one rule; the tests assert that exactly those are caught.  The final
test is the enforcement gate: ``src/repro`` itself must lint clean.
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.engine import (collect_files, lint_paths, lint_source,
                                   suppressed_codes)
from repro.analysis.rules import default_rules, rules_by_id

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
SRC = os.path.join(REPO_ROOT, "src", "repro")


def lint_fixture(name, relpath=None):
    path = os.path.join(FIXTURES, name)
    with open(path) as fh:
        source = fh.read()
    return lint_source(source, path, default_rules(), relpath=relpath)


def hits(violations, rule):
    return [(v.rule, v.line) for v in violations if v.rule == rule]


class TestRuleFixtures:
    def test_d001_random_module(self):
        violations = lint_fixture("d001_random.py")
        assert hits(violations, "D001") == [("D001", 3), ("D001", 4)]
        assert all(v.rule == "D001" for v in violations)

    def test_d001_allows_sim_rand(self):
        violations = lint_source("import random\n", "sim/rand.py",
                                 default_rules(), relpath="sim/rand.py")
        assert violations == []

    def test_d002_wall_clock(self):
        violations = lint_fixture("d002_wallclock.py")
        assert hits(violations, "D002") == [("D002", 3), ("D002", 4),
                                            ("D002", 9)]

    def test_d003_unordered_iteration(self):
        violations = lint_fixture("d003_unordered.py")
        assert hits(violations, "D003") == [("D003", 6), ("D003", 10),
                                            ("D003", 12)]
        # sorted()/any() consumers on lines 14-15 stay clean
        assert all(v.line not in (14, 15) for v in violations)

    def test_d004_hash_and_id(self):
        violations = lint_fixture("d004_hashseed.py")
        assert hits(violations, "D004") == [("D004", 5), ("D004", 9)]

    def test_d005_blanket_except(self):
        violations = lint_fixture("d005_swallow.py")
        assert hits(violations, "D005") == [("D005", 7), ("D005", 14)]
        # the re-raising handler on line 21 is allowed
        assert all(v.line != 21 for v in violations)

    def test_d006_layering(self):
        violations = lint_fixture("d006_layering.py",
                                  relpath="services/d006_layering.py")
        assert hits(violations, "D006") == [("D006", 7), ("D006", 8)]

    def test_d006_only_in_application_layer(self):
        source = "from repro.net.message import Message\n"
        assert lint_source(source, "x.py", default_rules(),
                           relpath="ocs/runtime.py") == []
        assert len(lint_source(source, "x.py", default_rules(),
                               relpath="settop/kernel.py")) == 1

    def test_d007_print(self):
        violations = lint_fixture("d007_print.py")
        assert hits(violations, "D007") == [("D007", 5)]

    def test_d007_allows_cli_and_examples(self):
        source = "print('hello')\n"
        assert lint_source(source, "cli.py", default_rules(),
                           relpath="cli.py") == []
        assert lint_source(source, "demo.py", default_rules(),
                           relpath="examples/demo.py") == []

    def test_d009_raw_fault_surface(self):
        violations = lint_fixture("d009_rawfault.py")
        assert hits(violations, "D009") == [("D009", 5), ("D009", 6),
                                            ("D009", 7), ("D009", 8),
                                            ("D009", 9)]
        # str.partition (1 arg, line 13) is not the Network surface
        assert all(v.line != 13 for v in violations)

    def test_d009_exempts_chaos_net_and_tests(self):
        source = "net.heal_partitions()\n"
        for relpath in ("chaos/injector.py", "net/network.py",
                        "test_partitions.py"):
            assert lint_source(source, relpath, default_rules(),
                               relpath=relpath) == [], relpath
        assert len(lint_source(source, "x.py", default_rules(),
                               relpath="cluster/builder.py")) == 1

    def test_d010_deadline(self):
        violations = lint_fixture("d010_deadline.py")
        assert hits(violations, "D010") == [("D010", 5), ("D010", 6)]
        # budgeted calls, the noqa'd site, and the 1-arg non-RPC invoke
        # stay clean
        assert all(v.line in (5, 6) for v in violations
                   if v.rule == "D010")

    def test_d010_exempts_tests(self):
        source = "x = runtime.invoke(ref, 'ping', ())\n"
        assert lint_source(source, "test_ocs.py", default_rules(),
                           relpath="test_ocs.py") == []
        assert hits(lint_source(source, "x.py", default_rules(),
                                relpath="services/vod.py"),
                    "D010") == [("D010", 1)]


    def test_d011_clock_write(self):
        violations = lint_fixture("d011_clock.py")
        assert hits(violations, "D011") == [("D011", 5), ("D011", 6),
                                            ("D011", 7), ("D011", 8)]

    def test_d011_exempts_sim_and_tests(self):
        source = "kernel.now = 3.0\n"
        for relpath in ("sim/kernel.py", "test_alternatives.py"):
            assert lint_source(source, relpath, default_rules(),
                               relpath=relpath) == [], relpath
        assert hits(lint_source(source, "x.py", default_rules(),
                                relpath="net/link.py"),
                    "D011") == [("D011", 1)]


class TestSuppressions:
    def test_noqa_fixture(self):
        violations = lint_fixture("noqa_suppressed.py")
        # D001 noqa'd by code, D002 noqa'd by blanket comment; the D003 on
        # line 8 survives because its noqa names the wrong rule -- which
        # also makes that suppression stale (W001: it masks nothing).
        assert [(v.rule, v.line) for v in violations] == [("D003", 8),
                                                          ("W001", 8)]

    def test_w001_stale_suppressions(self):
        violations = lint_fixture("w001_stale.py")
        # Line 3 suppresses D001 on a clean line; line 5 is a blanket
        # noqa masking nothing.  The import-line noqa on line 4 masks a
        # real D001 and stays.
        assert [(v.rule, v.line) for v in violations] == [("W001", 3),
                                                          ("W001", 5)]

    def test_w001_itself_cannot_be_suppressed(self):
        source = "x = 1  # repro: noqa W001\n"
        violations = lint_source(source, "x.py", default_rules(),
                                 relpath="x.py")
        assert [(v.rule, v.line) for v in violations] == [("W001", 1)]

    def test_suppressed_codes_parsing(self):
        assert suppressed_codes("x = 1") is None
        assert suppressed_codes("x = 1  # repro: noqa") == []
        assert suppressed_codes("x = 1  # repro: noqa D003") == ["D003"]
        assert suppressed_codes("x = 1  # repro: noqa: D003, D005") == \
            ["D003", "D005"]

    def test_noqa_with_trailing_reason(self):
        source = "import random  # repro: noqa D001 - vetted: test tooling\n"
        assert lint_source(source, "x.py", default_rules(), relpath="x.py") == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", "x.py", default_rules(),
                                 relpath="x.py")
        assert [v.rule for v in violations] == ["E000"]

    def test_collect_files_is_sorted_and_unique(self):
        files = collect_files([SRC, SRC])
        assert files == sorted(set(files))
        assert all(f.endswith(".py") for f in files)

    def test_rules_by_id_covers_the_full_catalog(self):
        ids = sorted(rules_by_id())
        assert ids == ([f"D00{i}" for i in (1, 2, 3, 4, 5, 6, 7, 9)]
                       + ["D010", "D011", "P004", "P005", "W001"])

    def test_stats_lines(self):
        report = lint_paths([os.path.join(FIXTURES, "d007_print.py")])
        stats = "\n".join(report.stats_lines())
        assert "D007: 1" in stats
        assert "d007_print.py: 1" in stats

    def test_stats_include_protocol_coverage(self):
        report = lint_paths([os.path.join(FIXTURES, "d010_deadline.py")])
        stats = "\n".join(report.stats_lines())
        assert "call-site coverage" in stats

    def test_json_format(self):
        import json
        report = lint_paths([os.path.join(FIXTURES, "d007_print.py")])
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["violations"][0]["rule"] == "D007"
        assert data["protocol_coverage"]["total_sites"] >= 0


#: Each rule's mutation of real program code that nothing else notices:
#: with it in place, tier-1 (this file and test_protocol.py aside), the
#: experiment suite, the CI chaos replays and the golden traces all
#: pass.  (file under src/repro, the code as it stands, the mutation)
UNIQUE_CATCHES = {
    "D001": ("core/naming/selectors.py",
             "    return members[state.rng.randint(0, len(members) - 1)][0]",
             "    import random\n"
             "    return members[random.randint(0, len(members) - 1)][0]"),
    "D002": ("auth/service.py",
             "        return sign_ticket(self._secret, principal, self.kernel.now,",
             "        import time\n"
             "        return sign_ticket(self._secret, principal, time.time(),"),
    "D003": ("services/file_service.py",
             "        return sorted(names)",
             "        return [name for name in names]"),
    "D004": ("core/naming/selectors.py",
             "    return members[state.rng.randint(0, len(members) - 1)][0]",
             "    return members[hash((path, caller_ip)) % len(members)][0]"),
    "D005": ("core/ras/client.py",
             "        except ServiceUnavailable:\n            self._ras_ref = None",
             "        except BaseException:\n            self._ras_ref = None"),
    "D006": ("services/mms.py",
             "from repro.ocs import neighborhood_of",
             "from repro.net.address import neighborhood_of"),
    "D007": ("settop/apps/vod.py",
             "        self.emit(\"playing\", title=self.title, position=from_position)",
             "        print(f\"playing {self.title} from {from_position}\")\n"
             "        self.emit(\"playing\", title=self.title, position=from_position)"),
    "D009": ("cluster/builder.py",
             "        host.boot()",
             "        self.net.heal_partitions()\n        host.boot()"),
    "D010": ("settop/apps/vod.py",
             "                                      (self.position,),\n"
             "                                      timeout=self.params.call_timeout)",
             "                                      (self.position,))"),
    "D011": ("settop/kernel.py",
             "            self._cutoff = self.kernel.call_later(0.2, self.host.crash)",
             "            self.kernel.now += 0.2\n            self.host.crash()"),
    "P004": ("settop/apps/vod.py",
             "            await self.runtime.invoke(self.movie, \"pause\", (),\n"
             "                                      timeout=self.params.call_timeout)",
             "            self.runtime.invoke(self.movie, \"pause\", (),\n"
             "                                timeout=self.params.call_timeout).detach()"),
    "P005": ("settop/apps/vod.py",
             "                                  timeout=self.params.call_timeout,\n"
             "                                  deadline=deadline)",
             "                                  timeout=self.params.call_timeout)"),
    "W001": ("sim/kernel.py",
             "        if fut._state == _CANCELLED:",
             "        if fut._state == _CANCELLED:  # repro: noqa D003"),
}


class TestUniqueCatches:
    @pytest.mark.parametrize("rule", sorted(UNIQUE_CATCHES))
    def test_rule_flags_the_mutation_only_it_catches(self, rule):
        relpath, code, mutation = UNIQUE_CATCHES[rule]
        path = os.path.join(SRC, relpath)
        with open(path) as fh:
            source = fh.read()
        assert source.count(code) == 1, "the mutation no longer applies"
        mutated = source.replace(code, mutation)
        assert hits(lint_source(source, path, default_rules()), rule) == []
        assert hits(lint_source(mutated, path, default_rules()), rule)


class TestEnforcement:
    def test_src_repro_is_clean(self):
        """The gate: the tree must satisfy its own determinism rules."""
        report = lint_paths([SRC])
        assert report.ok, "\n".join(report.format_lines())

    def test_cli_lint_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "lint", SRC],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert clean.returncode == 0, clean.stdout + clean.stderr
        dirty = subprocess.run(
            [sys.executable, "-m", "repro", "lint",
             os.path.join(FIXTURES, "d007_print.py")],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert dirty.returncode == 1
        assert "D007" in dirty.stdout
