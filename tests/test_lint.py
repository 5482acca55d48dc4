"""Unit tests for the custom AST lint suite (``tools.lint``).

Each REPRO rule is exercised positively (a minimal offending snippet is
flagged) and negatively (the idiomatic fix, an exempt context, or a
waiver comment silences it).  A final test locks the production tree
itself at zero findings, so any new violation fails the suite even
before CI runs the linter.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from tools.lint import lint_paths
from tools.lint.rules import RULES, check_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(source, path="src/repro/example.py"):
    return [f.code for f in check_source(path, source)]


class TestRepro001BareAssert:
    def test_flags_assert(self):
        assert codes("def f(x):\n    assert x > 0\n") == ["REPRO001"]

    def test_raise_is_clean(self):
        src = (
            "def f(x):\n"
            "    if x <= 0:\n"
            "        raise ValueError(x)\n"
        )
        assert codes(src) == []

    def test_waiver(self):
        src = "def f(x):\n    assert x  # lint: skip=REPRO001\n"
        assert codes(src) == []


class TestRepro002InlineDominance:
    OFFENDER = "def dom(a, b):\n    return all(x <= y for x, y in zip(a, b))\n"

    def test_flags_all_over_zip(self):
        assert codes(self.OFFENDER) == ["REPRO002"]

    def test_flags_any_variant(self):
        src = "def dom(a, b):\n    return any(x < y for x, y in zip(a, b))\n"
        assert codes(src) == ["REPRO002"]

    def test_dominance_module_is_exempt(self):
        assert codes(self.OFFENDER, path="src/repro/core/dominance.py") == []

    def test_zip_without_comparison_is_clean(self):
        src = "def add(a, b):\n    return tuple(x + y for x, y in zip(a, b))\n"
        assert codes(src) == []

    def test_equality_over_zip_is_clean(self):
        # Equality is REPRO004's business (and only on coordinate
        # attributes); the dominance rule targets orderings.
        src = "def same(a, b):\n    return all(x == y for x, y in zip(a, b))\n"
        assert codes(src) == []


class TestRepro003MutableDefault:
    def test_flags_list_default(self):
        assert codes("def f(x=[]):\n    return x\n") == ["REPRO003"]

    def test_flags_dict_call_default(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["REPRO003"]

    def test_flags_kwonly_default(self):
        assert codes("def f(*, x={}):\n    return x\n") == ["REPRO003"]

    def test_none_default_is_clean(self):
        assert codes("def f(x=None):\n    return x\n") == []

    def test_tuple_default_is_clean(self):
        assert codes("def f(x=()):\n    return x\n") == []


class TestRepro004CoordinateEquality:
    def test_flags_values_comparison(self):
        src = "def dup(a, b):\n    return a.values == b.values\n"
        assert codes(src) == ["REPRO004"]

    def test_flags_point_inequality(self):
        src = "def f(entry, e):\n    return entry.point != e.values\n"
        assert codes(src) == ["REPRO004"]

    def test_dunder_eq_is_exempt(self):
        src = (
            "class E:\n"
            "    def __eq__(self, other):\n"
            "        return self.values == other.values\n"
        )
        assert codes(src) == []

    def test_other_attributes_are_clean(self):
        src = "def f(a, b):\n    return a.kappa == b.kappa\n"
        assert codes(src) == []

    def test_waiver(self):
        src = (
            "def dup(a, b):\n"
            "    return a.values == b.values  # lint: skip=REPRO004\n"
        )
        assert codes(src) == []


class TestRepro005MissingSlots:
    def test_flags_slotless_node_class(self):
        src = "class TreeNode:\n    def __init__(self):\n        self.x = 1\n"
        assert codes(src) == ["REPRO005"]

    def test_slots_are_clean(self):
        src = "class TreeNode:\n    __slots__ = ('x',)\n"
        assert codes(src) == []

    def test_dataclass_is_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ExpiredRecord:\n"
            "    kappa: int\n"
        )
        assert codes(src) == []

    def test_unmatched_name_is_clean(self):
        src = "class EngineStats:\n    def __init__(self):\n        self.n = 0\n"
        assert codes(src) == []


class TestWaiverParsing:
    def test_multiple_codes_one_waiver(self):
        src = (
            "def f(a, b, x=[]):\n"
            "    assert a.values == b.values  "
            "# lint: skip=REPRO001,REPRO004\n"
        )
        assert codes(src) == ["REPRO003"]

    def test_waiver_is_line_scoped(self):
        src = (
            "def f(x):\n"
            "    assert x  # lint: skip=REPRO001\n"
            "    assert x\n"
        )
        assert codes(src) == ["REPRO001"]

    def test_unknown_code_in_waiver_is_ignored(self):
        src = "def f(x):\n    assert x  # lint: skip=REPRO999\n"
        assert codes(src) == ["REPRO001"]


class TestProductionTreeIsClean:
    def test_src_repro_is_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tools_are_clean(self):
        findings = lint_paths([str(REPO_ROOT / "tools")])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCommandLine:
    def test_module_entrypoint_clean_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "src/repro"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_module_entrypoint_reports_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    assert x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "REPRO001" in proc.stdout

    def test_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for code in RULES:
            assert code in proc.stdout
