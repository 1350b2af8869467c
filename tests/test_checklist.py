"""Checklist engine: the built-in corpus, file loading, and the evaluator."""

import ast
from fractions import Fraction

import pytest

from holdercert.checklist import (
    BUILTIN_CORPUS,
    ChecklistError,
    ChecklistItem,
    _eval_node,
    builtin_checklist,
    check_proposition_inequalities,
    evaluate_item,
    load_checklist,
)
from holdercert.checks import FAILED, PASSED


class TestBuiltinCorpus:
    def test_all_certified(self):
        results = check_proposition_inequalities()
        assert len(results) == 26
        assert all(r.verdict == PASSED for r in results)

    def test_anchor_strings_nonempty(self):
        for item in builtin_checklist():
            assert item.anchor.strip()
            assert "Prop" in item.anchor

    def test_literals_enclose_their_decimals(self):
        texts = set()
        for item in builtin_checklist():
            for node in ast.walk(ast.parse(item.expression, mode="eval")):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    text = ast.get_source_segment(item.expression, node)
                    box = _eval_node(node)
                    assert Fraction(box.lo) <= Fraction(text) <= Fraction(box.hi), text
                    texts.add(text)
                elif isinstance(node, ast.Constant):
                    assert _eval_node(node).width == 0.0  # integers stay points
        # the literals whose doubles round above or below the decimal
        assert {"0.1", "2.1", "2.6", "1.3", "2.7", "0.7", "1.2", "1.16", "1.9", "2.28"} <= texts

    def test_specific_margins(self):
        by_anchor = {r.anchor: r for r in check_proposition_inequalities()}
        gate = by_anchor["Prop 2.2 proof: |f'(4/(9pi))| > pi"]
        # (sqrt2/2)(9 pi/4 - 1) - pi = 1.1502 (oracle)
        assert gate.margin == pytest.approx(1.1502, rel=1e-3)
        slope_one = by_anchor["Prop 2.4 proof: f'(2/pi) = 1"]
        assert slope_one.margin > 0  # certified within 1e-12


class TestLoader:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "items.txt"
        path.write_text(BUILTIN_CORPUS)
        items = load_checklist(path.read_text(), id_prefix="fromfile")
        builtin = builtin_checklist()
        assert [i.expression for i in items] == [i.expression for i in builtin]
        assert [i.anchor for i in items] == [i.anchor for i in builtin]
        results = [evaluate_item(i) for i in items]
        assert all(r.verdict == PASSED for r in results)

    def test_anchor_defaults_to_expression(self):
        items = load_checklist("1 < 2\n")
        assert items[0].anchor == "1 < 2"

    def test_comments_and_blanks_skipped(self):
        items = load_checklist("# header\n\n1 < 2  # trivial\n")
        assert len(items) == 1
        assert items[0].anchor == "trivial"


class TestEvaluator:
    def run(self, expr: str):
        return evaluate_item(ChecklistItem("t", "t", expr))

    def test_trivial_pass_fail(self):
        assert self.run("1 < 2").verdict == PASSED
        assert self.run("2 < 1").verdict == FAILED
        assert self.run("pi > 3").verdict == PASSED

    def test_root_vocabulary(self):
        assert self.run("theta(1) < alpha(1)").verdict == PASSED
        assert self.run("1/alpha(1) > theta(1)").verdict == PASSED

    def test_equality_tolerance(self):
        assert self.run("df(2/pi) == 1").verdict == PASSED
        assert self.run("df(2/pi) == 1.001").verdict == FAILED

    def test_chain(self):
        r = self.run("0 < df(0.7/pi) < 1")
        assert r.verdict == PASSED
        # margin is the weakest link: f'(0.7/pi) = 0.02375
        assert r.margin == pytest.approx(0.02375, rel=1e-3)

    def test_funcs_and_powers(self):
        assert self.run("sqrt(2)**2 == 2").verdict == PASSED
        assert self.run("sin(pi/2) == 1").verdict == PASSED
        assert self.run("cos(pi) == -1").verdict == PASSED

    @pytest.mark.parametrize(
        "expr",
        [
            "nope(1) < 2",
            "x < 2",
            "1 + 2",
            "theta(1.5) < 1",
            "2 ** pi < 10",
            "1 <= 2",
            "'a' < 'b'",
        ],
    )
    def test_rejects_bad_syntax(self, expr):
        with pytest.raises(ChecklistError):
            self.run(expr)

    def test_strictness(self):
        # equal endpoints never certify a strict inequality
        assert self.run("1 < 1").verdict != PASSED
