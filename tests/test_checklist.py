"""Checklist engine: the built-in corpus, its parsing, and the evaluator."""

import ast
from fractions import Fraction

import pytest

from holdercert.checklist import (
    BUILTIN_CORPUS,
    ChecklistError,
    _eval_node,
    _evaluate,
    check_proposition_inequalities,
)
from holdercert.checks import FAILED, PASSED


def _expressions() -> list[str]:
    """The corpus's expressions, read off its lines independently."""
    lines = [line.strip() for line in BUILTIN_CORPUS.splitlines()]
    return [line.split("#")[0].strip() for line in lines if line and not line.startswith("#")]


class TestBuiltinCorpus:
    def test_all_certified(self):
        results = check_proposition_inequalities()
        assert len(results) == 26
        assert all(r.verdict == PASSED for r in results)

    def test_anchor_strings_nonempty(self):
        for r in check_proposition_inequalities():
            assert r.anchor.strip()
            assert "Prop" in r.anchor

    def test_literals_enclose_their_decimals(self):
        texts = set()
        for expression in _expressions():
            for node in ast.walk(ast.parse(expression, mode="eval")):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    text = ast.get_source_segment(expression, node)
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
    """How check_proposition_inequalities reads the corpus text."""

    def test_comments_and_blanks_skipped(self):
        lines = BUILTIN_CORPUS.splitlines()
        assert "" in lines and any(line.startswith("#") for line in lines)  # both kinds occur
        results = check_proposition_inequalities()
        # one check per expression line, numbered in order, anchored by its comment
        assert [r.check_id for r in results] == [f"prop-ineq/{i:02d}" for i in range(len(_expressions()))]
        assert results[0].anchor == "Prop 2.2 proof: |f'(4/(9pi))| = (sqrt2/2)(9pi/4 - 1)"
        assert results[-1].anchor == "Prop 2.4 proof: pi/2.6 > 1.2"


class TestEvaluator:
    def run(self, expr: str):
        return _evaluate("t", "t", expr)

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
        r = self.run("2 > 1 > 0")  # an all-> chain reads right to left
        assert r.verdict == PASSED
        assert r.margin == pytest.approx(1.0)  # both links are 1, outward rounded
        assert self.run("3 > 1 > 2").verdict == FAILED

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
            "True < 2",
            "f(1, 2) < 1",
            "sin(x=1) < 1",
            "alpha(n) < 1",
            "1 % 2 < 1",
            "1 // 2 < 1",
            "1 < 2 > 0",  # chains are all < or all >
            "1 == 1 == 1",  # == compares two operands
            "0 < 1 == 1",
        ],
    )
    def test_rejects_bad_syntax(self, expr):
        with pytest.raises(ChecklistError):
            self.run(expr)

    def test_strictness(self):
        # equal endpoints never certify a strict inequality
        assert self.run("1 < 1").verdict != PASSED
