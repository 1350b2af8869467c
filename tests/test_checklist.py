"""The Props 2.2/2.4 checklist: its 26 results, and the literals of its source."""

import pytest

import holdercert.checklist as checklist
from holdercert.checklist import check_proposition_inequalities
from holdercert.checks import PASSED
from holdercert.interval import Interval
from holdercert.roots import find_alpha
from oracles import decimal_literals

# the decimals whose doubles round above or below them
ROUNDED_DECIMALS = {"0.1", "2.1", "2.6", "1.3", "2.7", "0.7", "1.2", "1.16", "1.9", "2.28"}


class TestBuiltinCorpus:
    def test_all_certified(self):
        results = check_proposition_inequalities()
        assert len(results) == 26
        assert all(r.verdict == PASSED for r in results)

    def test_anchor_strings_nonempty(self):
        for r in check_proposition_inequalities():
            assert r.anchor.strip()
            assert "Prop" in r.anchor

    def test_ids_and_anchors_in_order(self):
        results = check_proposition_inequalities()
        assert [r.check_id for r in results] == [f"prop-ineq/{i:02d}" for i in range(26)]
        assert results[0].anchor == "Prop 2.2 proof: |f'(4/(9pi))| = (sqrt2/2)(9pi/4 - 1)"
        assert results[-1].anchor == "Prop 2.4 proof: pi/2.6 > 1.2"

    def test_specific_margins(self):
        by_anchor = {r.anchor: r for r in check_proposition_inequalities()}
        gate = by_anchor["Prop 2.2 proof: |f'(4/(9pi))| > pi"]
        # (sqrt2/2)(9 pi/4 - 1) - pi = 1.1502 (oracle)
        assert gate.margin == pytest.approx(1.1502, rel=1e-3)
        assert gate.check_id == "prop-ineq/01"
        slope_one = by_anchor["Prop 2.4 proof: f'(2/pi) = 1"]
        assert slope_one.margin > 0  # certified within 1e-12

    def test_literals_enclose_their_decimals(self):
        assert ROUNDED_DECIMALS <= set(decimal_literals(checklist))

    def test_no_float_operand(self, monkeypatch):
        """Every operand the items coerce is an int.  A ratio of integers
        written as 1 / 3 would be a float taken as a point; today's reports
        keep their bytes either way, so only this guard sees it."""
        for n in (1, 2, 3):
            find_alpha(n)  # root certification multiplies by a float sign
        coerce = Interval._coerce

        def ints_only(other):
            if type(other) is not int:
                raise TypeError(f"non-integer interval operand {other!r}")
            return coerce(other)

        monkeypatch.setattr(Interval, "_coerce", staticmethod(ints_only))
        assert all(r.ok for r in check_proposition_inequalities())
