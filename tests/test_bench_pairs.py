"""tools/bench_pairs.py's summary of paired runs, on fixed numbers: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# sorted: 0.0249 0.0250 0.0251 0.0252 0.0252 0.0253 0.0254 0.0260 0.0275 0.0277
PARENT = [0.0252, 0.0250, 0.0277, 0.0251, 0.0253, 0.0249, 0.0275, 0.0260, 0.0252, 0.0254]


def test_quartiles_are_inclusive():
    s = bench_pairs.summarize(PARENT, PARENT, "lower")
    assert s["parent_median"] == pytest.approx(0.02525)
    assert s["parent_quartiles"] == pytest.approx([0.025125, 0.02585])
    assert s["change_wins"] == 0 and s["pairs"] == 10


def test_nine_of_ten_pairs_with_a_wide_gap():
    change = [0.0186] * 9 + [0.0300]  # the change loses the last pair
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["change_wins"] == 9
    assert bench_pairs.claim_holds(s)


def test_ties_count_for_neither_side():
    change = PARENT[:2] + [0.0186] * 8  # two ties and eight wins
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["change_wins"] == 8
    assert not bench_pairs.claim_holds(s)


def test_a_gap_below_the_parents_iqr():
    change = [p - 0.0001 for p in PARENT]  # wins every pair, by less than the IQR of 0.000725
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["change_wins"] == 10
    assert not bench_pairs.claim_holds(s)


def test_higher_is_better():
    s = bench_pairs.summarize(PARENT, [0.0186] * 10, "higher")
    assert s["change_wins"] == 0
    assert not bench_pairs.claim_holds(s)
    assert bench_pairs.claim_holds(bench_pairs.summarize([0.0186] * 10, PARENT, "higher"))
