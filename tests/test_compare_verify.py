"""tools/compare_verify.py on small hand-built reports: exit codes and what it names."""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from holdercert.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_verify.py"

REPORT = {
    "summary": {"passed": 3, "failed": 0, "undecided": 0},
    "constants_table": [
        {"n": 1, "alpha_n": [4.493409457909063, 4.493409457909065], "i_quad": 2569.108500733336, "c": [2.25, 2.26]},
        {"n": 2, "alpha_n": [7.725251836937706, 7.725251836937709], "i_quad": 12664.695493401992, "c": [1.82, 1.83]},
    ],
    "checks": [
        {"id": "L1.4/gap[n=1]", "anchor": "alpha_1 alpha_2 > 34.6", "verdict": "passed", "margin": 0.25},
        {"id": "L1.4/gap[n=2]", "anchor": "alpha_2 alpha_3 > 84.22", "verdict": "passed", "margin": 0.5},
        {"id": "prop-ineq/21", "anchor": "f'(2/pi) = 1", "verdict": "passed", "margin": 1e-12},
    ],
}
EQUAL_LINE = "3 checks; ids, anchors, order, verdicts, summary and constants_table but i_quad equal"


def _compare(tmp_path, old, new) -> subprocess.CompletedProcess:
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return _run(*paths)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)


def test_equal_reports(tmp_path):
    proc = _compare(tmp_path, REPORT, copy.deepcopy(REPORT))
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [EQUAL_LINE]


def test_one_lowered_margin(tmp_path):
    new = copy.deepcopy(REPORT)
    new["checks"][0]["margin"] = 0.25 - 2 * math.ulp(34.6)  # two ulps of the threshold 34.6
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        EQUAL_LINE,
        "L1.4: 1 margins changed, 1 lower, largest drop 2.00 and largest rise 0.00 ulps of the threshold",
    ]


def test_all_margins_rose(tmp_path):
    # a family whose margins all went up reports the size of the rise
    new = copy.deepcopy(REPORT)
    new["checks"][0]["margin"] = 0.25 + 3 * math.ulp(34.6)
    new["checks"][1]["margin"] = 0.5 + math.ulp(84.22)
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        EQUAL_LINE,
        "L1.4: 2 margins changed, 0 lower, largest drop 0.00 and largest rise 3.00 ulps of the threshold",
    ]


def test_margin_without_threshold(tmp_path):
    # an anchor with no "< t" or "> t": the move is relative to the old margin
    new = copy.deepcopy(REPORT)
    new["checks"][2]["margin"] = 1e-12 * (1 + 2.2e-11)
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        EQUAL_LINE,
        "prop-ineq: 1 margins changed, 0 lower, largest drop 0.00e+00 and largest rise 2.20e-11 relative to the margin",
    ]


def test_both_kinds_in_one_family(tmp_path):
    old = copy.deepcopy(REPORT)
    old["checks"][1]["anchor"] = "Lemma 1.4 for n = 2"
    new = copy.deepcopy(old)
    new["checks"][0]["margin"] = 0.25 - math.ulp(34.6)
    new["checks"][1]["margin"] = 0.375
    proc = _compare(tmp_path, old, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        EQUAL_LINE,
        "L1.4: 2 margins changed, 2 lower, largest drop 1.00 and largest rise 0.00 ulps of the threshold, "
        "largest drop 2.50e-01 and largest rise 0.00e+00 relative to the margin",
    ]


def test_move_off_a_zero_margin(tmp_path):
    old = copy.deepcopy(REPORT)
    old["checks"][2]["margin"] = 0.0
    proc = _compare(tmp_path, old, REPORT)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == (
        "prop-ineq: 1 margins changed, 0 lower, largest drop 0.00e+00 and largest rise inf relative to the margin"
    )


@pytest.mark.parametrize("field, value", [("anchor", "alpha_2 alpha_3 > 84.2"), ("verdict", "undecided")])
def test_changed_anchor_or_verdict(tmp_path, field, value):
    new = copy.deepcopy(REPORT)
    new["checks"][1][field] = value
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "reports differ beyond their margins",
        f"L1.4/gap[n=2] differs in {field}, margin 0.5 -> 0.5",
    ]


def test_changed_verdict_shows_the_margin_move(tmp_path):
    new = copy.deepcopy(REPORT)
    new["checks"][0].update(anchor="alpha_1 alpha_2 > 34.9", verdict="failed", margin=-0.05)
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "reports differ beyond their margins",
        "L1.4/gap[n=1] differs in anchor and verdict, margin 0.25 -> -0.05",
    ]


def test_config_key_added(tmp_path):
    # a report without config compares as one with an empty config; config alone keeps exit 0
    new = {**copy.deepcopy(REPORT), "config": {"n_max": 20}}
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [EQUAL_LINE, "config n_max: absent -> 20"]


def test_config_key_removed(tmp_path):
    old = {**copy.deepcopy(REPORT), "config": {"n_max": 20, "envelope_x_max": 8.0}}
    new = {**copy.deepcopy(REPORT), "config": {"n_max": 20}}
    proc = _compare(tmp_path, old, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [EQUAL_LINE, "config envelope_x_max: 8.0 -> absent"]


def test_config_value_changed(tmp_path):
    old = {**copy.deepcopy(REPORT), "config": {"n_max": 20, "wirtinger_n": 5}}
    new = {**copy.deepcopy(REPORT), "config": {"n_max": 200, "wirtinger_n": 5}}
    new["checks"][0]["margin"] = 0.25 - 2 * math.ulp(34.6)
    proc = _compare(tmp_path, old, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        EQUAL_LINE,
        "L1.4: 1 margins changed, 1 lower, largest drop 2.00 and largest rise 0.00 ulps of the threshold",
        "config n_max: 20 -> 200",
    ]


def test_config_listed_with_other_differences(tmp_path):
    new = {**copy.deepcopy(REPORT), "config": {"n_max": 20}}
    new["summary"]["passed"] = 2
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "reports differ beyond their margins",
        "summary differs",
        "config n_max: absent -> 20",
    ]


def test_i_quad_moved_by_one_ulp(tmp_path):
    # the float quadrature oracle may move: reported like the margins, not a difference
    new = copy.deepcopy(REPORT)
    new["constants_table"][1]["i_quad"] = math.nextafter(12664.695493401992, math.inf)
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [EQUAL_LINE, "i_quad: 1 of 2 changed, largest relative move 1.44e-16"]


@pytest.mark.parametrize("field, end", [("alpha_n", 0), ("c", 1)])
def test_interval_end_moved(tmp_path, field, end):
    new = copy.deepcopy(REPORT)
    new["constants_table"][0][field][end] = math.nextafter(new["constants_table"][0][field][end], 0.0)
    new["constants_table"][1]["i_quad"] += 1.0
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["reports differ beyond their margins", f"constants_table row n=1 differs in {field}"]


def test_constants_rows_added(tmp_path):
    new = copy.deepcopy(REPORT)
    new["constants_table"].append({**REPORT["constants_table"][1], "n": 3})
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert "constants_table has 2 rows, then 3" in proc.stdout.splitlines()


def test_reordered_ids(tmp_path):
    new = copy.deepcopy(REPORT)
    new["checks"].reverse()
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 1
    assert "check ids or their order differ" in proc.stdout.splitlines()


@pytest.mark.parametrize("args", [(), ("one.json",), ("a.json", "b.json", "c.json")])
def test_wrong_argument_count(args):
    proc = _run(*args)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("usage:")
    assert proc.stdout == ""


def test_missing_file(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(REPORT))
    proc = _run(str(path), str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert "missing.json" in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("usage:")
    assert "Traceback" not in proc.stderr


def test_norm_reports_are_not_verify_reports(tmp_path):
    # a norm report has no checks, summary or constants_table
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        assert main(["norm", "--n", "2", "--resolution", "64", "--out", path]) == 0
    proc = _run(*paths)
    assert proc.returncode == 2
    assert "a.json is not a verify report" in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("usage:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("missing", ["checks", "summary", "constants_table"])
def test_report_without_a_section(tmp_path, missing):
    new = copy.deepcopy(REPORT)
    del new[missing]
    proc = _compare(tmp_path, REPORT, new)
    assert proc.returncode == 2
    assert "new.json is not a verify report" in proc.stderr
