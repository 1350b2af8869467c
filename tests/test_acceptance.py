"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from holdercert.checks import PASSED
from holdercert.holder import f, quotient
from holdercert.optimizer import critical_pair, global_sup
from holdercert.report import run_verification
from holdercert.roots import find_alpha
from oracles import brute_grid_oracle, classify_index, interval_sup, remap, spot_check_max

SQRT2 = math.sqrt(2.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def campaign():
    t0 = time.time()
    report = run_verification(n_max=200)
    elapsed = time.time() - t0
    return report, elapsed


def _by_id(report):
    return {c.check_id: c for c in report.checks}


def test_01_lemma_suite(campaign):
    """Angle and cubic lemmas up to n=200: zero failed, zero undecided, < 30 s."""
    report, elapsed = campaign
    summary = report.summary
    lemma_checks = [
        c for c in report.checks if c.check_id.startswith(("L1.1", "L1.2", "L1.3", "L1.5"))
    ]
    expected = 200 * 5 + 2  # three upper + one lower + one gap per n, two cubic parts
    ok = (
        summary["failed"] == 0
        and summary["undecided"] == 0
        and len(lemma_checks) == expected
        and all(c.verdict == PASSED for c in lemma_checks)
        and elapsed < 30.0
    )
    _report(
        "1",
        ok,
        f"{len(lemma_checks)} lemma checks, {summary['failed']} failed, "
        f"{summary['undecided']} undecided, {elapsed:.1f}s",
    )
    assert ok


def test_02_constants(campaign):
    """C_1 < 2.26, C_n < 2 for 2..200, C_2 < 1.83012; I_n quadrature within 1e-10 of the closed-form enclosure."""
    report, _ = campaign
    by_id = _by_id(report)
    ok = by_id["L1.4/C1"].verdict == PASSED and by_id["L1.4/C2"].verdict == PASSED
    for n in range(2, 201):
        ok = ok and by_id[f"L1.4/C[n={n}]"].verdict == PASSED
    # relative distance from the quadrature to the closed-form enclosure
    worst_rel = max(
        max(row.i_closed.lo - row.i_quad, row.i_quad - row.i_closed.hi, 0.0) / row.i_quad
        for row in report.constants_table[:50]
    )
    ok = ok and worst_rel <= 1e-10
    _report("2", ok, f"C-bounds certified for n<=200; I_n quadrature outside its enclosure (n<=50) by {worst_rel:.2e}")
    assert ok


def test_03_constant_landmarks(campaign):
    """alpha products, delta^2/(a a') caps, correction caps -- certified."""
    report, _ = campaign
    by_id = _by_id(report)
    needed = ["L1.4/a1a2", "L1.4/a2a3", "L1.4/ratio[n=1]", "L1.4/corr[n=1]"]
    needed += [f"L1.4/ratio[n={n}]" for n in range(2, 201)]
    needed += [f"L1.4/corr[n={n}]" for n in range(2, 201)]
    ok = all(by_id[k].verdict == PASSED for k in needed)
    _report("3", ok, f"{len(needed)} landmark certifications")
    assert ok


def test_04_wirtinger(campaign):
    """Inequality on J_1..J_50 plus the sine equality case at 1e-9."""
    report, _ = campaign
    by_id = _by_id(report)
    ok = by_id["L1.6/equality"].verdict == PASSED
    for n in range(1, 51):
        ok = ok and by_id[f"L1.6/J[n={n}]"].verdict == PASSED
    _report("4", ok, "50 interval inequalities + equality-case ratio within 1e-9")
    assert ok


def test_05_proposition_checklist(campaign):
    """Every scalar inequality in the contradiction arguments, certified."""
    report, _ = campaign
    items = [c for c in report.checks if c.check_id.startswith("prop-ineq/")]
    ok = len(items) == 26 and all(c.verdict == PASSED for c in items)
    anchors = {c.anchor for c in items if c.verdict == PASSED}
    for needle in (
        "Prop 2.2 proof: |f'(4/(9pi))| > pi",
        "Prop 2.4 proof: (1 + theta_1)^2 < 6/pi",
        "Prop 2.4 proof: f'(2/pi) = 1",
        "Prop 2.4 proof: f'(3/pi) < sqrt(pi/8)",
    ):
        ok = ok and needle in anchors
    _report("5", ok, f"{len(items)} checklist items certified")
    assert ok


def test_06_main_bound_at_desk_scale():
    """global sup with N=200, cap 8, resolution 512: within [sqrt(2/pi), sqrt 2]."""
    t0 = time.time()
    rep = global_sup(200, 8.0, 512)
    elapsed = time.time() - t0
    spot = spot_check_max(1_000_000, 1.0 / find_alpha(200).alpha, 100.0)
    ok = (
        rep.sup_estimate <= SQRT2 + 1e-9
        and rep.sup_estimate >= math.sqrt(2.0 / math.pi) - 1e-9
        and spot <= SQRT2 + 1e-9
        and all(c.verdict == PASSED for c in rep.tail_checks)
        and elapsed < 120.0
    )
    _report(
        "6",
        ok,
        f"sup {rep.sup_estimate:.10f} <= sqrt2, spot max {spot:.10f}, {elapsed:.1f}s",
    )
    assert ok


def test_07_oracle_equivalence():
    """interval_sup vs exhaustive grid within 1e-4 (n=1..10); stationary pairs
    solve the system to 1e-10 and sit in the provable localization windows."""
    worst = 0.0
    for n in range(1, 11):
        sup_n, _ = interval_sup(n, 512)
        oracle, _ = brute_grid_oracle(n, 4096)
        worst = max(worst, abs(sup_n - oracle))
    ok = worst <= 1e-4

    rec1 = critical_pair(1)
    s1 = (f(rec1.y) - f(rec1.x)) / (2.0 * (rec1.y - rec1.x))
    from holdercert.holder import df

    res1 = max(abs(df(rec1.x) - df(rec1.y)), abs(df(rec1.x) - s1))
    ok = ok and res1 <= 1e-10 and rec1.x < 1.0 / (2.0 * math.pi) < rec1.y

    rec0 = critical_pair(0)
    s0 = (f(rec0.y) - f(rec0.x)) / (2.0 * (rec0.y - rec0.x))
    res0 = max(abs(df(rec0.x) - df(rec0.y)), abs(df(rec0.x) - s0))
    ok = ok and res0 <= 1e-10
    ok = ok and (0.7 / math.pi < rec0.x < 4.0 / (5.0 * math.pi))
    ok = ok and rec0.y > 13.0 / (8.0 * math.pi)
    _report(
        "7",
        ok,
        f"worst sup-vs-oracle gap {worst:.2e}; residuals {res1:.1e}/{res0:.1e}; "
        f"pairs in their windows",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="y_0 < 1.9/pi is only derived under the contradiction hypothesis "
    "(quotient >= sqrt 2), which is false; the actual stationary pair has "
    "y_0 = 0.61514 in (1.9/pi, 2/pi).  See the decisions ledger.",
)
def test_07b_j0_upper_cap_as_stated():
    rec0 = critical_pair(0)
    _report("7b", rec0.y < 1.9 / math.pi, f"y_0 = {rec0.y:.6f} vs 1.9/pi = {1.9 / math.pi:.6f}")
    assert rec0.y < 1.9 / math.pi


def test_08_remap_property():
    """1e4 random cross-piece pairs: image gap preserved to 1e-10, distance
    non-increasing, no remap failures."""
    rng = random.Random(1234321)
    lo = 1.0 / find_alpha(60).alpha
    count = 0
    worst_gap = 0.0
    while count < 10_000:
        x = rng.uniform(lo, 1.2)
        y = rng.uniform(lo, 1.2)
        if x == y:
            continue
        x, y = min(x, y), max(x, y)
        if classify_index(x) == classify_index(y):
            continue
        count += 1
        x2, y2 = remap(x, y)  # RemapFailure would propagate and fail the test
        assert y2 - x2 <= (y - x) * (1 + 1e-9) + 1e-15
        gap = abs(abs(f(y2) - f(x2)) - abs(f(y) - f(x)))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-10
        if x2 != y2:
            assert quotient(x2, y2) >= quotient(x, y) - 1e-10
    _report("8", True, f"{count} cross pairs, worst image-gap drift {worst_gap:.2e}")


def test_09_byte_determinism(tmp_path):
    """Two consecutive CLI verify runs produce byte-identical JSON."""
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "holdercert.cli",
                "verify",
                "--n-max",
                "200",
                "--format",
                "json",
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 10_000
    _report("9", ok, f"{len(outs[0])} bytes, identical={outs[0] == outs[1]}")
    assert ok
    json.loads(outs[0])  # and it parses
