"""Constants rows, the closed-form/quadrature cross-check, and the certified
constants suite.  Frozen values are from 60-digit mpmath evaluation."""

import math

import mpmath as mp
import pytest

from holdercert import constants, holder
from holdercert.checks import PASSED
from holdercert.constants import (
    c_n,
    check_constants_suite,
    i_n_quad,
    tail_constant_certificate,
    tail_sqrt_c_bound,
)
from holdercert.interval import Interval
from holdercert.quadrature import QuadratureBudgetExceeded, composite_simpson
from holdercert.report import run_verification
from holdercert.roots import alpha_interval, find_alpha
from oracles import simpson_from_scratch

I_ORACLE = {1: 2569.108500733336, 2: 12664.695493401992, 5: 199381.51595128776}
C_ORACLE = {1: 2.2563463338991654, 2: 1.8274008610234556, 3: 1.7075267875581779}


# integrand points of run_verification(200) when every Simpson level
# evaluates its whole grid, as simpson_from_scratch does
FROM_SCRATCH_POINTS = 103_881


def _counted(f, sizes: list):
    def g(u):
        sizes.append(u.size)
        return f(u)

    return g


@pytest.fixture(scope="module")
def verify_integrals():
    """(integrand, a, b, value, points) of every composite_simpson call in
    run_verification(200), with the constants rows rebuilt."""
    calls = []

    def recording(f, a, b):
        sizes = []
        value = composite_simpson(_counted(f, sizes), a, b)
        calls.append((f, a, b, value, sum(sizes)))
        return value

    constants.c_n.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constants, "composite_simpson", recording)
        patch.setattr(holder, "composite_simpson", recording)
        run_verification(200)
    return calls


class TestQuadrature:
    def test_sin_squared_identity(self):
        # integral of sin^2 over [0, pi] is pi/2
        val = composite_simpson(lambda u: [math.sin(x) ** 2 for x in u], 0.0, math.pi)
        assert val == pytest.approx(math.pi / 2, rel=1e-12)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr("holdercert.quadrature.MAX_PANELS", 64)
        with pytest.raises(QuadratureBudgetExceeded):
            composite_simpson(lambda u: [abs(math.sin(1.0 / (x + 1e-8))) for x in u], 0.0, 1.0)

    @pytest.mark.parametrize(
        "integrand",
        [
            lambda u: [math.sqrt(x - 0.5) if x >= 0.5 else math.nan for x in u],
            lambda u: [1.0 / x if x else math.inf for x in u],
            lambda u: [math.inf if x < 0.5 else -math.inf for x in u],  # math.fsum raises on inf - inf
            lambda u: [1e308 for x in u],  # and on a partial sum past the largest double
        ],
    )
    def test_non_finite_value_fails_at_the_first_level(self, integrand):
        sizes = []
        with pytest.raises(QuadratureBudgetExceeded, match="at 8 panels is not finite"):
            composite_simpson(_counted(integrand, sizes), 0.0, 1.0)
        assert sum(sizes) <= 17

    def test_integrand_receives_a_list_with_a_size(self):
        seen = []

        def integrand(u):
            seen.append((type(u), u.size, len(u)))
            return [x * x for x in u]

        # Simpson is exact on x^2, so the first two levels agree
        assert composite_simpson(integrand, 0.0, 3.0) == pytest.approx(9.0, rel=1e-15)
        assert [size for _, size, _ in seen] == [17, 16]
        assert all(issubclass(kind, list) and size == length for kind, size, length in seen)

    def test_every_verify_integral_equals_the_from_scratch_rule(self, verify_integrals):
        # I_n for n <= 200, 50 Wirtinger pairs and the equality case
        assert len(verify_integrals) == 200 + 2 * 50 + 2
        sizes = []
        for f, a, b, value, _ in verify_integrals:
            assert value == simpson_from_scratch(_counted(f, sizes), a, b), (a, b)
        assert sum(sizes) == FROM_SCRATCH_POINTS

    def test_verify_evaluates_at_most_60000_points(self, verify_integrals):
        # Simpson levels alone, without the Romberg extrapolation, take 425,326
        assert sum(c[4] for c in verify_integrals) <= 60_000

    @pytest.mark.parametrize("k", [3, 6, 7, 10, 11, 12])
    def test_budget_path_equals_the_from_scratch_rule(self, monkeypatch, k):
        # I_1 settles at 2**7 panels: budgets below, just below, at and above it;
        # the near-singular integrand runs out of every budget
        monkeypatch.setattr("holdercert.quadrature.MAX_PANELS", 2**k)
        a, b = find_alpha(1).alpha, find_alpha(2).alpha
        for f, lo, hi in (
            (lambda u: [x**4 * math.sin(x) ** 2 for x in u], a, b),
            (lambda u: [abs(math.sin(1.0 / (x + 1e-8))) for x in u], 0.0, 1.0),
        ):
            outcomes = []
            for rule in (composite_simpson, simpson_from_scratch):
                try:
                    outcomes.append(rule(f, lo, hi))
                except QuadratureBudgetExceeded:
                    outcomes.append("budget")
            assert outcomes[0] == outcomes[1], (k, lo, hi)


def _alpha_mp(n: int):
    """alpha_n, the root of tan u = u in (n pi, (n + 1/2) pi), at the working precision."""
    return mp.findroot(lambda u: mp.sin(u) - u * mp.cos(u), mp.mpf(find_alpha(n).alpha))


def _row_mp(n: int) -> dict:
    """The row's quantities at the working precision, from the Lemma 1.4 formulas."""
    a, b = _alpha_mp(n), _alpha_mp(n + 1)
    delta = b - a
    ff = 1 + (a * b - 1) / ((1 + a**2) * (1 + b**2))
    prefactor = delta**2 / (mp.pi**2 * a**2 * b**2)
    g, correction = prefactor * (b**5 - a**5) / 10, prefactor * delta * ff / 4
    return {
        "alpha_n": a, "alpha_np1": b, "delta": delta, "i_closed": (b**5 - a**5) / 10 + delta * ff / 4,
        "g": g, "correction": correction, "c": g + correction,
    }


def _within(x: float, box: Interval, rel: float) -> bool:
    """x lies in box widened by rel |x| on each side."""
    return box.lo - rel * abs(x) <= x <= box.hi + rel * abs(x)


class TestOscillationIntegral:
    @pytest.mark.parametrize("n", sorted(I_ORACLE))
    def test_closed_matches_oracle(self, n):
        assert c_n(n).i_closed.mid == pytest.approx(I_ORACLE[n], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50])
    def test_closed_matches_quadrature(self, n):
        row = c_n(n)
        assert row.i_quad == i_n_quad(n)
        assert _within(row.i_quad, row.i_closed, 1e-10)

    @pytest.mark.parametrize("n", [1, 2, 50, 200])
    def test_quadrature_matches_mpmath(self, n):
        # within 1e-13 of 40-digit mpmath quadrature between the same float ends
        a, b = find_alpha(n).alpha, find_alpha(n + 1).alpha
        with mp.workdps(40):
            exact = mp.quad(lambda u: u**4 * mp.sin(u) ** 2, [mp.mpf(a), mp.mpf(b)])
            assert abs(i_n_quad(n) - exact) <= mp.mpf("1e-13") * exact

    def test_quintic_lower_bound(self):
        # the bracketed factor is positive, so I_n exceeds the quintic part
        for n in (1, 2, 9):
            a, b = find_alpha(n).alpha, find_alpha(n + 1).alpha
            assert c_n(n).i_closed.lo > (b**5 - a**5) / 10.0

    def test_quintic_ratio(self):
        a, b = find_alpha(1).alpha, find_alpha(2).alpha
        ratio = i_n_quad(1) / ((b**5 - a**5) / 10.0)
        assert 1.0 < ratio < 1.1


class TestConstantsRows:
    @pytest.mark.parametrize("n", sorted(C_ORACLE))
    def test_c_oracle(self, n):
        assert c_n(n).c.mid == pytest.approx(C_ORACLE[n], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 200, 651])
    def test_every_interval_encloses_its_exact_value(self, n):
        row = c_n(n)
        with mp.workdps(50):
            exact = _row_mp(n)
            assert [k for k, v in zip(row._fields, row) if isinstance(v, Interval)] == list(exact)
            for field, value in exact.items():
                box = getattr(row, field)
                assert mp.mpf(box.lo) <= value <= mp.mpf(box.hi), field
                assert box.width <= 2e-12 * abs(box.mid), field

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_row_invariants(self, n):
        row = c_n(n)
        assert (row.alpha_n, row.alpha_np1) == (alpha_interval(n), alpha_interval(n + 1))
        assert math.pi - 0.2 < row.delta.lo <= row.delta.hi < math.pi + 0.2
        assert _within(row.i_quad, row.i_closed, 1e-10)
        # C_n is G_n plus the correction, which is positive
        assert row.correction.lo > 0.0
        assert row.c == row.g + row.correction

    def test_delta_tends_to_pi(self):
        for n in (10, 60, 150):
            assert abs(c_n(n).delta.mid - math.pi) < 1e-2

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_quintic_identity(self, n):
        # alpha'^5 - alpha^5 = 5 a^2 b^2 d + 5 a b d^3 + d^5
        a, b = find_alpha(n).alpha, find_alpha(n + 1).alpha
        d = b - a
        lhs = b**5 - a**5
        rhs = 5 * a**2 * b**2 * d + 5 * a * b * d**3 + d**5
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 200])
    def test_dual_route_identity(self, n):
        # Lemma 1.4's assembly equals the Wirtinger constant (1/pi^2)(1/a - 1/b)^2 I_n,
        # with I_n integrated directly, and the row encloses both
        with mp.workdps(50):
            exact = _row_mp(n)
            a, b = exact["alpha_n"], exact["alpha_np1"]
            i_n = mp.quad(lambda u: u**4 * mp.sin(u) ** 2, [a, b])
            chain = (1 / a - 1 / b) ** 2 * i_n / mp.pi**2
            assert abs(exact["c"] - chain) <= mp.mpf("1e-40") * chain
            assert abs(exact["i_closed"] - i_n) <= mp.mpf("1e-40") * i_n
            c = c_n(n).c
            assert mp.mpf(c.lo) <= chain <= mp.mpf(c.hi)

    @pytest.mark.parametrize("n", [2567, 9999])
    def test_dual_route_past_float_cancellation(self, n):
        # far out, where 1/alpha_n - 1/alpha_{n+1} would cancel in floats, the
        # enclosure stays narrow and the rows approach pi/2
        c = c_n(n).c
        assert c.width <= 1e-10
        assert c.mid == pytest.approx(math.pi / 2, abs=2e-4)

    def test_large_n_trend(self):
        # rows 50..200 sit below 1.7 (they approach pi/2)
        for n in (50, 100, 150, 200):
            assert c_n(n).c.hi < 1.7
        assert c_n(200).c.mid == pytest.approx(math.pi / 2, abs=2e-4)


class TestCertifiedSuite:
    def test_suite_passes(self):
        results = check_constants_suite(10)
        assert all(r.verdict == PASSED for r in results)
        ids = {r.check_id for r in results}
        assert {"L1.4/a1a2", "L1.4/a2a3", "L1.4/C1", "L1.4/C2", "L1.4/G1"} <= ids

    def test_known_margins(self):
        results = {r.check_id: r for r in check_constants_suite(3)}
        # product margins: 34.7127... - 34.6 and 84.2371... - 84.22
        assert results["L1.4/a1a2"].margin == pytest.approx(0.11272, rel=1e-3)
        assert results["L1.4/a2a3"].margin == pytest.approx(0.01709, rel=1e-3)
        # the tight ones
        assert 0 < results["L1.4/ratio[n=2]"].margin < 1e-4
        assert 0 < results["L1.4/corr[n=2]"].margin < 1e-5

    def test_tail_certificate(self):
        results = tail_constant_certificate()
        assert all(r.verdict == PASSED for r in results)
        assert tail_sqrt_c_bound() == pytest.approx(math.sqrt(1.83012), rel=1e-12)
        assert tail_sqrt_c_bound() < math.sqrt(2.0)

    def test_tail_enclosures_hold_the_exact_decimals(self, monkeypatch):
        # both sides of each tail comparison enclose the 50-digit value of its
        # expression with 84.22, 0.12, 1.83 and 0.00012 taken as exact decimals
        sides = {}
        real = constants.certified_less

        def capture(check_id, anchor, lhs, rhs):
            sides[check_id] = lhs, rhs
            return real(check_id, anchor, lhs, rhs)

        monkeypatch.setattr(constants, "certified_less", capture)
        tail_constant_certificate()
        with mp.workdps(50):
            p, r, g, corr = mp.mpf("84.22"), mp.mpf("0.12"), mp.mpf("1.83"), mp.mpf("0.00012")
            exact = {
                "tail/12pi2": (p, 12 * mp.pi**2),
                "tail/ratio": (mp.pi**2 * (1 + 1 / p) ** 2 / p, r),
                "tail/G": ((mp.pi / 2) * (1 + 1 / p) ** 3 * (1 + r + r**2 / 5), g),
                "tail/corr": ((mp.pi / 4) / p**2 * (1 + 1 / p) ** 2 * (1 + 2 / p), corr),
                "tail/C": (g + corr, mp.mpf(2)),
            }
            assert sides.keys() == exact.keys()
            for check_id, values in exact.items():
                for side, value in zip(sides[check_id], values):
                    box = side if isinstance(side, Interval) else Interval.point(side)  # the int 2
                    assert mp.mpf(box.lo) <= value <= mp.mpf(box.hi), check_id
            assert mp.mpf(tail_sqrt_c_bound()) >= mp.sqrt(mp.mpf("1.83012"))

    def test_no_float_operand(self, monkeypatch):
        """Every operand the suite and the tail coerce is an int: a decimal
        written as a bare float would be taken as a point."""
        for n in (1, 2, 3, 4):
            find_alpha(n)  # root certification multiplies by a float sign
        coerce = Interval._coerce

        def ints_only(other):
            if type(other) is not int:
                raise TypeError(f"non-integer interval operand {other!r}")
            return coerce(other)

        constants.c_n.cache_clear()  # the suite reads c_n's rows: build them under the patch
        monkeypatch.setattr(Interval, "_coerce", staticmethod(ints_only))
        assert all(r.ok for r in check_constants_suite(3) + tail_constant_certificate())
