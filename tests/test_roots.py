"""Root certificates and the angle-estimate checks.

Expected values were computed with two independent oracles: plain-float
bisection on phi (point arithmetic, run to ulp convergence) and 60-digit
mpmath root finding; the frozen constants below came from the latter.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from holdercert.checks import FAILED, PASSED
from holdercert.report import VERIFY_N_MAX
from holdercert import interval as iv
from holdercert.roots import (
    BRACKET_WIDTH_TARGET,
    N_MAX,
    CertificationFailure,
    RootCertificate,
    alpha_interval,
    check_cubic_overshoot,
    check_theta_gap,
    check_theta_lower_bounds,
    check_theta_upper_bounds,
    dphi,
    find_alpha,
    phi,
    phi_iv,
    theta_interval,
)
from holdercert.interval import Interval

mp.mp.dps = 40

# mpmath oracle, 60 significant digits, rounded to binary64
ALPHA_ORACLE = {
    1: 4.493409457909064,
    2: 7.725251836937707,
    3: 10.904121659428899,
    4: 14.066193912831473,
    5: 17.22075527193077,
    10: 32.956389039822476,
    50: 158.64412567326343,
    100: 315.7268944020432,
    200: 629.8877394616062,
}
THETA_ORACLE = {
    1: 0.2189795224756257,
    2: 0.12872979703677592,
    3: 0.09145262813537651,
    10: 0.03033382287035228,
    100: 0.0031672837310747683,
    200: 0.0015875831472994227,
}


# Past the binary64 horizons of the angle lemmas, up to the last certified root
LARGE_N = (541, 1000, 9999, 10000)


def bisect_alpha_float(n: int, iters: int = 1000) -> float:
    """Independent oracle: plain-float bisection on phi, point arithmetic."""
    a = n * math.pi + 1e-9
    b = n * math.pi + math.pi / 2 - 1e-9
    sgn = 1.0 if n % 2 == 0 else -1.0
    assert sgn * phi(a) < 0 < sgn * phi(b)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        if sgn * phi(m) > 0:
            b = m
        else:
            a = m
    return 0.5 * (a + b)


class TestPhi:
    def test_at_pi(self):
        assert phi(math.pi) == pytest.approx(math.pi, rel=1e-15)

    def test_at_half_pi(self):
        assert phi(math.pi / 2) == pytest.approx(1.0, rel=1e-15)

    def test_at_root(self):
        assert abs(phi(ALPHA_ORACLE[1])) < 1e-9

    def test_interval_encloses_point(self):
        for t in (0.5, 2.0, 10.3, 500.1):
            enc = phi_iv(Interval.point(t))
            assert enc.lo <= phi(t) <= enc.hi


class TestCertificates:
    @pytest.mark.parametrize("n", sorted(ALPHA_ORACLE))
    def test_oracle_agreement(self, n):
        cert = find_alpha(n)
        assert cert.alpha == pytest.approx(ALPHA_ORACLE[n], abs=1e-11)
        assert cert.alpha == pytest.approx(bisect_alpha_float(n), abs=1e-11)

    @pytest.mark.parametrize("n", sorted(THETA_ORACLE))
    def test_theta(self, n):
        cert = find_alpha(n)
        assert cert.theta == pytest.approx(THETA_ORACLE[n], rel=1e-12)
        assert 0.0 < cert.theta < math.pi / 2

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 137, 200, 201, 300, *LARGE_N])
    def test_invariants(self, n):
        cert = find_alpha(n)
        assert cert.bracket.width <= max(BRACKET_WIDTH_TARGET, 2 * math.ulp(cert.alpha))
        # d(alpha tan theta)/d alpha ~ -alpha, so even the float nearest alpha_n
        # leaves a residual up to alpha * ulp(alpha)/2, over 1e-10 from n = 326 on
        assert cert.residual <= max(1e-10, cert.alpha * math.ulp(cert.alpha) / 2)
        # bracket strictly inside (n pi, n pi + pi/2), checked in high precision
        assert mp.mpf(cert.bracket.lo) > n * mp.pi
        assert mp.mpf(cert.bracket.hi) < (2 * n + 1) * mp.pi / 2
        # certified sign change with the parity of n
        sgn = 1 if n % 2 == 0 else -1
        assert sgn * float(mp.sin(mp.mpf(cert.bracket.lo)) - cert.bracket.lo * mp.cos(mp.mpf(cert.bracket.lo))) < 0
        assert sgn * float(mp.sin(mp.mpf(cert.bracket.hi)) - cert.bracket.hi * mp.cos(mp.mpf(cert.bracket.hi))) > 0

    def test_bracket_encloses_root(self):
        for n in (1, 5, 42, *LARGE_N):
            cert = find_alpha(n)
            root = mp.findroot(
                lambda t: mp.sin(t) - t * mp.cos(t), mp.mpf(cert.alpha), tol=mp.mpf("1e-35")
            )
            assert mp.mpf(cert.bracket.lo) <= root <= mp.mpf(cert.bracket.hi)

    def test_undecidable_sign_raises(self, monkeypatch):
        monkeypatch.setattr("holdercert.roots.phi_iv", lambda t: Interval(-1.0, 1.0))
        with pytest.raises(CertificationFailure):
            find_alpha.__wrapped__(3)  # bypass the memo, which may hold n = 3

    def test_memo_bit_identical(self):
        a = find_alpha(11)
        b = find_alpha(11)
        assert a is b
        assert isinstance(a, RootCertificate)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            find_alpha(0)
        with pytest.raises(ValueError):
            find_alpha(10_001)

    def test_theta_monotone_drift(self):
        thetas = [find_alpha(n).theta for n in range(1, 60)]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_point_estimate_is_the_newton_fixed_point(self):
        # the fixed point is the best float for alpha_n: no float neighbour
        # has a smaller tangent residual; theta is (2n+1) pi/2 - x correctly
        # rounded, with pi/2 as the kernel's rational
        def theta(n, x):
            return float((2 * n + 1) * Fraction(iv._HALF_PI_INT, 2**202) - Fraction(x))

        def residual(n, x):
            return abs(x * math.tan(theta(n, x)) - 1.0)

        for n in range(1, N_MAX + 1):
            cert = find_alpha(n)
            x = cert.alpha
            assert x - phi(x) / dphi(x) == x
            assert cert.theta.hex() == theta(n, x).hex()
            assert cert.residual == residual(n, x)
            assert cert.residual <= residual(n, math.nextafter(x, -math.inf))
            assert cert.residual <= residual(n, math.nextafter(x, math.inf))

    def test_tangent_identity(self):
        for n in (1, 2, 30, 200):
            cert = find_alpha(n)
            assert abs(cert.alpha * math.tan(cert.theta) - 1.0) <= 1e-10


class TestAngleChecks:
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 200])
    def test_upper_bounds_pass(self, n):
        results = check_theta_upper_bounds(n)
        assert len(results) == 3
        assert all(r.verdict == PASSED for r in results)
        assert all(r.margin > 0 for r in results)

    def test_margin_first_estimate_n1(self):
        # oracle: 1/alpha_1 - theta_1 = 3.5686359700e-3
        r = check_theta_upper_bounds(1)[0]
        assert r.margin == pytest.approx(3.5686359700401876e-3, abs=1e-8)

    def test_theta1_below_pi_14(self):
        # deduced remark used downstream: theta_1 < pi/14
        assert theta_interval(1).hi < math.pi / 14

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 200])
    def test_lower_bounds_pass(self, n):
        r = check_theta_lower_bounds(n)
        assert r.verdict == PASSED and r.margin > 0

    def test_lower_bound_margin_decays(self):
        # sin(theta_10) - 1/(10 pi + pi/2) = 1.39e-5, under 1e-3
        r = check_theta_lower_bounds(10)
        assert 0 < r.margin < 1e-3

    def test_eta_below_theta_n1(self):
        eta1 = 0.2138324258837723  # arcsin(1/(3 pi/2)), mpmath
        assert eta1 < THETA_ORACLE[1] < math.pi / 14

    @pytest.mark.parametrize("n", [1, 2, 50, 199, 200])
    def test_gap_pass(self, n):
        r = check_theta_gap(n)
        assert r.verdict == PASSED and r.margin > 0

    def test_gap_decided_up_to_the_verify_limit(self):
        # verify accepts n_max up to the last n whose gap lemma is decided
        assert VERIFY_N_MAX == 651
        assert check_theta_gap(651).verdict == PASSED
        assert check_theta_gap(652).verdict != PASSED

    def test_proven_negative_gap_fails(self, monkeypatch):
        # swap alpha_5 and alpha_6: the gap enclosure is then proved negative,
        # which is a failed check, not an undecided one
        monkeypatch.setattr("holdercert.roots.alpha_interval", lambda k: alpha_interval(11 - k))
        r = check_theta_gap(5)
        assert r.verdict == FAILED and r.margin < 0

    def test_gap_margin_n1(self):
        # pi/(alpha_1 alpha_2) - (theta_1 - theta_2) = 2.5291e-4 (oracle)
        r = check_theta_gap(1)
        assert r.margin == pytest.approx(2.5291e-4, rel=1e-3)

    def test_gap_threshold_constants(self):
        # the products the proof quotes: alpha_1 alpha_2 > 34.6, alpha_2 alpha_3 > 84.22
        a1, a2, a3 = (find_alpha(k).alpha for k in (1, 2, 3))
        assert math.pi / (a1 * a2) < math.pi / 34.6
        assert math.pi / (a2 * a3) < math.pi / 84.22


class TestCubicOvershoot:
    def test_checks_pass(self):
        results = check_cubic_overshoot()
        assert [r.verdict for r in results] == [PASSED, PASSED]

    def test_undecided_box_raises(self, monkeypatch):
        # a zero-straddling enclosure is bisected down to float resolution
        monkeypatch.setattr("holdercert.roots._overshoot_iv", lambda t: Interval(-1.0, 1.0))
        with pytest.raises(CertificationFailure, match="lemma 1.5"):
            check_cubic_overshoot()
        # and within a small budget it fails at the budget instead
        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 4)
        with pytest.raises(CertificationFailure, match="lemma 1.5"):
            check_cubic_overshoot()

    def test_point_values(self):
        # direct evaluations (mpmath oracle)
        p = lambda t: math.sin(t) - t * math.cos(t) - t**3 / 3.0
        assert p(0.5) == pytest.approx(-1.0324090076500245e-3, rel=1e-10)
        assert p(1.5) == pytest.approx(-0.23361081589749993, rel=1e-12)

    def test_leading_terms_cancel(self):
        # p -> 0 as t -> 0+ (boundary, non-strict)
        p = lambda t: math.sin(t) - t * math.cos(t) - t**3 / 3.0
        assert abs(p(1e-4)) < 1e-20
