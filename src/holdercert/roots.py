"""Certified roots of phi(t) = sin t - t cos t and the angle estimates.

For each n >= 1 the equation phi(t) = 0 has exactly one solution alpha_n
in (n pi, n pi + pi/2); writing alpha_n = n pi + pi/2 - theta_n gives an
angle theta_n in (0, pi/2) with alpha_n * tan(theta_n) = 1.  The points
1/alpha_n are the stationary points of x*sin(1/x), so everything
downstream hangs off these certificates.

Certification is Newton-then-sign: a float Newton estimate of the root,
then certified interval signs of phi just left and right of it, so the
intermediate value theorem puts alpha_n inside that bracket.  The parity
of n fixes which end is negative ((-1)^n * phi increases through the
root).  No monotonicity of phi itself is assumed, only the certified sign
change inside (n pi, n pi + pi/2), where the root is unique.
"""

from __future__ import annotations

import math
from typing import NamedTuple
from functools import lru_cache

from . import interval as iv
from .checks import CheckResult, certified_chain, certified_less, certified_positive
from .interval import HALF_PI, PI, Interval

N_MAX = 10_000
BRACKET_WIDTH_TARGET = 1e-12
NEWTON_STEPS = 20


class CertificationFailure(Exception):
    """A sign change could not be certified; signals a kernel defect."""


def phi(t: float) -> float:
    """Point evaluation of sin t - t cos t."""
    return math.sin(t) - t * math.cos(t)


def dphi(t: float) -> float:
    """Derivative of phi: t sin t."""
    return t * math.sin(t)


def phi_iv(t: Interval) -> Interval:
    """Interval enclosure of phi."""
    return iv.sin(t) - t * iv.cos(t)


class RootCertificate(NamedTuple):
    """Certified bracket for alpha_n plus point estimate and angle data."""

    n: int
    bracket: Interval
    alpha: float
    theta: float
    residual: float


def _half_odd_pi(n: int) -> Interval:
    """Enclosure of (2n+1) pi/2, the right end of the root's range."""
    return (Interval.point(2 * n + 1) * PI) / 2


def _certified_end(x: float, step: float, limit: float, sgn: float, n: int) -> float:
    """First of x + step, x + 2 step, x + 4 step, ... (clamped at limit, which
    lies on the side step points to) where sgn*phi is certified positive."""
    while True:
        t = min(x + step, limit) if step > 0 else max(x + step, limit)
        if (phi_iv(Interval.point(t)) * sgn).lo > 0.0:
            return t
        if t == limit:
            raise CertificationFailure(f"no certified sign change for n={n} up to {limit!r}")
        step *= 2


@lru_cache(maxsize=None)
def find_alpha(n: int) -> RootCertificate:
    """Certify the unique root of phi in (n pi, n pi + pi/2).

    Deterministic: float Newton from c - 1/c, c = (2n+1) pi/2, to its fixed
    point, which is the point estimate alpha; then the certified signs of
    phi at alpha -/+ w, w = 1e-12/4, doubling w on a side whose sign is not
    proved (never past the ends of the range).  The bracket is at most
    1e-12 wide, or two ulps of alpha_n when that is larger.  theta is minus
    alpha's remainder against its nearest quarter turn, 2n + 1 since 0 <
    theta_n < 1/(n pi) < pi/4: (2n+1) pi/2 - alpha correctly rounded, with
    pi/2 to within 2^-160, so the tangent residual stays tiny for all n.
    """
    if not (1 <= n <= N_MAX):
        raise ValueError(f"n must be in [1, {N_MAX}], got {n}")
    sgn = 1.0 if n % 2 == 0 else -1.0  # sgn * phi = (-1)^n * phi

    lo = (Interval.point(n) * PI).hi
    hi = _half_odd_pi(n).lo
    c = (2 * n + 1) * (math.pi / 2)
    x = c - 1.0 / c
    for _ in range(NEWTON_STEPS):
        x_next = x - phi(x) / dphi(x)
        if x_next == x:
            break
        x = x_next
    x = min(max(x, lo), hi)
    w = BRACKET_WIDTH_TARGET / 4
    a = _certified_end(x, -w, lo, -sgn, n)
    b = _certified_end(x, w, hi, sgn, n)
    theta = -iv.reduce_half_pi(x)[0]
    residual = abs(x * math.tan(theta) - 1.0)
    return RootCertificate(n=n, bracket=Interval(a, b), alpha=x, theta=theta, residual=residual)


def alpha_interval(n: int) -> Interval:
    return find_alpha(n).bracket


def theta_interval(n: int) -> Interval:
    """Certified enclosure of theta_n = (2n+1) pi/2 - alpha_n."""
    return _half_odd_pi(n) - find_alpha(n).bracket


# -- certified angle estimates ------------------------------------------------


def check_theta_upper_bounds(n: int) -> list[CheckResult]:
    """The three upper estimates for theta_n.

    (1.1): theta_n < 1/alpha_n < 1/(n pi)
    (1.2): theta_n < (1 + theta_n^2) / (n pi + pi/2)
    (1.3): theta_n < A - sqrt(A^2 - 1), A = (2n+1) pi / 4
    """
    th = theta_interval(n)
    bracket = alpha_interval(n)
    inv_alpha = 1 / bracket
    inv_npi = 1 / (Interval.point(n) * PI)
    r1 = certified_chain(
        f"L1.1/eq1.1[n={n}]",
        f"Lemma 1.1, (1.1): theta_n < 1/alpha_n < 1/(n pi) [n={n}]",
        th,
        inv_alpha,
        inv_npi,
    )
    r2 = certified_less(
        f"L1.1/eq1.2[n={n}]",
        f"Lemma 1.1, (1.2): theta_n < (1+theta_n^2)/(n pi + pi/2) [n={n}]",
        th,
        (1 + th**2) / _half_odd_pi(n),
    )
    big_a = (Interval.point(2 * n + 1) * PI) / 4
    r3 = certified_less(
        f"L1.1/eq1.3[n={n}]",
        f"Lemma 1.1, (1.3): theta_n < A - sqrt(A^2-1), A=(2n+1)pi/4 [n={n}]",
        th,
        big_a - iv.sqrt(big_a**2 - 1),
    )
    return [r1, r2, r3]


def check_theta_lower_bounds(n: int) -> CheckResult:
    """Lemma 1.2: theta_n > sin theta_n > 1/(n pi + pi/2), and the sharper
    (1.4-5): theta_n > arcsin(1/(n pi + pi/2))."""
    th = theta_interval(n)
    inv_c = 1 / _half_odd_pi(n)
    sin_th = iv.sin(th)
    return certified_positive(
        f"L1.2[n={n}]",
        f"Lemma 1.2 incl. (1.4-5): theta_n > sin theta_n > 1/(n pi + pi/2) [n={n}]",
        sin_th - inv_c,
        th - sin_th,
        th - iv.asin(inv_c),
    )


def check_theta_gap(n: int) -> CheckResult:
    """Lemma 1.3, (1.5): 0 < theta_n - theta_{n+1} < pi/(alpha_n alpha_{n+1}).

    The gap is evaluated through the arctangent subtraction identity
    theta_n - theta_{n+1} = atan(delta_n / (1 + alpha_n alpha_{n+1})),
    which is exact for the true roots (tan theta_k = 1/alpha_k) and keeps
    the enclosure width ~delta-bracket/alpha^2.  Subtracting the two theta
    enclosures directly would be hopeless: the true margin of the upper
    bound decays like pi^3/(3 (alpha_n alpha_{n+1})^3).
    """
    bn = alpha_interval(n)
    bn1 = alpha_interval(n + 1)
    product = bn * bn1
    gap = iv.atan((bn1 - bn) / (1 + product))
    return certified_positive(
        f"L1.3[n={n}]",
        f"Lemma 1.3, (1.5): 0 < theta_n - theta_{{n+1}} < pi/(alpha_n alpha_{{n+1}}) [n={n}]",
        gap,
        PI / product - gap,
    )


# -- Lemma 1.5: sin t - t cos t < t^3/3 on (0, pi/2) -------------------------


def check_cubic_overshoot() -> list[CheckResult]:
    """Lemma 1.5: p(t) = sin t - t cos t - t^3/3 < 0 on (0, pi/2).

    From the sine and cosine series, p(t)/t^5 = sum_{k>=2} (-1)^(k+1) b_k
    with b_k = 2k t^(2k-4)/(2k+1)!, and b_{k+1}/b_k = t^2/(2k(2k+3)) <=
    t^2/28.  Where t^2 < 28 the terms shrink, so the alternating-series
    bound gives p(t)/t^5 < -1/30 + t^2/840 < 0.  Both left sides grow with t,
    so each fact is checked once, at t = pi/2: no sin, no cos, no boxes.
    """
    t2 = HALF_PI**2
    tail = certified_less(
        "L1.5/tail",
        "Lemma 1.5: the series terms of p(t)/t^5 shrink, ratio t^2/(2k(2k+3)) <= t^2/28 < 1 on (0, pi/2]",
        t2 / 28,
        1,
    )
    main = certified_less(
        "L1.5/main",
        "Lemma 1.5: sin t - t cos t - t^3/3 < t^5 (t^2/840 - 1/30) < 0 on (0, pi/2), alternating series",
        t2 / 840,
        Interval.point(1) / 30,
    )
    return [tail, main]
