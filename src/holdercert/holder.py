"""The function f(x) = x sin(1/x), its Holder quotient, the structural checks
that reduce the global quotient bound to per-interval searches, and Wirtinger's
inequality (Lemma 1.6) on each piece, by the pure-Python quadrature oracle.

J_0 = [1/alpha_1, inf) and J_n = [1/alpha_{n+1}, 1/alpha_n) partition (0, 1/alpha_1];
f is monotone on each piece and its endpoint images (-1)^n sin(theta_n) shrink in
magnitude, which nests the images f(J_0) > f(J_1) > ... and makes cross-interval
pairs remappable into a single piece without increasing their distance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import interval as iv
from .checks import CheckResult, FAILED, PASSED, certified_less, certified_positive
from .interval import PI, DomainError, Interval
from .quadrature import composite_simpson
from .roots import alpha_interval, find_alpha, phi, phi_iv, theta_interval


# -- f and derivatives ---------------------------------------------------------


def f(x: float) -> float:
    """x sin(1/x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"f requires x > 0, got {x!r}")
    return x * math.sin(1.0 / x)


def df(x: float) -> float:
    """f'(x) = phi(1/x) = sin(1/x) - (1/x) cos(1/x)."""
    if x <= 0.0:
        raise DomainError(f"df requires x > 0, got {x!r}")
    return phi(1.0 / x)


def ddf(x: float) -> float:
    """f''(x) = -sin(1/x)/x^3."""
    if x <= 0.0:
        raise DomainError(f"ddf requires x > 0, got {x!r}")
    return -math.sin(1.0 / x) / x**3


def _recip(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise DomainError(f"interval form requires x > 0, got {x!r}")
    return 1 / x


def f_iv(x: Interval) -> Interval:
    return x * iv.sin(_recip(x))


def df_iv(x: Interval) -> Interval:
    return phi_iv(_recip(x))


# -- quotient records ----------------------------------------------------------


class QuotientRecord(NamedTuple):
    """The best pair x < y found on the piece J_n, and its quotient q."""

    n: int
    x: float
    y: float
    q: float


def _piece_end(k: int) -> float:
    """1/alpha_k as a float: every end of every piece J_n is one of these."""
    return 1.0 / find_alpha(k).alpha


def piece_bounds(n: int, x_cap: float) -> tuple[float, float]:
    """Ends of the piece J_n = [lo, hi); the unbounded J_0 is cut at x_cap."""
    return _piece_end(n + 1), x_cap if n == 0 else _piece_end(n)


def quotient(x: float, y: float, alpha_exp: float = 0.5) -> float:
    """Two-point quotient |f(x)-f(y)| / |y-x|^alpha_exp."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError("quotient requires x, y > 0")
    if x == y:
        raise DomainError("quotient requires x != y")
    if not 0.0 < alpha_exp <= 0.5:
        raise DomainError(f"alpha_exp must lie in (0, 1/2], got {alpha_exp!r}")
    return abs(f(x) - f(y)) / abs(y - x) ** alpha_exp


# -- Wirtinger (numerical oracle check) ---------------------------------------


def _wirtinger_sides(g_sq, dg_sq, a: float, b: float) -> tuple[float, float]:
    """Both sides of int g^2 <= ((b-a)/pi)^2 int (g')^2 over [a, b], by quadrature."""
    lhs = composite_simpson(g_sq, a, b)
    return lhs, ((b - a) / math.pi) ** 2 * composite_simpson(dg_sq, a, b)


def wirtinger_for_interval(n: int) -> CheckResult:
    """int g^2 <= ((b-a)/pi)^2 int (g')^2 for g = f' on [1/alpha_{n+1}, 1/alpha_n].

    Quadrature-based numerical check (g vanishes at both ends since the
    interval ends are stationary points of f).
    """
    lhs, rhs = _wirtinger_sides(
        lambda t: [phi(1.0 / x) ** 2 for x in t],
        lambda t: [(math.sin(1.0 / x) / x**3) ** 2 for x in t],
        *piece_bounds(n, math.inf),
    )
    verdict = PASSED if lhs < rhs else FAILED
    return CheckResult(
        f"L1.6/J[n={n}]",
        f"Lemma 1.6 (Wirtinger) for g = f' on J_n [n={n}]",
        verdict,
        rhs - lhs,
    )


def wirtinger_equality_case() -> CheckResult:
    """Equality case g(t) = sin(pi t) on [0, 1]: both sides must agree to 1e-9."""
    lhs, rhs = _wirtinger_sides(
        lambda t: [math.sin(math.pi * x) ** 2 for x in t],
        lambda t: [(math.pi * math.cos(math.pi * x)) ** 2 for x in t],
        0.0,
        1.0,
    )
    dev = abs(lhs / rhs - 1.0)
    return CheckResult(
        "L1.6/equality",
        "Lemma 1.6 equality case, g = sine arch on [0, 1]: ratio = 1 +/- 1e-09",
        PASSED if dev <= 1e-9 else FAILED,
        1e-9 - dev,
    )


# -- concave envelope: f(x) <= sqrt(2 (x - 1/pi)) on [1/pi, inf) ----------------

# region edges of the envelope proof, as float points
_TANGENT_END = 0.45
_CHORD_END = 1.5


def check_envelope() -> list[CheckResult]:
    """Certify f(x) <= sqrt(2 (x - 1/pi)) on [1/pi, inf) in three regions,
    plus the concavity of f that the first one uses; one interval verdict each.

    Tangent, [1/pi, t]: f'' = -sin(1/x)/x^3 <= 0, f(1/pi) = sin(pi)/pi = 0 and
    f'(1/pi) = phi(pi), so f(x) <= phi(pi) (x - 1/pi) <= sqrt(2 (x - 1/pi))
    while phi(pi)^2 (x - 1/pi) <= 2, which is checked at x = t.
    Chord, [t, c]: f(x) <= x < sqrt(2 (x - 1/pi)) iff 2x - x^2 - 2/pi > 0;
    that is concave in x, so its two ends prove it on the whole region.
    Far, [c, inf): f(x) < 1 (sin u < u) and 1 < 2 (c - 1/pi).
    """
    inv_pi = 1 / PI
    t, c = Interval.point(_TANGENT_END), Interval.point(_CHORD_END)

    def chord(x: Interval) -> Interval:
        return x * 2 - x**2 - inv_pi * 2

    return [
        certified_less(
            "P2.3/regime1",
            f"Prop 2.3, (2.10) on [1/pi, {_TANGENT_END:g}]: f below its tangent phi(pi)(x-1/pi) at 1/pi,"
            " given f(1/pi) = sin(pi)/pi = 0",
            phi_iv(PI) ** 2 * (t - inv_pi),
            Interval.point(2.0),
        ),
        certified_positive(
            "P2.3/regime2",
            f"Prop 2.3, (2.10) on [{_TANGENT_END:g}, {_CHORD_END:g}]: f(x) <= x < sqrt(2(x-1/pi))",
            chord(t),
            chord(c),
        ),
        certified_less(
            "P2.3/regime3",
            f"Prop 2.3, (2.10) on [{_CHORD_END:g}, inf): f(x) < 1 < sqrt(2(x-1/pi))",
            Interval.point(1.0),
            (c - inv_pi) * 2,
        ),
        # sin(1/x) > 0 strictly inside; the sub-ulp edge [1/pi, (1/pi).hi]
        # holds since x >= 1/pi <=> 1/x <= pi
        certified_positive(
            "P2.3/concavity",
            f"Prop 2.3: f'' <= 0 on [1/pi, {_TANGENT_END:g}] (sin(1/x) >= 0; boundary analytic)",
            iv.sin(1 / Interval(inv_pi.hi, _TANGENT_END)),
        ),
    ]


# -- image nesting -------------------------------------------------------------


def check_nesting(n_count: int) -> list[CheckResult]:
    """Certify sin theta_{n+1} < sin theta_n and the alternating endpoint
    signs f(1/alpha_n) = (-1)^n sin theta_n; this is the checkable core of
    the image nesting f(J_0) > f(J_1) > ...
    """

    def signed_image(n: int) -> Interval:
        """(-1)^n f(1/alpha_n): positive iff f(1/alpha_n) has sign (-1)^n."""
        img = f_iv(1 / alpha_interval(n))
        return img if n % 2 == 0 else -img

    results: list[CheckResult] = []
    sin_next = iv.sin(theta_interval(1))
    for n in range(1, n_count):
        sin_n, sin_next = sin_next, iv.sin(theta_interval(n + 1))  # each sin theta_n enclosed once
        results.append(
            certified_positive(
                f"T2.4/nesting[n={n}]",
                f"Thm 2.4, (2.16): image of J_{{n}} contains image of J_{{n+1}} [n={n}]",
                sin_n - sin_next,
                signed_image(n),
            )
        )
    results.append(
        certified_positive(
            f"T2.4/sign[n={n_count}]",
            f"Thm 2.4 proof: f(1/alpha_n) has sign (-1)^n [n={n_count}]",
            signed_image(n_count),
        )
    )
    return results
