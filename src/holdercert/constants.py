"""Per-interval oscillation constants and their certified bounds.

For consecutive roots alpha_n < alpha_{n+1} of phi, the squared per-interval
Holder constant is

    C_n = delta_n^2 / (pi^2 alpha_n^2 alpha_{n+1}^2)
          * [ (alpha_{n+1}^5 - alpha_n^5)/10 + delta_n F_n / 4 ],

with delta_n = alpha_{n+1} - alpha_n and
F_n = 1 + (alpha_n alpha_{n+1} - 1)/((1+alpha_n^2)(1+alpha_{n+1}^2)).
The bracket is I_n, the integral of u^4 sin^2 u over [alpha_n, alpha_{n+1}],
in closed form, so C_n = (1/pi^2)(1/alpha_n - 1/alpha_{n+1})^2 I_n, the
constant of Wirtinger's inequality on J_n.

Each row of the constants table is one interval computation from the certified
root brackets, and the Lemma 1.4 checks read their left sides from it; only
i_quad, the pure-Python float quadrature of I_n, is computed apart, as an oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import interval as iv
from .checks import CheckResult, analytic_pass, certified_less
from .interval import PI, Interval, decimal
from .quadrature import composite_simpson
from .roots import alpha_interval, find_alpha


def i_n_quad(n: int) -> float:
    """Quadrature oracle for I_n, independent of the closed form."""
    a = find_alpha(n).alpha
    b = find_alpha(n + 1).alpha
    return composite_simpson(lambda u: [x**4 * math.sin(x) ** 2 for x in u], a, b)


class ConstantsRow(NamedTuple):
    """One row of the constants table: certified enclosures, and the float i_quad."""

    n: int
    alpha_n: Interval
    alpha_np1: Interval
    delta: Interval
    i_closed: Interval
    i_quad: float
    g: Interval
    correction: Interval
    c: Interval


@lru_cache(maxsize=None)
def c_n(n: int) -> ConstantsRow:
    """Enclose the constants of row n: G_n and the correction are the prefactor
    times the two terms of I_n, and C_n is their sum."""
    a = alpha_interval(n)
    b = alpha_interval(n + 1)
    delta = b - a
    ff = 1 + (a * b - 1) / ((1 + a**2) * (1 + b**2))
    prefactor = delta**2 / (PI**2 * a**2 * b**2)
    quintic = (b**5 - a**5) / 10
    linear = delta * ff / 4
    g = prefactor * quintic
    correction = prefactor * linear
    return ConstantsRow(n, a, b, delta, quintic + linear, i_n_quad(n), g, correction, g + correction)


# (id, anchor, left side, bound) per row kind, formatted with n; the left side
# names a field of c_n's row, or "ratio" for delta_n^2/(alpha_n alpha_{n+1});
# the decimal bounds are built at import, which certifies nothing
_LATER_ROWS = (
    ("L1.4/ratio[n={n}]", "Lemma 1.4 proof: delta_n^2/(alpha_n alpha_n+1) < 0.12 [n={n}]", "ratio", decimal(0.12)),
    ("L1.4/corr[n={n}]", "Lemma 1.4 proof: correction term < 0.00012 [n={n}]", "correction", decimal(0.00012)),
    ("L1.4/C[n={n}]", "Lemma 1.4: C_n < 2 [n={n}]", "c", 2),
)
_SUITE_ROWS = {
    1: (
        ("L1.4/ratio[n=1]", "Lemma 1.4 proof: delta_1^2/(alpha_1 alpha_2) < 0.302", "ratio", decimal(0.302)),
        ("L1.4/corr[n=1]", "Lemma 1.4 proof: correction term < 0.00080 (n=1)", "correction", decimal(0.00080)),
        ("L1.4/G1", "Lemma 1.4 proof: G_1 < 2.259", "g", decimal(2.259)),
        ("L1.4/C1", "Lemma 1.4: C_1 < 2.26", "c", decimal(2.26)),
    ),
    2: _LATER_ROWS + (("L1.4/C2", "Lemma 1.4 proof assembly: C_2 < 1.83012", "c", decimal(1.83012)),),
}


def check_constants_suite(n_max: int) -> list[CheckResult]:
    """Certify every numeric landmark of the constants lemma up to n_max.

    Product lower bounds, the delta^2/(alpha alpha') caps, the correction
    caps, and C_1 < 2.26, C_2 < 1.83012, C_n < 2 -- all from interval
    endpoints, each decimal bound taken as its enclosure ``decimal``.
    """
    p12 = alpha_interval(1) * alpha_interval(2)
    p23 = alpha_interval(2) * alpha_interval(3)
    results = [
        certified_less("L1.4/a1a2", "Lemma 1.4 proof: alpha_1 alpha_2 > 34.6", decimal(34.6), p12),
        certified_less("L1.4/a2a3", "Lemma 1.4 proof: alpha_2 alpha_3 > 84.22", decimal(84.22), p23),
    ]
    for n in range(1, n_max + 1):
        row = c_n(n)
        sides = row._asdict() | {"ratio": row.delta**2 / (row.alpha_n * row.alpha_np1)}
        results += [
            certified_less(check_id.format(n=n), anchor.format(n=n), sides[side], bound)
            for check_id, anchor, side, bound in _SUITE_ROWS.get(n, _LATER_ROWS)
        ]
    return results


def tail_constant_certificate() -> list[CheckResult]:
    """Scalar chain giving C_n < 1.83012 uniformly for every n >= 2.

    Mirrors the constants-lemma argument so intervals beyond any finite
    search range are covered: alpha_n alpha_{n+1} > 84.22 for n >= 2
    (n = 2 is instance-certified; n >= 3 follows from alpha_n > n pi since
    12 pi^2 > 84.22), hence delta_n < pi (1 + 1/84.22) by the gap lemma,
    and the G and correction caps follow by monotone substitution.
    """
    p, r = decimal(84.22), decimal(0.12)
    g_cap, corr_cap = decimal(1.83), decimal(0.00012)
    one_over_p = 1 / p
    return [
        certified_less(
            "tail/12pi2",
            "Tail: alpha_n alpha_{n+1} >= 12 pi^2 > 84.22 for n >= 3 (alpha_n > n pi)",
            p,
            12 * PI**2,
        ),
        analytic_pass(
            "tail/delta",
            "Tail: delta_n < pi (1 + 1/84.22) for n >= 2, by Lemma 1.3 with the product bound",
        ),
        certified_less(
            "tail/ratio",
            "Tail: pi^2 (1 + 1/84.22)^2 / 84.22 < 0.12",
            PI**2 * (1 + one_over_p) ** 2 / p,
            r,
        ),
        certified_less(
            "tail/G",
            "Tail: (pi/2)(1 + 1/84.22)^3 (1 + 0.12 + 0.12^2/5) < 1.83",
            (PI / 2) * (1 + one_over_p) ** 3 * (1 + r + r**2 / 5),
            g_cap,
        ),
        certified_less(
            "tail/corr",
            "Tail: (pi/4)(1/84.22^2)(1 + 1/84.22)^2 (1 + 2/84.22) < 0.00012",
            (PI / 4) / p**2 * (1 + one_over_p) ** 2 * (1 + 2 * one_over_p),
            corr_cap,
        ),
        certified_less(
            "tail/C",
            "Tail: C_n < 1.83 + 0.00012 = 1.83012 < 2 for every n >= 2",
            g_cap + corr_cap,
            2,
        ),
    ]


TAIL_C_BOUND = decimal(1.83012)


def tail_sqrt_c_bound() -> float:
    """An upper bound on sqrt(1.83012), the uniform tail bound on sqrt(C_n), n >= 2."""
    return iv.sqrt(TAIL_C_BOUND).hi
