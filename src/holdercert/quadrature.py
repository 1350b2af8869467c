"""Deterministic Romberg quadrature on nested Simpson levels, the numeric oracle.

The panel count starts at 8 and doubles, evaluating f only at the new midpoints;
math.fsum running sums of the ends, odd and even points give each level's Simpson
value, and the Romberg table extrapolates it until two successive diagonal values
agree to a quarter of REL_TOL, relative.  The operation order is fixed, so results
are bit-reproducible: they depend on libm and math.fsum only."""

from __future__ import annotations

import math

REL_TOL = 1e-12
MAX_PANELS = 2**22


class QuadratureBudgetExceeded(Exception):
    """Panel doubling cannot reach the tolerance: the budget ran out, or a Simpson value is not finite."""


class Points(list):
    """One level's abscissae; ``size`` is their count, as for an array."""

    size = property(len)


def _fsum(y) -> float:
    try:
        return math.fsum(y)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum past the largest double
        return math.nan


def composite_simpson(f, a: float, b: float) -> float:
    """Integrate f over [a, b] to REL_TOL: f maps a level's abscissae, as ``Points``, to a list of values."""
    if a == b:
        return 0.0
    panels, h = 8, (b - a) / 16
    y = f(Points([a + i * h for i in range(16)] + [b]))
    ends, odd, even, row = y[0] + y[-1], _fsum(y[1::2]), _fsum(y[2:-1:2]), []
    while True:
        prev, row = row, [h / 3.0 * (ends + 4.0 * odd + 2.0 * even)]
        if not math.isfinite(row[0]):
            raise QuadratureBudgetExceeded(f"Simpson value {row[0]} at {panels} panels is not finite")
        for j, r in enumerate(prev):  # R[k, j+1] = R[k, j] + (R[k, j] - R[k-1, j]) / (4^(j+2) - 1)
            row.append(row[j] + (row[j] - r) / (4 ** (j + 2) - 1))
        if prev and abs(row[-1] - prev[-1]) <= 0.25 * REL_TOL * max(abs(row[-1]), 1e-300):
            return row[-1]
        panels, h, even = 2 * panels, h / 2, even + odd
        if panels > MAX_PANELS:
            raise QuadratureBudgetExceeded(f"no convergence to {REL_TOL:g} within {MAX_PANELS} panels")
        odd = _fsum(f(Points([a + i * h for i in range(1, 2 * panels, 2)])))
