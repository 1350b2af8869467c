"""Deterministic composite-Simpson quadrature used as the numeric oracle.

The panel count doubles until two successive refinements agree to a
quarter of REL_TOL, relative; the refinement order is fixed, so results
are bit-reproducible.  Each doubling evaluates f only at the new midpoints,
interleaved with the values it has, so each level equals a from-scratch rule.
"""

from __future__ import annotations

REL_TOL = 1e-12
MAX_PANELS = 2**22


class QuadratureBudgetExceeded(Exception):
    """Panel doubling cannot reach the tolerance: the budget ran out, or a Simpson value is not finite."""


def composite_simpson(f, a: float, b: float) -> float:
    """Integrate a vectorized callable f over [a, b] to REL_TOL.

    f must accept a numpy array and return an array of the same shape.
    """
    if a == b:
        return 0.0
    import numpy as np

    panels = 8
    y = f(np.linspace(a, b, 2 * panels + 1))
    prev = None
    while True:
        h = (b - a) / (2 * panels)
        cur = float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))
        if not np.isfinite(cur):
            raise QuadratureBudgetExceeded(f"Simpson value {cur} at {panels} panels is not finite")
        if prev is not None and abs(cur - prev) <= 0.25 * REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
        panels *= 2
        if panels > MAX_PANELS:
            raise QuadratureBudgetExceeded(f"no convergence to {REL_TOL:g} within {MAX_PANELS} panels")
        # 2 * panels is a power of two, so these are np.linspace's odd points bit for bit
        fine = np.empty(2 * panels + 1, y.dtype)
        fine[::2] = y
        fine[1::2] = f(np.arange(1, 2 * panels, 2) * ((b - a) / (2 * panels)) + a)
        y = fine
