"""Deterministic composite-Simpson quadrature used as the numeric oracle.

The panel count doubles until two successive refinements agree to a
quarter of REL_TOL, relative; the refinement order is fixed, so results
are bit-reproducible.
"""

from __future__ import annotations

REL_TOL = 1e-12
MAX_PANELS = 2**22


class QuadratureBudgetExceeded(Exception):
    """Panel doubling hit the budget before reaching the tolerance."""


def composite_simpson(f, a: float, b: float) -> float:
    """Integrate a vectorized callable f over [a, b] to REL_TOL.

    f must accept a numpy array and return an array of the same shape.
    """
    if a == b:
        return 0.0
    import numpy as np

    def simpson(panels: int) -> float:
        x = np.linspace(a, b, 2 * panels + 1)
        y = f(x)
        h = (b - a) / (2 * panels)
        return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))

    panels = 8
    prev = simpson(panels)
    while True:
        panels *= 2
        if panels > MAX_PANELS:
            raise QuadratureBudgetExceeded(f"no convergence to {REL_TOL:g} within {MAX_PANELS} panels")
        cur = simpson(panels)
        scale = max(abs(cur), 1e-300)
        if abs(cur - prev) <= 0.25 * REL_TOL * scale:
            return cur
        prev = cur
