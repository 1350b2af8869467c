"""Deterministic composite-Simpson quadrature used as the numeric oracle.

The panel count doubles until two successive refinements agree to a
quarter of the requested relative tolerance; the refinement order is
fixed, so results are bit-reproducible.
"""

from __future__ import annotations


class QuadratureBudgetExceeded(Exception):
    """Panel doubling hit the budget before reaching the tolerance."""


def composite_simpson(f, a: float, b: float, rel_tol: float = 1e-12, max_panels: int = 2**22) -> float:
    """Integrate a vectorized callable f over [a, b].

    f must accept a numpy array and return an array of the same shape.
    """
    if not 1e-14 <= rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in [1e-14, 1e-6], got {rel_tol:g}")
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
        if panels > max_panels:
            raise QuadratureBudgetExceeded(
                f"no convergence to rel_tol={rel_tol:g} within {max_panels} panels"
            )
        cur = simpson(panels)
        scale = max(abs(cur), 1e-300)
        if abs(cur - prev) <= 0.25 * rel_tol * scale:
            return cur
        prev = cur
