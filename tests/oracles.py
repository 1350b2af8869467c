"""Test oracles: float and brute-force reference computations that no
command runs.  The test modules import them as ``from oracles import ...``
(pytest puts ``tests/`` on ``sys.path``); this module holds no tests.

- ``classify_index``: the piece J_n that holds a point;
- ``remap``: the monotone remap of a cross-piece pair into one piece, which
  the proof's reduction to per-piece suprema rests on;
- ``ddf_iv``: an interval form of f'';
- ``interval_sup``: the per-piece search for one piece J_n, n >= 1;
- ``brute_grid_oracle``: the exhaustive grid maximum of the quotient;
- ``spot_check_max``: the quotient maximum over seeded random pairs;
- ``simpson_from_scratch``: the Romberg rule on Simpson levels, each level built anew;
- ``decimal_literals``: the decimal texts of a module's float literals, each
  read exactly (``Fraction``) and found inside its ``decimal`` enclosure.
"""

from __future__ import annotations

import ast
import inspect
import math
from fractions import Fraction

import numpy as np

from holdercert import interval as iv
from holdercert import quadrature
from holdercert.holder import (
    QuotientRecord,
    _piece_end,
    _recip,
    f,
    piece_bounds,
    quotient,
)
from holdercert.interval import DomainError, Interval, decimal
from holdercert.optimizer import ConfigError, _piece_sups
from holdercert.roots import N_MAX, find_alpha

ORACLE_RESOLUTION_CAP = 2**14


def ddf_iv(x: Interval) -> Interval:
    t = _recip(x)
    return -(iv.sin(t) * t**3)


# -- monotone remap ------------------------------------------------------------


def classify_index(x: float) -> int:
    """The n with x in J_n as piece_bounds gives it (0 for x >= 1/alpha_1)."""
    if x <= 0.0:
        raise DomainError(f"classify_index requires x > 0, got {x!r}")
    if x >= _piece_end(1):
        return 0
    t = 1.0 / x
    if t > (N_MAX + 1) * math.pi:
        raise DomainError(f"x={x!r} below the certified range (n > {N_MAX})")
    n = max(1, min(int((t - math.pi / 2) / math.pi), N_MAX - 1))
    while n < N_MAX and x < _piece_end(n + 1):
        n += 1
    while n > 1 and x >= _piece_end(n):
        n -= 1
    if n == N_MAX:
        raise DomainError(f"x={x!r} below the certified range (n > {N_MAX})")
    return n


class RemapFailure(Exception):
    """A cross-interval pair could not be remapped; indicates a defect
    in the root certificates rather than a property of f."""


_IMAGE_PAD = 1e-11  # stay clear of image-range endpoints when choosing m


def _image_range(m: int) -> tuple[float, float]:
    """Image of f over J_m (closure), from the certified angle estimates."""
    if m == 0:
        return -math.sin(find_alpha(1).theta), 1.0
    lo_img = f(1.0 / find_alpha(m + 1).alpha)
    hi_img = f(1.0 / find_alpha(m).alpha)
    if lo_img > hi_img:
        lo_img, hi_img = hi_img, lo_img
    return lo_img, hi_img


def _preimage(m: int, target: float, cap: float) -> float:
    """Bisect the monotone restriction of f to J_m for f(t) = target."""
    a, b = piece_bounds(m, max(cap, 1.0))
    fa, fb = f(a), f(b)
    increasing = fb >= fa
    lo_v, hi_v = (fa, fb) if increasing else (fb, fa)
    if not (lo_v - 1e-9 <= target <= hi_v + 1e-9):
        raise RemapFailure(
            f"target {target!r} outside image of J_{m} [{lo_v!r}, {hi_v!r}]"
        )
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if (f(mid) < target) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def remap(x: float, y: float) -> tuple[float, float]:
    """Map a cross-interval pair to an equal-image pair in one piece.

    Candidate pieces are the innermost admissible J_m (largest m between
    the pieces of y and x whose image safely contains both f-values) and
    the piece of y itself; each point is replaced by its preimage under
    the monotone restriction of f, and the shorter of the two candidate
    pairs wins.  In every boundary configuration at least one candidate
    is non-expanding, so the distance never increases and the pair's
    quotient can only grow.
    """
    if not 0.0 < x < y:
        raise DomainError(f"remap requires 0 < x < y, got ({x!r}, {y!r})")
    k = classify_index(y)
    l = classify_index(x)
    if k == l:
        return x, y
    fx, fy = f(x), f(y)
    m_best = k
    for cand in range(l, k, -1):
        lo_img, hi_img = _image_range(cand)
        if (
            lo_img + _IMAGE_PAD <= fx <= hi_img - _IMAGE_PAD
            and lo_img + _IMAGE_PAD <= fy <= hi_img - _IMAGE_PAD
        ):
            m_best = cand
            break

    def mapped(m: int) -> tuple[float, float]:
        x2 = x if m == l else _preimage(m, fx, cap=y)
        y2 = y if m == k else _preimage(m, fy, cap=y)
        return (x2, y2) if x2 <= y2 else (y2, x2)

    x2, y2 = mapped(m_best)
    if m_best != k:
        alt = mapped(k)
        if alt[1] - alt[0] < y2 - x2:
            x2, y2 = alt
    if y2 - x2 > (y - x) * (1.0 + 1e-9) + 1e-15:
        raise RemapFailure(
            f"remapped distance grew: ({x!r}, {y!r}) -> ({x2!r}, {y2!r})"
        )
    return x2, y2


# -- search oracles ------------------------------------------------------------


def interval_sup(n: int, grid_resolution: int = 512) -> tuple[float, QuotientRecord]:
    """Supremum of the quotient over J_n x J_n (n >= 1)."""
    if n < 1:
        raise ConfigError(f"interval_sup needs n >= 1, got {n}")
    if grid_resolution < 64:
        raise ConfigError(f"grid_resolution must be >= 64, got {grid_resolution}")
    best = _piece_sups(range(n, n + 1), grid_resolution, 8.0, 0.5)[0]
    return best.q, best


def brute_grid_oracle(
    n: int, resolution: int, x_cap: float = 8.0
) -> tuple[float, QuotientRecord]:
    """Exhaustive quotient max over a uniform grid with `resolution`
    subintervals per axis (so doubling the resolution nests the grid).
    No refinement; validation oracle for interval_sup."""
    if resolution > ORACLE_RESOLUTION_CAP:
        raise ConfigError(f"resolution {resolution} beyond oracle cap {ORACLE_RESOLUTION_CAP}")
    lo, hi = piece_bounds(n, x_cap)
    xs = np.linspace(lo, hi, resolution + 1)
    fv = xs * np.sin(1.0 / xs)
    best_q, best_x, best_y = -1.0, lo, hi
    block = 512
    for start in range(0, len(xs) - 1, block):
        stop = min(start + block, len(xs) - 1)
        i = np.arange(start, stop)[:, None]
        j = np.arange(0, len(xs))[None, :]
        mask = j > i
        d = np.where(mask, xs[None, :] - xs[i], 1.0)
        vals = np.where(mask, np.abs(fv[None, :] - fv[i]) / np.sqrt(d), -1.0)
        flat = int(np.argmax(vals))
        bi, bj = divmod(flat, vals.shape[1])
        if vals[bi, bj] > best_q:
            best_q = float(vals[bi, bj])
            best_x, best_y = float(xs[start + bi]), float(xs[bj])
    return best_q, QuotientRecord(n, best_x, best_y, quotient(best_x, best_y))


def spot_check_max(n_pairs: int, lo: float, hi: float, seed: int = 20240901) -> float:
    """Max quotient over random pairs in [lo, hi]^2 (seeded, vectorized)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n_pairs)
    y = rng.uniform(lo, hi, n_pairs)
    keep = x != y
    x, y = x[keep], y[keep]
    fx = x * np.sin(1.0 / x)
    fy = y * np.sin(1.0 / y)
    return float(np.max(np.abs(fy - fx) / np.sqrt(np.abs(y - x))))


# -- quadrature ------------------------------------------------------------------


def simpson_from_scratch(f, a: float, b: float) -> float:
    """``composite_simpson`` with each level evaluated on its whole grid: the
    running sums are rebuilt from that level's values, the odd points of each
    earlier level taken by stride, and the Romberg table extrapolates the
    Simpson values; the nested rule must return the same float.  Reads the
    budget and tolerance from ``holdercert.quadrature`` per call."""
    if a == b:
        return 0.0
    panels, row = 8, []
    while True:
        k = panels.bit_length() - 4  # the level: panels = 8 * 2**k
        h = (b - a) / (2 * panels)
        y = f(quadrature.Points([a + i * h for i in range(2 * panels)] + [b]))
        even = math.fsum(y[2 ** (k + 1) : -1 : 2 ** (k + 1)])  # the even points of level 0
        for j in range(k):  # then the odd points of levels 0 .. k - 1
            even += math.fsum(y[2 ** (k - j) :: 2 ** (k - j + 1)])
        prev, row = row, [h / 3.0 * (y[0] + y[-1] + 4.0 * math.fsum(y[1::2]) + 2.0 * even)]
        for j, r in enumerate(prev):
            row.append(row[j] + (row[j] - r) / (4 ** (j + 2) - 1))
        if prev and abs(row[-1] - prev[-1]) <= 0.25 * quadrature.REL_TOL * max(abs(row[-1]), 1e-300):
            return row[-1]
        panels *= 2
        if panels > quadrature.MAX_PANELS:
            raise quadrature.QuadratureBudgetExceeded(f"no convergence within {panels // 2} panels")


def decimal_literals(module) -> list[str]:
    """The source text of every float literal of module, after checking that
    each is the direct argument of a ``decimal`` call whose interval encloses
    the exact decimal it is written as.  A bare float would be taken as a
    point, not as that decimal."""
    source = inspect.getsource(module)
    tree = ast.parse(source)
    args = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "decimal" and len(node.args) == 1
    }
    floats = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float]
    texts = [ast.get_source_segment(source, n) for n in floats]
    bare = [text for n, text in zip(floats, texts) if id(n) not in args]
    assert floats and not bare, bare
    for node, text in zip(floats, texts):
        box = decimal(node.value)
        assert Fraction(box.lo) <= Fraction(text) <= Fraction(box.hi), text
    return texts
