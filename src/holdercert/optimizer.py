"""Global estimation of the Holder-1/2 quotient supremum.

The search mirrors the structure of the bound's proof: the quotient is
maximized per monotone piece (J_0 truncated at a cap, J_1..J_N), the
pieces beyond N are covered by the certified uniform constant bound
sqrt(C_n) <= sqrt(1.83012) < sqrt(2), and pairs reaching beyond the cap
are covered by two analytic certificates.  Cross-piece pairs never beat
the per-piece suprema because the monotone remap shrinks their distance
while preserving the image gap; the float remap in ``tests/oracles.py``
checks this on random cross pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .checks import CheckResult, analytic_pass, certified_less
from .constants import tail_constant_certificate, tail_sqrt_c_bound
from . import interval as iv
from .interval import PI
from .holder import QuotientRecord, df, ddf, f, piece_bounds, quotient
from .roots import N_MAX, theta_interval

if TYPE_CHECKING:
    import numpy as np


class ConfigError(Exception):
    """Inconsistent search parameters."""


STATIONARY_TOL = 1e-12
# Largest x_cap the search decides: the descent halves h0 ~ x_cap/(resolution - 1) 50 times,
# which keeps the estimate within 1e-12 up to here (1.5e-14 measured at resolutions 64 to
# 512, alpha 1/4 to 1/2) but not at 1e11 (1.3e-12 short at resolution 64, alpha 1/2).
X_CAP_MAX = 1e10
# Largest grid the sweep takes: its tile-pair arrays grow with the square of the tile
# count (global_sup(1, 8, R, 1/2) peaks at 81 MB for R = 2^16, 215 MB for R = 2^17).
RESOLUTION_MAX = 2**16
_SWEEP_BLOCK_POINTS = 2**14  # grid points per sweep block: with _LEAF_CHUNK, sets the sweep's peak memory
_LEAF_CHUNK = 256  # leaf tile pairs per scan chunk
_LB_STRIDE = 16  # the bound every kept tile pair must reach: the best pair of every 16th grid point
_TILES = (64, 32, 16, 8)  # the sweep's tile sizes, coarse to fine; 8-point leaves are scanned
_SLACK = 1.0 + 1e-9  # widening of the sweep's pruning bounds against float error


def _newton_refine(x: float, y: float, lo: float, hi: float) -> tuple[float, float, float] | None:
    """Damped Newton on the stationarity system inside [lo, hi]^2, x < y.

    F1 = f'(x) - f'(y) = 0,   F2 = f'(x) - (f(y)-f(x)) / (2 (y-x)) = 0.
    Returns (x, y, residual) or None on divergence / box exit.
    """

    def residual(px: float, py: float) -> tuple[float, float]:
        s = (f(py) - f(px)) / (2.0 * (py - px))
        return df(px) - df(py), df(px) - s

    for _ in range(100):
        if not (lo <= x < y <= hi):
            return None
        f1, f2 = residual(x, y)
        res = max(abs(f1), abs(f2))
        if res <= STATIONARY_TOL:
            return x, y, res
        s = (f(y) - f(x)) / (2.0 * (y - x))
        j11 = ddf(x)
        j12 = -ddf(y)
        ds_dx = (2.0 * s - df(x)) / (2.0 * (y - x))
        ds_dy = (df(y) - 2.0 * s) / (2.0 * (y - x))
        j21 = ddf(x) - ds_dx
        j22 = -ds_dy
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        step_x = (f1 * j22 - f2 * j12) / det
        step_y = (j11 * f2 - j21 * f1) / det
        lam = 1.0
        for _ in range(20):
            nx, ny = x - lam * step_x, y - lam * step_y
            if lo <= nx < ny <= hi:
                n1, n2 = residual(nx, ny)
                if max(abs(n1), abs(n2)) < res:
                    x, y = nx, ny
                    break
            lam *= 0.5
        else:
            return None
    f1, f2 = residual(x, y)
    res = max(abs(f1), abs(f2))
    return (x, y, res) if res <= STATIONARY_TOL else None


def critical_pair(n: int) -> QuotientRecord | None:
    """Best interior stationary pair of the quotient on a piece.

    Deterministic 5x5 grid of interior starts; the unbounded piece is cut
    at 4/pi, below every search cap (pairs reaching past 4/pi are covered
    by the analytic far-pair certificates, and the stationarity system has
    no interesting solutions out on the flat tail).
    """
    if n < 0:
        raise ConfigError(f"critical_pair needs n >= 0, got {n}")
    lo, hi = piece_bounds(n, 4.0 / math.pi)
    if n == 0:
        # interior pairs split around 1/pi (left of it f has the last lobe,
        # right of it f is concave); seed the two coordinates accordingly
        mid = 1.0 / math.pi
        x_starts = [lo + (mid - lo) * (i + 1) / 6.0 for i in range(5)]
        y_starts = [mid + (hi - mid) * (i + 1) / 6.0 for i in range(5)]
    else:
        x_starts = [lo + (hi - lo) * (i + 1) / 6.0 for i in range(5)]
        y_starts = x_starts
    found: list[tuple[float, float, float]] = []
    for sx in x_starts:
        for sy in y_starts:
            if sx >= sy:
                continue
            sol = _newton_refine(sx, sy, lo, hi)
            if sol is None:
                continue
            x, y, res = sol
            margin = 1e-9 * (hi - lo)
            if not (lo + margin < x < y - margin and y < hi - margin):
                continue  # boundary-stuck starts are not interior pairs
            if all(abs(x - u) > 1e-8 or abs(y - v) > 1e-8 for u, v, _ in found):
                found.append((x, y, res))
    if not found:
        return None
    best = max(found, key=lambda t: (quotient(t[0], t[1]).q, -t[0], -t[1]))
    return quotient(best[0], best[1], provenance="newton")


def _quotients(xa, fa, xb, fb, alpha_exp: float) -> np.ndarray:
    """The sweep's quotient |fb - fa| / (xb - xa)^alpha_exp.  The scan and
    its lower bound share this expression, so both give the same bits."""
    return abs(fb - fa) / (xb - xa) ** alpha_exp


def _leaf_tiles(xs: np.ndarray, fv: np.ndarray, n: int, alpha_exp: float) -> tuple[np.ndarray, ...]:
    """Which pairs of each piece's grid can hold its maximum.

    A row of xs, fv is a grid of n points padded to whole 64-point tiles
    (the last point repeated).  Returns (lb, li, lj): lb per piece, the
    best pair of every 16th grid point (a grid entry, so at most the grid
    maximum), and the kept leaf tile pairs li <= lj as flat indices of
    8-point tiles (leaf t holds xs.flat[8t .. 8t + 7]).  Tile pairs start
    at 64 points; each whose bound reaches lb splits 2 x 2, down to 8.
    Every quotient of a tile pair (I, J) is at most S d_max^(1-alpha), S
    the largest adjacent slope from I's first point to J's last, d_max
    their distance, and for J > I at most max(fmax_J - fmin_I, fmax_I -
    fmin_J) / d_min^alpha, d_min the distance from I's last point to J's
    first.  A child keeps its parent's S unless its tiles touch; then S is
    the larger of their own slopes (each including the one to the next
    tile).  Bounds are widened by _SLACK, far more than the few ulps of
    float error in a bound or a scanned entry, so every pair left out is
    below lb.  A piece whose grid is not finite and strictly increasing
    keeps every tile."""
    import numpy as np

    pieces, width = xs.shape
    sx, sf = xs[:, :n:_LB_STRIDE], fv[:, :n:_LB_STRIDE]
    dx = np.diff(xs[:, :n], axis=1)
    full = ~(np.isfinite(xs).all(axis=1) & np.isfinite(fv).all(axis=1) & (dx > 0).all(axis=1))
    with np.errstate(all="ignore"):  # NaN and inf are screened out by full
        # 8 rows of pairs at a time; fmax skips the NaN at and below the diagonal
        groups = (
            _quotients(sx[:, r : r + 8, None], sf[:, r : r + 8, None], sx[:, None, r:], sf[:, None, r:], alpha_exp)
            for r in range(0, sx.shape[1], 8)
        )
        lb = np.fmax.reduce([np.fmax.reduce(q, axis=(1, 2)) for q in groups])
        slope = np.pad(np.abs(np.diff(fv[:, :n], axis=1)) / dx, ((0, 0), (0, width - n + 1)))
    # per tile size: each tile's largest f, smallest f and largest slope
    stats, levels, size = (fv, fv, slope), {}, 1
    while size < _TILES[0]:
        stats = tuple(op(a[:, ::2], a[:, 1::2]) for op, a in zip((np.maximum, np.minimum, np.maximum), stats))
        size *= 2
        if size in _TILES:
            levels[size] = stats
    top = levels[_TILES[0]][2]
    ti, tj = np.triu_indices(top.shape[1])
    span = np.triu(np.broadcast_to(top[:, None, :], (pieces, top.shape[1], top.shape[1])))
    s = np.maximum.accumulate(span, axis=2)[:, ti, tj].ravel()  # S of tiles I..J
    base = np.arange(pieces)[:, None] * top.shape[1]
    fi, fj = (base + ti).ravel(), (base + tj).ravel()  # tile I of piece p is p * tiles + I
    for size in _TILES:
        fmax, fmin, smax = levels[size]
        tiles = fmax.shape[1]
        if size < _TILES[0]:  # split each kept pair 2 x 2, on and above the diagonal
            fi, fj = 2 * fi[:, None] + [0, 0, 1, 1], 2 * fj[:, None] + [0, 1, 0, 1]
            s = np.where(fj - fi <= 1, np.maximum(smax.take(fi), smax.take(fj)), s[:, None])
            keep = (fi <= fj) & (fj % tiles * size < n)
            fi, fj, s = fi[keep], fj[keep], s[keep]
        first, last = xs[:, ::size].ravel(), xs[:, size - 1 :: size].ravel()
        with np.errstate(all="ignore"):  # d_min < 0 on the diagonal: fmin drops that NaN term
            bound = np.fmin(
                s * (last[fj] - first[fi]) ** (1.0 - alpha_exp),
                np.maximum(fmax.take(fj) - fmin.take(fi), fmax.take(fi) - fmin.take(fj))
                / (first[fj] - last[fi]) ** alpha_exp,
            )
        keep = (bound * _SLACK >= lb[fi // tiles]) | full[fi // tiles]
        fi, fj, s = fi[keep], fj[keep], s[keep]
    return lb, fi, fj


def _grid_sweep(bounds: list[tuple[float, float]], points: int, alpha_exp: float) -> list[tuple[float, float]]:
    """Best pair of each piece's points x points grid (upper triangle); one
    call per block of pieces frees a block's arrays before the next's."""
    block = max(1, _SWEEP_BLOCK_POINTS // points)
    blocks = (bounds[b : b + block] for b in range(0, len(bounds), block))
    return [pair for part in blocks for pair in _sweep_block(part, points, alpha_exp)]


def _sweep_block(bounds: list[tuple[float, float]], points: int, alpha_exp: float) -> list[tuple[float, float]]:
    """``_grid_sweep`` of a block of pieces at once.  It scans, in chunks,
    only the leaf tile pairs that ``_leaf_tiles`` keeps: every pair left
    out is below a grid entry, hence below the maximum.  The winner is the
    full row-by-row scan's pair, bit for bit: the largest quotient, ties
    to the first row, then the first column; a row holding a NaN quotient
    never wins (the row scan's argmax stops at the NaN)."""
    import numpy as np

    leaf = np.arange(_TILES[-1])
    below = (leaf[:, None] <= leaf)[:, :, None]  # [column, row, -]: masked in a leaf on the diagonal
    xp = np.pad(  # whole top tiles, the last point repeated
        np.stack([np.linspace(lo, hi, points) for lo, hi in bounds]), ((0, 0), (0, -points % _TILES[0])), mode="edge"
    )
    fp = xp * np.sin(1.0 / xp)
    xs, fv = xp[:, :points], fp[:, :points]
    _, li, lj = _leaf_tiles(xp, fp, points, alpha_exp)
    row_max = np.full(xp.shape, -np.inf)
    with np.errstate(all="ignore"):  # pairs on or below the diagonal are masked
        for c in range(0, li.size, _LEAF_CHUNK):
            i, j = (leaf[:, None] + leaf.size * t[c : c + _LEAF_CHUNK] for t in (li, lj))
            # vals[k, r, t]: row r of leaf t against its column k; a column
            # past the grid's end repeats the last point, so no row max moves
            vals = _quotients(xp.take(i), fp.take(i), xp.take(j)[:, None], fp.take(j)[:, None], alpha_exp)
            np.copyto(vals, -np.inf, where=below & (i[0] == j[0]))
            np.maximum.at(row_max.ravel(), i, vals.max(axis=0))
        row_max[np.isnan(row_max)] = -np.inf
        rows, at = np.arange(len(xs)), row_max.argmax(axis=1)
        won = row_max[rows, at] > -np.inf
        vals = _quotients(xs[rows, at, None], fv[rows, at, None], xs, fv, alpha_exp)  # the winning rows
        vals[np.arange(points) <= at[:, None]] = -np.inf
    lo, hi = np.array(bounds).T  # a NaN grid keeps its ends
    best_x = np.where(won, xs[rows, at], lo)
    best_y = np.where(won, xs[rows, vals.argmax(axis=1)], hi)
    return list(zip(best_x.tolist(), best_y.tolist()))


def _coordinate_descent(
    starts: list[tuple[float, float]],
    bounds: list[tuple[float, float]],
    h0: list[float],
    alpha_exp: float,
) -> list[tuple[float, float]]:
    """Deterministic alternating 1-D refinement of each piece's quotient
    maximizer, all pieces in lockstep.

    Per piece and axis, probe k of 17 sits at base + h*(k-8)/8; only the
    moving coordinate is evaluated, the other's value is carried, and
    probe 8 reuses the base value.  The first maximal probe inside
    lo <= x < y <= hi wins; a piece with no inside probe (or only NaN
    quotients) keeps its coordinate.  f is g * np.sin(1/g), the operations
    of ``holder.f``, and a row's winner is decided by ``_quotients``, the
    sweep's expression; at alpha 1/2 numpy takes d**0.5 as the correctly
    rounded sqrt, so the decisions there do not depend on the platform's
    pow.  The reported q of a pair is ``holder.quotient``'s.

    A piece leaves the descent at the start of the first round in which
    x +- h and y +- h round to x and y: every probe of both axes then
    rounds to the base point, and h only shrinks, so its pair is final.
    """
    import numpy as np

    p = np.array([*zip(*starts)], dtype=float)  # p[0] holds each piece's x, p[1] its y
    lo, hi = np.array([*zip(*bounds)], dtype=float)
    h = np.array(h0, dtype=float)
    out = p.copy()
    live = np.arange(h.size)  # the pieces still in the descent
    with np.errstate(all="ignore"):  # probes outside the piece may be <= 0 or NaN
        fp = p * np.sin(1.0 / p)
        for _ in range(50):
            settled = ((p + h == p) & (p - h == p)).all(axis=0)
            if settled.any():
                out[:, live[settled]] = p[:, settled]
                live, p, fp, lo, hi, h = (v[..., ~settled] for v in (live, p, fp, lo, hi, h))
                if not live.size:
                    break
            rows = np.arange(live.size)
            for axis in (0, 1):
                g = p[axis, :, None] + h[:, None] * (np.arange(17) - 8) / 8.0
                fg = g * np.sin(1.0 / g)
                fg[:, 8] = fp[axis]  # probe 8 is the base point
                (x, y), (fx, fy) = p[:, :, None], fp[:, :, None]
                x, fx, y, fy = (g, fg, y, fy) if axis == 0 else (x, fx, g, fg)
                inside = (lo[:, None] <= x) & (x < y) & (y <= hi[:, None])
                q = _quotients(x, fx, y, fy, alpha_exp)
                q[~inside | np.isnan(q)] = -1.0
                k = q.argmax(axis=1)
                moved = q[rows, k] > -1.0
                p[axis] = np.where(moved, g[rows, k], p[axis])
                fp[axis] = np.where(moved, fg[rows, k], fp[axis])
            h = h * 0.5
        out[:, live] = p
    return list(zip(*out.tolist()))


def _piece_sups(ns: range, grid_resolution: int, x_cap: float, alpha_exp: float) -> list[QuotientRecord]:
    """Max of the quotient over each piece J_n, n in ns: one grid sweep
    for all pieces, then one lockstep descent for all pieces."""
    bounds = [piece_bounds(n, x_cap) for n in ns]
    h0 = [(hi - lo) / (grid_resolution - 1) for lo, hi in bounds]
    starts = _grid_sweep(bounds, grid_resolution, alpha_exp)
    pairs = _coordinate_descent(starts, bounds, h0, alpha_exp)
    return [quotient(x, y, alpha_exp, provenance="grid") for x, y in pairs]


@dataclass(frozen=True)
class SupremumReport:
    """Result of the reduced global search."""

    sup_estimate: float
    arg: QuotientRecord
    per_interval: list[tuple[int, QuotientRecord]]
    method_breakdown: dict[str, int]
    bound_certificate: float | None  # None off alpha 1/2: no certified bound
    tail_checks: list[CheckResult]
    alpha_exp: float


def _far_pair_certificates() -> list[CheckResult]:
    """Pairs beyond the cap: q <= (1 + sin theta_1)/sqrt(3/pi) < sqrt(2)
    once y - x >= 3/pi; closer far pairs live in the concave region where
    the envelope bound applies."""
    s1 = iv.sin(theta_interval(1))
    return [
        certified_less(
            "far/sep",
            "Far pairs, y - x >= 3/pi: (1 + sin theta_1)^2 < 6/pi = 2 * (3/pi)",
            (1 + s1) ** 2,
            6 / PI,
        ),
        analytic_pass(
            "far/close",
            "Far pairs, y - x < 3/pi with y > x_cap >= 4/pi: both points lie in "
            "[1/pi, inf) where the concave envelope gives |f(y)-f(x)| <= sqrt(2(y-x))",
        ),
    ]


def global_sup(
    n_intervals: int = 200,
    x_cap: float = 8.0,
    grid_resolution: int = 512,
    alpha_exp: float = 0.5,
) -> SupremumReport:
    """Reduce the global quotient search to per-piece searches.

    Pieces J_1..J_N and the truncated J_0 are searched directly; the
    n > N tail and the beyond-cap pairs are covered by certified bounds
    (recorded in tail_checks) when alpha_exp is the canonical 1/2.
    """
    if not 1 <= n_intervals <= N_MAX - 1:  # J_N reads alpha_{N+1}
        raise ConfigError(f"n_intervals must be in [1, {N_MAX - 1}], got {n_intervals}")
    if not 4.0 / math.pi <= x_cap <= X_CAP_MAX:  # also rejects NaN
        raise ConfigError(f"x_cap must be in [4/pi, {X_CAP_MAX:g}], got {x_cap!r}")
    if not 64 <= grid_resolution <= RESOLUTION_MAX:
        raise ConfigError(f"grid_resolution must be in [64, {RESOLUTION_MAX}], got {grid_resolution}")
    if not 0.0 < alpha_exp <= 0.5:
        raise ConfigError(f"alpha_exp must lie in (0, 1/2], got {alpha_exp!r}")

    records = _piece_sups(range(n_intervals + 1), grid_resolution, x_cap, alpha_exp)
    per_interval = list(enumerate(records))

    _, best_arg = min(per_interval, key=lambda t: (-t[1].q, t[0], t[1].x, t[1].y))
    breakdown = dict(Counter(arg.provenance for arg in records))

    if alpha_exp == 0.5:
        tail = tail_constant_certificate() + _far_pair_certificates()
        bound = tail_sqrt_c_bound()
    else:
        tail = []
        bound = None
    return SupremumReport(
        sup_estimate=best_arg.q,
        arg=best_arg,
        per_interval=per_interval,
        method_breakdown=breakdown,
        bound_certificate=bound,
        tail_checks=tail,
        alpha_exp=alpha_exp,
    )
