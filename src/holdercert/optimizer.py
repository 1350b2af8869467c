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
from typing import TYPE_CHECKING, NamedTuple

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
# Largest grid the sweep takes, the largest the tests and CI run end to end.  Its top level is 8
# tiles at any size, so its memory grows with the grid: global_sup(1, 8, R, 1/2) peaks at 33 MB
# RSS for R = 2^16 (29 MB at R = 64, most of it numpy), 36 MB for R = 2^17.
RESOLUTION_MAX = 2**16
_SWEEP_BLOCK_POINTS = 2**14  # grid points per sweep block: with _LEAF_CHUNK, sets the sweep's peak memory
_LEAF_CHUNK = 256  # leaf tile pairs per scan chunk
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
    x, y, _ = max(found, key=lambda t: (quotient(t[0], t[1]), -t[0], -t[1]))
    return QuotientRecord(n, x, y, quotient(x, y))


def _quotients(xa, fa, xb, fb, alpha_exp: float) -> np.ndarray:
    """The sweep's quotient |fb - fa| / (xb - xa)^alpha_exp.  The scan and
    its lower bound share this expression, so both give the same bits."""
    return abs(fb - fa) / (xb - xa) ** alpha_exp


def _leaf_tiles(xs: np.ndarray, fv: np.ndarray, n: int, alpha_exp: float) -> tuple[np.ndarray, ...]:
    """Which pairs of each piece's grid can hold its maximum.

    A row of xs, fv is a grid of n points padded to a power of two of at
    least 64 points (the last point repeated).  Returns (lb, li, lj): lb
    per piece, a grid entry, so at most the grid maximum (-inf on a grid
    of at most 8 points), and the kept leaf tile pairs li <= lj as flat
    indices of 8-point tiles (leaf t holds xs.flat[8t .. 8t + 7]).  Tile
    pairs start at an eighth of the padded width; each level drops the
    pairs past the grid's end, lets lb take in every pair's chord entry,
    keeps the pairs whose bound reaches lb and splits them 2 x 2, down to
    8 points.
    A tile's slope S is its largest adjacent slope, the one to the next
    tile included; the slopes of every level come from one pyramid of
    pairwise maxima.  Every quotient of a pair (I, I) is at most
    S w^(1-alpha), w the tile's width.  For a pair I < J, let a be I's
    last point and b J's first, N0 = |f(b) - f(a)|, d_min = b - a, and
    S_I, w_I and S_J, w_J the tiles' slopes and widths:
      a pair (x, y) in I x J has |df| <= N0 + S_I u_I + S_J u_J, where
      u_I = a - x and u_J = y - b;
      for a fixed u = u_I + u_J that is largest when u goes to the
      steeper tile s first, so it is piecewise linear in u with one break
      at w_s;
      on each linear piece, N0' + S' u, the quotient bound
      g(u) = (N0' + S' u) / (d_min + u)^alpha has g' of the sign of
      S' (1 - alpha) u + S' d_min - alpha N0', which is increasing in u,
      so g is largest at an end of the piece.
    So the pair's bound is the largest of three vertex values,
      N0 / d_min^alpha, (N0 + S_s w_s) / (d_min + w_s)^alpha and
      (N0 + S_I w_I + S_J w_J) / d_max^alpha,
    d_max from I's first point to J's last; each vertex's distance is the
    difference of its two grid points.  Its first term, the chord entry,
    is the grid entry from a to b, computed by ``_quotients`` as the scan
    does; on the diagonal it is NaN, which lb skips.  Bounds are widened
    by _SLACK, far more than the few ulps of float error in a bound or a
    scanned entry, so every pair left out is below lb; a NaN bound keeps
    its pair.  A piece whose grid is not finite and strictly increasing
    keeps every tile."""
    import numpy as np

    pieces, width = xs.shape
    dx = np.diff(xs[:, :n], axis=1)
    full = ~(np.isfinite(xs).all(axis=1) & np.isfinite(fv).all(axis=1) & (dx > 0).all(axis=1))
    with np.errstate(all="ignore"):  # NaN and inf are screened out by full
        slope = np.pad(np.abs(np.diff(fv[:, :n], axis=1)) / dx, ((0, 0), (0, width - n + 1))).ravel()
    lb = np.full(pieces, -np.inf)
    tiles, size = 8, width // 8
    for _ in range(3):  # pairwise maxima, down to one slope per 8-point tile
        slope = np.maximum(slope[::2], slope[1::2])
    smax, s = {8: slope}, 8  # smax[s][t]: the slope of s-point tile t
    while s < size:
        smax[2 * s], s = np.maximum(smax[s][::2], smax[s][1::2]), 2 * s
    ti, tj = np.triu_indices(tiles)
    fi, fj = (np.arange(pieces)[:, None] * tiles + t for t in (ti, tj))  # tile I of piece p is p * tiles + I
    while True:
        keep = (fi <= fj) & (fj % tiles * size < n)  # on and above the diagonal, J inside the grid
        fi, fj = fi[keep], fj[keep]
        piece = fi // tiles
        first, last = xs[:, ::size].ravel(), xs[:, size - 1 :: size].ravel()
        f_first, f_last = fv[:, ::size].ravel(), fv[:, size - 1 :: size].ravel()
        entry, bound = _pair_bounds(first, last, f_first, f_last, smax[size], fi, fj, alpha_exp)
        np.fmax.at(lb, piece, entry)
        keep = ~(bound * _SLACK < lb[piece]) | full[piece]
        fi, fj = fi[keep], fj[keep]
        if size == 8:
            return lb, fi, fj
        fi, fj = 2 * fi[:, None] + [0, 0, 1, 1], 2 * fj[:, None] + [0, 1, 0, 1]  # split each pair 2 x 2
        tiles, size = 2 * tiles, size // 2


def _pair_bounds(first, last, f_first, f_last, smax, fi, fj, alpha_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """The chord entry and the bound of each tile pair fi <= fj at one level
    of ``_leaf_tiles``, which derives the bound: tile t spans the grid from
    first[t] to last[t], where f is f_first[t] and f_last[t], and its slope
    is smax[t]."""
    import numpy as np

    x0, x1, y0, y1 = first[fi], last[fi], first[fj], last[fj]
    with np.errstate(all="ignore"):  # d_min < 0 on the diagonal: its chord entry is NaN
        entry = _quotients(x1, f_last[fi], y0, f_first[fj], alpha_exp)
        widths = last - first
        spread = smax * widths  # S w: how far f can move across a tile
        n0 = np.abs(f_first[fj] - f_last[fi])
        steep = smax[fi] >= smax[fj]  # I is the steeper tile s
        middle = (n0 + spread[np.where(steep, fi, fj)]) / np.where(steep, y0 - x0, y1 - x1) ** alpha_exp
        far = (n0 + spread[fi] + spread[fj]) / (y1 - x0) ** alpha_exp
        diagonal = (smax * widths ** (1.0 - alpha_exp))[fi]
        bound = np.where(fi == fj, diagonal, np.maximum(entry, np.maximum(middle, far)))
    return entry, bound


def _grid_sweep(bounds: list[tuple[float, float]], points: int, alpha_exp: float) -> list[tuple[float, float]]:
    """Best pair of each piece's points x points grid (upper triangle); one
    call per block of pieces frees a block's arrays before the next's.  Each
    grid is padded to a power of two, at least 64 points, so the top tiles
    of ``_leaf_tiles`` are whole; blocks count the padded points."""
    width = max(64, 1 << (points - 1).bit_length())
    block = max(1, _SWEEP_BLOCK_POINTS // width)
    blocks = (bounds[b : b + block] for b in range(0, len(bounds), block))
    return [pair for part in blocks for pair in _sweep_block(part, points, width, alpha_exp)]


def _sweep_block(
    bounds: list[tuple[float, float]], points: int, width: int, alpha_exp: float
) -> list[tuple[float, float]]:
    """``_grid_sweep`` of a block of pieces at once, each grid padded to
    width points.  It scans, in chunks, only the leaf tile pairs that
    ``_leaf_tiles`` keeps: every pair left out is below a grid entry,
    hence below the maximum.  The winner is the full row-by-row scan's
    pair, bit for bit: the largest quotient, ties to the first row, then
    the first column; a row holding a NaN quotient never wins (the row
    scan's argmax stops at the NaN)."""
    import numpy as np

    leaf = np.arange(8)
    below = (leaf[:, None] <= leaf)[:, :, None]  # [column, row, -]: masked in a leaf on the diagonal
    lo, hi = np.array(bounds).T
    # one linspace gives each row its own call's bits while every lo < hi, as global_sup's pieces
    # have (a row with lo == hi switches every row to another formula)
    xp = np.pad(np.linspace(lo, hi, points, axis=1), ((0, 0), (0, width - points)), mode="edge")
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
    best_x = np.where(won, xs[rows, at], lo)  # a NaN grid keeps its ends
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
    steps = (np.arange(17) - 8) / 8.0  # exact, so h * steps is h * (k - 8) / 8 bit for bit
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
                g = p[axis, :, None] + h[:, None] * steps
                fg = g * np.sin(1.0 / g)
                fg[:, 8] = fp[axis]  # probe 8 is the base point
                (x, y), (fx, fy) = p[:, :, None], fp[:, :, None]
                x, fx, y, fy = (g, fg, y, fy) if axis == 0 else (x, fx, g, fg)
                inside = (lo[:, None] <= x) & (x < y) & (y <= hi[:, None])
                q = _quotients(x, fx, y, fy, alpha_exp)
                np.copyto(q, -1.0, where=~(inside & (q >= 0)))  # q is >= 0 or NaN
                k = q.argmax(axis=1)
                moved = q[rows, k] > -1.0
                p[axis] = np.where(moved, g[rows, k], p[axis])
                fp[axis] = np.where(moved, fg[rows, k], fp[axis])
            h = h * 0.5
        out[:, live] = p
    return list(zip(*out.tolist()))


def _piece_sups(ns: range, grid_resolution: int, x_cap: float, alpha_exp: float) -> list[QuotientRecord]:
    """The record of each piece J_n, n in ns, its best pair: one grid sweep
    for all pieces, then one lockstep descent for all pieces."""
    bounds = [piece_bounds(n, x_cap) for n in ns]
    h0 = [(hi - lo) / (grid_resolution - 1) for lo, hi in bounds]
    starts = _grid_sweep(bounds, grid_resolution, alpha_exp)
    pairs = _coordinate_descent(starts, bounds, h0, alpha_exp)
    return [QuotientRecord(n, x, y, quotient(x, y, alpha_exp)) for n, (x, y) in zip(ns, pairs)]


class SupremumReport(NamedTuple):
    """Result of the reduced global search."""

    sup_estimate: float
    arg: QuotientRecord
    per_interval: list[QuotientRecord]  # J_0 .. J_N in order
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
    arg = min(records, key=lambda r: (-r.q, r.n, r.x, r.y))

    if alpha_exp == 0.5:
        tail = tail_constant_certificate() + _far_pair_certificates()
        bound = tail_sqrt_c_bound()
    else:
        tail = []
        bound = None
    return SupremumReport(
        sup_estimate=arg.q,
        arg=arg,
        per_interval=records,
        method_breakdown={"grid": n_intervals + 1},  # every piece is searched by the sweep and the descent
        bound_certificate=bound,
        tail_checks=tail,
        alpha_exp=alpha_exp,
    )
