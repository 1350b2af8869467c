"""Optimizer: stationary pairs, per-piece suprema, the grid oracle, and the
reduced global search.  Frozen pair coordinates come from 30-digit mpmath
root finding on the stationarity system."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holdercert.optimizer as opt
from holdercert.checks import PASSED
from holdercert.holder import df, f, piece_bounds, quotient
from holdercert.optimizer import (
    ConfigError,
    _coordinate_descent,
    _grid_sweep,
    _piece_sups,
    critical_pair,
    global_sup,
)
from holdercert.roots import N_MAX, find_alpha
from oracles import brute_grid_oracle, interval_sup, remap, spot_check_max

SQRT2 = math.sqrt(2.0)

# mpmath stationary pairs of the quotient system
J1_PAIR = (0.13535569515687987, 0.1995902029527764, 1.229935162149012)
J0_PAIR = (0.23657412924451518, 0.6151429168983874, 1.3383624629937394)


def stationarity_residual(x: float, y: float) -> float:
    s = (f(y) - f(x)) / (2.0 * (y - x))
    return max(abs(df(x) - df(y)), abs(df(x) - s))


class TestCriticalPairs:
    def test_j1_pair(self):
        rec = critical_pair(1)
        assert rec is not None
        assert rec.x == pytest.approx(J1_PAIR[0], abs=1e-9)
        assert rec.y == pytest.approx(J1_PAIR[1], abs=1e-9)
        assert rec.q == pytest.approx(J1_PAIR[2], rel=1e-10)
        assert rec.provenance == "newton"
        assert stationarity_residual(rec.x, rec.y) <= 1e-10

    def test_j1_localization(self):
        rec = critical_pair(1)
        half_inv_2pi = 1.0 / (2.0 * math.pi)
        assert rec.x < half_inv_2pi < rec.y
        assert abs(df(rec.x)) <= math.pi
        assert abs(df(rec.x) - df(rec.y)) <= 1e-10

    def test_j0_pair(self):
        rec = critical_pair(0)
        assert rec is not None
        assert rec.x == pytest.approx(J0_PAIR[0], abs=1e-9)
        assert rec.y == pytest.approx(J0_PAIR[1], abs=1e-9)
        assert rec.q == pytest.approx(J0_PAIR[2], rel=1e-10)
        assert stationarity_residual(rec.x, rec.y) <= 1e-10

    def test_j0_slope_window(self):
        rec = critical_pair(0)
        assert 0.0 < df(rec.x) <= math.pi / 2
        assert df(rec.x) == pytest.approx(df(rec.y), abs=1e-10)

    def test_j0_unconditional_localization(self):
        rec = critical_pair(0)
        assert rec.x < 4.0 / (5.0 * math.pi)
        assert rec.y > 13.0 / (8.0 * math.pi)
        assert rec.y > 7.0 / (4.0 * math.pi)

    def test_bad_n(self):
        with pytest.raises(ConfigError):
            critical_pair(-1)


class TestIntervalSup:
    def test_endpoint_pair_value(self):
        # (sin theta_1 + sin theta_2) / sqrt(1/alpha_1 - 1/alpha_2)
        c1, c2 = find_alpha(1), find_alpha(2)
        expected = (math.sin(c1.theta) + math.sin(c2.theta)) / math.sqrt(
            1.0 / c1.alpha - 1.0 / c2.alpha
        )
        assert expected == pytest.approx(1.1326696141125898, rel=1e-12)
        rec = quotient(1.0 / c2.alpha, 1.0 / c1.alpha)
        assert rec.q == pytest.approx(expected, rel=1e-12)

    def test_sup_1_bounds(self):
        sup1, _ = interval_sup(1, 256)
        assert sup1 <= math.sqrt(2.26)
        assert sup1 <= SQRT2  # the sharper per-piece bound

    def test_sup_2_bound(self):
        sup2, _ = interval_sup(2, 256)
        assert sup2 <= math.sqrt(1.83012)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_agreement(self, n):
        sup_n, _ = interval_sup(n, 512)
        oracle, _ = brute_grid_oracle(n, 2048)
        assert abs(sup_n - oracle) <= 1e-4
        assert sup_n >= oracle - 1e-12  # refinement never loses to the grid

    def test_oracle_monotone_in_resolution(self):
        vals = [brute_grid_oracle(1, r)[0] for r in (256, 512, 1024)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_oracle_cap(self):
        with pytest.raises(ConfigError):
            brute_grid_oracle(1, 2**15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            interval_sup(0)
        with pytest.raises(ConfigError):
            interval_sup(1, 32)


class TestSearchDominates:
    """Grid sweep + coordinate descent is never beaten by the stationary
    pair or by the endpoint pair of the piece (ties count)."""

    @pytest.mark.parametrize("x_cap", [8.0, 4.0 / math.pi])
    @pytest.mark.parametrize("resolution", [64, 512])
    def test_search_dominates_stationary_and_endpoint_pairs(self, resolution, x_cap):
        for n, best in enumerate(_piece_sups(range(21), resolution, x_cap, 0.5)):
            q = best.q
            rec = critical_pair(n)
            if rec is not None:
                assert q >= rec.q, n
            if n >= 1:
                assert q >= quotient(*piece_bounds(n, x_cap)).q, n


# -- the per-piece search as it was before batching, kept as the reference ----


def _grid_scan_ref(lo: float, hi: float, points: int, alpha_exp: float) -> tuple[float, float]:
    xs = np.linspace(lo, hi, points)
    fv = xs * np.sin(1.0 / xs)
    best_q, best_x, best_y = -1.0, lo, hi
    for i in range(points - 1):
        d = xs[i + 1 :] - xs[i]
        vals = np.abs(fv[i + 1 :] - fv[i]) / d**alpha_exp
        j = int(np.argmax(vals))
        if vals[j] > best_q:
            best_q, best_x, best_y = float(vals[j]), float(xs[i]), float(xs[i + 1 + j])
    return best_x, best_y


def _coordinate_descent_ref(
    x: float, y: float, lo: float, hi: float, h0: float, alpha_exp: float
) -> tuple[float, float]:
    def num_d(px: float, py: float) -> tuple[float, float]:
        if not (lo <= px < py <= hi):
            return math.nan, 1.0  # a NaN quotient: marked -1 below
        return abs(f(py) - f(px)), py - px

    h = h0
    for _ in range(50):
        for axis in (0, 1):
            base = x if axis == 0 else y
            grid = [base + h * (k - 8) / 8.0 for k in range(17)]
            nums, ds = zip(*(num_d(g, y) if axis == 0 else num_d(x, g) for g in grid))
            vals = np.array(nums) / np.array(ds) ** alpha_exp
            vals[np.isnan(vals)] = -1.0
            k = int(np.argmax(vals))
            if axis == 0:
                x = grid[k] if vals[k] >= 0 else x
            else:
                y = grid[k] if vals[k] >= 0 else y
        h *= 0.5
    return x, y


def _assert_search_matches_reference(bounds, resolution, alpha_exp):
    starts = _grid_sweep(bounds, resolution, alpha_exp)
    assert len(starts) == len(bounds)
    h0 = [(hi - lo) / (resolution - 1) for lo, hi in bounds]
    pairs = _coordinate_descent(starts, bounds, h0, alpha_exp)
    assert len(pairs) == len(bounds)
    for (lo, hi), (gx, gy), h, got in zip(bounds, starts, h0, pairs):
        assert (gx, gy) == _grid_scan_ref(lo, hi, resolution, alpha_exp), (lo, hi)
        assert got == _coordinate_descent_ref(gx, gy, lo, hi, h, alpha_exp), (lo, hi)


class TestBatchedSearchReference:
    """The pruned, batched grid sweep gives every piece the start pair of
    the full per-piece scan, and the lockstep descent the pair of the
    scalar one, bit for bit."""

    @pytest.mark.parametrize("resolution", [64, 512])
    @pytest.mark.parametrize("alpha_exp", [0.5, 0.35, 0.25])
    @pytest.mark.parametrize("x_cap", [4.0 / math.pi, 8.0, 50.0])
    def test_pieces_match_reference(self, x_cap, alpha_exp, resolution):
        bounds = [piece_bounds(n, x_cap) for n in range(31)]
        _assert_search_matches_reference(bounds, resolution, alpha_exp)

    @pytest.mark.parametrize("alpha_exp", [0.5, 0.35])
    def test_split_across_blocks(self, monkeypatch, alpha_exp):
        monkeypatch.setattr(opt, "_SWEEP_BLOCK_POINTS", 3 * 64)  # 3 pieces per block
        bounds = [piece_bounds(n, 8.0) for n in range(31)]
        _assert_search_matches_reference(bounds, 64, alpha_exp)

    def test_all_pieces_match_the_row_scan(self):
        bounds = [piece_bounds(n, 8.0) for n in range(201)]
        starts = _grid_sweep(bounds, 512, 0.35)
        assert starts == [_grid_scan_ref(lo, hi, 512, 0.35) for lo, hi in bounds]

    @pytest.mark.parametrize("resolution", [64, 65, 200])
    def test_ulp_narrow_pieces_match_reference(self, resolution):
        # the grid repeats points: 0/0 quotients, and rows that hold one lose
        bounds = [(lo, lo + k * math.ulp(lo)) for lo in (0.05, 0.3, 1.7) for k in (1, 5, 63, 1000)]
        with np.errstate(invalid="ignore", divide="ignore"):
            for alpha_exp in (0.5, 0.35):
                _assert_search_matches_reference(bounds, resolution, alpha_exp)

    def test_flat_pieces_tie_to_the_first_pair(self):
        # far out f rounds to 1.0 or its lower neighbour: quotients tie
        bounds = [(1e8, 2e8), (1e12, 3e12), (5e15, 6e15)]
        for alpha_exp in (0.5, 0.25):
            _assert_search_matches_reference(bounds, 64, alpha_exp)

    def test_nan_grid_keeps_the_piece_ends(self):
        # an infinite end makes the grid NaN; no quotient beats -1
        with np.errstate(invalid="ignore"):
            _assert_search_matches_reference([(0.5, math.inf), (0.2, 0.3)], 64, 0.5)

    def test_descent_evaluates_f_only_at_the_moving_coordinate(self, monkeypatch):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return f(x)

        monkeypatch.setattr(opt, "f", counted)
        _piece_sups(range(11), 64, 8.0, 0.5)
        # the lockstep descent evaluates the moving coordinate's probes as
        # arrays, so no scalar f call is left
        assert calls == 0

    def test_nan_quotients_never_win(self):
        # at h = inf the right probes sit at y = inf, where f is NaN
        bounds, starts = [(0.5, math.inf)], [(0.5, 1.0)]
        got = _coordinate_descent(starts, bounds, [math.inf], 0.5)
        assert got == [_coordinate_descent_ref(0.5, 1.0, 0.5, math.inf, math.inf, 0.5)] == [(0.5, 1.0)]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.floats(min_value=0.01, max_value=10.0),
            ).filter(lambda t: t[0] != t[1]),
            min_size=1,
            max_size=3,
        ),
        st.floats(min_value=0.05, max_value=0.5),
        st.sampled_from([64, 65, 200]),
    )
    def test_arbitrary_pieces_match_reference(self, ends, alpha_exp, resolution):
        # f is not monotone on such pieces: the pruning may not rely on it
        bounds = [(min(a, b), max(a, b)) for a, b in ends]
        _assert_search_matches_reference(bounds, resolution, alpha_exp)


def _assert_descent_matches_reference(starts, bounds, h0, alpha_exp):
    got = _coordinate_descent(starts, bounds, h0, alpha_exp)
    want = [_coordinate_descent_ref(x, y, lo, hi, h, alpha_exp) for (x, y), (lo, hi), h in zip(starts, bounds, h0)]
    assert got == want


@pytest.mark.parametrize("alpha_exp", [0.5, 0.35, 0.05])
class TestSettlingDescent:
    """Pieces leave the descent once no probe can move them; the pairs are
    the scalar descent's, bit for bit."""

    @staticmethod
    def _j0(x_cap, alpha_exp):
        bounds = [piece_bounds(0, x_cap)]
        return _grid_sweep(bounds, 512, alpha_exp), bounds

    def test_zero_step(self, alpha_exp):
        bounds = [piece_bounds(n, 8.0) for n in range(6)]
        _assert_descent_matches_reference(_grid_sweep(bounds, 64, alpha_exp), bounds, [0.0] * 6, alpha_exp)

    def test_step_below_half_an_ulp(self, alpha_exp):
        starts, bounds = self._j0(8.0, alpha_exp)
        [(x, y)] = starts
        h = min(math.ulp(x), math.ulp(y)) / 4  # every probe rounds to the start
        assert x + h == x - h == x and y + h == y - h == y
        _assert_descent_matches_reference(starts, bounds, [h], alpha_exp)

    def test_steps_of_half_an_ulp(self, alpha_exp):
        # x +- h and y +- h may round to a neighbour on a tie, and below a
        # power of two the spacing halves: such pieces still move
        u = 2.0**-53  # the ulp on [0.5, 1)
        starts = [(0.5, 0.75), (0.5, 0.75 + u), (0.5 + 2 * u, 0.75 + 3 * u), (0.6 + u, 0.9), (0.6 + 3 * u, 0.9 + 2 * u)]
        pieces = len(starts)
        _assert_descent_matches_reference(starts, [(0.25, 1.0)] * pieces, [u / 2] * pieces, alpha_exp)
        moved = [_coordinate_descent_ref(x, y, 0.25, 1.0, u / 2, alpha_exp) != (x, y) for x, y in starts]
        assert any(moved) and not all(moved)

    def test_j0_cut_at_50(self, alpha_exp):
        # the last piece to settle: its wide start step keeps it in the
        # descent up to the 50-round cap
        starts, bounds = self._j0(50.0, alpha_exp)
        lo, hi = bounds[0]
        _assert_descent_matches_reference(starts, bounds, [(hi - lo) / 511], alpha_exp)

    def test_pieces_settle_in_different_rounds(self, alpha_exp):
        # on J_0 cut at 8 an ulp is 2^-55..2^-50: these pieces settle at
        # rounds 0, 0, 16-17, 36-37 and 48-49
        starts, bounds = self._j0(8.0, alpha_exp)
        h0 = [0.0, 2.0**-60, 2.0**-40, 2.0**-20, 2.0**-8]
        _assert_descent_matches_reference(starts * 5, bounds * 5, h0, alpha_exp)

    def test_flat_far_pieces(self, alpha_exp):
        bounds = [(1e8, 2e8), (1e12, 3e12), (5e15, 6e15)]
        h0 = [(hi - lo) / 63 for lo, hi in bounds]
        _assert_descent_matches_reference(_grid_sweep(bounds, 64, alpha_exp), bounds, h0, alpha_exp)


class TestSweepPruning:
    """Every pair in a tile pair the sweep drops is below its lower bound,
    and the lower bound is a grid entry."""

    @staticmethod
    def _grids(rng, kind, pieces, points):
        if kind == "f":
            ends = np.sort(rng.uniform(0.01, 10.0, (pieces, 2)), axis=1)
            xs = np.stack([np.linspace(lo, hi, points) for lo, hi in ends])
            return xs, xs * np.sin(1.0 / xs)
        # uneven spacing and a random walk: no structure of f to lean on
        xs = np.cumsum(rng.uniform(0.1, 1.0, (pieces, points)), axis=1)
        fv = np.cumsum(rng.standard_normal((pieces, points)), axis=1)
        if kind == "spikes":  # a gentle walk with steep points off lb's subgrid
            fv = 0.01 * fv + 10.0 * (rng.random((pieces, points)) < 0.05) * (np.arange(points) % opt._LB_STRIDE != 0)
        return xs, fv

    @staticmethod
    def _kept(xs, fv, alpha_exp):
        """lb, and which pairs (i, j) of each grid lie in a kept leaf."""
        pieces, points = xs.shape
        pad = ((0, 0), (0, -points % 64))  # whole 64-point tiles, as the sweep pads
        xp, fp = np.pad(xs, pad, mode="edge"), np.pad(fv, pad, mode="edge")
        lb, li, lj = opt._leaf_tiles(xp, fp, points, alpha_exp)
        leaves, k = xp.shape[1] // 8, np.arange(8)
        kept = np.zeros((pieces, xp.shape[1], xp.shape[1]), dtype=bool)
        rows, cols = (t[:, None] % leaves * 8 + k for t in (li, lj))
        kept[(li // leaves)[:, None, None], rows[:, :, None], cols[:, None, :]] = True
        return lb, kept[:, :points, :points]

    @pytest.mark.parametrize("kind", ["f", "walk", "spikes"])
    @pytest.mark.parametrize("alpha_exp", [0.5, 0.35, 0.05])
    def test_skipped_pairs_are_below_the_bound(self, kind, alpha_exp):
        # 65, 120 and 200 points end in a partial tile
        rng = np.random.default_rng(20240)
        for points in (64, 65, 120, 200):
            xs, fv = self._grids(rng, kind, 20, points)
            lb, kept = self._kept(xs, fv, alpha_exp)
            i, j = np.triu_indices(points, 1)
            vals = opt._quotients(xs[:, i], fv[:, i], xs[:, j], fv[:, j], alpha_exp)
            assert (vals == lb[:, None]).any(axis=1).all()  # lb is a grid entry, bit for bit
            dropped = ~kept[:, i, j]
            assert dropped.any()
            assert np.all(vals[dropped] < np.broadcast_to(lb[:, None], vals.shape)[dropped])

    def test_degenerate_grids_are_scanned_in_full(self):
        xs = np.tile(np.linspace(0.1, 2.0, 65), (4, 1))
        fv = xs * np.sin(1.0 / xs)
        xs[1, -1] = math.inf  # an infinite end
        fv[2, 5] = math.nan  # a NaN value off lb's subgrid
        xs[3, 6], fv[3, 6] = xs[3, 5], fv[3, 5]  # a repeated point
        with np.errstate(invalid="ignore"):
            _, kept = self._kept(xs, fv, 0.5)
        i, j = np.triu_indices(65, 1)
        assert not kept[0, i, j].all()  # the regular grid is pruned
        assert kept[1:, i, j].all()

    def test_search_evaluates_under_a_tenth_of_the_pairs(self, monkeypatch):
        evaluated = 0
        quotients = opt._quotients

        def counted(*args):
            nonlocal evaluated
            vals = quotients(*args)
            evaluated += vals.size
            return vals

        monkeypatch.setattr(opt, "_quotients", counted)
        bounds = [piece_bounds(n, 8.0) for n in range(201)]
        opt._grid_sweep(bounds, 512, 0.5)
        assert evaluated < 0.07 * len(bounds) * 512 * 511 / 2

    def test_sweep_working_memory(self):
        # what the block and chunk sizes are for: the process's peak memory
        bounds = [piece_bounds(n, 8.0) for n in range(201)]
        opt._grid_sweep(bounds, 512, 0.35)
        tracemalloc.start()
        try:
            opt._grid_sweep(bounds, 512, 0.35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_descent_drops_settled_pieces(self, monkeypatch):
        bounds = [piece_bounds(n, 8.0) for n in range(201)]
        h0 = [(hi - lo) / 511 for lo, hi in bounds]
        starts = opt._grid_sweep(bounds, 512, 0.5)
        probes = 0
        sin = np.sin

        def counted(v):
            nonlocal probes
            probes += np.size(v)
            return sin(v)

        monkeypatch.setattr(np, "sin", counted)  # the descent evaluates f at each probe
        opt._coordinate_descent(starts, bounds, h0, 0.5)
        every = len(bounds) * (50 * 2 * 17 + 2)  # 50 rounds of 17 probes per axis, and the start
        assert probes < 0.8 * every


class TestBoundaryExclusion:
    """Sign of the quotient partials on the edges of J_1 x J_1: the
    maximizer cannot sit on the boundary."""

    def test_partial_x_positive_at_left_edge(self):
        c1, c2 = find_alpha(1), find_alpha(2)
        a, b = 1.0 / c2.alpha, 1.0 / c1.alpha
        for k in range(1, 101):
            y = a + (b - a) * k / 102.0
            dphi_x = -df(a) / math.sqrt(y - a) + (f(a) - f(y)) / (2.0 * (y - a) ** 1.5)
            assert dphi_x > 0

    def test_partial_y_negative_at_right_edge(self):
        c1, c2 = find_alpha(1), find_alpha(2)
        a, b = 1.0 / c2.alpha, 1.0 / c1.alpha
        for k in range(1, 101):
            x = a + (b - a) * k / 102.0
            dphi_y = -df(b) / math.sqrt(b - x) - (f(x) - f(b)) / (2.0 * (b - x) ** 1.5)
            assert dphi_y < 0


class TestGlobalSup:
    def test_small_run(self):
        rep = global_sup(20, 8.0, 128)
        assert rep.sup_estimate <= SQRT2 + 1e-9
        assert rep.sup_estimate >= math.sqrt(2.0 / math.pi) - 1e-9
        assert rep.arg.q == rep.sup_estimate
        assert rep.bound_certificate == pytest.approx(math.sqrt(1.83012), rel=1e-12)
        assert all(r.verdict == PASSED for r in rep.tail_checks)
        assert [n for n, _ in rep.per_interval] == list(range(21))
        assert rep.sup_estimate == max(rec.q for _, rec in rep.per_interval)
        assert sum(rep.method_breakdown.values()) == 21

    @pytest.mark.parametrize(
        "alpha_exp, sup",
        [(0.5, 1.3383624629937396), (0.45, 1.278464974670082), (0.35, 1.186802177657369), (0.25, 1.129794033370045)],
    )
    def test_headline_estimates(self, alpha_exp, sup):
        # the search's default inputs, as `holdercert norm --alpha` runs them
        rep = global_sup(200, 8.0, 512, alpha_exp)
        assert rep.sup_estimate == pytest.approx(sup, rel=1e-15, abs=0.0)
        assert rep.arg == rep.per_interval[0][1]  # the maximum sits on J_0

    def test_per_interval_decreasing(self):
        rep = global_sup(10, 8.0, 256)
        sups = {n: rec.q for n, rec in rep.per_interval}
        assert sups[10] <= sups[2] + 1e-9

    def test_deterministic(self):
        a = global_sup(5, 8.0, 128)
        b = global_sup(5, 8.0, 128)
        assert a.sup_estimate == b.sup_estimate
        assert a.arg == b.arg
        assert a.per_interval == b.per_interval

    def test_resolution_stability(self):
        # refinement makes the estimate insensitive to the starting grid
        coarse = global_sup(10, 8.0, 128).sup_estimate
        fine = global_sup(10, 8.0, 512).sup_estimate
        assert abs(coarse - fine) <= 1e-3

    def test_nonstandard_exponent(self):
        rep = global_sup(3, 8.0, 128, alpha_exp=0.4)
        assert math.isfinite(rep.sup_estimate)
        assert rep.tail_checks == []
        assert rep.bound_certificate is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            global_sup(0)
        with pytest.raises(ConfigError):
            global_sup(5, x_cap=1.0)
        with pytest.raises(ConfigError):
            global_sup(5, grid_resolution=8)
        with pytest.raises(ConfigError):
            global_sup(5, alpha_exp=0.9)

    def test_resolution_range_is_bounded(self, monkeypatch):
        # the largest accepted grid still runs (81 MB peak for one piece) and agrees with the default
        rep = global_sup(1, 8.0, opt.RESOLUTION_MAX)
        assert rep.sup_estimate == pytest.approx(global_sup(1).sup_estimate, rel=0.0, abs=1e-12)

        def fail(*args):
            raise AssertionError("a piece was searched")

        monkeypatch.setattr(opt, "_piece_sups", fail)
        for resolution in (opt.RESOLUTION_MAX + 1, 2**20):
            with pytest.raises(ConfigError, match="grid_resolution"):
                global_sup(1, grid_resolution=resolution)

    def test_x_cap_range_is_the_decided_range(self, monkeypatch):
        # the largest accepted cap still gives the default estimate at the coarsest grid
        rep = global_sup(200, opt.X_CAP_MAX, 64)
        assert rep.sup_estimate == pytest.approx(global_sup().sup_estimate, rel=0.0, abs=1e-12)

        def fail(*args):
            raise AssertionError("a piece was searched")

        monkeypatch.setattr(opt, "_piece_sups", fail)
        for x_cap in (math.nextafter(opt.X_CAP_MAX, math.inf), 1e12, 1.7976931348623157e308):
            with pytest.raises(ConfigError, match="x_cap"):
                global_sup(5, x_cap=x_cap)

    def test_last_piece_needs_a_certified_root(self, monkeypatch):
        # J_N reads alpha_{N+1}, so N = N_MAX is rejected before any search
        def fail(*args):
            raise AssertionError("a piece was searched")

        monkeypatch.setattr("holdercert.optimizer._piece_sups", fail)
        with pytest.raises(AssertionError, match="searched"):
            global_sup(1)  # the patched entry point is on the search path
        with pytest.raises(ConfigError, match="n_intervals"):
            global_sup(N_MAX)


class TestReductionSoundness:
    def test_remapped_quotient_dominated(self):
        import random

        rng = random.Random(8675309)
        lo = 1.0 / find_alpha(30).alpha
        sup_cache: dict[int, float] = {}
        checked = 0
        for _ in range(500):
            x = rng.uniform(lo, 0.9)
            y = rng.uniform(lo, 0.9)
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            rec = quotient(x, y)
            if rec.interval_index != -1:
                continue
            checked += 1
            x2, y2 = remap(x, y)
            rec2 = quotient(x2, y2, provenance="remap")
            assert rec2.q >= rec.q - 1e-10
            k = rec2.interval_index
            assert k != -1
            if k >= 1:
                if k not in sup_cache:
                    sup_cache[k] = interval_sup(k, 128)[0]
                assert sup_cache[k] >= rec2.q - 1e-6
        assert checked > 50

    def test_spot_check_below_bound(self):
        assert spot_check_max(200_000, 1.0 / 630.0, 100.0) <= SQRT2 + 1e-9
