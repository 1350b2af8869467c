"""f, the quotient, Wirtinger, the envelope, nesting, and the remap."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from holdercert import holder, interval
from holdercert.checks import FAILED, PASSED, UNDECIDED, certified_less, certified_positive, prove_boxes, subdivide
from holdercert.holder import (
    ENVELOPE_X_MAX,
    check_envelope,
    check_nesting,
    ddf,
    df,
    df_iv,
    f,
    f_iv,
    piece_bounds,
    quotient,
    wirtinger_equality_case,
    wirtinger_for_interval,
)
from holdercert.interval import ARGUMENT_BUDGET, PI, ArgumentTooLarge, DomainError, Interval
from holdercert.quadrature import composite_simpson
from holdercert.roots import (
    alpha_interval,
    check_theta_gap,
    check_theta_lower_bounds,
    find_alpha,
    theta_interval,
)
from oracles import classify_index, ddf_iv, remap

SQRT2 = math.sqrt(2.0)


class TestFunction:
    def test_df_at_half_inv_2pi(self):
        # the steepest point of the first lobe: f'(1/(2 pi)) = -2 pi
        assert df(1.0 / (2.0 * math.pi)) == pytest.approx(-2.0 * math.pi, rel=1e-12)

    def test_at_2_over_pi(self):
        x = 2.0 / math.pi
        assert f(x) == pytest.approx(x, rel=1e-15)  # sin(pi/2) = 1
        assert df(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 200])
    def test_stationary_points(self, n):
        assert abs(df(1.0 / find_alpha(n).alpha)) <= 1e-10

    def test_domain(self):
        for fn in (f, df, ddf):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(-1.0)

    def test_interval_floor(self):
        # 1/x past the kernel's trig reduction budget is refused, not reduced
        for fn in (f_iv, df_iv):
            with pytest.raises(ArgumentTooLarge):
                fn(Interval.point(0.5 / ARGUMENT_BUDGET))

    def test_interval_encloses_point(self):
        rng = random.Random(77)
        for _ in range(2000):
            x = rng.uniform(1e-3, 10.0)
            a = Interval.point(x)
            assert f_iv(a).lo <= f(x) <= f_iv(a).hi
            assert df_iv(a).lo <= df(x) <= df_iv(a).hi
            assert ddf_iv(a).lo <= ddf(x) <= ddf_iv(a).hi

    def test_derivative_consistency(self):
        # central differences, step tuned to the x^-5 third-derivative scale
        rng = random.Random(2024)
        for _ in range(10_000):
            x = rng.uniform(1e-3, 10.0)
            h = 7e-6 * x * x
            fd1 = (f(x + h) - f(x - h)) / (2.0 * h)
            assert fd1 == pytest.approx(df(x), rel=1e-6, abs=1e-9)
            fd2 = (df(x + h) - df(x - h)) / (2.0 * h)
            assert fd2 == pytest.approx(ddf(x), rel=1e-6, abs=1e-6)

    def test_ddf_sign_change_at_inv_npi(self):
        for n in (1, 2, 5):
            c = 1.0 / (n * math.pi)
            assert ddf(c * (1 + 1e-6)) * ddf(c * (1 - 1e-6)) < 0


class TestQuotient:
    def test_tail_pair_vanishes(self):
        assert quotient(2.0 / math.pi, 1e9) == pytest.approx(1.1491091763546708e-5, rel=1e-9)

    def test_small_y_witness(self):
        # f(2/pi) = 2/pi exactly, so the pair approaches sqrt(2/pi)
        q = quotient(1e-12, 2.0 / math.pi)
        assert q == pytest.approx(0.7978845608042581, rel=1e-12)
        assert q == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-11)

    def test_below_global_bound(self):
        rng = random.Random(5)
        for _ in range(5000):
            x, y = rng.uniform(1e-2, 50.0), rng.uniform(1e-2, 50.0)
            if x == y:
                continue
            assert quotient(x, y) <= SQRT2 + 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            quotient(1.0, 1.0)
        with pytest.raises(DomainError):
            quotient(1.0, 2.0, alpha_exp=0.7)

    def test_normalizes_order(self):
        assert quotient(3.0, 1.0) == quotient(1.0, 3.0)
        assert quotient(3.0, 1.0, 0.25) == quotient(1.0, 3.0, 0.25)


class TestWirtinger:
    def test_equality_case_unit(self):
        r = wirtinger_equality_case()
        assert r.verdict == PASSED and r.margin > 0

    def test_equality_case_shifted(self):
        # the sine arch on [a, b]: both Wirtinger sides are (b - a)/2
        a, b = 0.3, 2.7
        w = b - a
        lhs = composite_simpson(lambda t: [math.sin(math.pi * (x - a) / w) ** 2 for x in t], a, b)
        rhs = (w / math.pi) ** 2 * composite_simpson(
            lambda t: [(math.pi / w * math.cos(math.pi * (x - a) / w)) ** 2 for x in t], a, b
        )
        assert abs(lhs / rhs - 1.0) <= 1e-9
        assert lhs == pytest.approx(w / 2, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 25, 50])
    def test_sides_match_mpmath(self, monkeypatch, n):
        # both sides within 1e-13 of 40-digit mpmath quadrature between the same float ends
        sides, both_sides = [], holder._wirtinger_sides

        def recording(*args):
            sides.append((args[2:], both_sides(*args)))
            return sides[-1][1]

        monkeypatch.setattr(holder, "_wirtinger_sides", recording)
        wirtinger_for_interval(n)
        [((a, b), (lhs, rhs))] = sides
        assert (a, b) == piece_bounds(n, math.inf)
        with mp.workdps(40):
            lo, hi = mp.mpf(a), mp.mpf(b)
            exact_lhs = mp.quad(lambda t: (mp.sin(1 / t) - mp.cos(1 / t) / t) ** 2, [lo, hi])
            exact_rhs = ((hi - lo) / mp.pi) ** 2 * mp.quad(lambda t: (mp.sin(1 / t) / t**3) ** 2, [lo, hi])
            assert abs(lhs - exact_lhs) <= mp.mpf("1e-13") * exact_lhs
            assert abs(rhs - exact_rhs) <= mp.mpf("1e-13") * exact_rhs

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
    def test_interval_inequality(self, n):
        r = wirtinger_for_interval(n)
        assert r.verdict == PASSED and r.margin > 0

    def test_known_gap_n1(self):
        # oracle: lhs = 1.65828802, rhs = 2.25634633
        r = wirtinger_for_interval(1)
        assert r.margin == pytest.approx(2.25634633 - 1.65828802, rel=1e-6)


class TestEnvelope:
    E1 = 1.0 / math.pi + 2.0 / math.pi**2
    E2 = 1.0 / math.pi + 0.5
    LO = (1 / PI).hi + 1e-3  # right end of the analytic strip

    @staticmethod
    def _start_and_leaves(monkeypatch, x_max):
        """Run check_envelope up to x_max; return its results, and the start
        boxes and leaves of each envelope regime's subdivide call."""
        calls = []

        def recording(margin, boxes):
            boxes = list(boxes)
            leaves = list(subdivide(margin, boxes))
            calls.append((boxes, [leaf for leaf, _ in leaves]))
            yield from leaves

        monkeypatch.setattr("holdercert.checks.subdivide", recording)
        monkeypatch.setattr("holdercert.holder.ENVELOPE_X_MAX", x_max)
        results = check_envelope()
        assert len(calls) == 4  # one per regime, then concavity
        return results, calls[:3]

    def test_all_pass(self):
        results = check_envelope()
        assert [r.check_id for r in results] == [
            "P2.3/regime1",
            "P2.3/regime2",
            "P2.3/regime3",
            "P2.3/concavity",
        ]
        assert all(r.verdict == PASSED for r in results)

    def test_pointwise_examples(self):
        inv_pi = 1.0 / math.pi
        # x = 2 (oracle values)
        assert f(2.0) == pytest.approx(0.958851077208406, rel=1e-12)
        assert math.sqrt(2.0 * (2.0 - inv_pi)) == pytest.approx(1.83395207888113, rel=1e-12)
        # third regime entry point
        x = inv_pi + 0.51
        assert f(x) < 1.0 < math.sqrt(2.0 * (x - inv_pi))
        # boundary: both sides vanish at 1/pi
        assert abs(f(inv_pi)) < 1e-15

    def test_x_max_validation(self):
        # every regime, the third included, needs a proved box
        assert self.E2 < ENVELOPE_X_MAX < math.inf

    def test_strip_reaches_the_first_box(self, monkeypatch):
        # the mean-value strip certified by pi^2 * width < 2 must cover
        # [1/pi, first box), which is a little wider than 1e-3
        certified = []

        def recording(check_id, anchor, lhs, rhs):
            certified.append((check_id, lhs))
            return certified_less(check_id, anchor, lhs, rhs)

        monkeypatch.setattr("holdercert.holder.certified_less", recording)
        results, regime_calls = self._start_and_leaves(monkeypatch, ENVELOPE_X_MAX)
        assert all(r.verdict == PASSED for r in results)
        [(check_id, lhs)] = certified
        assert check_id == "P2.3/regime1"
        first_box = regime_calls[0][0][0]
        pi_lo = Fraction(PI.lo)  # pi >= pi_lo, so pi^2 (lo - 1/pi) >= this
        width = pi_lo**2 * (Fraction(first_box.lo) - 1 / pi_lo)
        assert Fraction(lhs.hi) >= width > Fraction(PI.hi) ** 2 * Fraction(1e-3)

    @pytest.mark.parametrize("x_max", [8.0, 2.0])
    def test_start_boxes_are_the_regimes(self, monkeypatch, x_max):
        results, regime_calls = self._start_and_leaves(monkeypatch, x_max)
        assert len(results) == 4 and all(r.verdict == PASSED for r in results)
        assert [[(b.lo, b.hi) for b in start] for start, _ in regime_calls] == [
            [(self.LO, self.E1)],
            [(self.E1, self.E2)],
            [(self.E2, x_max)],
        ]
        leaves = sorted((leaf for _, call_leaves in regime_calls for leaf in call_leaves), key=lambda b: b.lo)
        assert leaves[0].lo == self.LO and leaves[-1].hi == x_max
        assert all(a.hi == b.lo for a, b in zip(leaves, leaves[1:]))
        # every leaf lies in one regime
        for leaf in leaves:
            for e in (self.E1, self.E2):
                assert leaf.hi <= e or leaf.lo >= e

    def test_few_f_evaluations(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            return f_iv(x)

        monkeypatch.setattr("holdercert.holder.f_iv", counting)
        assert all(r.verdict == PASSED for r in check_envelope())
        assert len(calls) <= 64

    def test_unprovable_boxes_are_undecided(self, monkeypatch):
        # an enclosure of f too wide to prove anything: the subdivision must
        # stop at its budget and report every regime undecided, never passed
        monkeypatch.setattr("holdercert.holder.f_iv", lambda x: Interval(-10.0, 10.0))
        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 16)
        results = check_envelope()
        verdicts = {r.check_id: r.verdict for r in results}
        assert verdicts == {
            "P2.3/regime1": UNDECIDED,
            "P2.3/regime2": UNDECIDED,
            "P2.3/regime3": UNDECIDED,
            "P2.3/concavity": PASSED,
        }
        assert all(r.margin < 0.0 for r in results[:3])


class TestSubdivide:
    BOXES = [Interval(0.0, 1.0), Interval(1.0, 3.0)]

    @staticmethod
    def _assert_tiles(leaves, lo, hi):
        leaves = sorted(leaves, key=lambda b: b.lo)
        assert leaves[0].lo == lo and leaves[-1].hi == hi
        assert all(a.hi == b.lo for a, b in zip(leaves, leaves[1:]))

    def test_provable_margin_tiles_the_boxes(self):
        out = list(subdivide(lambda box: 0.3 - box.width, self.BOXES))
        assert all(m > 0.0 for _, m in out)
        assert all(leaf.width < 0.3 for leaf, _ in out)
        self._assert_tiles([leaf for leaf, _ in out], 0.0, 3.0)

    def test_unprovable_margin_stops_at_budget(self, monkeypatch):
        calls = []

        def never(box):
            calls.append(box)
            return -1.0

        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 10)
        out = list(subdivide(never, self.BOXES))
        # budget - 1 splits, each adding one leaf; every box evaluated once
        assert len(out) == len(self.BOXES) + 9
        assert len(calls) == len(self.BOXES) + 2 * 9
        assert all(m == -1.0 for _, m in out)
        self._assert_tiles([leaf for leaf, _ in out], 0.0, 3.0)

    @staticmethod
    def zero_at_zero(box):
        """Margin 0 on boxes that start at 0, and 1 elsewhere: 0 proves nothing."""
        return 0.0 if box.lo == 0.0 else 1.0

    def test_zero_margin_keeps_splitting(self, monkeypatch):
        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 10)
        out = list(subdivide(self.zero_at_zero, self.BOXES[:1]))
        # [0, 1] is halved at boxes 1, 3, 5, 7 and 9; the budget leaves [0, 1/32]
        assert [m for _, m in out].count(0.0) == 1
        assert (Interval(0.0, 1 / 32), 0.0) in out
        self._assert_tiles([leaf for leaf, _ in out], 0.0, 1.0)

    def test_unsplittable_box_is_a_leaf(self):
        tight = Interval(1.0, math.nextafter(1.0, 2.0))
        assert list(subdivide(lambda box: -1.0, [tight])) == [(tight, -1.0)]


class TestProveBoxes:
    BOXES = TestSubdivide.BOXES

    def test_provable_margin_passes_at_the_weakest_leaf(self):
        margin = lambda box: 0.3 - box.width
        r = prove_boxes("id", "anchor", margin, self.BOXES)
        leaves = list(subdivide(margin, self.BOXES))
        assert (r.check_id, r.anchor, r.verdict) == ("id", "anchor", PASSED)
        assert r.margin == min(m for _, m in leaves) > 0.0

    def test_unprovable_box_is_undecided(self, monkeypatch):
        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 64)
        r = prove_boxes("id", "anchor", lambda box: -box.width, self.BOXES)
        assert r.verdict == UNDECIDED and r.margin <= 0.0

    def test_zero_margin_is_never_proved(self, monkeypatch):
        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 64)
        r = prove_boxes("id", "anchor", TestSubdivide.zero_at_zero, self.BOXES)
        assert (r.verdict, r.margin) == (UNDECIDED, 0.0)

    def test_budget_applies_per_call(self, monkeypatch):
        calls = []

        def never(box):
            calls.append(box)
            return -1.0

        monkeypatch.setattr("holdercert.checks.SUBDIVISION_BUDGET", 10)
        for _ in range(2):
            assert prove_boxes("id", "anchor", never, self.BOXES).verdict == UNDECIDED
        # each call gets the whole budget: budget - 1 splits, as in TestSubdivide
        assert len(calls) == 2 * (len(self.BOXES) + 2 * 9)


class TestNesting:
    def test_first_hundred(self):
        results = check_nesting(100)
        assert all(r.verdict == PASSED for r in results)

    def test_each_sin_theta_enclosed_once(self, monkeypatch):
        calls = 0
        sin = interval.sin

        def counted(x):
            nonlocal calls
            calls += 1
            return sin(x)

        check_nesting(200)  # certifies the roots, which calls sin too
        monkeypatch.setattr(interval, "sin", counted)
        results = check_nesting(200)
        assert all(r.verdict == PASSED for r in results)
        # sin theta_1..sin theta_200 once each, plus one per image f(1/alpha_n)
        assert calls == 200 + 200

    def test_wrong_signed_endpoint_fails(self, monkeypatch):
        # a proved image of the wrong sign is a failed check, not an undecided one
        monkeypatch.setattr("holdercert.holder.f_iv", lambda x: -f_iv(x))
        results = check_nesting(3)
        assert [(r.check_id, r.verdict) for r in results] == [
            ("T2.4/nesting[n=1]", FAILED),
            ("T2.4/nesting[n=2]", FAILED),
            ("T2.4/sign[n=3]", FAILED),
        ]
        assert all(r.margin < 0 for r in results)

    def test_first_endpoint_negative(self):
        # f(1/alpha_1) = -sin(theta_1) < 0
        img = f_iv(1 / find_alpha(1).bracket)
        assert img.hi < 0
        assert img.lo <= -math.sin(find_alpha(1).theta) <= img.hi


class TestOneVerdictPerCheck:
    """Each check made of several inequalities passes all its differences
    to one certified_positive call; a dropped term would keep every byte."""

    @pytest.mark.parametrize("n", [1, 2, 200, 651])
    def test_terms_are_the_differences(self, monkeypatch, n):
        calls = {}

        def recording(check_id, anchor, *terms):
            calls[check_id] = terms
            return certified_positive(check_id, anchor, *terms)

        for module in ("roots", "holder"):
            monkeypatch.setattr(f"holdercert.{module}.certified_positive", recording)
        check_theta_lower_bounds(n)
        check_theta_gap(n)
        check_nesting(n + 1)

        def signed_image(k):
            img = f_iv(1 / alpha_interval(k))
            return img if k % 2 == 0 else -img

        th, sin_th = theta_interval(n), interval.sin(theta_interval(n))
        inv_c = 1 / ((Interval.point(2 * n + 1) * PI) / 2)
        product = alpha_interval(n) * alpha_interval(n + 1)
        gap = interval.atan((alpha_interval(n + 1) - alpha_interval(n)) / (1 + product))
        expected = {
            f"L1.2[n={n}]": (sin_th - inv_c, th - sin_th, th - interval.asin(inv_c)),
            f"L1.3[n={n}]": (gap, PI / product - gap),
            f"T2.4/nesting[n={n}]": (sin_th - interval.sin(theta_interval(n + 1)), signed_image(n)),
            f"T2.4/sign[n={n + 1}]": (signed_image(n + 1),),
        }
        assert {k: calls[k] for k in expected} == expected


class TestRemap:
    def test_classification(self):
        a1 = find_alpha(1).alpha
        a2 = find_alpha(2).alpha
        assert classify_index(1.0 / a1) == 0
        assert classify_index(0.999999 / a1) == 1
        assert classify_index(0.5 * (1.0 / a1 + 1.0 / a2)) == 1
        assert classify_index(5.0) == 0
        with pytest.raises(DomainError):
            classify_index(1e-12)  # below the certified pieces

    def test_membership_matches_piece_bounds(self):
        # J_n = [lo, hi) exactly as piece_bounds gives it, at both float ends
        wrong = []
        for n in [*range(1, 2001), 9998]:
            lo, hi = piece_bounds(n, 8.0)
            got = classify_index(lo), classify_index(math.nextafter(hi, 0.0)), classify_index(hi)
            if got != (n, n, n - 1):
                wrong.append((n, got))
        assert wrong == []

    def test_identity_same_piece(self):
        a2, a1 = find_alpha(2).alpha, find_alpha(1).alpha
        x, y = 1.0 / a2 + 1e-3, 1.0 / a1 - 1e-3
        assert remap(x, y) == (x, y)

    def test_cross_pair_example(self):
        # x at the third stationary point, y = 1/pi in the outer piece
        x = 1.0 / find_alpha(3).alpha
        y = 1.0 / math.pi
        x2, y2 = remap(x, y)
        assert y2 - x2 <= (y - x) * (1 + 1e-12)
        assert sorted((f(x2), f(y2))) == pytest.approx(sorted((f(x), f(y))), abs=1e-12)
        assert abs(f(y2) - f(x2)) == pytest.approx(abs(f(y) - f(x)), abs=1e-12)

    def test_adjacent_boundary_pair(self):
        # pair hugging the shared stationary point of J_1 and J_2
        c = 1.0 / find_alpha(2).alpha
        x, y = c - 3e-5, c + 5e-5
        x2, y2 = remap(x, y)
        assert y2 - x2 <= (y - x) * (1 + 1e-9) + 1e-15
        assert abs(f(y2) - f(x2)) == pytest.approx(abs(f(y) - f(x)), abs=1e-12)

    def test_lopsided_adjacent_pair(self):
        # x a hair inside J_2, y much farther into J_1: mapping y across the
        # stationary point stretches by ~(f'''/3f'') b^2, so the remap must
        # fall back to mapping x instead
        c = 1.0 / find_alpha(2).alpha
        x, y = c - 1e-6, c + 1e-3
        x2, y2 = remap(x, y)
        assert y2 - x2 <= y - x
        assert abs(f(y2) - f(x2)) == pytest.approx(abs(f(y) - f(x)), abs=1e-11)

    def test_property_sweep(self):
        rng = random.Random(314159)
        lo = 1.0 / find_alpha(40).alpha
        checked = 0
        for _ in range(2000):
            x = rng.uniform(lo, 1.5)
            y = rng.uniform(lo, 1.5)
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            if classify_index(x) == classify_index(y):
                continue
            checked += 1
            x2, y2 = remap(x, y)
            assert y2 - x2 <= (y - x) * (1 + 1e-9) + 1e-15
            assert abs(f(y2) - f(x2)) == pytest.approx(abs(f(y) - f(x)), abs=1e-10)
            # the quotient can only improve when the distance shrinks
            if x2 != y2:
                assert quotient(x2, y2) >= quotient(x, y) - 1e-10
        assert checked > 200

    def test_validation(self):
        with pytest.raises(DomainError):
            remap(1.0, 0.5)
