"""f, the quotient, Wirtinger, the envelope, nesting, and the remap."""

import math
import random
import re

import mpmath as mp
import pytest

from holdercert import holder, interval
from holdercert.checks import FAILED, PASSED, UNDECIDED, certified_positive
from holdercert.holder import (
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
    IDS = ["P2.3/regime1", "P2.3/regime2", "P2.3/regime3", "P2.3/concavity"]

    @staticmethod
    def _verdicts(monkeypatch, **edges):
        """check_envelope's verdicts with region edges moved, e.g. _CHORD_END=1.7."""
        for name, value in edges.items():
            monkeypatch.setattr(f"holdercert.holder.{name}", value)
        return {r.check_id: r.verdict for r in check_envelope()}

    def test_all_pass(self):
        results = check_envelope()
        assert [r.check_id for r in results] == self.IDS
        assert all(r.verdict == PASSED and r.margin > 0.0 for r in results)

    def test_margins(self):
        # tangent 2 - pi^2 (0.45 - 1/pi), chord 2x - x^2 - 2/pi at x = 0.45, far 2 (1.5 - 1/pi) - 1
        margins = [r.margin for r in check_envelope()]
        assert margins[:3] == pytest.approx([0.70027067, 0.06088023, 1.36338023], abs=1e-8)
        # sin(1/x) at x = (1/pi).hi: the same single enclosure as ever
        assert margins[3] == 1.2246467991473527e-16

    def test_few_f_evaluations(self, monkeypatch):
        # the regions are proved from f's analytic bounds: no enclosure of f
        calls = []

        def counting(x):
            calls.append(x)
            return f_iv(x)

        monkeypatch.setattr("holdercert.holder.f_iv", counting)
        assert all(r.verdict == PASSED for r in check_envelope())
        assert calls == []

    def test_pointwise_examples(self):
        inv_pi = 1.0 / math.pi
        # x = 2 (oracle values)
        assert f(2.0) == pytest.approx(0.958851077208406, rel=1e-12)
        assert math.sqrt(2.0 * (2.0 - inv_pi)) == pytest.approx(1.83395207888113, rel=1e-12)
        # far region entry point
        assert f(1.5) < 1.0 < math.sqrt(2.0 * (1.5 - inv_pi))
        # boundary: both sides vanish at 1/pi
        assert abs(f(inv_pi)) < 1e-15

    def test_tangent_too_long_fails(self, monkeypatch):
        # pi^2 * 0.21 > 2: the tangent leaves the envelope before its end
        verdicts = self._verdicts(monkeypatch, _TANGENT_END=1 / math.pi + 0.21)
        assert verdicts["P2.3/regime1"] == FAILED

    def test_chord_start_left_of_its_root_fails(self, monkeypatch):
        # 2x - x^2 - 2/pi < 0 at x = 0.38 (the root is 1 - sqrt(1 - 2/pi) ~ 0.397),
        # while x = 1.5 passes: a chord checked at its right end only passes this
        monkeypatch.setattr("holdercert.holder._TANGENT_END", 0.38)
        results = {r.check_id: r for r in check_envelope()}
        assert results["P2.3/regime1"].verdict == PASSED
        assert results["P2.3/regime2"].verdict == FAILED
        assert results["P2.3/regime2"].margin == pytest.approx(-0.021, abs=1e-3)

    def test_chord_end_right_of_its_root_fails(self, monkeypatch):
        # the other root is 1 + sqrt(1 - 2/pi) ~ 1.603
        verdicts = self._verdicts(monkeypatch, _CHORD_END=1.7)
        assert verdicts["P2.3/regime2"] == FAILED

    def test_far_start_too_close_fails(self, monkeypatch):
        # 2 (0.8 - 1/pi) < 1: f < 1 no longer lies under the envelope
        verdicts = self._verdicts(monkeypatch, _CHORD_END=0.8)
        assert verdicts["P2.3/regime3"] == FAILED

    def test_wide_slope_is_never_passed(self, monkeypatch):
        # the tangent encloses f'(1/pi) = phi(pi); an enclosure too wide to
        # prove anything leaves regime1 undecided, never passed
        seen = []

        def wide(u):
            seen.append(u)
            return Interval(-10.0, 10.0)

        monkeypatch.setattr("holdercert.holder.phi_iv", wide)
        verdicts = self._verdicts(monkeypatch)
        assert seen == [PI]
        assert verdicts == dict(zip(self.IDS, [UNDECIDED, PASSED, PASSED, PASSED]))

    def test_regions_tile_and_hold_by_mpmath(self):
        # the anchors' regions tile [1/pi, inf) and concavity covers the tangent's
        regions = {
            r.check_id: re.search(r"on [\[(]([^,]+), ([^\])]+)[\])]", r.anchor).groups() for r in check_envelope()
        }
        tangent, chord, far = (regions[k] for k in self.IDS[:3])
        assert tangent[0] == "1/pi" and tangent[1] == chord[0] and chord[1] == far[0] and far[1] == "inf"
        assert regions["P2.3/concavity"] == tangent
        t, c = float(tangent[1]), float(chord[1])
        with mp.workdps(30):
            inv_pi = 1 / mp.pi
            for k in range(1, 2001):
                x = inv_pi * (mp.mpf(10) ** 6 / inv_pi) ** (mp.mpf(k) / 2000)
                fx, envelope = x * mp.sin(1 / x), mp.sqrt(2 * (x - inv_pi))
                assert fx <= envelope
                if x <= t:
                    assert fx <= mp.pi * (x - inv_pi) <= envelope
                elif x <= c:
                    assert fx <= x < envelope
                else:
                    assert fx < 1 < envelope


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
