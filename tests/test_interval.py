"""Interval kernel: enclosure, monotonicity, width control, error surface."""

import copy
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import holdercert.interval as iv
from holdercert.checks import (
    FAILED,
    PASSED,
    UNDECIDED,
    CheckResult,
    certified_above_decimal,
    certified_below_decimal,
    certified_equal,
    certified_positive,
)
from holdercert.interval import (
    PI,
    ArgumentTooLarge,
    DivisionByZeroInterval,
    DomainError,
    Interval,
)

mp.mp.prec = 120


def mp_encloses(a: Interval, value) -> bool:
    return mp.mpf(a.lo) <= value <= mp.mpf(a.hi)


def subset(a: Interval, b: Interval) -> bool:
    return b.lo <= a.lo and a.hi <= b.hi


class TestConstruction:
    def test_point(self):
        a = Interval.point(1.5)
        assert a.lo == a.hi == 1.5

    @pytest.mark.parametrize(
        "lo,hi",
        [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (0, 10**400), (-(10**400), 0)],
    )
    def test_rejects_nonfinite(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_largest_floats_are_accepted(self):
        big = sys.float_info.max
        assert Interval(-big, big).hi == big
        assert Interval(int(big), int(big)).lo == int(big)

    def test_immutable_equal_and_hashed_by_endpoints(self):
        a = Interval(1.0, 2.0)
        for name in ("lo", "hi", "width", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 3.0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert (a.lo, a.hi) == (1.0, 2.0)
        assert a == Interval(1.0, 2.0) and a != Interval(1.0, 3.0) and a != (1.0, 2.0)
        assert {a, Interval(1.0, 2.0), Interval(-0.0, 0.0), Interval(0.0, 0.0)} == {a, Interval(0.0, 0.0)}
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a)


class TestArithmetic:
    def test_add_encloses(self):
        a = Interval(1, 2) + Interval(3, 4)
        assert a.lo <= 4.0 and a.hi >= 6.0

    def test_mul_encloses(self):
        a = Interval(-1, 2) * Interval(3, 4)
        assert a.lo <= -4.0 and a.hi >= 8.0

    def test_div_by_zero_interval(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1, 1) / Interval(0, 1)

    def test_scalar_mixing(self):
        a = 2 * Interval(1, 2) + 1.0
        assert a.lo <= 3.0 and a.hi >= 5.0

    @pytest.mark.parametrize("other", ["1", Fraction(1, 3), None])
    def test_unsupported_operands_raise_type_error(self, other):
        a = Interval(1.0, 2.0)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for lhs, rhs in ((a, other), (other, a)):  # forward and reflected
                with pytest.raises(TypeError):
                    op(lhs, rhs)

    @pytest.mark.parametrize("k", [True, False, -1, 2.0])
    def test_power_needs_a_non_negative_int(self, k):
        with pytest.raises(DomainError):
            Interval(2.0, 3.0) ** k

    def test_even_power_clips_at_zero(self):
        a = Interval(-1, 2) ** 2
        assert a.lo == 0.0 and a.hi >= 4.0
        b = Interval(-3, -2) ** 2
        assert b.lo <= 4.0 and b.hi >= 9.0 and b.lo > 0

    def test_neg_abs(self):
        a = -Interval(1, 2)
        assert a == Interval(-2, -1)


def _four_corner(a: Interval, b: Interval, op) -> Interval:
    """The product or quotient from min/max of all four endpoint results."""
    if op is operator.truediv and b.lo <= 0.0 <= b.hi:
        raise DivisionByZeroInterval(f"divisor {b!r} contains zero")
    p = (op(a.lo, b.lo), op(a.lo, b.hi), op(a.hi, b.lo), op(a.hi, b.hi))
    return Interval(iv._down(min(p)), iv._up(max(p)))


def _outcome(op, a, b):
    try:
        r = op(a, b)
    except (ValueError, DivisionByZeroInterval) as exc:
        return type(exc)
    return r.lo.hex(), r.hi.hex()


class TestFastPaths:
    """* and / of nonnegative operands (positive divisor) take two endpoint
    results; they must equal the four-corner min/max bit for bit."""

    MAGNITUDES = (
        *(0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 1e-300),  # zero, subnormal, tiny normal
        *(0.1, 1.0, 3.0, 1e300, 1.7e308, sys.float_info.max),  # up to the largest float
    )

    @classmethod
    def intervals(cls, rng: random.Random, count: int):
        for _ in range(count):
            ends = []
            for _ in range(2):
                if rng.random() < 0.5:
                    m = rng.choice(cls.MAGNITUDES)
                else:  # any binary exponent, subnormal to near overflow
                    m = math.ldexp(rng.random(), rng.randint(-1074, 1024))
                ends.append(math.copysign(m, rng.choice((-1.0, 1.0))))
            yield Interval(*sorted(ends))

    @pytest.mark.parametrize("op", [operator.mul, operator.truediv])
    def test_equal_to_the_four_corner_rule(self, op):
        rng = random.Random(1234)
        left = list(self.intervals(rng, 4000))
        right = list(self.intervals(rng, 4000))
        patterns, zeros = set(), set()
        for a, b in zip(left, right):
            patterns.add((self.sign_class(a), self.sign_class(b)))
            zeros.update(math.copysign(1.0, e) for x in (a, b) for e in (x.lo, x.hi) if e == 0.0)
            assert _outcome(op, a, b) == _outcome(lambda x, y: _four_corner(x, y, op), a, b), (a, b)
        assert len(patterns) == 16 and zeros == {-1.0, 1.0}

    @staticmethod
    def sign_class(a: Interval) -> str:
        if a.hi < 0.0:
            return "negative"
        if a.lo > 0.0:
            return "positive"
        return "mixed" if a.lo < 0.0 < a.hi else "zero end"


class TestElementary:
    def test_sqrt_squares(self):
        a = iv.sqrt(Interval(4, 9))
        assert a.lo <= 2.0 and a.hi >= 3.0

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            iv.sqrt(Interval(-1, 1))

    def test_asin_domain(self):
        with pytest.raises(DomainError):
            iv.asin(Interval(0, 1.5))

    def test_sin_quarter_wave(self):
        # [0, pi/2 rounded up]: monotone rise plus the inserted maximum
        a = iv.sin(Interval(0.0, math.nextafter(math.pi / 2, math.inf)))
        assert a.hi == 1.0
        assert -1e-300 <= a.lo <= 0.0

    def test_cos_half_wave(self):
        a = iv.cos(Interval(0.0, math.nextafter(math.pi, math.inf)))
        assert a.lo == -1.0 and a.hi == 1.0

    def test_full_period_shortcut(self):
        a = iv.sin(Interval(0.0, 10.0))
        assert a == Interval(-1.0, 1.0)

    def test_budget(self):
        with pytest.raises(ArgumentTooLarge):
            iv.sin(Interval(0.0, 2e6))


class TestCertification:
    """certified_positive reads the sign of x from its endpoints alone."""

    @staticmethod
    def sign(x: Interval):
        r = certified_positive("sign", "x > 0", x)
        return r.verdict, r.margin

    def test_positive(self):
        assert self.sign(Interval(0.1, 0.2)) == (PASSED, 0.1)

    def test_nonpositive(self):
        assert self.sign(Interval(-1.0, -0.5)) == (FAILED, -1.0)
        assert self.sign(Interval(-1.0, 0.0)) == (FAILED, -1.0)

    def test_undecided(self):
        assert self.sign(Interval(-0.1, 0.1)) == (UNDECIDED, -0.1)


# -- the two comparator bodies before "above" became "below" of the negation -----


def _round_down(q: Fraction) -> float:
    """The largest double <= q."""
    x = float(q)
    return x if Fraction(x) <= q else math.nextafter(x, -math.inf)


def _below_decimal_ref(check_id: str, anchor: str, lhs: Interval, threshold: str) -> CheckResult:
    t = Fraction(threshold)
    hi = Fraction(lhs.hi)
    verdict = PASSED if hi < t else (UNDECIDED if Fraction(lhs.lo) < t else FAILED)
    return CheckResult(check_id, anchor, verdict, _round_down(t - hi))


def _above_decimal_ref(check_id: str, anchor: str, lhs: Interval, threshold: str) -> CheckResult:
    t = Fraction(threshold)
    lo = Fraction(lhs.lo)
    verdict = PASSED if lo > t else (UNDECIDED if Fraction(lhs.hi) > t else FAILED)
    return CheckResult(check_id, anchor, verdict, _round_down(lo - t))


@st.composite
def _interval_and_decimal(draw):
    a, b = (draw(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)) for _ in range(2))
    lhs = Interval(min(a, b), max(a, b))
    threshold = draw(
        st.one_of(
            st.decimals(min_value=-1000, max_value=1000, places=6).map(str),
            st.sampled_from([repr(lhs.lo), repr(lhs.hi)]),
        )
    )
    return lhs, threshold


class TestDecimalComparators:
    """certified_below_decimal/certified_above_decimal compare interval
    endpoints with exact decimals, as the reference bodies do."""

    @staticmethod
    def both(lhs: Interval, threshold: str):
        below = certified_below_decimal("id", "anchor", lhs, threshold)
        above = certified_above_decimal("id", "anchor", lhs, threshold)
        return (below.verdict, above.verdict), (below, above)

    @settings(max_examples=500, derandomize=True)
    @given(_interval_and_decimal())
    def test_match_the_references(self, case):
        lhs, threshold = case
        _, got = self.both(lhs, threshold)
        refs = (
            _below_decimal_ref("id", "anchor", lhs, threshold),
            _above_decimal_ref("id", "anchor", lhs, threshold),
        )
        for r, ref in zip(got, refs):
            assert (r.check_id, r.anchor, r.verdict, r.margin.hex()) == (
                ref.check_id,
                ref.anchor,
                ref.verdict,
                ref.margin.hex(),
            ), (lhs, threshold)

    def test_double_above_its_decimal(self):
        # the double 0.1 is 0.1000000000000000055...: above "0.1", never below
        verdicts, (below, above) = self.both(Interval.point(0.1), "0.1")
        assert verdicts == (FAILED, PASSED)
        # the gap is no double, so each margin sits just below its exact value
        gap = Fraction(0.1) - Fraction("0.1")
        assert Fraction(above.margin) < gap < -Fraction(below.margin)
        assert above.margin == math.nextafter(-below.margin, 0.0) > 0.0

    @settings(max_examples=500, derandomize=True)
    @given(_interval_and_decimal())
    def test_margins_are_lower_bounds(self, case):
        # a margin never claims more room than the exact gap, and it is the
        # largest double that does not
        lhs, threshold = case
        _, (below, above) = self.both(lhs, threshold)
        t = Fraction(threshold)
        for margin, gap in ((below.margin, t - Fraction(lhs.hi)), (above.margin, Fraction(lhs.lo) - t)):
            assert Fraction(margin) <= gap < Fraction(math.nextafter(margin, math.inf))

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2e-12),
        st.floats(min_value=0.0, max_value=2e-12),
    )
    def test_equal_margin_is_a_lower_bound(self, x, below, above):
        lhs = Interval(x - below, x + above)
        r = certified_equal("id", "anchor", lhs, Interval.point(x))
        diff = lhs - Interval.point(x)
        gap = Fraction(1e-12) - max(abs(Fraction(diff.lo)), abs(Fraction(diff.hi)))
        assert r.verdict == (PASSED if gap >= 0 else FAILED)
        assert Fraction(r.margin) <= gap < Fraction(math.nextafter(r.margin, math.inf))

    def test_end_at_the_decimal_is_undecided(self):
        assert self.both(Interval(0.0, 0.5), "0.5")[0] == (UNDECIDED, FAILED)
        assert self.both(Interval(0.5, 1.0), "0.5")[0] == (FAILED, UNDECIDED)


class TestEnclosureProperty:
    """Exact point evaluation (mpmath, 120-bit) lies inside every result."""

    N = 100_000

    def test_random_points(self):
        rng = random.Random(987123)
        count = self.N
        for i in range(count // 5):
            x = rng.uniform(-1e6, 1e6) if i % 3 == 0 else rng.uniform(-20, 20)
            a = Interval.point(x)
            assert mp_encloses(iv.sin(a), mp.sin(mp.mpf(x)))
            assert mp_encloses(iv.cos(a), mp.cos(mp.mpf(x)))
            assert mp_encloses(iv.atan(a), mp.atan(mp.mpf(x)))
            y = rng.uniform(-1.0, 1.0)
            assert mp_encloses(iv.asin(Interval.point(y)), mp.asin(mp.mpf(y)))
            z = rng.uniform(0.0, 1e6)
            assert mp_encloses(iv.sqrt(Interval.point(z)), mp.sqrt(mp.mpf(z)))

    def test_arithmetic_chain(self):
        rng = random.Random(555)
        for _ in range(2000):
            x, y = rng.uniform(-100, 100), rng.uniform(1e-3, 100)
            a, b = Interval.point(x), Interval.point(y)
            exact = (mp.mpf(x) + mp.mpf(y)) * (mp.mpf(x) - mp.mpf(y)) / mp.mpf(y)
            assert mp_encloses((a + b) * (a - b) / b, exact)


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_sin_enclosure_hypothesis(x):
    assert mp_encloses(iv.sin(Interval.point(x)), mp.sin(mp.mpf(x)))


@settings(max_examples=300, derandomize=True)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_cos_enclosure_hypothesis(x):
    assert mp_encloses(iv.cos(Interval.point(x)), mp.cos(mp.mpf(x)))


@settings(max_examples=200, derandomize=True)
@given(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_inclusion_monotonicity(a_mid, a_w, a_grow, b_mid, b_w, b_grow):
    """a within a', b within b'  =>  op(a, b) within op(a', b')."""
    inner_a = Interval(a_mid - a_w, a_mid + a_w)
    outer_a = Interval(a_mid - a_w - a_grow, a_mid + a_w + a_grow)
    inner_b = Interval(b_mid - b_w, b_mid + b_w)
    outer_b = Interval(b_mid - b_w - b_grow, b_mid + b_w + b_grow)
    assert subset(inner_a + inner_b, outer_a + outer_b)
    assert subset(inner_a - inner_b, outer_a - outer_b)
    assert subset(inner_a * inner_b, outer_a * outer_b)
    assert subset(iv.sin(inner_a), iv.sin(outer_a))
    assert subset(iv.cos(inner_b), iv.cos(outer_b))


class TestWidthControl:
    """Point-interval inputs: one operation widens by at most 4 ulps."""

    def _ulp_width_ok(self, result: Interval) -> bool:
        scale = max(abs(result.mid), 5e-324)
        return result.width <= 4.0 * math.ulp(scale)

    def test_elementary_width(self):
        rng = random.Random(31337)
        for _ in range(5000):
            x = rng.uniform(-1e5, 1e5)
            assert self._ulp_width_ok(iv.sin(Interval.point(x)))
            assert self._ulp_width_ok(iv.cos(Interval.point(x)))
            assert self._ulp_width_ok(iv.atan(Interval.point(x)))
            assert self._ulp_width_ok(iv.sqrt(Interval.point(abs(x))))

    def test_arithmetic_width(self):
        rng = random.Random(424242)
        for _ in range(5000):
            a = Interval.point(rng.uniform(-100, 100))
            b = Interval.point(rng.uniform(0.5, 100))
            assert self._ulp_width_ok(a + b)
            assert self._ulp_width_ok(a - b)
            assert self._ulp_width_ok(a * b)
            assert self._ulp_width_ok(a / b)


def test_pi_enclosure():
    assert mp_encloses(PI, mp.pi)
    assert PI.width <= 2 * math.ulp(math.pi)


# -- the exact rational kernel, kept as the reference for the fast paths -------

_HALF_PI_FRAC = Fraction(iv._HALF_PI_INT, 2**202)


def _reduce_ref(x: float) -> tuple[float, float, int]:
    k = math.floor(x / float(_HALF_PI_FRAC) + 0.5)
    r = Fraction(x) - k * _HALF_PI_FRAC
    while r > _HALF_PI_FRAC / 2:
        r -= _HALF_PI_FRAC
        k += 1
    while r < -_HALF_PI_FRAC / 2:
        r += _HALF_PI_FRAC
        k -= 1
    r_hi = float(r)
    r_lo = float(r - Fraction(r_hi))
    return r_hi, r_lo, k & 3


def _has_extremum_ref(a: Interval, quarter: int) -> bool:
    """Does [a.lo, a.hi] contain a point (quarter + 4k) * pi/2?  All in rationals."""
    offset_frac = quarter * _HALF_PI_FRAC
    two_pi = 4 * _HALF_PI_FRAC
    k_lo = math.floor((a.lo - float(offset_frac)) / float(two_pi)) - 1
    k_hi = math.ceil((a.hi - float(offset_frac)) / float(two_pi)) + 1
    flo, fhi = Fraction(a.lo), Fraction(a.hi)
    for k in range(k_lo, k_hi + 1):
        if flo <= offset_frac + k * two_pi <= fhi:
            return True
    return False


def _assert_reduce_matches(x: float) -> None:
    # hex tells the sign of a zero apart
    (got_hi, got_lo, got_k), (hi, lo, q) = iv.reduce_half_pi(x), _reduce_ref(x)
    assert (got_hi.hex(), got_lo.hex(), got_k & 3) == (hi.hex(), lo.hex(), q), x


def _turns(a: Interval) -> tuple[int, int]:
    """The first and last quarter turns in a, read off the two reductions as the kernel does."""
    rh, _, first = iv.reduce_half_pi(a.lo)
    rh2, _, last = iv.reduce_half_pi(a.hi)
    return first + (rh > 0.0), last - (rh2 < 0.0)


def _assert_extremum_matches(a: Interval) -> None:
    first, last = _turns(a)
    assert (first, last) == (math.ceil(Fraction(a.lo) / _HALF_PI_FRAC), math.floor(Fraction(a.hi) / _HALF_PI_FRAC)), a
    # every residue mod 4: the turns of sin's and cos's extrema
    for quarter in range(4):
        assert (first + (quarter - first) % 4 <= last) == _has_extremum_ref(a, quarter), (a, quarter)


def _sin_point_ref(x: float) -> tuple[float, float]:
    """The separate sin point kernel the shared one replaced."""
    if abs(x) <= iv._KERNEL_CUT:
        v = math.sin(x)
        return iv._down(v, 2), iv._up(v, 2)
    rh, rl, q = _reduce_ref(x)
    if q == 0:
        v = math.sin(rh) + rl * math.cos(rh)
    elif q == 1:
        v = math.cos(rh) - rl * math.sin(rh)
    elif q == 2:
        v = -(math.sin(rh) + rl * math.cos(rh))
    else:
        v = -(math.cos(rh) - rl * math.sin(rh))
    return iv._down(v, 2), iv._up(v, 2)


def _cos_point_ref(x: float) -> tuple[float, float]:
    """The separate cos point kernel the shared one replaced."""
    if abs(x) <= iv._KERNEL_CUT:
        v = math.cos(x)
        return iv._down(v, 2), iv._up(v, 2)
    rh, rl, q = _reduce_ref(x)
    if q == 0:
        v = math.cos(rh) - rl * math.sin(rh)
    elif q == 1:
        v = -(math.sin(rh) + rl * math.cos(rh))
    elif q == 2:
        v = -(math.cos(rh) - rl * math.sin(rh))
    else:
        v = math.sin(rh) + rl * math.cos(rh)
    return iv._down(v, 2), iv._up(v, 2)


def _trig_ref(a: Interval, point, max_quarter: int, min_quarter: int) -> Interval:
    """The separate interval sin/cos bodies the shared one replaced, with
    extrema placed in rationals.  Point intervals take them too: the clamp
    to [-1, 1] must give the same bound at the one float extremum, cos at 0."""
    if max(abs(a.lo), abs(a.hi)) > iv.ARGUMENT_BUDGET:
        raise ArgumentTooLarge(a)
    if a.width >= float(4 * _HALF_PI_FRAC) + 1e-9:
        return Interval(-1.0, 1.0)
    lo1, hi1 = point(a.lo)
    lo2, hi2 = (lo1, hi1) if a.hi == a.lo else point(a.hi)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    if _has_extremum_ref(a, max_quarter):
        hi = 1.0
    if _has_extremum_ref(a, min_quarter):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def _bits(fn, *args) -> tuple[str, str] | str:
    """Result endpoints in hex, or the name of the error raised."""
    try:
        a = fn(*args)
    except ArgumentTooLarge as exc:
        return type(exc).__name__
    return a.lo.hex(), a.hi.hex()


def _assert_trig_matches(a: Interval) -> None:
    assert _bits(iv.sin, a) == _bits(_trig_ref, a, _sin_point_ref, 1, -1), a
    assert _bits(iv.cos, a) == _bits(_trig_ref, a, _cos_point_ref, 0, 2), a
    if a.lo == a.hi:
        rh, rl, k = iv.reduce_half_pi(a.lo)
        assert iv._sin_point(rh, rl, k) == _sin_point_ref(a.lo), a
        assert iv._sin_point(rh, rl, k + 1) == _cos_point_ref(a.lo), a


def _floats_around_multiples() -> list[float]:
    """The two binary64 neighbours of k*pi/2 (exact rational) for k near 0 and near the budget."""
    out = []
    for k in [*range(-40, 41), *range(636_600, 636_620), *range(-636_620, -636_600)]:
        m = k * _HALF_PI_FRAC
        f = float(m)
        below = f if Fraction(f) < m else math.nextafter(f, -math.inf)
        above = f if Fraction(f) > m else math.nextafter(f, math.inf)
        out += [below, above]
    return out


class TestExactKernelReference:
    """The integer reduction and the quarter turns read off it agree with
    the all-rational kernel bit for bit."""

    @settings(max_examples=1000, derandomize=True)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_reduce_hypothesis(self, x):
        _assert_reduce_matches(x)

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_extremum_hypothesis(self, x, y):
        assume(x != y)
        _assert_extremum_matches(Interval(min(x, y), max(x, y)))

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e-8, max_value=1e-8, allow_nan=False),
    )
    def test_extremum_width_near_two_pi(self, lo, excess):
        _assert_extremum_matches(Interval(lo, lo + 2 * math.pi + excess))

    def test_neighbours_of_multiples_of_half_pi(self):
        points = _floats_around_multiples()
        for x in points:
            _assert_reduce_matches(x)
        for below, above in zip(points[::2], points[1::2]):
            for a in (
                Interval(below, above),
                Interval(below - 1.0, below),
                Interval(above, above + 1.0),
                Interval(above, below + 2 * math.pi),
                Interval(above - 2 * math.pi, below),
                Interval.point(below),
                Interval.point(above),
            ):
                _assert_extremum_matches(a)

    @settings(max_examples=300, derandomize=True)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_point_interval_hypothesis(self, x):
        assume(x != 0.0)
        _assert_extremum_matches(Interval.point(x))

    @settings(max_examples=1000, derandomize=True)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_trig_point_hypothesis(self, x):
        _assert_trig_matches(Interval.point(x))

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_trig_interval_hypothesis(self, x, y):
        _assert_trig_matches(Interval(min(x, y), max(x, y)))

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e-8, max_value=1e-8, allow_nan=False),
    )
    def test_trig_width_near_two_pi(self, lo, excess):
        _assert_trig_matches(Interval(lo, lo + 2 * math.pi + excess))

    def test_trig_neighbours_of_multiples_of_half_pi(self):
        # the shared kernel evaluates sin and cos bit for bit as the two
        # separate kernels did, at and around every quadrant boundary
        for x in _floats_around_multiples():
            for width in (0.0, 1e-12, 1.0, 3.0, 2 * math.pi - 1e-9, 2 * math.pi):
                _assert_trig_matches(Interval(x, x + width))
                _assert_trig_matches(Interval(x - width, x))

    def test_cos_at_point_zero(self):
        # the one point interval that holds an extremum: 0 = 0 * pi/2; the
        # count finds it, the point kernel skips it, and the clamp to [-1, 1]
        # gives the value inserting the maximum would
        assert _has_extremum_ref(Interval.point(0.0), 0)
        assert _turns(Interval.point(0.0)) == _turns(Interval.point(-0.0)) == (0, 0)
        assert iv.cos(Interval.point(0.0)) == Interval(math.nextafter(math.nextafter(1.0, 0.0), 0.0), 1.0)

    def test_subnormal_operands(self):
        # x 2^202 is no integer for these: they are their own remainders
        tiny = (5e-324, 3 * 2.0**-1070, 2.0**-1022 - 5e-324, 2.0**-1022, 3 * 2.0**-400, 2.0**-203)
        for x in (*tiny, *(-t for t in tiny)):
            assert iv.reduce_half_pi(x) == (x, 0.0, 0), x
            _assert_reduce_matches(x)
            lo, hi = min(x, 0.0), max(x, 0.0)
            for a in (
                Interval.point(x),
                Interval(lo, hi),
                Interval(-abs(x), abs(x)),
                Interval(abs(x), 2.0),
                Interval(-2.0, -abs(x)),
                Interval(-abs(x), 2.0),
                Interval(x, x + 2 * math.pi),
            ):
                _assert_extremum_matches(a)
                _assert_trig_matches(a)

    def test_verify_reduces_each_endpoint_once(self, monkeypatch):
        # run_verification(200) with its root and constant caches cold makes
        # 1,841 integer reductions; reducing an endpoint again to count the
        # quarter turns in its interval made 7,105
        from holdercert import constants, roots
        from holdercert.report import run_verification

        reduce, reduced = iv.reduce_half_pi, []

        def counted(x):
            if abs(x) > iv._KERNEL_CUT:
                reduced.append(x)
            return reduce(x)

        roots.find_alpha.cache_clear()
        constants.c_n.cache_clear()
        monkeypatch.setattr(iv, "reduce_half_pi", counted)
        run_verification(200)
        assert 0 < len(reduced) <= 2000
