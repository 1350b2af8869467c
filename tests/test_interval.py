"""Interval kernel: enclosure, monotonicity, width control, error surface."""

import ast
import copy
import inspect
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import holdercert.checks as checks
import holdercert.constants as constants
import holdercert.interval as iv
from holdercert.checks import (
    FAILED,
    PASSED,
    UNDECIDED,
    CheckResult,
    certified_chain,
    certified_equal,
    certified_less,
    certified_positive,
)
from holdercert.holder import df_iv
from holdercert.interval import (
    PI,
    ArgumentTooLarge,
    DivisionByZeroInterval,
    DomainError,
    Interval,
    decimal,
)
from oracles import decimal_literals

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

    # finite doubles whose sums and 7th powers stay finite
    _DOUBLES = st.floats(min_value=-1e40, max_value=1e40)

    @settings(max_examples=500, derandomize=True)
    @given(_DOUBLES, _DOUBLES)
    def test_sum_of_points_encloses_the_exact_sum(self, a, b):
        box = Interval.point(a) + Interval.point(b)
        assert Fraction(box.lo) <= Fraction(a) + Fraction(b) <= Fraction(box.hi)

    @settings(max_examples=500, derandomize=True)
    @given(_DOUBLES, st.integers(min_value=2, max_value=7))
    def test_power_of_a_point_encloses_the_exact_power(self, a, k):
        box = Interval.point(a) ** k
        assert Fraction(box.lo) <= Fraction(a) ** k <= Fraction(box.hi)


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
    """certified_positive reads the sign of each term from its endpoints alone;
    certified_chain and certified_equal are the comparison builders."""

    @staticmethod
    def sign(*terms: Interval):
        r = certified_positive("sign", "every term > 0", *terms)
        return r.verdict, r.margin

    def test_positive(self):
        assert self.sign(Interval(0.1, 0.2)) == (PASSED, 0.1)

    def test_nonpositive(self):
        assert self.sign(Interval(-1.0, -0.5)) == (FAILED, -1.0)
        assert self.sign(Interval(-1.0, 0.0)) == (FAILED, -1.0)

    def test_undecided(self):
        assert self.sign(Interval(-0.1, 0.1)) == (UNDECIDED, -0.1)
        # a lower end at 0 neither proves nor disproves x > 0
        assert self.sign(Interval(0.0, 1.0)) == (UNDECIDED, 0.0)

    def test_all_terms_positive(self):
        # the margin is the least lo, not the first term's
        assert self.sign(Interval(0.3, 0.4), Interval(0.1, 0.2), Interval(0.2, 0.5)) == (PASSED, 0.1)

    def test_one_straddling_term(self):
        assert self.sign(Interval(0.1, 0.2), Interval(-0.05, 0.1)) == (UNDECIDED, -0.05)

    @pytest.mark.parametrize("step", [1, -1])
    def test_nonpositive_term_beats_straddling_one(self, step):
        terms = (Interval(-0.1, 0.1), Interval(-0.5, -0.2))[::step]
        assert self.sign(Interval(1.0, 2.0), *terms) == (FAILED, -0.5)

    def test_no_term_is_no_pass(self):
        with pytest.raises(TypeError):
            certified_positive("sign", "every term > 0")

    def test_chain_margin_is_weakest_link(self):
        r = certified_chain("chain", "0 < f'(0.7/pi) < 1", 0, df_iv(decimal(0.7) / PI), 1)
        assert r.verdict == PASSED
        assert r.margin == pytest.approx(0.02375, rel=1e-3)  # f'(0.7/pi) = 0.02375
        r = certified_chain("chain", "0 < 1 < 2", *(Interval.point(k) for k in (0, 1, 2)))
        assert r.verdict == PASSED
        assert r.margin == pytest.approx(1.0)  # both links are 1, outward rounded

    def test_chain_with_a_wrong_link_fails(self):
        assert certified_chain("chain", "2 < 1 < 3", *(Interval.point(k) for k in (2, 1, 3))).verdict == FAILED

    def test_strictness(self):
        # equal endpoints never certify a strict inequality
        assert certified_chain("chain", "1 < 1", Interval.point(1), Interval.point(1)).verdict != PASSED

    def test_equality_tolerance(self):
        slope = df_iv(2 / PI)
        assert certified_equal("eq", "f'(2/pi) = 1", slope, 1).verdict == PASSED
        assert certified_equal("eq", "f'(2/pi) = 1.001", slope, decimal(1.001)).verdict == FAILED

    def test_equal_straddling_the_band_is_undecided(self):
        # 0 <= x <= 2e-12 may or may not lie within 1e-12 of 0: not proved, not disproved
        r = certified_equal("eq", "x = 0", Interval(0.0, 2e-12), 0)
        assert r.verdict == UNDECIDED and r.margin < 0.0

    def test_equal_outside_the_band_fails(self):
        for lhs in (Interval(2e-12, 3e-12), Interval(-3e-12, -2e-12)):
            assert certified_equal("eq", "x = 0", lhs, 0).verdict == FAILED

    @settings(max_examples=500, derandomize=True)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2e-12),
        st.floats(min_value=0.0, max_value=2e-12),
    )
    def test_equal_margin_is_a_lower_bound(self, x, below, above):
        # lhs contains x, so it is never disproved; the margin is the weaker
        # link of the chain, each rounded to nearest and then outward
        lhs = Interval(x - below, x + above)
        r = certified_equal("id", "anchor", lhs, Interval.point(x))
        diff = lhs - Interval.point(x)
        gap = Fraction(1e-12) - max(abs(Fraction(diff.lo)), abs(Fraction(diff.hi)))
        two_ulps = 2 * Fraction(math.ulp(1e-12))
        assert gap - two_ulps <= Fraction(r.margin) <= gap
        if gap > two_ulps:
            assert r.verdict == PASSED
        elif gap < 0:
            assert r.verdict == UNDECIDED
        else:
            assert r.verdict in (PASSED, UNDECIDED)

    def test_equal_margin_of_a_symmetric_difference(self):
        r = certified_equal("eq", "x = 0", Interval(-5e-13, 5e-13), 0)
        assert r == ("eq", "x = 0", PASSED, 4.999999999999998e-13)

    def test_equal_keeps_no_exact_ratios(self):
        # the == margin comes from interval endpoints, like every other check
        tree = ast.parse(inspect.getsource(checks))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "Fraction" not in names
        assert "as_integer_ratio" not in attributes | names


# -- a decimal of the proof is its enclosure, compared by certified_less -----


def _less_ref(lhs: Interval, t: Fraction) -> tuple[str, Fraction]:
    """Verdict and exact gap of lhs < t, read off the endpoints' exact ratios."""
    gap = t - Fraction(lhs.hi)
    return (PASSED if gap > 0 else UNDECIDED if Fraction(lhs.lo) < t else FAILED), gap


def _greater_ref(lhs: Interval, t: Fraction) -> tuple[str, Fraction]:
    """Verdict and exact gap of lhs > t."""
    gap = Fraction(lhs.lo) - t
    return (PASSED if gap > 0 else UNDECIDED if Fraction(lhs.hi) > t else FAILED), gap


def _compare(lhs: Interval, text: str):
    """(r, exact verdict, exact gap, slack) for lhs < text and lhs > text, each
    r by certified_less on decimal(float(text)).  The slack bounds how far a
    margin may sit below the exact gap: 1.5 ulps from the enclosure, and 3 ulps
    of twice the scale from the rounded subtraction and its outward step."""
    box, t = decimal(float(text)), Fraction(text)
    scale = abs(float(text)) + max(abs(lhs.lo), abs(lhs.hi))
    slack = 5 * Fraction(math.ulp(scale))
    below = certified_less("id", "anchor", lhs, box)
    above = certified_less("id", "anchor", box, lhs)
    return (below, *_less_ref(lhs, t), slack), (above, *_greater_ref(lhs, t), slack)


def _assert_matches(lhs: Interval, text: str) -> None:
    # a verdict that decides is the exact one; undecided only where one ulp could tip it
    for r, verdict, _, _ in _compare(lhs, text):
        assert r.verdict in (verdict, UNDECIDED), (lhs, text, r, verdict)


def _assert_margins(lhs: Interval, text: str) -> None:
    # a margin never claims more room than the exact gap, and gives up only a few ulps
    for r, _, gap, slack in _compare(lhs, text):
        assert gap - slack <= Fraction(r.margin) <= gap, (lhs, text, r)


def _enclosable(text: str) -> bool:
    """A double lies above float(text), so decimal can enclose it."""
    return math.isfinite(math.nextafter(float(text), math.inf))


def _assert_encloses(text: str) -> None:
    x = float(text)
    box = decimal(x)
    assert box.lo < x < box.hi
    assert Fraction(box.lo) <= Fraction(text) <= Fraction(box.hi), text
    assert box.width <= 2 * math.ulp(x), text


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
    """certified_less with a decimal taken as its enclosure agrees with exact
    comparison of the endpoints wherever it decides."""

    @settings(max_examples=500, derandomize=True)
    @given(_interval_and_decimal())
    def test_match_the_references(self, case):
        _assert_matches(*case)

    def test_double_above_its_decimal(self):
        # the double 0.1 is 0.1000000000000000055...: above "0.1", by less than
        # an ulp, so neither "0.1 < 0.1" nor "0.1 > 0.1" is decided, and no
        # point taken for the decimal passes the false one
        lhs = Interval.point(0.1)
        assert Fraction(lhs.lo) > Fraction("0.1")
        below, above = (r for r, *_ in _compare(lhs, "0.1"))
        assert (below.verdict, above.verdict) == (UNDECIDED, UNDECIDED)
        assert below.margin < 0.0 and above.margin < 0.0

    @settings(max_examples=500, derandomize=True)
    @given(_interval_and_decimal())
    def test_margins_are_lower_bounds(self, case):
        _assert_margins(*case)

    def test_end_at_the_decimal_is_undecided(self):
        for lhs in (Interval(0.0, 0.5), Interval(0.5, 1.0)):
            assert [r.verdict for r, *_ in _compare(lhs, "0.5")] == [UNDECIDED, UNDECIDED]


class TestExactLiterals:
    """Each decimal of the proof is enclosed by decimal(float(text)), the
    interval between the neighbours of its nearest double."""

    # every decimal the constants module encloses, and its integer bound 2; then edge cases
    LITERALS = ["34.6", "84.22", "0.302", "0.00080", "2.259", "2.26", "0.12", "0.00012", "2", "1.83012", "1.83"]
    EDGES = ["1E+2", "-0.0", "5e-324", "1.7976931348623157e+308", "1e-12", ".5", "5.", "+7", " 0.25 "]

    def test_literals_are_those_of_constants(self):
        # every float literal of the module is a decimal(...) argument
        assert set(decimal_literals(constants)) == set(self.LITERALS) - {"2"}

    @pytest.mark.parametrize("text", LITERALS + EDGES)
    def test_exact_value(self, text):
        if _enclosable(text):
            _assert_encloses(text)
        else:  # no double lies above the largest one: no enclosure, loudly
            with pytest.raises(ValueError):
                decimal(float(text))

    @settings(max_examples=500, derandomize=True)
    @given(st.decimals(min_value=-1000, max_value=1000, places=6).map(str))
    def test_encloses_any_decimal(self, text):
        _assert_encloses(text)

    @pytest.mark.parametrize("text", LITERALS + EDGES)
    def test_comparators_match_the_references(self, text):
        # intervals whose ends are the double nearest the literal, its
        # neighbours and zero: undecided within an ulp, every other verdict exact
        if not _enclosable(text):
            with pytest.raises(ValueError):
                _compare(Interval.point(0.0), text)
            return
        x = float(text)
        ends = sorted({math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf), 0.0})
        for i, lo in enumerate(ends):
            for hi in ends[i:]:
                _assert_matches(Interval(lo, hi), text)
                _assert_margins(Interval(lo, hi), text)

    @pytest.mark.parametrize(
        "text", ["0.1.2", "", "1e", ".", "-", "e5", "1e+", "1.5e2.0", "0x10", "inf", "nan", "1..2", "1 .5", "--1"]
    )
    def test_malformed_text_raises(self, text):
        # text that is no finite decimal gives no enclosure
        with pytest.raises(ValueError):
            Fraction(text)
        with pytest.raises(ValueError):
            decimal(float(text))


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
