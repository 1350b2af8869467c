"""Outward-rounded interval arithmetic over IEEE-754 binary64.

Every operation returns an interval that encloses the exact real image of
its operand intervals.  Outward rounding is realized by nextafter-style
endpoint nudging: the accumulated slack (a few ulps per operation) is far
below the smallest margin this package ever needs to certify (~1e-16 in
absolute terms, on quantities of size ~1e-5).

sin/cos compare with pi in integers only: each endpoint is reduced once,
exactly, against pi/2 (from pi to within 2^-159) at the scale 2^202, so the
reduction contributes no error floor.  The one reduction gives the point
value, and the signs of the remainders give the quarter turns q*pi/2 inside
an interval operand, which locate its interior extrema; theta_n is minus
alpha_n's remainder.  The reduction budget is |t| <= 1e6; larger arguments are
rejected.  sin and cos share one kernel: cos t is evaluated as
sin(t + pi/2), one quadrant on.
"""

from __future__ import annotations

import math
import sys


class IntervalError(Exception):
    """Base class for interval-kernel failures."""


class DomainError(IntervalError):
    """Operand outside the mathematical domain of the operation."""


class DivisionByZeroInterval(IntervalError):
    """Divisor interval contains zero."""


class ArgumentTooLarge(IntervalError):
    """Trig argument beyond the documented reduction budget."""


# pi to within 2^-159, scaled by 2^200 (it exceeds pi by ~1.3e-48); the
# binary64 endpoints of pi bracket the true value (math.pi rounds pi down).
_PI_SCALED = 5048344754617993871973410141242436836214643421490683230289920

# pi/2 scaled by 2^202, the scale of every reduction
_HALF_PI_INT = 2 * _PI_SCALED
_SCALE, _SCALE_INT = 2.0**202, 2**202

_KERNEL_CUT = 0.7853981633974483  # <= pi/4; below this no reduction is needed

ARGUMENT_BUDGET = 1.0e6

_INF = math.inf
_MAX = sys.float_info.max


# outward nudges by `steps` floats, 1 or 2
def _down(x: float, steps: int = 1) -> float:
    x = math.nextafter(x, -_INF)
    return x if steps == 1 else math.nextafter(x, -_INF)


def _up(x: float, steps: int = 1) -> float:
    x = math.nextafter(x, _INF)
    return x if steps == 1 else math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] of finite binary64 values; immutable, equal and hashed by endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        # NaN fails the chained test; an int beyond the float range exceeds _MAX
        if not -_MAX <= lo <= hi <= _MAX:
            raise ValueError(f"interval endpoints must be finite and ordered: [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def _immutable(self, name: str, *value) -> None:
        raise AttributeError(f"Interval is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return Interval, (self.lo, self.hi)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @classmethod
    def point(cls, v: float) -> "Interval":
        v = float(v)
        return cls(v, v)

    # -- queries ----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    # -- arithmetic: an Interval operand is used as is --------------------

    @staticmethod
    def _coerce(other) -> "Interval":
        if isinstance(other, (int, float)):
            return Interval.point(other)
        raise TypeError(f"unsupported interval operand {other!r}")

    def __add__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    # Nonnegative operands (for /, a positive divisor): by monotone rounding the two extreme
    # results are the floats min/max of all four would pick, up to a zero's sign, which _down/_up erase.

    def __mul__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        if self.lo >= 0.0 and o.lo >= 0.0:
            return Interval(_down(self.lo * o.lo), _up(self.hi * o.hi))
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = other if other.__class__ is Interval else self._coerce(other)
        if o.lo > 0.0 and self.lo >= 0.0:
            return Interval(_down(self.lo / o.hi), _up(self.hi / o.lo))
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o!r} contains zero")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, k: int) -> "Interval":
        if type(k) is not int or k < 0:
            raise DomainError(f"interval power requires a non-negative int, got {k!r}")
        if k == 0:
            return Interval(1.0, 1.0)
        if k == 1:
            return self
        if k % 2 == 0 and self.lo < 0.0 < self.hi:
            m = max(-self.lo, self.hi)
            return Interval(0.0, _up(m**k, 2))
        lo, hi = self.lo**k, self.hi**k
        if lo > hi:  # even power of a negative interval
            lo, hi = hi, lo
        return Interval(_down(lo, 2), _up(hi, 2))


_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__  # slot setters that skip __setattr__

PI = Interval(math.pi, math.nextafter(math.pi, _INF))
HALF_PI = PI / 2


# -- elementary functions ----------------------------------------------------


def sqrt(a: Interval) -> Interval:
    if a.lo < 0.0:
        raise DomainError(f"sqrt needs a nonnegative interval, got {a!r}")
    # IEEE sqrt is correctly rounded: one nudge per endpoint suffices
    return Interval(max(0.0, _down(math.sqrt(a.lo))), _up(math.sqrt(a.hi)))


def atan(a: Interval) -> Interval:
    return Interval(_down(math.atan(a.lo), 2), _up(math.atan(a.hi), 2))


def asin(a: Interval) -> Interval:
    if a.lo < -1.0 or a.hi > 1.0:
        raise DomainError(f"asin needs an interval within [-1, 1], got {a!r}")
    return Interval(_down(math.asin(a.lo), 2), _up(math.asin(a.hi), 2))


def reduce_half_pi(x: float) -> tuple[float, float, int]:
    """Reduce x to r = x - k*pi/2 with k the nearest quarter turn, exactly in integers.

    k = floor(x/(pi/2) + 1/2), so r lies in [-pi/4, pi/4); returns (r_hi, r_lo, k)
    with r_hi = r correctly rounded (it has r's sign) and r_hi + r_lo = r to ~2^-106.
    |x| <= _KERNEL_CUT is its own remainder (no float lies between it and pi/4);
    any larger |x| within budget has no bits below 2^-202, so x 2^202 is an integer.
    """
    if -_KERNEL_CUT <= x <= _KERNEL_CUT:
        return x + 0.0, 0.0, 0  # + 0.0 turns -0.0 into +0.0, the integer path's zero
    n = int(x * _SCALE)
    k = (2 * n + _HALF_PI_INT) // (2 * _HALF_PI_INT)
    r = n - k * _HALF_PI_INT
    r_hi = r / _SCALE_INT  # int/int true division is correctly rounded
    a, b = r_hi.as_integer_ratio()
    return r_hi, (r * b - a * _SCALE_INT) / (b * _SCALE_INT), k


def _sin_point(rh: float, rl: float, q: int) -> tuple[float, float]:
    """Enclosure of sin(r + q*pi/2), r = rh + rl; pads cover libm + kernel error.
    With rl = 0.0 the correction terms change no padded bit."""
    v = math.cos(rh) - rl * math.sin(rh) if q & 1 else math.sin(rh) + rl * math.cos(rh)
    if q & 2:  # negation is exact
        v = -v
    return _down(v, 2), _up(v, 2)


def _trig(a: Interval, shift: int) -> Interval:
    """Enclosure of sin(t + shift*pi/2) over a, split at interior extrema.

    Each endpoint is reduced once.  The quarter turns q with a.lo <= q*pi/2 <=
    a.hi are first..last, the ceiling and floor of the endpoints over pi/2,
    read off each remainder's sign; the maximum sits at q = 1 - shift, the
    minimum at q = -1 - shift (mod 4), and the least q >= first of residue j
    is first + (j - first) mod 4.  A point interval takes no extremum: the
    point kernel encloses its image (at the one float extremum, cos at 0, the
    clamp to [-1, 1] gives the same bound).
    """
    if max(abs(a.lo), abs(a.hi)) > ARGUMENT_BUDGET:
        raise ArgumentTooLarge(f"trig argument {a!r} beyond reduction budget {ARGUMENT_BUDGET:g}")
    rh, rl, first = reduce_half_pi(a.lo)
    lo, hi = _sin_point(rh, rl, first + shift)
    if a.hi != a.lo:
        first += rh > 0.0
        rh, rl, last = reduce_half_pi(a.hi)
        lo2, hi2 = _sin_point(rh, rl, last + shift)
        last -= rh < 0.0
        hi = 1.0 if first + (1 - shift - first) % 4 <= last else max(hi, hi2)
        lo = -1.0 if first + (-1 - shift - first) % 4 <= last else min(lo, lo2)
    return Interval(max(lo, -1.0), min(hi, 1.0))


# sin and cos never call each other: tracing wraps each by name, once per call.
def sin(a: Interval) -> Interval:
    """Enclosure of sin over an interval."""
    return _trig(a, 0)


def cos(a: Interval) -> Interval:
    """Enclosure of cos over an interval."""
    return _trig(a, 1)
