"""Scalar-inequality checklist of Props 2.2 and 2.4, certified over intervals.

Each item is an inequality the two contradiction arguments consume, written as
``(anchor, builder, *terms)``: ``certified_chain`` for ``a < b`` and chains
``a < b < c`` (``a > b`` passes its terms as ``b, a``), ``certified_equal`` for
``a == b``, agreement within 1e-12.  Integers are points; a ratio of integers
starts from an interval (``one / 3``: ``1 / 3`` is a float, taken as a point);
a decimal of the proof is the enclosure ``interval.decimal``.
"""

from __future__ import annotations

from . import interval as iv
from .checks import CheckResult, certified_chain as chain, certified_equal as equal
from .holder import df_iv as df, f_iv as f
from .interval import PI as pi, Interval, decimal
from .roots import alpha_interval as alpha, theta_interval as theta


def check_proposition_inequalities() -> list[CheckResult]:
    """Certify the 26 items in order, as prop-ineq/00 to prop-ineq/25; built
    here, not at import, since they certify roots."""
    one, sqrt2, sqrt3 = Interval.point(1), iv.sqrt(Interval.point(2)), iv.sqrt(Interval.point(3))
    items = [
        ("Prop 2.2 proof: |f'(4/(9pi))| = (sqrt2/2)(9pi/4 - 1)", equal,
         -df(4 / (9 * pi)), (sqrt2 / 2) * (9 * pi / 4 - 1)),
        ("Prop 2.2 proof: |f'(4/(9pi))| > pi", chain, pi, (sqrt2 / 2) * (9 * pi / 4 - 1)),
        ("Prop 2.2 proof: 1/alpha_1 - 1/alpha_2 < 0.1", chain, 1 / alpha(1) - 1 / alpha(2), decimal(0.1)),
        ("Prop 2.2 proof: |f'(2/(3pi))| = 1", equal, -df(2 / (3 * pi)), 1),
        ("Prop 2.2 proof: |f'(1/(3pi/2 + 1/3))| < 9pi/10", chain, -df(1 / (3 * pi / 2 + one / 3)), 9 * pi / 10),
        ("Prop 2.2 proof: |f'(1/(2pi + pi/3))| = 7pi/6 - sqrt3/2", equal,
         -df(1 / (2 * pi + pi / 3)), 7 * pi / 6 - sqrt3 / 2),
        ("Prop 2.2 proof: 7pi/6 - sqrt3/2 < 9pi/10", chain, 7 * pi / 6 - sqrt3 / 2, 9 * pi / 10),
        ("Prop 2.2 proof: |f(y0) - f(x0)| cap < 1/pi", chain,
         1 / (3 * pi / 2 + one / 3) + (sqrt3 / 2) / (2 * pi + pi / 3), 1 / pi),
        ("Prop 2.4 proof: (1 + theta_1)^2 < 6/pi", chain, (1 + theta(1)) ** 2, 6 / pi),
        ("Prop 2.4 proof: f'(4/(5pi)) = (sqrt2/2)(5pi/4 - 1)", equal, df(4 / (5 * pi)), (sqrt2 / 2) * (5 * pi / 4 - 1)),
        ("Prop 2.4 proof: f'(4/(5pi)) > pi/2", chain, pi / 2, df(4 / (5 * pi))),
        ("Prop 2.4 proof: f'(13/(8pi)) > pi/2", chain, pi / 2, df(13 / (8 * pi))),
        ("Prop 2.4 proof: f(13/(8pi)) - f(4/(5pi)) < 2.1/pi", chain,
         f(13 / (8 * pi)) - f(4 / (5 * pi)), decimal(2.1) / pi),
        ("Prop 2.4 proof: image gap < 2.6 * spacing", chain, f(13 / (8 * pi)) - f(4 / (5 * pi)),
         decimal(2.6) * (13 / (8 * pi) - 4 / (5 * pi))),
        ("Prop 2.4 proof: f'(7/(4pi)) > 1.3", chain, decimal(1.3), df(7 / (4 * pi))),
        ("Prop 2.4 proof: f(7/(4pi)) - f(4/(5pi)) < 2.28/pi", chain,
         f(7 / (4 * pi)) - f(4 / (5 * pi)), decimal(2.28) / pi),
        ("Prop 2.4 proof: f'(3/pi) = sqrt3/2 - pi/6", equal, df(3 / pi), sqrt3 / 2 - pi / 6),
        ("Prop 2.4 proof: f'(3/pi) < sqrt(pi/8)", chain, sqrt3 / 2 - pi / 6, iv.sqrt(pi / 8)),
        ("Prop 2.4 proof: f'(2.5/pi) < (2pi/5)^3/3 via the cubic bound", chain, df(decimal(2.5) / pi),
         (one / 3) * (2 * pi / 5) ** 3),
        ("Prop 2.4 proof: (2pi/5)^3/3 < sqrt(pi/6)", chain, (one / 3) * (2 * pi / 5) ** 3, iv.sqrt(pi / 6)),
        ("Prop 2.4 proof: (2.5/pi) sin(2pi/5) + sin(theta_1) < 1", chain,
         (decimal(2.5) / pi) * iv.sin(2 * pi / 5) + iv.sin(theta(1)), 1),
        ("Prop 2.4 proof: f'(2/pi) = 1", equal, df(2 / pi), 1),
        ("Prop 2.4 proof: 0 < f'(0.7/pi) < 1", chain, 0, df(decimal(0.7) / pi), 1),
        ("Prop 2.4 proof: f'(1.9/pi) < 1 + (0.1/pi)(pi/1.9)^3 < 1.16", chain, df(decimal(1.9) / pi),
         1 + (decimal(0.1) / pi) * (pi / decimal(1.9)) ** 3, decimal(1.16)),
        ("Prop 2.4 proof: pi/2.7 > 1.16", chain, decimal(1.16), pi / decimal(2.7)),
        ("Prop 2.4 proof: pi/2.6 > 1.2", chain, decimal(1.2), pi / decimal(2.6)),
    ]
    return [builder(f"prop-ineq/{i:02d}", anchor, *terms) for i, (anchor, builder, *terms) in enumerate(items)]
