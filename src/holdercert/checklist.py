"""Declarative scalar-inequality checklist, certified over intervals.

Each item is one comparison expression in a small vocabulary:

    f(e), df(e)      the function x sin(1/x) and its derivative
    theta(n), alpha(n)  certified root data (integer literal n)
    pi, sqrt(e), sin(e), cos(e), numeric literals, + - * / **, unary -

Comparisons: ``a < b``, ``a > b`` (strict, interval-certified), chains
that are all ``<`` (``a < b < c``) or all ``>``, and a single ``a == b``
meaning certified agreement within 1e-12; mixed chains are rejected.
The ``# text`` after each expression is the claim anchor.

The built-in corpus covers every scalar inequality consumed by the
contradiction arguments around the two delicate quotient maxima
(Props 2.2 and 2.4).
"""

from __future__ import annotations

import ast
import operator

from . import interval as iv
from .checks import CheckResult, certified_chain, certified_equal
from .holder import df_iv, f_iv
from .interval import PI, Interval
from .roots import alpha_interval, theta_interval


class ChecklistError(Exception):
    """Malformed checklist expression."""


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_CALLS = {"f": f_iv, "df": df_iv, "sqrt": iv.sqrt, "sin": iv.sin, "cos": iv.cos}
_INDEXED = {"theta": theta_interval, "alpha": alpha_interval}  # certified root data, by integer literal


def _eval_node(node: ast.expr) -> Interval:
    match node:
        case ast.Constant(value=int() as k) if type(k) is int:  # integers are points
            return Interval.point(float(k))
        case ast.Constant(value=float() as v):  # the decimal lies within half an ulp of this double
            return Interval(iv._down(v), iv._up(v))
        case ast.Name("pi"):
            return PI
        case ast.UnaryOp(ast.USub(), operand):
            return -_eval_node(operand)
        case ast.BinOp(left, ast.Pow(), ast.Constant(value=int() as k)) if type(k) is int:
            return _eval_node(left) ** k
        case ast.BinOp(left, op, right) if type(op) in _OPERATORS:
            return _OPERATORS[type(op)](_eval_node(left), _eval_node(right))
        case ast.Call(ast.Name(name), [ast.Constant(value=int() as k)], []) if name in _INDEXED and type(k) is int:
            return _INDEXED[name](k)
        case ast.Call(ast.Name(name), [arg], []) if name in _CALLS:
            return _CALLS[name](_eval_node(arg))
    raise ChecklistError(f"unsupported expression {ast.unparse(node)!r}")


def _evaluate(item_id: str, anchor: str, expression: str) -> CheckResult:
    """Certify one checklist expression; strictness comes from intervals."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ChecklistError(f"cannot parse {expression!r}: {exc}") from exc
    node = tree.body
    if not isinstance(node, ast.Compare):
        raise ChecklistError(f"expression must be a comparison: {expression!r}")
    operands = [_eval_node(n) for n in [node.left, *node.comparators]]
    ops = {type(op) for op in node.ops}
    if ops == {ast.Lt}:
        return certified_chain(item_id, anchor, *operands)
    if ops == {ast.Gt}:
        return certified_chain(item_id, anchor, *reversed(operands))
    if ops == {ast.Eq} and len(operands) == 2:
        return certified_equal(item_id, anchor, *operands)
    raise ChecklistError(f"comparison must be all <, all > or a single ==: {expression!r}")


BUILTIN_CORPUS = """
# Scalar inequalities consumed by the two contradiction arguments.
-df(4/(9*pi)) == (sqrt(2)/2) * (9*pi/4 - 1)               # Prop 2.2 proof: |f'(4/(9pi))| = (sqrt2/2)(9pi/4 - 1)
(sqrt(2)/2) * (9*pi/4 - 1) > pi                           # Prop 2.2 proof: |f'(4/(9pi))| > pi
1/alpha(1) - 1/alpha(2) < 0.1                             # Prop 2.2 proof: 1/alpha_1 - 1/alpha_2 < 0.1
-df(2/(3*pi)) == 1                                        # Prop 2.2 proof: |f'(2/(3pi))| = 1
-df(1/(3*pi/2 + 1/3)) < 9*pi/10                           # Prop 2.2 proof: |f'(1/(3pi/2 + 1/3))| < 9pi/10
-df(1/(2*pi + pi/3)) == 7*pi/6 - sqrt(3)/2                # Prop 2.2 proof: |f'(1/(2pi + pi/3))| = 7pi/6 - sqrt3/2
7*pi/6 - sqrt(3)/2 < 9*pi/10                              # Prop 2.2 proof: 7pi/6 - sqrt3/2 < 9pi/10
1/(3*pi/2 + 1/3) + (sqrt(3)/2)/(2*pi + pi/3) < 1/pi       # Prop 2.2 proof: |f(y0) - f(x0)| cap < 1/pi
(1 + theta(1))**2 < 6/pi                                  # Prop 2.4 proof: (1 + theta_1)^2 < 6/pi
df(4/(5*pi)) == (sqrt(2)/2) * (5*pi/4 - 1)                # Prop 2.4 proof: f'(4/(5pi)) = (sqrt2/2)(5pi/4 - 1)
df(4/(5*pi)) > pi/2                                       # Prop 2.4 proof: f'(4/(5pi)) > pi/2
df(13/(8*pi)) > pi/2                                      # Prop 2.4 proof: f'(13/(8pi)) > pi/2
f(13/(8*pi)) - f(4/(5*pi)) < 2.1/pi                       # Prop 2.4 proof: f(13/(8pi)) - f(4/(5pi)) < 2.1/pi
f(13/(8*pi)) - f(4/(5*pi)) < 2.6*(13/(8*pi) - 4/(5*pi))   # Prop 2.4 proof: image gap < 2.6 * spacing
df(7/(4*pi)) > 1.3                                        # Prop 2.4 proof: f'(7/(4pi)) > 1.3
f(7/(4*pi)) - f(4/(5*pi)) < 2.28/pi                       # Prop 2.4 proof: f(7/(4pi)) - f(4/(5pi)) < 2.28/pi
df(3/pi) == sqrt(3)/2 - pi/6                              # Prop 2.4 proof: f'(3/pi) = sqrt3/2 - pi/6
sqrt(3)/2 - pi/6 < sqrt(pi/8)                             # Prop 2.4 proof: f'(3/pi) < sqrt(pi/8)
df(2.5/pi) < (1/3)*(2*pi/5)**3                            # Prop 2.4 proof: f'(2.5/pi) < (2pi/5)^3/3 via the cubic bound
(1/3)*(2*pi/5)**3 < sqrt(pi/6)                            # Prop 2.4 proof: (2pi/5)^3/3 < sqrt(pi/6)
(2.5/pi)*sin(2*pi/5) + sin(theta(1)) < 1                  # Prop 2.4 proof: (2.5/pi) sin(2pi/5) + sin(theta_1) < 1
df(2/pi) == 1                                             # Prop 2.4 proof: f'(2/pi) = 1
0 < df(0.7/pi) < 1                                        # Prop 2.4 proof: 0 < f'(0.7/pi) < 1
df(1.9/pi) < 1 + (0.1/pi)*(pi/1.9)**3 < 1.16              # Prop 2.4 proof: f'(1.9/pi) < 1 + (0.1/pi)(pi/1.9)^3 < 1.16
pi/2.7 > 1.16                                             # Prop 2.4 proof: pi/2.7 > 1.16
pi/2.6 > 1.2                                              # Prop 2.4 proof: pi/2.6 > 1.2
"""


def check_proposition_inequalities() -> list[CheckResult]:
    """Certify the built-in corpus, one check per expression line, in order;
    comment-only and blank lines are skipped."""
    lines = (line.partition("#") for line in BUILTIN_CORPUS.splitlines())
    items = [(expr.strip(), anchor.strip()) for expr, _, anchor in lines if expr.strip()]
    return [_evaluate(f"prop-ineq/{i:02d}", anchor, expr) for i, (expr, anchor) in enumerate(items)]
