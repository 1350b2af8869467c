"""Check results and certified comparison helpers.

A check passes only when the interval evaluation proves it: for a strict
inequality ``a < b`` the difference must be proved positive from endpoint
information alone.  An enclosure that merely straddles zero is reported
as undecided, never as a pass.

``certified_positive`` is the one interval verdict: a reported claim made
of several inequalities (a chain, Lemmas 1.2 and 1.3, the nesting step)
passes all its differences to one call, so each report row is one result.
An ``==`` agreement is the chain -1e-12 < lhs - rhs < 1e-12, and a decimal
of the proof enters a comparison as its enclosure ``interval.decimal``.
"""

from __future__ import annotations

from typing import NamedTuple

from .interval import Interval

PASSED = "passed"
FAILED = "failed"
UNDECIDED = "undecided"
EQUAL_TOL = Interval.point(1e-12)  # half-width of certified_equal's band, as a point


class CheckResult(NamedTuple):
    """One verified inequality: identifier, claim anchor, verdict, margin.

    ``margin`` is a certified lower bound on how much room the inequality
    has (negative or straddling values accompany failed/undecided verdicts).
    """

    check_id: str
    anchor: str
    verdict: str
    margin: float

    @property
    def ok(self) -> bool:
        return self.verdict == PASSED


def certified_positive(check_id: str, anchor: str, x: Interval, *more: Interval) -> CheckResult:
    """Certify every term > 0: passed iff the least lo is > 0, failed iff some
    term has hi <= 0, otherwise undecided; margin = the least lo."""
    terms = (x, *more)
    margin = min(t.lo for t in terms)
    verdict = PASSED if margin > 0.0 else (FAILED if any(t.hi <= 0.0 for t in terms) else UNDECIDED)
    return CheckResult(check_id, anchor, verdict, margin)


def certified_less(check_id: str, anchor: str, lhs: Interval, rhs: Interval) -> CheckResult:
    """Certify the strict inequality lhs < rhs; margin = proven gap."""
    return certified_positive(check_id, anchor, rhs - lhs)


def certified_chain(check_id: str, anchor: str, *terms: Interval) -> CheckResult:
    """Certify terms[0] < terms[1] < ... < terms[-1]; margin = weakest link."""
    return certified_positive(check_id, anchor, *(b - a for a, b in zip(terms, terms[1:])))


def certified_equal(check_id: str, anchor: str, lhs: Interval, rhs: Interval) -> CheckResult:
    """Certify the chain -EQUAL_TOL < lhs - rhs < EQUAL_TOL: failed iff the
    difference lies wholly beyond an edge, undecided if it straddles one."""
    return certified_chain(check_id, anchor, -EQUAL_TOL, lhs - rhs, EQUAL_TOL)


def analytic_pass(check_id: str, anchor: str) -> CheckResult:
    """Record a step discharged by exact reasoning rather than arithmetic."""
    return CheckResult(check_id, anchor, PASSED, 0.0)
