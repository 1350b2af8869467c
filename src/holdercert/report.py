"""Verification campaign assembly and deterministic serialization.

The JSON rendering is canonical: fixed key order, floats via Python repr
(shortest round-trip form), no timing or environment data, so identical
flags produce byte-identical reports.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import __version__
from .checklist import check_proposition_inequalities
from .checks import CheckResult, FAILED, PASSED, UNDECIDED
from .constants import ConstantsRow, c_n, check_constants_suite, tail_constant_certificate
from .holder import check_envelope, check_nesting, wirtinger_equality_case, wirtinger_for_interval
from .interval import Interval
from .optimizer import ConfigError, SupremumReport
from .roots import (
    check_cubic_overshoot,
    check_theta_gap,
    check_theta_lower_bounds,
    check_theta_upper_bounds,
)

WIRTINGER_N = 50
# Largest n_max the campaign decides: past it the Lemma 1.3 upper margin,
# ~pi^3/(3 (alpha_n alpha_{n+1})^3), sinks below the enclosure width.
VERIFY_N_MAX = 651


class VerificationReport(NamedTuple):
    tool_version: str
    config: dict
    checks: list[CheckResult]
    constants_table: list[ConstantsRow]

    @property
    def summary(self) -> dict[str, int]:
        counts = {PASSED: 0, FAILED: 0, UNDECIDED: 0}
        for c in self.checks:
            counts[c.verdict] += 1
        return counts

    @property
    def ok(self) -> bool:
        s = self.summary
        return s["failed"] == 0 and s["undecided"] == 0


def run_verification(n_max: int = 200) -> VerificationReport:
    """Run the full inequality campaign up to index n_max, in [1, VERIFY_N_MAX]."""
    if not 1 <= n_max <= VERIFY_N_MAX:
        raise ConfigError(f"n_max must be in [1, {VERIFY_N_MAX}], got {n_max}")
    checks: list[CheckResult] = []
    for n in range(1, n_max + 1):
        checks.extend(check_theta_upper_bounds(n))
        checks.append(check_theta_lower_bounds(n))
        checks.append(check_theta_gap(n))
    checks.extend(check_cubic_overshoot())
    checks.extend(check_constants_suite(n_max))
    checks.extend(tail_constant_certificate())
    checks.append(wirtinger_equality_case())
    for n in range(1, min(n_max, WIRTINGER_N) + 1):
        checks.append(wirtinger_for_interval(n))
    checks.extend(check_envelope())
    checks.extend(check_nesting(n_max))
    checks.extend(check_proposition_inequalities())
    table = [c_n(n) for n in range(1, n_max + 1)]
    return VerificationReport(
        tool_version=__version__,
        config={"n_max": n_max, "wirtinger_n": min(n_max, WIRTINGER_N)},
        checks=checks,
        constants_table=table,
    )


# -- serialization -------------------------------------------------------------


def _check_dict(c: CheckResult) -> dict:
    return {"id": c.check_id, "anchor": c.anchor, "verdict": c.verdict, "margin": c.margin}


def supremum_dict(s: SupremumReport) -> dict:
    return {
        "alpha_exp": s.alpha_exp,
        "sup_estimate": s.sup_estimate,
        "arg": s.arg._asdict(),
        "per_interval": [r._asdict() for r in s.per_interval],
        "method_breakdown": s.method_breakdown,
        "bound_certificate": s.bound_certificate,
        "tail_checks": [_check_dict(c) for c in s.tail_checks],
    }


def table_cell(v) -> str:
    """A constants-table cell: an interval as [lo,hi], without a space, and any other value as its repr."""
    return f"[{v.lo!r},{v.hi!r}]" if isinstance(v, Interval) else repr(v)


def _row_dict(row: ConstantsRow) -> dict:
    return {k: [v.lo, v.hi] if isinstance(v, Interval) else v for k, v in row._asdict().items()}


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "tool_version": r.tool_version,
        "config": r.config,
        "checks": [_check_dict(c) for c in r.checks],
        "constants_table": [_row_dict(row) for row in r.constants_table],
        "summary": r.summary,
    }


def report_to_json(r: VerificationReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, allow_nan=False) + "\n"


def report_to_markdown(r: VerificationReport) -> str:
    lines = [
        "# holdercert verification report",
        "",
        f"tool version: {r.tool_version}",
        "",
        "## Configuration",
        "",
    ]
    for k, v in r.config.items():
        lines.append(f"- {k}: {v!r}")
    s = r.summary
    lines += [
        "",
        "## Summary",
        "",
        f"- passed: {s['passed']}",
        f"- failed: {s['failed']}",
        f"- undecided: {s['undecided']}",
        "",
        "## Checks",
        "",
        "| id | verdict | margin | anchor |",
        "|---|---|---|---|",
    ]
    for c in r.checks:  # a | inside a cell is escaped, or it would end the cell
        cells = (c.check_id, c.verdict, repr(c.margin), c.anchor)
        lines.append("| " + " | ".join(cell.replace("|", r"\|") for cell in cells) + " |")
    if r.constants_table:
        lines += [
            "",
            "## Constants",
            "",
            "| " + " | ".join(ConstantsRow._fields) + " |",
            "|" + "---|" * len(ConstantsRow._fields),
        ]
        for row in r.constants_table:
            lines.append("| " + " | ".join(map(table_cell, row)) + " |")
    return "\n".join(lines) + "\n"
