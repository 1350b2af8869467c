"""Tests of the benchmark itself: tracing must not change outputs, counts
must repeat, and the span arithmetic must be right.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json

import layers
import run


def _traced_verify(tmp_path, name: str) -> tuple[bytes, dict]:
    report, spans = tmp_path / f"{name}.json", tmp_path / f"{name}-spans.json"
    _, rc, _ = run.verify_pass([str(run.BENCH / "child.py"), "verify-trace", str(spans)], report)
    assert rc == 0
    with open(spans) as fh:
        trace = json.load(fh)
    trace["traced_pass_s"] = 0.0
    return report.read_bytes(), trace


def test_tracing_leaves_verify_report_unchanged_and_counts_repeat(tmp_path):
    plain = tmp_path / "plain.json"
    _, rc, _ = run.verify_pass(run.VERIFY_ARGS, plain)
    assert rc == 0
    assert run.check_verify(rc, plain.read_text(), run._reference_ids()) == []

    first, trace_a = _traced_verify(tmp_path, "a")
    second, trace_b = _traced_verify(tmp_path, "b")
    assert first == plain.read_bytes()
    assert second == plain.read_bytes()

    counts_a = {k: v for k, (v, unit) in layers.layer_metrics(trace_a, 0.0).items() if unit == "count"}
    counts_b = {k: v for k, (v, unit) in layers.layer_metrics(trace_b, 0.0).items() if unit == "count"}
    assert counts_a == counts_b
    assert counts_a["roots.find_alpha.certified"] == 201
    assert counts_a["quadrature.composite_simpson.calls"] == 302
    # the checklist looks sin up in its own function table
    assert counts_a["interval.sin_wide.calls"] > counts_a["interval.cos_wide.calls"] > 0


def test_self_time_excludes_children_and_busy_counts_outermost_spans():
    spans = [
        ["roots.check_theta_gap", 0.0, 10.0, -1],
        ["roots.find_alpha", 1.0, 7.0, 0],
        ["interval.sin_point", 2.0, 3.0, 1],
        ["roots.find_alpha", 8.0, 9.0, 0],
    ]
    t = layers.SpanTable(spans)
    assert t.self_time["roots.check_theta_gap"] == 3.0
    assert t.self_time["roots.find_alpha"] == 6.0
    assert t.busy["roots.find_alpha"] == 7.0
    assert t.calls_under("roots.find_alpha", ("interval.sin_point",)) == 1
    assert t.us_per_call("interval.sin_point") == 1e6


def test_norm_checks_reject_a_wrong_answer():
    rng = run.np.random.default_rng(0)
    good = {"alpha": 0.5, "alpha_exp": 0.5, "x_cap": 8.0, "sup": run.NORM_SUP, "x": 0.2365741, "y": 0.6151429}
    assert run.check_norm("norm", dict(good), rng) == []
    assert run.check_norm("norm", dict(good, sup=run.NORM_SUP + 1e-9), rng) != []
    low = dict(good, alpha=0.3, alpha_exp=0.3, sup=0.5)
    assert run.check_norm("norm-alpha", low, rng) != []
