"""Outside-in tracing of holdercert's modules, and the per-layer metrics.

The recorder wraps package functions from the outside, after import, so
no file of the package changes.  A module that did ``from .roots import
find_alpha`` holds its own binding of the function, so each wrapper is
installed under every name a caller looks the function up by: module
globals and the values of module-level dicts (the checklist's function
table).  Spans keep their parent's index, so a stage's self time excludes
the roots it certifies lazily through ``find_alpha``.

Hot scalar functions (``f``, ``df``, ``ddf``) are counted per binding and
never timed: a clock read per call would multiply the cost of a search
pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Timed spans, one name for every binding of the function.
SPANS = (
    "cli.main",
    "report.run_verification",
    "report.report_to_json",
    "report.report_to_markdown",
    "roots.find_alpha",
    "roots.check_theta_upper_bounds",
    "roots.check_theta_lower_bounds",
    "roots.check_theta_gap",
    "roots.check_cubic_overshoot",
    "constants.check_constants_suite",
    "constants.c_n",
    "quadrature.composite_simpson",
    "holder.check_envelope",
    "holder.check_nesting",
    "holder.wirtinger_for_interval",
    "holder.wirtinger_equality_case",
    "checklist.check_proposition_inequalities",
    "optimizer.global_sup",
    "optimizer.critical_pair",
)

# Timed kernel spans, named by whether the operand is a single point.
KERNEL = ("interval.sin", "interval.cos")

# Counted, not timed.  A (module, name) pair counts only the calls made
# through that module's binding; a bare function counts every binding.
COUNTED_EVERYWHERE = ("roots.phi_iv", "holder.f_iv")
COUNTED_PER_BINDING = (
    ("holdercert.optimizer", "holder.f", "optimizer.f"),
    ("holdercert.optimizer", "holder.df", "optimizer.df"),
    ("holdercert.optimizer", "holder.ddf", "optimizer.ddf"),
)


def _resolve(dotted: str):
    """The function ``module.name`` of the package, or None if the module
    is not imported (the traced run then never reaches it)."""
    module, name = dotted.rsplit(".", 1)
    mod = sys.modules.get(f"holdercert.{module}")
    return None if mod is None else getattr(mod, name)


def _package_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "holdercert" or k.startswith("holdercert.")]


def _rebind(original, wrapper, modules) -> None:
    """Point every module-level reference to ``original`` at ``wrapper``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


class Recorder:
    """Spans (name, start, end, parent index) and call counters, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _timed(self, fn, name_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name_of(args), clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def span(self, name: str, fn):
        return self._timed(fn, lambda args: name)

    def kernel_span(self, name: str, fn):
        point, wide = f"{name}_point", f"{name}_wide"
        return self._timed(fn, lambda args: point if args[0].lo == args[0].hi else wide)

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def simpson(self, fn):
        """Span for composite_simpson that also counts integrand points."""
        counts = self.counts

        def with_points(integrand, *args, **kwargs):
            def counted_integrand(x):
                counts["quadrature.points"] += x.size
                return integrand(x)

            return fn(counted_integrand, *args, **kwargs)

        return self.span("quadrature.composite_simpson", with_points)

    def install(self) -> None:
        """Wrap every traced function of the already imported package."""
        modules = _package_modules()
        for name in SPANS + KERNEL + COUNTED_EVERYWHERE:
            original = _resolve(name)
            if original is None:
                continue
            if name in KERNEL:
                wrapper = self.kernel_span(name, original)
            elif name in COUNTED_EVERYWHERE:
                wrapper = self.counted(name, original)
            elif name == "quadrature.composite_simpson":
                wrapper = self.simpson(original)
            else:
                wrapper = self.span(name, original)
            _rebind(original, wrapper, modules)
        for module, target, label in COUNTED_PER_BINDING:
            mod = sys.modules[module]
            original = _resolve(target)
            attr = target.rsplit(".", 1)[1]
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{module}.{attr} is not {target}")
            setattr(mod, attr, self.counted(label, original))

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


# -- analysis ------------------------------------------------------------------


class SpanTable:
    """Per-name calls, busy time (outermost spans) and self time."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                self.busy[name] += end - start

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def calls_under(self, ancestor: str, names: tuple[str, ...]) -> int:
        return sum(1 for s in self.spans if s[0] in names and self._has_ancestor(s[3], ancestor))

    def us_per_call(self, name: str) -> float:
        return 1e6 * self.busy[name] / self.calls[name] if self.calls[name] else 0.0


def layer_metrics(trace: dict, untraced_pass_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run.

    ``trace`` holds the recorder's spans and counts plus ``certified``
    (roots computed, not served from cache), ``pieces`` and
    ``newton_wins`` (from the search report; 0 when no search ran) and
    ``traced_pass_s``.  A layer the workload does not reach reads 0.
    """
    t = SpanTable(trace["spans"])
    counts = trace["counts"]
    certified = trace["certified"]
    kernel = ("interval.sin_point", "interval.cos_point", "interval.sin_wide", "interval.cos_wide")
    m: dict[str, tuple[float, str]] = {}
    for k in kernel:
        m[f"{k}.calls"] = (t.calls[k], "count")
        m[f"{k}.us_per_call"] = (t.us_per_call(k), "us")
    m["roots.find_alpha.certified"] = (certified, "count")
    m["roots.find_alpha.self_s"] = (t.self_time["roots.find_alpha"], "s")
    m["roots.phi_iv.per_root"] = (counts.get("roots.phi_iv", 0) / certified if certified else 0.0, "count")
    m["roots.angle_lemmas.self_s"] = (
        sum(t.self_time[f"roots.check_theta_{k}"] for k in ("upper_bounds", "lower_bounds", "gap")),
        "s",
    )
    m["roots.check_cubic_overshoot.busy_s"] = (t.busy["roots.check_cubic_overshoot"], "s")
    m["roots.check_cubic_overshoot.kernel_calls"] = (t.calls_under("roots.check_cubic_overshoot", kernel), "count")
    m["constants.check_constants_suite.busy_s"] = (t.busy["constants.check_constants_suite"], "s")
    m["constants.c_n.self_s"] = (t.self_time["constants.c_n"], "s")
    m["quadrature.composite_simpson.calls"] = (t.calls["quadrature.composite_simpson"], "count")
    m["quadrature.points"] = (counts.get("quadrature.points", 0), "count")
    m["quadrature.composite_simpson.busy_s"] = (t.busy["quadrature.composite_simpson"], "s")
    m["holder.check_envelope.busy_s"] = (t.busy["holder.check_envelope"], "s")
    m["holder.f_iv.calls"] = (counts.get("holder.f_iv", 0), "count")
    m["holder.check_nesting.busy_s"] = (t.busy["holder.check_nesting"], "s")
    m["holder.wirtinger.busy_s"] = (
        t.busy["holder.wirtinger_for_interval"] + t.busy["holder.wirtinger_equality_case"],
        "s",
    )
    m["checklist.check_proposition_inequalities.busy_s"] = (t.busy["checklist.check_proposition_inequalities"], "s")
    m["optimizer.global_sup.busy_s"] = (t.busy["optimizer.global_sup"], "s")
    m["optimizer.critical_pair.busy_s"] = (t.busy["optimizer.critical_pair"], "s")
    m["optimizer.search.self_s"] = (t.self_time["optimizer.global_sup"], "s")
    for k in ("f", "df", "ddf"):
        m[f"optimizer.{k}.calls"] = (counts.get(f"optimizer.{k}", 0), "count")
    pieces = trace["pieces"]
    m["optimizer.newton_win_ratio"] = (trace["newton_wins"] / pieces if pieces else 0.0, "ratio")
    m["report.run_verification.self_s"] = (t.self_time["report.run_verification"], "s")
    m["report.serialize.busy_s"] = (t.busy["report.report_to_json"] + t.busy["report.report_to_markdown"], "s")
    m["cli.main.busy_s"] = (t.busy["cli.main"], "s")
    m["trace.overhead_s"] = (trace["traced_pass_s"] - untraced_pass_s, "s")
    return {k: (v if unit == "count" else float(v), unit) for k, (v, unit) in m.items()}
