#!/usr/bin/env python3
"""holdercert benchmark: three closed-loop workloads, one client, no threads.

    python3 bench/run.py --workload verify|norm|norm-alpha --seed N \\
        --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from its
``src/``.  Every workload runs passes back to back for S seconds and checks
each pass's output outside the timed region.

  verify      ``python -m holdercert.cli verify --n-max 200`` in a fresh
              interpreter per pass; the paper fixes its inputs, so the seed
              draws nothing.
  norm        ``global_sup(200, x_cap, 512, 0.5)`` with x_cap drawn per pass
              in [4/pi, 8]; roots 1..201 are certified during set-up.
  norm-alpha  the same call with x_cap = 8 and alpha_exp drawn per pass in
              [0.25, 0.45]; Newton multistart runs only at 1/2, so the grid
              scan and coordinate descent carry the pass.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of several fresh
set-ups), ``pass_s`` (median pass), ``peak_rss_mb`` (median peak RSS of the
processes that ran the passes).  The share of passes whose check failed,
``failed_frac``, is printed and carried by ``failed``/``attempted``; it is
not a metric because it is 0 when the program is correct.

``--trace 1`` adds one traced pass after the untraced ones and reports the
per-layer metrics of ``layers.layer_metrics`` instead.  The traced pass of
``norm``/``norm-alpha`` uses the fixed input x_cap = 8 (alpha 1/2 and 0.35),
so its counts repeat across seeds; it also traces set-up.

The last stdout line is the result object.  The line before it is the run
record: environment, seed, sample counts, per-pass details and the host-drift
calibration.  Records and raw spans are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify", "norm", "norm-alpha")
VERIFY_ARGS = ["-m", "holdercert.cli", "verify", "--n-max", "200"]
VERIFY_SETUPS = 5
NORM_PROCESSES = 3

NORM_SUP = 1.3383624629937396
NORM_SUP_TOL = 1e-12
NORM_ARG = (0.2365741, 0.6151429)
NORM_ARG_TOL = 1e-6
RANDOM_PAIRS = 100_000
TRACE_PARAMS = {"norm": (8.0, 0.5), "norm-alpha": (8.0, 0.35)}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True, text=True)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- verify ---------------------------------------------------------------------


def _reference_ids() -> set[str]:
    with open(BENCH / "verify_check_ids.json") as fh:
        return set(json.load(fh))


def check_verify(rc: int, text: str, reference: set[str]) -> list[str]:
    """Problems with one verify pass; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [f"{c['id']} {c['verdict']}" for c in report["checks"] if c["verdict"] != "passed"]
    missing = reference - {c["id"] for c in report["checks"]}
    if missing:
        problems.append(f"{len(missing)} reference checks missing, e.g. {sorted(missing)[0]}")
    return problems


def verify_pass(cmd: list[str], report_path: Path) -> tuple[float, int, float]:
    """One fresh-interpreter pass; returns (seconds, exit code, peak RSS MB)."""
    with open(report_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *cmd], cwd=ROOT, env=_env(), stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def run_verify(args: argparse.Namespace, res: dict) -> None:
    reference = _reference_ids()
    for _ in range(VERIFY_SETUPS):
        t0 = time.perf_counter()
        proc = _child(["-c", "import holdercert.cli"])
        res["setup_s"].append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing holdercert.cli failed:\n{proc.stderr}")
    report_path = OUT / "verify-report.json"
    deadline = time.perf_counter() + args.seconds
    while True:
        seconds, rc, rss = verify_pass(VERIFY_ARGS, report_path)
        data = report_path.read_bytes()
        problems = check_verify(rc, data.decode(), reference)
        res["pass_s"].append(seconds)
        res["peak_rss_mb"].append(rss)
        res["passes"].append({"seconds": seconds, "sha256": hashlib.sha256(data).hexdigest(), "problems": problems})
        if time.perf_counter() + seconds > deadline:
            break
    res["report_sha256"] = sorted({p["sha256"] for p in res["passes"]})
    if args.trace:
        trace_out = OUT / f"spans-verify-seed{args.seed}.json"
        seconds, rc, _ = verify_pass([str(BENCH / "child.py"), "verify-trace", str(trace_out)], report_path)
        data = report_path.read_bytes()
        problems = check_verify(rc, data.decode(), reference)
        sha = hashlib.sha256(data).hexdigest()
        if sha != res["passes"][0]["sha256"]:
            problems.append("traced report differs from the untraced report")
        res["traced"] = {"seconds": seconds, "sha256": sha, "problems": problems}
        res["trace_file"] = trace_out
        res["traced_pass_s"] = seconds


# -- norm -----------------------------------------------------------------------


def _f(x: np.ndarray) -> np.ndarray:
    return x * np.sin(1.0 / x)


def random_pair_max(rng: np.random.Generator, alpha: float, x_cap: float) -> float:
    """Max quotient over random pairs: half in [0.2, 1]^2, where the maximiser
    lies for every alpha in range, half log-uniform over [1/(200 pi), x_cap]."""
    half = RANDOM_PAIRS // 2
    lo = math.log(1.0 / (200 * math.pi))
    x = np.concatenate([rng.uniform(0.2, 1.0, half), np.exp(rng.uniform(lo, math.log(x_cap), half))])
    y = np.concatenate([rng.uniform(0.2, 1.0, half), np.exp(rng.uniform(lo, math.log(x_cap), half))])
    keep = x != y
    x, y = x[keep], y[keep]
    return float(np.max(np.abs(_f(y) - _f(x)) / np.abs(y - x) ** alpha))


def check_norm(workload: str, rec: dict, rng: np.random.Generator) -> list[str]:
    problems = []
    if rec["alpha_exp"] != rec["alpha"]:
        problems.append(f"alpha_exp {rec['alpha_exp']!r} != {rec['alpha']!r}")
    if workload == "norm":
        if not abs(rec["sup"] - NORM_SUP) <= NORM_SUP_TOL:
            problems.append(f"sup {rec['sup']!r} not within {NORM_SUP_TOL:g} of {NORM_SUP!r}")
        if not (abs(rec["x"] - NORM_ARG[0]) <= NORM_ARG_TOL and abs(rec["y"] - NORM_ARG[1]) <= NORM_ARG_TOL):
            problems.append(f"argmax ({rec['x']!r}, {rec['y']!r}) not within {NORM_ARG_TOL:g} of {NORM_ARG}")
    else:
        floor = random_pair_max(rng, rec["alpha"], rec["x_cap"])
        rec["random_pair_max"] = floor
        if not rec["sup"] >= floor:
            problems.append(f"sup {rec['sup']!r} below a random pair's quotient {floor!r}")
    return problems


def draw_params(workload: str, rng: np.random.Generator, count: int) -> list[tuple[float, float]]:
    if workload == "norm":
        return [(float(rng.uniform(4.0 / math.pi, 8.0)), 0.5) for _ in range(count)]
    return [(8.0, float(rng.uniform(0.25, 0.45))) for _ in range(count)]


def _norm_child(args: list[str]) -> dict:
    proc = _child([str(BENCH / "child.py"), *args])
    if proc.returncode != 0:
        raise BenchError(f"norm process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_norm(args: argparse.Namespace, res: dict) -> None:
    rng = np.random.default_rng(args.seed)
    params = draw_params(args.workload, rng, 500)
    check_rng = np.random.default_rng([args.seed, 1])
    for _ in range(NORM_PROCESSES):
        spec = {"slice_s": args.seconds / NORM_PROCESSES, "params": params}
        out = _norm_child(["norm", json.dumps(spec)])
        del params[: len(out["passes"])]
        res["setup_s"].append(out["setup_s"])
        res["peak_rss_mb"].append(out["peak_rss_mb"])
        for rec in out["passes"]:
            rec["problems"] = check_norm(args.workload, rec, check_rng)
            res["pass_s"].append(rec["seconds"])
            res["passes"].append(rec)
    if args.trace:
        trace_out = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spec = {"params": [TRACE_PARAMS[args.workload]]}
        rec = _norm_child(["norm-trace", json.dumps(spec), str(trace_out)])
        rec["problems"] = check_norm(args.workload, rec, check_rng)
        res["traced"] = rec
        res["trace_file"] = trace_out
        res["traced_pass_s"] = rec["seconds"]


# -- result ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holdercert" / "__init__.py").is_file():
        print(f"error: no holdercert sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    calib_start = calibrate()
    res: dict = {"setup_s": [], "pass_s": [], "peak_rss_mb": [], "passes": []}
    try:
        (run_verify if args.workload == "verify" else run_norm)(args, res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_end = calibrate()

    checked = res["passes"] + ([res["traced"]] if args.trace else [])
    attempted = len(checked)
    failed = sum(1 for p in checked if p["problems"])
    e2e = {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "pass_s": (statistics.median(res["pass_s"]), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"]), "MB"),
    }
    if args.trace:
        import layers

        with open(res["trace_file"]) as fh:
            trace = json.load(fh)
        trace["traced_pass_s"] = res["traced_pass_s"]
        metrics = layers.layer_metrics(trace, e2e["pass_s"][0])
    else:
        metrics = e2e

    record = {
        "environment": environment(args),
        "samples": {k: len(res[k]) for k in ("setup_s", "pass_s", "peak_rss_mb")},
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "failed_frac": failed / attempted,
        "host_calibration_s": {"start": calib_start, "end": calib_end},
        "report_sha256": res.get("report_sha256"),
        "passes": res["passes"],
        "traced": res.get("traced"),
    }
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    n = record["samples"]
    print(
        f"{args.workload}: setup_s={e2e['setup_s'][0]:.4f} s (n={n['setup_s']})  "
        f"pass_s={e2e['pass_s'][0]:.4f} s (n={n['pass_s']})  "
        f"peak_rss_mb={e2e['peak_rss_mb'][0]:.1f} MB (n={n['peak_rss_mb']})  "
        f"failed_frac={failed / attempted:g} ({failed}/{attempted})  "
        f"host calibration {calib_start:.4f} s -> {calib_end:.4f} s"
    )
    for p in checked:
        for problem in p["problems"]:
            print(f"check failed: {problem}")
    print(json.dumps({k: v for k, v in record.items() if k not in ("passes", "traced")}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
