"""Run the benchmark in alternating pairs of two source trees and summarize them.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N \\
        --seconds S --first-seed K [--claim METRIC] [--out PATH]

Pair k (1 to N) runs ``bench/run.py --workload W --seed K+k-1 --seconds S
--trace 0`` from each root with this interpreter, the parent first on odd k,
and reads each run's last stdout line.  ``--workload`` may be repeated; the
workloads run one after another.  It prints each pair's end-to-end metrics,
then per metric each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``) and how many pairs the
change wins, ties counting for neither; which way is better comes from
``end_to_end`` in this repository's BENCHMARK.json.  For the ``--claim``
metric it prints whether a gain may be claimed: the change wins at least
9/10 of the pairs, and its median is better than the parent's by more than
the parent's interquartile distance.  ``--out`` writes every pair run so
far, and each workload's summary, as JSON after each pair, so a stopped
batch keeps its runs.  Exits 1 if any run was incorrect (or printed no
result), 0 otherwise; a claim that does not hold does not set the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def better_ways() -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench run from root: its metric values, correct, failed and attempted."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run([*cmd, "--seconds", str(seconds), "--trace", "0"], cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        run = {name: m["value"] for name, m in result["metrics"].items()}
        run.update(correct=result["correct"] and proc.returncode == 0, failed=result["failed"], attempted=result["attempted"])
    except (IndexError, ValueError, KeyError, TypeError):
        run = {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return run


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and wins of paired runs; ties count for neither side."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q1, _, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, _, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": [p_q1, p_q3],
        "change_quartiles": [c_q1, c_q3],
        "change_wins": wins,
        "pairs": len(parent),
        "better": better,
    }


def claim_holds(summary: dict) -> bool:
    """The gain rule: at least 9/10 of pairs won, and a median gap, in the
    better direction, larger than the parent's interquartile distance."""
    sign = 1 if summary["better"] == "lower" else -1
    gap = sign * (summary["parent_median"] - summary["change_median"])
    iqr = summary["parent_quartiles"][1] - summary["parent_quartiles"][0]
    return 10 * summary["change_wins"] >= 9 * summary["pairs"] and gap > iqr


def summaries(pairs: list[dict], ways: dict[str, str]) -> dict:
    """summarize() of each metric over the pairs in which both runs reported it."""
    out = {}
    for name, better in ways.items():
        both = [p for p in pairs if name in p["parent"] and name in p["change"]]
        if len(both) >= 2:
            out[name] = summarize([p["parent"][name] for p in both], [p["change"][name] for p in both], better)
    return out


def _num(value) -> str:
    return "-" if value is None else f"{value:.4g}"


def claim_line(name: str, s: dict) -> str:
    iqr = s["parent_quartiles"][1] - s["parent_quartiles"][0]
    gap = s["parent_median"] - s["change_median"]
    verdict = "holds" if claim_holds(s) else "does not hold"
    return (
        f"claim {name}: change wins {s['change_wins']}/{s['pairs']} (needs 9/10), "
        f"median gap {gap:+.4g} vs parent IQR {iqr:.4g} ({s['better']} is better): {verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    ways = better_ways()
    if args.claim is not None and args.claim not in ways:
        parser.error(f"--claim must be one of {sorted(ways)}")
    roots = dict(zip(SIDES, (args.parent_root, args.change_root)))

    record = {
        "harness": (
            f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 from each tree's root, "
            f"{args.pairs} pairs per workload on seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
            "the parent first on odd pairs; each run's last stdout line. Quartiles: statistics.quantiles(n=4, "
            "method='inclusive'); change_wins counts the pairs in which the change is better, ties for neither."
        ),
        "host": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    all_correct = True
    for workload in args.workload:
        pairs: list[dict] = []
        entry = record["workloads"][workload] = {"pairs": pairs}
        for k in range(1, args.pairs + 1):
            seed = args.first_seed + k - 1
            order = SIDES if k % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, args.seconds)
                all_correct &= pair[side]["correct"]
            pairs.append(pair)
            shown = "  ".join(f"{m} {_num(pair['parent'].get(m))} -> {_num(pair['change'].get(m))}" for m in ways)
            bad = [s for s in SIDES if not pair[s]["correct"]]
            print(f"{workload} pair {k} seed {seed} ({order[0]} first): {shown}" + (f"  INCORRECT: {bad}" if bad else ""), flush=True)
            entry["summary"] = summaries(pairs, ways)
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
        for name, s in entry["summary"].items():
            print(
                f"{workload} {name}: parent {s['parent_median']:.4g} ({s['parent_quartiles'][0]:.4g}-"
                f"{s['parent_quartiles'][1]:.4g}), change {s['change_median']:.4g} ({s['change_quartiles'][0]:.4g}-"
                f"{s['change_quartiles'][1]:.4g}); change better in {s['change_wins']}/{s['pairs']}",
                flush=True,
            )
        if args.claim in entry["summary"]:
            print(f"{workload} " + claim_line(args.claim, entry["summary"][args.claim]), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
