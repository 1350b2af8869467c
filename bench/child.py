"""One benchmark process: the program runs here, the harness does not.

    child.py norm SPEC_JSON            set-up, then timed search passes
    child.py norm-trace SPEC_JSON OUT  set-up and one pass, traced
    child.py verify-trace OUT          ``holdercert verify --n-max 200``, traced

``norm`` prints one JSON line: set-up seconds, one record per pass and the
process's peak RSS.  The traced modes write the recorder's spans to OUT;
``verify-trace`` leaves stdout to the report, byte for byte as the CLI
writes it.  The harness checks every output; this file checks nothing.
"""

from __future__ import annotations

import json
import resource
import sys
import time

N_ROOTS = 201  # global_sup(200, ...) reads alpha_1 .. alpha_201
N_PIECES = 200
RESOLUTION = 512


def _setup(recorder=None) -> float:
    """Import the package and certify roots 1..201; returns seconds."""
    t0 = time.perf_counter()
    import holdercert.optimizer  # noqa: F401
    import holdercert.roots as roots

    if recorder is not None:
        recorder.install()
    for n in range(1, N_ROOTS + 1):
        roots.find_alpha(n)
    return time.perf_counter() - t0


def _search(x_cap: float, alpha: float) -> dict:
    import holdercert.optimizer as opt

    t0 = time.perf_counter()
    rep = opt.global_sup(N_PIECES, x_cap, RESOLUTION, alpha)
    seconds = time.perf_counter() - t0
    return {
        "x_cap": x_cap,
        "alpha": alpha,
        "seconds": seconds,
        "sup": rep.sup_estimate,
        "x": rep.arg.x,
        "y": rep.arg.y,
        "alpha_exp": rep.alpha_exp,
        "pieces": len(rep.per_interval),
        "newton_wins": rep.method_breakdown.get("newton", 0),
    }


def run_norm(spec: dict) -> dict:
    """Set up, then run passes in order until the time slice would overrun."""
    setup_s = _setup()
    deadline = time.perf_counter() + spec["slice_s"]
    passes = []
    for x_cap, alpha in spec["params"]:
        rec = _search(x_cap, alpha)
        passes.append(rec)
        if time.perf_counter() + rec["seconds"] > deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "passes": passes, "peak_rss_mb": rss_mb}


def trace_norm(spec: dict, out: str) -> dict:
    from layers import Recorder

    import holdercert.roots  # noqa: F401  (imported before the wrappers go in)
    import holdercert.optimizer  # noqa: F401

    original = holdercert.roots.find_alpha
    recorder = Recorder()
    _setup(recorder)
    x_cap, alpha = spec["params"][0]
    rec = _search(x_cap, alpha)
    recorder.dump(
        out,
        {
            "certified": original.cache_info().misses,
            "pieces": rec["pieces"],
            "newton_wins": rec["newton_wins"],
            "traced_pass_s": rec["seconds"],
        },
    )
    return rec


def trace_verify(out: str) -> int:
    from layers import Recorder

    import holdercert.cli as cli
    import holdercert.roots as roots

    original = roots.find_alpha
    recorder = Recorder()
    recorder.install()
    rc = cli.main(["verify", "--n-max", "200"])
    sys.stdout.flush()
    recorder.dump(out, {"certified": original.cache_info().misses, "pieces": 0, "newton_wins": 0})
    return rc


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "norm":
        print(json.dumps(run_norm(json.loads(argv[1]))))
        return 0
    if mode == "norm-trace":
        print(json.dumps(trace_norm(json.loads(argv[1]), argv[2])))
        return 0
    if mode == "verify-trace":
        return trace_verify(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
