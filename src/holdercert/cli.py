"""Command-line surface: verify | roots | constants | norm.

Exit codes: 0 success (verify: every check passed), 1 a check failed or
stayed undecided, 2 configuration or I/O error.  Identical flags produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .constants import ConstantsRow, c_n
from .optimizer import ConfigError, global_sup
from .report import report_to_json, report_to_markdown, run_verification, supremum_dict, table_cell
from .roots import N_MAX, find_alpha


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(n_max=args.n_max)
    report.config["format"] = args.format
    text = report_to_json(report) if args.format == "json" else report_to_markdown(report)
    _emit(text, args.out)
    return 0 if report.ok else 1


def cmd_roots(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= N_MAX:
        raise ConfigError(f"--n must be in [1, {N_MAX}], got {args.n}")
    lines = ["n alpha theta bracket_width residual"]
    for n in range(1, args.n + 1):
        cert = find_alpha(n)
        lines.append(
            f"{n} {cert.alpha!r} {cert.theta!r} {cert.bracket.width!r} {cert.residual!r}"
        )
        # binary64 alpha alone leaves |alpha tan(theta) - 1| up to alpha ulp(alpha)/2
        if cert.residual > cert.alpha * math.ulp(cert.alpha):
            print(f"residual for n={n} exceeds alpha*ulp(alpha)", file=sys.stderr)
            _emit("\n".join(lines) + "\n", args.out)
            return 1
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= N_MAX - 1:  # row n reads alpha_{n+1}
        raise ConfigError(f"--n must be in [1, {N_MAX - 1}], got {args.n}")
    lines = [" ".join(ConstantsRow._fields)] + [" ".join(map(table_cell, c_n(n))) for n in range(1, args.n + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    rep = global_sup(
        n_intervals=args.n,
        x_cap=args.x_cap,
        grid_resolution=args.resolution,
        alpha_exp=args.alpha,
    )
    _emit(json.dumps(supremum_dict(rep), indent=2, allow_nan=False) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holdercert",
        description="Certified verification of the sqrt(2|x-y|) bound for x sin(1/x) "
        "and numerical estimation of its Holder-1/2 seminorm.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full inequality-certification campaign")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roots", help="certified roots alpha_n and angles theta_n")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("constants", help="per-interval constants table")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("norm", help="estimate the global quotient supremum")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--x-cap", type=float, default=8.0)
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_norm)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
