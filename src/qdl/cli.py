"""Command-line front end: analyze | figure | verify.

Exit codes: 0 success, 1 verification failure, 2 argument or I/O error (stdout closed or full included).
All numeric output is fixed-point with 9 decimals so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import analyze
from .figures import DEFAULT_RESOLUTION, _fmt, write_figure_csv
from .states import Scenario, ScenarioParams
from .verify import DEFAULT_RESOLUTION as VERIFY_RESOLUTION
from .verify import SUITES, run_suites


def _fmt_bool(value) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdl",
        description="Two-qubit which-way interferometry under decoherence: "
        "visibility, CHSH nonlocality, separability and mutual information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--scenario", required=True, choices=[s.value for s in Scenario])
        p.add_argument("--d", type=float, default=0.0, help="distinguishability in [0,1]")
        p.add_argument("--r", type=float, default=0.5, help="path weight (free scenario only)")
        p.add_argument("--r-s", type=float, default=1.0, help="system robustness in [0,1]")
        p.add_argument("--r-m", type=float, default=1.0, help="meter robustness in [0,1]")

    p_an = sub.add_parser("analyze", help="full report for one parameter point")
    add_params(p_an)
    p_an.add_argument("--restarts", type=int, default=32, help="CHSH optimizer restarts")
    p_an.add_argument("--seed", type=int, default=0, help="optimizer start-point seed")
    p_an.set_defaults(usage=p_an.format_usage)

    p_fig = sub.add_parser("figure", help="emit the data grid behind figure N as CSV")
    p_fig.add_argument("n", type=int, help="figure number, 1..7")
    p_fig.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION, help="steps per axis (>= 11)")
    p_fig.add_argument("--out", required=True, help="output CSV path")

    p_ver = sub.add_parser("verify", help="run the verification and discrepancy suites")
    p_ver.add_argument("--resolution", type=int, default=VERIFY_RESOLUTION, help="grid steps per axis")
    p_ver.add_argument("--restarts", type=int, default=32)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=None, help="override every suite tolerance")
    p_ver.add_argument(
        "--suite",
        choices=sorted(SUITES),
        action="append",
        default=None,
        help="run only the named suite (repeatable); default is all suites",
    )
    return parser


def _cmd_analyze(args) -> int:
    scenario = Scenario(args.scenario)
    params = ScenarioParams(r=args.r, d=args.d, r_s=args.r_s, r_m=args.r_m)
    report = analyze(scenario, params, restarts=args.restarts, seed=args.seed)
    out = [
        f"scenario={scenario.value}",
        f"r={_fmt(params.r)}",
        f"d={_fmt(params.d)}",
        f"r_s={_fmt(params.r_s)}",
        f"r_m={_fmt(params.r_m)}",
        f"v={_fmt(report.v)}",
        f"p={_fmt(report.p)}",
        f"b_max_horodecki={_fmt(report.bell.b_horodecki)}",
        f"b_max_closed_form={_fmt(report.bell.b_closed_form)}",
        f"b_max_brute={_fmt(report.bell.b_brute)}",
        "ppt_spectrum=" + ",".join(_fmt(x) for x in report.sep.ppt_spectrum),
        f"negativity={_fmt(report.sep.negativity)}",
        f"s_a={_fmt(report.info.s_a)}",
        f"s_b={_fmt(report.info.s_b)}",
        f"s_ab={_fmt(report.info.s_ab)}",
        f"i_ab={_fmt(report.info.i_ab)}",
        "info_threshold="
        + (_fmt(report.info.threshold) if report.info.threshold is not None else "n/a"),
        f"d_threshold={_fmt(report.d_threshold)}",
        f"chsh_violating={_fmt_bool(report.classifications.chsh_violating)}",
        f"lrt_explainable={_fmt_bool(report.classifications.lrt_explainable)}",
        f"entangled={_fmt_bool(report.classifications.entangled)}",
        f"above_info_threshold={_fmt_bool(report.classifications.above_info_threshold)}",
    ]
    print("\n".join(out))
    return 0


def _cmd_figure(args) -> int:
    try:
        rows = write_figure_csv(args.n, args.resolution, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"figure {args.n}: wrote {rows} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    results = run_suites(
        resolution=args.resolution,
        restarts=args.restarts,
        seed=args.seed,
        tolerance_override=args.tolerance,
        names=names,
    )
    width = max(len(r.name) for r in results)
    print(f"{'suite':<{width}}  {'max residual':>13}  {'tolerance':>10}  status")
    for res in results:
        print(
            f"{res.name:<{width}}  {res.max_residual:13.3e}  {res.tolerance:10.1e}  "
            + ("PASS" if res.passed else "FAIL")
        )
    detail = [r for r in results if r.lines]
    if detail:
        print()
        print("discrepancy report (published forms vs adopted forms):")
        for res in detail:
            for line in res.lines:
                print(line)
            print()
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"analyze": _cmd_analyze, "figure": _cmd_figure}.get(args.command, _cmd_verify)
    try:
        status = command(args)
        if sys.stdout is None:  # closed at start (`>&-`): print wrote nothing, as to a reader that left
            return 2
        sys.stdout.flush()  # a reader that closed early shows here, not in the flush at exit
        return status
    except ValueError as exc:  # a bad argument value; analyze also repeats its usage line
        print(f"error: {exc}", file=sys.stderr)
        if "usage" in args:
            print(args.usage(), end="", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout closed (as by `| head -1`) or full; the flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left early needs no message
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
