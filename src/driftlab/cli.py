"""Command-line front end: simulate, classify, sweep, verify."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import lab
from .scenario import SWEEP_PARAMETERS, ScenarioError, parse_scenario, read_sweep_value
from .weights import classify


def _load_scenario(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path!r}: {exc}") from exc
    return parse_scenario(text, name=p.stem)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.config)
    out = Path(args.out) / scenario.name if args.out else None
    report = lab.run(scenario, out_dir=out)
    if not args.quiet:
        print(f"[{report.name}] verdict={report.classification.verdict.value} "
              f"final_center={report.final_center:.6g} final_sup={report.final_sup:.6g}"
              + (f" h_pred={report.h_pred:.6g}" if report.h_pred is not None else ""))
        if out is not None:
            print(f"wrote frames.csv, diagnostics.csv, report.json under {out}")
    return 0


def _cmd_classify(args) -> int:
    scenario = _load_scenario(args.config)
    result = classify(scenario.profile, scenario.n_dim)
    if not args.quiet:
        L = result.growth_limit
        print(f"verdict: {result.verdict.value}")
        print(f"growth limit: {'n/a' if L is None else L}")
        print(f"weight mass: {'n/a' if result.phi_mass is None else result.phi_mass}")
        print(f"note: {result.note}")
    if args.out:
        lab.write_json(Path(args.out) / f"{scenario.name}_classification.json",
                       {"name": scenario.name} | result.to_dict())
    return 0


def _parse_values(parameter: str, raw: str):
    vals = [read_sweep_value(parameter, tok, "--values")
            for tok in map(str.strip, raw.split(",")) if tok]
    if not vals:
        raise ScenarioError("--values: empty list")
    return vals


def _worker_count(raw: str) -> int:
    try:
        k = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"needs at least one worker process, got {k}")
    return k


def _attach_values(argv):
    """Write "--values -0.5,-0.8" as "--values=-0.5,-0.8".

    argparse reads a separate argument that starts with a minus sign and is
    not one plain number as an option, so a list of negative values would
    lose its flag.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--values" and re.match(r"-[\d.]", tok):
            out[-1] = f"--values={tok}"
        else:
            out.append(tok)
    return out


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args.config)
    values = _parse_values(args.param, args.values)
    result = lab.sweep(scenario, args.param, values, threads=args.threads, out_dir=args.out)
    if not args.quiet:
        print(result.table)
    failed = sum(1 for row in result.rows if row.error is not None)
    return 1 if failed == len(result.rows) else 0


def _cmd_verify(args) -> int:
    suites = [name for s in args.suite for name in (lab.suite_names() if s == "all" else [s])]
    reports = lab.verify(*suites)
    for report in reports:
        summary = f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}"
        if args.quiet:
            # still emit the single-line summary so scripts can grep it
            print(summary)
        else:
            for check in report.checks:
                print(check.line())
            print(f"{summary} ({report.elapsed_seconds:.1f}s)")
        if args.out:
            lab.write_json(Path(args.out) / f"verify_{report.suite}.json", report.to_dict())
    return 0 if all(report.passed for report in reports) else 1


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="DIR",
                        help="directory for output artifacts (default: no files)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Radial advection-diffusion laboratory: simulate drift scenarios, "
                    "classify their long-time behavior, and verify the solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one scenario and write frames/diagnostics/report")
    p_sim.add_argument("config", help="scenario config file")

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classify the scenario's drift profile without simulating")
    p_cls.add_argument("config", help="scenario config file")

    p_swp = sub.add_parser("sweep", parents=[common],
                           help="repeat a scenario over a list of parameter values")
    p_swp.add_argument("config", help="scenario config file")
    p_swp.add_argument("--param", required=True, choices=tuple(SWEEP_PARAMETERS))
    p_swp.add_argument("--threads", type=_worker_count, default=1, metavar="K",
                       help="rows made at a time, each in a child forked for it (default 1)")
    p_swp.add_argument("--values", required=True, metavar="CSV",
                       help="comma-separated parameter values, e.g. 1,2,3 or -0.5,-0.8")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run named verification suites at reference resolution")
    p_ver.add_argument("suite", nargs="+", help=f"any of {', '.join(lab.suite_names())}, or all")

    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "simulate": _cmd_simulate,
        "classify": _cmd_classify,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
