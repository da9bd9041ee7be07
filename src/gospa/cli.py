"""Command-line interface.

Subcommands:
  compute  metric between two point-set files
  mean     Monte Carlo metric estimate between two multi-Bernoulli model files
  table1   the built-in 3-metric x 2-exponent x 12-scenario benchmark grid

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import documents, metrics, rfs


def _fmt(value: float, precision: int) -> str:
    return f"{float(value):.{precision}g}"


def _rounded(value: float, precision: int) -> float:
    return float(_fmt(value, precision))


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {value}")
    return value


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _print_csv(header: list[str], rows: list[list], comment: str | None = None) -> None:
    buffer = io.StringIO()
    if comment:
        buffer.write(f"# {comment}\r\n")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _cmd_compute(args) -> int:
    truth = documents.read_point_set(args.truth)
    estimate = documents.read_point_set(args.estimate)
    alpha = args.alpha if args.metric == "gospa" else 1.0
    params = metrics.GospaParams(c=args.c, alpha=alpha, p=args.p, base_distance=args.base_distance)
    precision = args.precision
    if args.metric == "ospa":
        breakdown = None
        total = metrics.ospa(truth, estimate, c=args.c, p=args.p,
                             base_distance=args.base_distance)
    else:
        breakdown = metrics.gospa(truth, estimate, params)
        total = breakdown.total

    config = {"c": args.c, "p": args.p, "base_distance": args.base_distance}
    if args.metric == "gospa":
        config["alpha"] = args.alpha

    if args.format == "json":
        payload = {
            "command": "compute",
            "metric": args.metric,
            "config": config,
            "truth_size": len(truth),
            "estimate_size": len(estimate),
            "total": _rounded(total, precision),
        }
        if breakdown is not None and breakdown.has_decomposition:
            payload["decomposition"] = {
                "localization_cost_p": _rounded(breakdown.localization_cost_p, precision),
                "missed_count": breakdown.missed_count,
                "false_count": breakdown.false_count,
                "missed_cost_p": _rounded(breakdown.missed_cost_p, precision),
                "false_cost_p": _rounded(breakdown.false_cost_p, precision),
            }
            payload["assignment"] = [list(pair) for pair in breakdown.assignment.pairs]
        _print_json(payload)
    elif args.format == "csv":
        header = ["metric", "c", "alpha", "p", "truth_size", "estimate_size", "total",
                  "localization_cost_p", "missed_count", "false_count",
                  "missed_cost_p", "false_cost_p", "assignment"]
        row = [args.metric, _fmt(args.c, precision),
               _fmt(args.alpha, precision) if args.metric == "gospa" else "",
               _fmt(args.p, precision), len(truth), len(estimate), _fmt(total, precision)]
        if breakdown is not None and breakdown.has_decomposition:
            row += [_fmt(breakdown.localization_cost_p, precision),
                    breakdown.missed_count, breakdown.false_count,
                    _fmt(breakdown.missed_cost_p, precision),
                    _fmt(breakdown.false_cost_p, precision),
                    ";".join(f"{i}:{j}" for i, j in breakdown.assignment.pairs)]
        else:
            row += ["", "", "", "", "", ""]
        _print_csv(header, [row])
    else:
        print(f"metric: {args.metric}")
        line = f"c: {_fmt(args.c, precision)}"
        if args.metric == "gospa":
            line += f"   alpha: {_fmt(args.alpha, precision)}"
        line += f"   p: {_fmt(args.p, precision)}   base: {args.base_distance}"
        print(line)
        print(f"truth size: {len(truth)}   estimate size: {len(estimate)}")
        print(f"total: {_fmt(total, precision)}")
        if args.metric == "gospa":
            if breakdown.has_decomposition:
                print(f"localization cost^p: {_fmt(breakdown.localization_cost_p, precision)}")
                print(f"missed targets: {breakdown.missed_count} "
                      f"(cost^p: {_fmt(breakdown.missed_cost_p, precision)})")
                print(f"false targets: {breakdown.false_count} "
                      f"(cost^p: {_fmt(breakdown.false_cost_p, precision)})")
                pairs = breakdown.assignment.pairs
                rendered = " ".join(f"{i}->{j}" for i, j in pairs) if pairs else "none"
                print(f"assignment (truth->estimate): {rendered}")
            else:
                print("decomposition: not applicable (alpha != 2)")
    return 0


def _cmd_mean(args) -> int:
    truth = documents.read_multi_bernoulli(args.truth_model)
    estimate = documents.read_multi_bernoulli(args.estimate_model)
    sampler = rfs.IndependentPairSampler(truth=truth, estimate=estimate)
    params = metrics.GospaParams(c=args.c, alpha=args.alpha, p=args.p,
                                 base_distance=args.base_distance)
    p_prime = args.p_prime if args.p_prime is not None else args.p
    cfg = rfs.EstimatorConfig(p_prime=p_prime, samples=args.samples,
                              master_seed=args.seed)
    result = rfs.estimate_metric(sampler, params, cfg, variant=args.metric,
                                 workers=args.workers)
    precision = args.precision

    config = {"c": args.c, "alpha": args.alpha, "p": args.p, "p_prime": p_prime,
              "samples": args.samples, "seed": args.seed}
    if args.format == "json":
        _print_json({
            "command": "mean",
            "metric": args.metric,
            "config": config,
            "value": _rounded(result.value, precision),
            "standard_error": _rounded(result.standard_error, precision),
            "samples": result.samples,
        })
    elif args.format == "csv":
        header = ["metric", "c", "alpha", "p", "p_prime", "samples", "seed",
                  "value", "standard_error"]
        row = [args.metric, _fmt(args.c, precision), _fmt(args.alpha, precision),
               _fmt(args.p, precision), _fmt(p_prime, precision), args.samples,
               args.seed, _fmt(result.value, precision),
               _fmt(result.standard_error, precision)]
        _print_csv(header, [row])
    else:
        print(f"metric: {args.metric}")
        print(f"c: {_fmt(args.c, precision)}   alpha: {_fmt(args.alpha, precision)}   "
              f"p: {_fmt(args.p, precision)}   p': {_fmt(p_prime, precision)}")
        print(f"samples: {args.samples}   seed: {args.seed}")
        print(f"value: {_fmt(result.value, precision)}")
        print(f"standard error: {_fmt(result.standard_error, precision)}")
    return 0


def _cmd_table1(args) -> int:
    result = rfs.run_table1(samples=args.samples, master_seed=args.seed,
                            workers=args.workers)
    precision = args.precision
    config = {"c": result.c, "samples": result.samples, "seed": result.master_seed}

    if args.format == "json":
        _print_json({
            "command": "table1",
            "config": config,
            "cells": [
                {
                    "metric": cell.metric,
                    "p": cell.p,
                    "n_missed": cell.n_missed,
                    "n_false": cell.n_false,
                    "value": _rounded(cell.estimate.value, precision),
                    "standard_error": _rounded(cell.estimate.standard_error, precision),
                }
                for cell in result.cells
            ],
        })
    elif args.format == "csv":
        header = ["metric", "p", "n_missed", "n_false", "value", "standard_error"]
        rows = [
            [cell.metric, _fmt(cell.p, precision), cell.n_missed, cell.n_false,
             _fmt(cell.estimate.value, precision),
             _fmt(cell.estimate.standard_error, precision)]
            for cell in result.cells
        ]
        comment = (f"c={_fmt(result.c, precision)} samples={result.samples} "
                   f"seed={result.master_seed}")
        _print_csv(header, rows, comment=comment)
    else:
        print(f"benchmark grid: c={_fmt(result.c, precision)}  "
              f"samples={result.samples}  seed={result.master_seed}")
        grid = {}
        for metric in rfs.TABLE1_METRICS:
            for n_false in rfs.TABLE1_N_FALSE:
                for p in rfs.TABLE1_EXPONENTS:
                    for n_missed in rfs.TABLE1_N_MISSED:
                        est = result.estimate(metric, p, n_missed, n_false)
                        grid[(metric, n_false, p, n_missed)] = (
                            f"{_fmt(est.value, precision)}"
                            f"±{_fmt(est.standard_error, 3)}")
        width = max(8, max(len(cell) for cell in grid.values()) + 2)
        per_block = width * len(rfs.TABLE1_N_MISSED)
        print(" " * 16 + "".join(
            f"p'=p={_fmt(p, precision)}".center(per_block) for p in rfs.TABLE1_EXPONENTS))
        print("metric   #false " + "".join(
            f"miss={m}".ljust(width)
            for _ in rfs.TABLE1_EXPONENTS for m in rfs.TABLE1_N_MISSED))
        for metric in rfs.TABLE1_METRICS:
            for n_false in rfs.TABLE1_N_FALSE:
                cells = "".join(
                    grid[(metric, n_false, p, n_missed)].ljust(width)
                    for p in rfs.TABLE1_EXPONENTS for n_missed in rfs.TABLE1_N_MISSED)
                print(f"{metric:<8} {n_false:>6} " + cells)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gospa",
        description="GOSPA-family metrics between finite sets of targets and "
                    "Monte Carlo estimates of their expectations over random finite sets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    metric_options = argparse.ArgumentParser(add_help=False)
    metric_options.add_argument("--c", type=float, required=True, help="cut-off distance")
    metric_options.add_argument("--alpha", type=float, default=2.0,
                                help="GOSPA alpha in (0, 2] (used by --metric gospa)")
    metric_options.add_argument("--p", type=float, default=1.0, help="exponent in [1, inf)")
    metric_options.add_argument("--metric", choices=("gospa", "ospa", "uospa"),
                                default="gospa")
    metric_options.add_argument("--base-distance", choices=("euclidean", "manhattan"),
                                default="euclidean")
    sampling_options = argparse.ArgumentParser(add_help=False)
    sampling_options.add_argument("--samples", type=int, default=1000)
    sampling_options.add_argument("--seed", type=int, default=0)
    sampling_options.add_argument("--workers", type=int, default=1)
    output_options = argparse.ArgumentParser(add_help=False)
    output_options.add_argument("--format", choices=("text", "json", "csv"), default="text")
    output_options.add_argument("--precision", type=_non_negative_int, default=6,
                                help="significant digits in printed numbers")

    compute = subparsers.add_parser(
        "compute", parents=[metric_options, output_options],
        help="metric between two point-set files (JSON or CSV)")
    compute.add_argument("truth", help="truth point-set file")
    compute.add_argument("estimate", help="estimate point-set file")
    compute.set_defaults(func=_cmd_compute)

    mean = subparsers.add_parser(
        "mean", parents=[metric_options, sampling_options, output_options],
        help="Monte Carlo metric estimate between two multi-Bernoulli model files")
    mean.add_argument("truth_model", help="truth model file")
    mean.add_argument("estimate_model", help="estimate model file")
    mean.add_argument("--p-prime", type=float, default=None,
                      help="outer exponent p' (defaults to p)")
    mean.set_defaults(func=_cmd_mean)

    table1 = subparsers.add_parser(
        "table1", parents=[sampling_options, output_options],
        help="estimate the benchmark grid over missed/false counts (c=8)")
    table1.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
