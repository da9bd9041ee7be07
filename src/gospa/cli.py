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
import functools
import io
import json
import math
import sys

from . import documents, metrics, rfs


def _fmt(value: float, precision: int) -> str:
    return f"{float(value):.{precision}g}"


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {value}")
    return value


# Record keys whose values are results: JSON rounds them to the precision
# and echoes every other float as given, while CSV rounds every float.
_RESULT_KEYS = frozenset({"total", "localization_cost_p", "missed_cost_p", "false_cost_p",
                          "value", "standard_error"})
_COMPUTE_CSV_COLUMNS = ("metric", "c", "alpha", "p", "truth_size", "estimate_size", "total",
                        "localization_cost_p", "missed_count", "false_count",
                        "missed_cost_p", "false_cost_p", "assignment")


def _json_ready(value, precision: int, key: str | None = None):
    if isinstance(value, dict):
        return {name: _json_ready(item, precision, name) for name, item in value.items()}
    if isinstance(value, list):
        return [_json_ready(item, precision) for item in value]
    return float(_fmt(value, precision)) if key in _RESULT_KEYS else value


def _csv_cell(value, precision: int):
    if isinstance(value, float):
        return _fmt(value, precision)
    if isinstance(value, tuple):  # an assignment's (truth, estimate) pairs
        return ";".join(f"{i}:{j}" for i, j in value)
    return value


def _render(record: dict, fmt: str, precision: int, columns=None) -> str:
    """A command's record as JSON or CSV text.

    JSON is the record itself.  CSV has one row per entry of the record's
    ``cells``, after a comment line with its ``config``, or else one row of
    the record with its nested dicts flattened, a repeated key keeping its
    first place and its last value, and ``command`` left out.
    ``columns`` picks and orders the CSV columns, blank where the record has
    no such key.
    """
    if fmt == "json":
        return json.dumps(_json_ready(record, precision), indent=2) + "\n"
    buffer = io.StringIO()
    if "cells" in record:
        buffer.write("# " + " ".join(f"{key}={_csv_cell(value, precision)}"
                                     for key, value in record["config"].items()) + "\r\n")
        rows = record["cells"]
    else:
        rows = [{}]
        for key, value in record.items():
            rows[0].update(value if isinstance(value, dict) else {key: value})
    columns = columns or [key for key in rows[0] if key != "command"]
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(key, ""), precision) for key in columns] for row in rows)
    return buffer.getvalue()


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _require_workers(args) -> None:
    """``--workers`` has no effect; it is kept for the scripts that pass it."""
    if args.workers < 1:
        raise ValueError("workers must be a positive integer")


def _cmd_compute(args) -> str:
    truth = documents.read_point_set(args.truth)
    estimate = documents.read_point_set(args.estimate)
    alpha = args.alpha if args.metric == "gospa" else 1.0
    params = metrics.GospaParams(c=args.c, alpha=alpha, p=args.p, base_distance=args.base_distance)
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
    record = {"command": "compute", "metric": args.metric, "config": config,
              "truth_size": len(truth), "estimate_size": len(estimate), "total": total}
    if breakdown is not None and breakdown.has_decomposition:
        record["decomposition"] = {key: getattr(breakdown, key) for key in (
            "localization_cost_p", "missed_count", "false_count", "missed_cost_p",
            "false_cost_p")}
        record["assignment"] = breakdown.assignment.pairs
    if args.format != "text":
        return _render(record, args.format, args.precision, _COMPUTE_CSV_COLUMNS)

    fmt = functools.partial(_fmt, precision=args.precision)
    alpha_text = f"   alpha: {fmt(args.alpha)}" if args.metric == "gospa" else ""
    lines = [f"metric: {args.metric}",
             f"c: {fmt(args.c)}{alpha_text}   p: {fmt(args.p)}   base: {args.base_distance}",
             f"truth size: {len(truth)}   estimate size: {len(estimate)}",
             f"total: {fmt(total)}"]
    if "decomposition" in record:
        pairs = " ".join(f"{i}->{j}" for i, j in breakdown.assignment.pairs)
        lines += [f"localization cost^p: {fmt(breakdown.localization_cost_p)}",
                  f"missed targets: {breakdown.missed_count} "
                  f"(cost^p: {fmt(breakdown.missed_cost_p)})",
                  f"false targets: {breakdown.false_count} "
                  f"(cost^p: {fmt(breakdown.false_cost_p)})",
                  f"assignment (truth->estimate): {pairs or 'none'}"]
    elif args.metric == "gospa":
        lines.append("decomposition: not applicable (alpha != 2)")
    return _text(lines)


def _cmd_mean(args) -> str:
    truth = documents.read_multi_bernoulli(args.truth_model)
    estimate = documents.read_multi_bernoulli(args.estimate_model)
    sampler = rfs.IndependentPairSampler(truth=truth, estimate=estimate)
    # only GOSPA depends on alpha, but the configuration echoes it, so it
    # must still be finite
    alpha = args.alpha if args.metric == "gospa" or not math.isfinite(args.alpha) else 1.0
    params = metrics.GospaParams(c=args.c, alpha=alpha, p=args.p,
                                 base_distance=args.base_distance)
    p_prime = args.p_prime if args.p_prime is not None else args.p
    cfg = rfs.EstimatorConfig(p_prime=p_prime, samples=args.samples,
                              master_seed=args.seed)
    _require_workers(args)
    result = rfs.estimate_metric(sampler, params, cfg, variant=args.metric)

    record = {"command": "mean", "metric": args.metric,
              "config": {"c": args.c, "alpha": args.alpha, "p": args.p, "p_prime": p_prime,
                         "samples": args.samples, "seed": args.seed},
              "value": result.value, "standard_error": result.standard_error,
              "samples": result.samples}  # equals config's samples, one CSV column
    if args.format != "text":
        return _render(record, args.format, args.precision)

    fmt = functools.partial(_fmt, precision=args.precision)
    return _text([f"metric: {args.metric}",
                  f"c: {fmt(args.c)}   alpha: {fmt(args.alpha)}   "
                  f"p: {fmt(args.p)}   p': {fmt(p_prime)}",
                  f"samples: {args.samples}   seed: {args.seed}",
                  f"value: {fmt(result.value)}",
                  f"standard error: {fmt(result.standard_error)}"])


def _cmd_table1(args) -> str:
    cfg = rfs.EstimatorConfig(samples=args.samples, master_seed=args.seed)
    _require_workers(args)
    result = rfs.run_table1(samples=cfg.samples, master_seed=cfg.master_seed)
    record = {"command": "table1",
              "config": {"c": result.c, "samples": result.samples, "seed": result.master_seed},
              "cells": [{"metric": cell.metric, "p": cell.p, "n_missed": cell.n_missed,
                         "n_false": cell.n_false, "value": cell.estimate.value,
                         "standard_error": cell.estimate.standard_error}
                        for cell in result.cells]}
    if args.format != "text":
        return _render(record, args.format, args.precision)

    precision = args.precision
    grid = {(cell["metric"], cell["n_false"], cell["p"], cell["n_missed"]):
            f"{_fmt(cell['value'], precision)}±{_fmt(cell['standard_error'], 3)}"
            for cell in record["cells"]}
    width = max(8, max(len(cell) for cell in grid.values()) + 2)
    per_block = width * len(rfs.TABLE1_N_MISSED)
    lines = [f"benchmark grid: c={_fmt(result.c, precision)}  "
             f"samples={result.samples}  seed={result.master_seed}",
             " " * 16 + "".join(f"p'=p={_fmt(p, precision)}".center(per_block)
                                for p in rfs.TABLE1_EXPONENTS),
             "metric   #false " + "".join(f"miss={m}".ljust(width)
                                          for _ in rfs.TABLE1_EXPONENTS
                                          for m in rfs.TABLE1_N_MISSED)]
    for metric in rfs.TABLE1_METRICS:
        for n_false in rfs.TABLE1_N_FALSE:
            cells = "".join(
                grid[(metric, n_false, p, n_missed)].ljust(width)
                for p in rfs.TABLE1_EXPONENTS for n_missed in rfs.TABLE1_N_MISSED)
            lines.append(f"{metric:<8} {n_false:>6} " + cells)
    return _text(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it unchanged, and building it costs about a millisecond."""
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
    sampling_options.add_argument("--workers", type=int, default=1,
                                  help="accepted for compatibility; must be at least 1 "
                                       "and has no effect")
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
        sys.stdout.write(args.func(args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
