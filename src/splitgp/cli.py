"""Command-line entry point: run experiments, grid searches, and summaries.

Configuration comes from an optional key=value file plus flags; flags win.
Results land in CSV files ready for plotting elsewhere.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    MODELS,
    SCHEDULES,
    ExperimentConfig,
    _coerce,
    emit_csv,
    emit_summary_csv,
    grid_search,
    parse_kv_text,
    read_metrics,
    run_experiment,
    summarize,
)
from .exceptions import ContractViolationError


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--m", type=int, help="splitting limit")
    parser.add_argument("--wgen", dest="w_gen", type=float, help="local GP similarity threshold")
    parser.add_argument("--experts", type=int, help="rBCM expert count")
    parser.add_argument("--dataset", help="'synthetic' or 'csv:<path>'")
    parser.add_argument("--synthetic-n", dest="synthetic_n", type=int)
    parser.add_argument("--x-cols", dest="x_cols", help="comma list of predictor columns")
    parser.add_argument("--y-col", dest="y_col", type=int, help="response column")
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--kfold", type=int, help="folds; below 2 uses a single split")
    parser.add_argument("--train-fraction", dest="train_fraction", type=float)
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--sweep", help="checkpoint counts start:stop:step")
    parser.add_argument("--train-schedule", dest="train_schedule",
                        choices=SCHEDULES)
    parser.add_argument("--fit-iters", dest="fit_iters", type=int)
    parser.add_argument("--fit-subsample", dest="fit_subsample", type=int)
    parser.add_argument("--standardize-x", dest="standardize_x", action="store_const",
                        const="1", default=None)
    parser.add_argument("--out", help="output CSV path")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The `--config` file's settings, overridden by the flags given."""
    mapping: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_kv_text(fh.read())
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            mapping[f.name] = value
    return ExperimentConfig.from_mapping(mapping)


def _parse_grid(items: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for item in items:
        key, sep, values = item.partition("=")
        if not sep:
            raise ContractViolationError(f"grid entry {item!r} is not key=v1,v2,...")
        key = key.strip()
        grid[key] = [_coerce(key, v.strip()) for v in values.split(",")]
    return grid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitgp-bench",
        description="Benchmark streaming GP regressors and emit CSV metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment configuration")
    _add_run_flags(run_p)

    grid_p = sub.add_parser("grid", help="run a parameter grid")
    _add_run_flags(grid_p)
    grid_p.add_argument("--grid", action="append", default=[],
                        help="key=v1,v2,... (repeatable)", required=True)

    sum_p = sub.add_parser("summarize", help="aggregate a metrics CSV")
    sum_p.add_argument("input", help="metrics CSV from a run")
    sum_p.add_argument("--metric", default="mse",
                       choices=["mse", "rmse", "memory_kb", "train_time_s", "predict_time_s"])
    sum_p.add_argument("--out", help="output CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = build_config(args)
            records = run_experiment(cfg)
            out = cfg.out or "metrics.csv"
            emit_csv(records, out)
            print(f"wrote {len(records)} records to {out}")
        elif args.command == "grid":
            cfg = build_config(args)
            records, summary = grid_search(cfg, _parse_grid(args.grid))
            out = cfg.out or "metrics.csv"
            emit_csv(records, out)
            print(f"wrote {len(records)} records to {out}")
            for point, mse in summary.table:
                print(f"  {point} -> mean mse {mse:.6g}")
            print(f"best: {summary.best} (mean mse {summary.best_mse:.6g})")
            if summary.wgen_trend is not None:
                print(f"w_gen trend monotone non-increasing: {summary.wgen_monotone}")
        else:
            rows = summarize(read_metrics(args.input), metric=args.metric)
            out = args.out or "summary.csv"
            emit_summary_csv(rows, out)
            print(f"wrote {len(rows)} summary rows to {out}")
    except ContractViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
