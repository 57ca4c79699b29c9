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
    MetricRecord,
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


_HELP = {
    "model": "one of " + ", ".join(MODELS),
    "m": "splitting limit",
    "w_gen": "local GP similarity threshold",
    "experts": "rBCM expert count",
    "dataset": "'synthetic' or 'csv:<path>'",
    "x_cols": "comma list of predictor columns",
    "y_col": "response column",
    "kfold": "folds; below 2 uses a single split",
    "seed": "master seed",
    "sweep": "checkpoint counts start:stop:step",
    "train_schedule": " or ".join(SCHEDULES) + "; batch: fit the kernel once, right after the "
                      "500th row (min(500, m) for splitting); never: do not fit it",
    "out": "output CSV path",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """`--config`, then one flag per `ExperimentConfig` field, named as the
    field with `_` written `-`.  A flag's value reaches the config as text,
    which parses and checks it as it does a config file's; a bool field's
    flag may stand alone, meaning 1."""
    parser.add_argument("--config", help="key=value config file")
    for f in fields(ExperimentConfig):
        bare = {"nargs": "?", "const": "1"} if f.type == "bool" else {}
        parser.add_argument("--" + f.name.replace("_", "-"), help=_HELP.get(f.name), **bare)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The `--config` file's settings, overridden by the flags given."""
    mapping: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_kv_text(fh.read())
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    mapping.update((key, text) for key, text in flags.items() if text is not None)
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
                       choices=[f.name for f in fields(MetricRecord) if f.type == "float"])
    sum_p.add_argument("--out", help="output CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            rows = summarize(read_metrics(args.input), metric=args.metric)
            out = args.out or "summary.csv"
            emit_summary_csv(rows, out)
            print(f"wrote {len(rows)} summary rows to {out}")
            return 0
        cfg = build_config(args)
        if args.command == "run":
            records, summary = run_experiment(cfg), None
        else:
            records, summary = grid_search(cfg, _parse_grid(args.grid))
        out = cfg.out or "metrics.csv"
        emit_csv(records, out)
        print(f"wrote {len(records)} records to {out}")
        if summary is not None:
            for point, mse in summary.table:
                print(f"  {point} -> mean mse {mse:.6g}")
            print(f"best: {summary.best} (mean mse {summary.best_mse:.6g})")
            if summary.wgen_trend is not None:
                print(f"w_gen trend monotone non-increasing: {summary.wgen_monotone}")
    except (ContractViolationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
