"""Experiment harness: streaming ingestion, error/memory/time metrics,
replicated runs under common random numbers, grid search, CSV output.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import stdtrit

from .baselines import FullGp, LocalGpWgen, Rbcm
from .data import (
    Dataset,
    SeedPlan,
    center_y,
    kfold,
    load_csv,
    standardize_inputs,
    synth_dataset,
    train_test_split,
)
from .exceptions import ContractViolationError, EmptyModelError, NumericalError
from .gp import FitSchedule
from .model import SplittingGP, TrainSchedule

MODELS = ("splitting", "fullgp", "localgp", "rbcm")
SCHEDULES = ("default", "batch", "split", "never")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run except wall-clock time.

    Serializes to a flat key=value block; booleans as 0/1, the sweep as
    start:stop:step, x_cols as a comma list.
    """

    model: str = "splitting"
    m: int = 500
    w_gen: float = 1e-3
    experts: int = 10
    dataset: str = "synthetic"
    synthetic_n: int = 2500
    x_cols: tuple[int, ...] | None = None
    y_col: int | None = None
    kfold: int = 5
    train_fraction: float = 0.8
    batch_size: int = 1
    replicates: int = 10
    seed: int = 0
    sweep: tuple[int, int, int] | None = None
    train_schedule: str = "default"
    fit_iters: int = 50
    fit_subsample: int = 0
    standardize_x: bool = False
    out: str = ""

    def __post_init__(self):
        if self.model not in MODELS:
            raise ContractViolationError(f"unknown model {self.model!r}")
        if self.train_schedule not in SCHEDULES:
            raise ContractViolationError(f"unknown schedule {self.train_schedule!r}")
        if self.batch_size < 1:
            raise ContractViolationError("batch_size must be >= 1")
        if self.replicates < 1:
            raise ContractViolationError("replicates must be >= 1")
        if self.fit_subsample < 0:
            raise ContractViolationError("fit_subsample must be >= 0 (0: off)")

    def to_kv_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "sweep":
                value = ":".join(str(v) for v in value)
            elif f.name == "x_cols":
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = int(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        return cls(**{key: _coerce(key, raw) for key, raw in mapping.items()})

    @classmethod
    def from_kv_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_kv_text(text))


def parse_kv_text(text: str) -> dict[str, str]:
    """The key=value lines of a config, skipping blank and `#` lines."""
    mapping = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ContractViolationError(f"malformed config line {line!r}")
        mapping[key.strip()] = value.strip()
    return mapping


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(key: str, raw):
    """The value of config field `key` from its text, by the field's type;
    a value that is not text passes through."""
    if key not in _FIELD_TYPES:
        raise ContractViolationError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    kind = _FIELD_TYPES[key]
    try:
        if key == "sweep":
            parts = raw.split(":")
            if len(parts) != 3:
                raise ContractViolationError("sweep must be start:stop:step")
            return tuple(int(p) for p in parts)
        if key == "x_cols":
            return tuple(int(p) for p in raw.split(","))
        if kind == "str":
            return raw
        if kind == "bool":
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(word)
            return _BOOL_WORDS[word]
        return float(raw) if kind == "float" else int(raw)
    except ValueError as err:
        raise ContractViolationError(f"bad value {raw!r} for config key {key!r}") from err


@dataclass
class MetricRecord:
    """One (model, parameters, checkpoint) measurement."""

    model: str
    n_obs: int
    mse: float
    rmse: float
    memory_kb: float
    train_time_s: float
    predict_time_s: float
    replicate: int
    fold: int
    m: int | None = None
    w_gen: float | None = None
    experts: int | None = None
    failed: bool = False


CSV_COLUMNS = (
    "model", "m", "w_gen", "experts", "n_obs", "replicate", "fold",
    "mse", "rmse", "memory_kb", "train_time_s", "predict_time_s", "failed",
)
TIMING_COLUMNS = ("train_time_s", "predict_time_s")


def _schedule_for(cfg: ExperimentConfig, seeds: SeedPlan, replicate: int) -> TrainSchedule:
    flags = {
        "default": dict(on_split=True, on_batch=True),
        "batch": dict(on_split=False, on_batch=True),
        "split": dict(on_split=True, on_batch=False),
        "never": dict(on_split=False, on_batch=False),
    }[cfg.train_schedule]
    return TrainSchedule(
        fit=FitSchedule(max_iters=cfg.fit_iters),
        fit_subsample=cfg.fit_subsample or None,
        subsample_seed=seeds.seed_int("subsample", replicate),
        **flags,
    )


def make_model(cfg: ExperimentConfig, seeds: SeedPlan, replicate: int):
    """Fresh model instance for one fold of one replicate."""
    schedule = _schedule_for(cfg, seeds, replicate)
    if cfg.model == "splitting":
        return SplittingGP(cfg.m, train_schedule=schedule)
    if cfg.model == "fullgp":
        return FullGp(train_schedule=schedule)
    if cfg.model == "localgp":
        return LocalGpWgen(cfg.w_gen, train_schedule=schedule)
    return Rbcm(cfg.experts, seed=seeds.generator("assignment", replicate),
                train_schedule=schedule)


def replicate_dataset(cfg: ExperimentConfig, seeds: SeedPlan, replicate: int,
                      base: Dataset | None = None) -> Dataset:
    """The data one replicate sees; independent of the model under test."""
    if cfg.dataset == "synthetic":
        return synth_dataset(cfg.synthetic_n, seeds, replicate)
    if base is None:
        base = load_base_dataset(cfg)
    return base


def load_base_dataset(cfg: ExperimentConfig) -> Dataset:
    if not cfg.dataset.startswith("csv:"):
        raise ContractViolationError(f"unknown dataset spec {cfg.dataset!r}")
    return load_csv(cfg.dataset[4:], x_cols=cfg.x_cols, y_col=cfg.y_col)


def _fold_pairs(cfg: ExperimentConfig, ds: Dataset, seeds: SeedPlan, replicate: int):
    if cfg.kfold >= 2:
        return kfold(ds, cfg.kfold, seeds, replicate)
    return [train_test_split(ds, train_fraction=cfg.train_fraction,
                             seeds=seeds, replicate=replicate)]


def _checkpoints(cfg: ExperimentConfig, n_train: int) -> list[int]:
    if cfg.sweep is None:
        return [n_train]
    start, stop, step = cfg.sweep
    pts = [n for n in range(start, stop + 1, step) if 0 < n <= n_train]
    if not pts or pts[-1] != n_train:
        pts.append(n_train)
    return pts


def _param_fields(cfg: ExperimentConfig) -> dict:
    return {
        "m": cfg.m if cfg.model == "splitting" else None,
        "w_gen": cfg.w_gen if cfg.model == "localgp" else None,
        "experts": cfg.experts if cfg.model == "rbcm" else None,
    }


def run_experiment(cfg: ExperimentConfig) -> list[MetricRecord]:
    """Execute the configured protocol and return one record per
    replicate x fold x checkpoint.

    A numerical failure inside a model flags the record and the run moves on.
    """
    seeds = SeedPlan(cfg.seed)
    base = load_base_dataset(cfg) if cfg.dataset.startswith("csv:") else None
    records: list[MetricRecord] = []
    params = _param_fields(cfg)
    for rep in range(cfg.replicates):
        ds = replicate_dataset(cfg, seeds, rep, base)
        for fold_idx, (train, test) in enumerate(_fold_pairs(cfg, ds, seeds, rep)):
            if cfg.standardize_x:
                train, test = standardize_inputs(train, test)
            train = center_y(train)
            model = make_model(cfg, seeds, rep)
            ptr = 0
            train_time = 0.0
            for ckpt in _checkpoints(cfg, train.n):
                failed = False
                t0 = time.perf_counter()
                try:
                    ptr = _ingest_range(model, train, ptr, ckpt, cfg.batch_size)
                except NumericalError:
                    failed = True
                train_time += time.perf_counter() - t0
                mse = float("nan")
                predict_time = 0.0
                if not failed:
                    t0 = time.perf_counter()
                    try:
                        preds = model.predict_mean_batch(test.X) + train.y_center
                        mse = float(np.mean((preds - test.Y) ** 2))
                    except (NumericalError, EmptyModelError):
                        failed = True
                    predict_time = time.perf_counter() - t0
                records.append(MetricRecord(
                    model=cfg.model,
                    n_obs=ptr,
                    mse=mse,
                    rmse=math.sqrt(mse) if not math.isnan(mse) else float("nan"),
                    memory_kb=model.footprint() / 1024.0,
                    train_time_s=train_time,
                    predict_time_s=predict_time,
                    replicate=rep,
                    fold=fold_idx,
                    failed=failed,
                    **params,
                ))
    return records


def _ingest_range(model, train: Dataset, start: int, stop: int, batch_size: int) -> int:
    for lo in range(start, stop, batch_size):
        hi = min(lo + batch_size, stop)
        if batch_size == 1:
            model.ingest(train.X[lo], train.Y[lo])
        else:
            model.ingest_batch(train.X[lo:hi], train.Y[lo:hi])
    return stop


@dataclass
class GridSummary:
    """Best point of a grid search plus the per-point mean errors."""

    best: dict
    best_mse: float
    table: list[tuple[dict, float]]
    wgen_trend: list[tuple[float, float]] | None = None
    wgen_monotone: bool | None = None


def grid_search(cfg: ExperimentConfig, grid: dict[str, list]):
    """Run the experiment at each point of a parameter grid.

    Returns all records plus a summary with the minimum-mean-MSE point; when
    the grid varies w_gen the summary also reports whether the mean MSE
    decreases monotonically as w_gen decreases.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ContractViolationError("grid must contain at least one point per key")
    keys = sorted(grid)
    records: list[MetricRecord] = []
    table: list[tuple[dict, float]] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        point = dict(zip(keys, values))
        point_cfg = replace(cfg, **point)
        point_records = run_experiment(point_cfg)
        records.extend(point_records)
        ok = [r.mse for r in point_records if not r.failed]
        table.append((point, float(np.mean(ok)) if ok else float("nan")))
    best, best_mse = min(table, key=lambda item: (math.isnan(item[1]), item[1]))
    trend = None
    monotone = None
    if "w_gen" in keys:
        trend = sorted(
            ((pt["w_gen"], mse) for pt, mse in table), key=lambda t: -t[0]
        )
        vals = [mse for _, mse in trend]
        monotone = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    return records, GridSummary(best, best_mse, table, trend, monotone)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(records, path) -> None:
    """One header row, one row per record, stable column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_format(getattr(rec, col)) for col in CSV_COLUMNS])


def read_metrics(path) -> list[MetricRecord]:
    """Inverse of emit_csv."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(MetricRecord(
                model=row["model"],
                m=int(row["m"]) if row["m"] else None,
                w_gen=float(row["w_gen"]) if row["w_gen"] else None,
                experts=int(row["experts"]) if row["experts"] else None,
                n_obs=int(row["n_obs"]),
                replicate=int(row["replicate"]),
                fold=int(row["fold"]),
                mse=float(row["mse"]),
                rmse=float(row["rmse"]),
                memory_kb=float(row["memory_kb"]),
                train_time_s=float(row["train_time_s"]),
                predict_time_s=float(row["predict_time_s"]),
                failed=row["failed"] == "1",
            ))
    return records


@dataclass
class SummaryRow:
    """Replicate mean and 95% pointwise confidence bounds for one group."""

    model: str
    m: int | None
    w_gen: float | None
    experts: int | None
    n_obs: int
    mean: float
    lo: float | None
    hi: float | None
    replicates: int


def summarize(records, metric: str = "mse") -> list[SummaryRow]:
    """Group by (model, parameters, n); average folds within a replicate, then
    report the mean over replicates with a t-based 95% interval."""
    groups: dict[tuple, dict[int, list[float]]] = {}
    for rec in records:
        if rec.failed:
            continue
        key = (rec.model, rec.m, rec.w_gen, rec.experts, rec.n_obs)
        groups.setdefault(key, {}).setdefault(rec.replicate, []).append(
            getattr(rec, metric)
        )
    rows = []
    for key in sorted(groups, key=lambda k: tuple(str(p) for p in k)):
        rep_means = np.array([np.mean(v) for _, v in sorted(groups[key].items())])
        r = rep_means.size
        mean = float(rep_means.mean())
        lo = hi = None
        if r >= 2:
            half = float(stdtrit(r - 1, 0.975) * rep_means.std(ddof=1) / math.sqrt(r))
            lo, hi = mean - half, mean + half
        rows.append(SummaryRow(*key, mean=mean, lo=lo, hi=hi, replicates=r))
    return rows


def emit_summary_csv(rows, path) -> None:
    """Plot-ready CSV: one row per group with mean and interval bounds."""
    cols = ("model", "m", "w_gen", "experts", "n_obs", "mean", "lo", "hi", "replicates")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_format(getattr(row, col)) for col in cols])
