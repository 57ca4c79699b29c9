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

# Each model: the config field that sets its one parameter (None: it has
# none), and its constructor from the config, the train schedule and the
# replicate's expert-assignment stream.
_MODELS = {
    "splitting": ("m", lambda cfg, sched, rng: SplittingGP(cfg.m, train_schedule=sched)),
    "fullgp": (None, lambda cfg, sched, rng: FullGp(train_schedule=sched)),
    "localgp": ("w_gen", lambda cfg, sched, rng: LocalGpWgen(cfg.w_gen, train_schedule=sched)),
    "rbcm": ("experts", lambda cfg, sched, rng: Rbcm(cfg.experts, seed=rng,
                                                     train_schedule=sched)),
}
MODELS = tuple(_MODELS)

# Each train schedule: TrainSchedule's `fit_once`.  "batch" fits the kernel
# once, right after the model's `FIT_ROWS`-th row (min(FIT_ROWS, m) for the
# splitting model), whatever the batch size; "never" keeps the kernel the
# first row seeds.
_SCHEDULE_FLAGS = {"batch": True, "never": False}
SCHEDULES = tuple(_SCHEDULE_FLAGS)


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
    train_schedule: str = "batch"
    fit_iters: int = 50
    fit_subsample: int = 0
    standardize_x: bool = False
    out: str = ""

    def __post_init__(self):
        for kind, value, known in (("model", self.model, MODELS),
                                   ("schedule", self.train_schedule, SCHEDULES)):
            if value not in known:
                raise ContractViolationError(
                    f"unknown {kind} {value!r} (one of {', '.join(known)})")
        if self.batch_size < 1:
            raise ContractViolationError("batch_size must be >= 1")
        if self.replicates < 1:
            raise ContractViolationError("replicates must be >= 1")
        if self.fit_iters < 0:
            raise ContractViolationError("fit_iters must be >= 0 (0: the warm start only)")
        if self.fit_subsample < 0:
            raise ContractViolationError("fit_subsample must be >= 0 (0: off)")
        if self.seed < 0:
            raise ContractViolationError("seed must be >= 0")
        if self.x_cols is not None and not self.x_cols:
            raise ContractViolationError("x_cols must name at least one column")
        if min((*(self.x_cols or ()), self.y_col or 0)) < 0:
            raise ContractViolationError("x_cols and y_col must be >= 0")
        if self.sweep is not None and self.sweep[2] < 1:
            raise ContractViolationError("sweep step must be >= 1")

    def to_kv_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                if f.name in _SEPARATORS:
                    value = _SEPARATORS[f.name].join(map(_format, value))
                lines.append(f"{f.name}={_format(value)}")
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
_SEPARATORS = {"sweep": ":", "x_cols": ","}  # the tuple fields, as text
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_scalar(kind: str, raw: str):
    """The value of a field annotated `kind` ("str", "bool", "float" or
    "int", each optionally "| None") from its text, which may not be empty
    for a number or bool; ValueError for text that is not one."""
    kind = kind.removesuffix(" | None")
    if kind == "str":
        return raw
    if kind == "bool":
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(word)
        return _BOOL_WORDS[word]
    return float(raw) if kind == "float" else int(raw)


def _coerce(key: str, raw):
    """The value of config field `key` from its text, by the field's type;
    a value that is not text passes through."""
    if key not in _FIELD_TYPES:
        raise ContractViolationError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    try:
        if key in _SEPARATORS:
            parts = raw.split(_SEPARATORS[key])
            if key == "sweep" and len(parts) != 3:
                raise ContractViolationError("sweep must be start:stop:step")
            return tuple(int(p) for p in parts)
        return _parse_scalar(_FIELD_TYPES[key], raw)
    except ValueError as err:
        raise ContractViolationError(f"bad value {raw!r} for config key {key!r}") from err


@dataclass(kw_only=True)
class MetricRecord:
    """One (model, parameters, checkpoint) measurement: a row of the metrics
    CSV, whose columns are these fields in this order."""

    model: str
    m: int | None = None
    w_gen: float | None = None
    experts: int | None = None
    n_obs: int
    replicate: int
    fold: int
    mse: float
    rmse: float
    memory_kb: float
    train_time_s: float
    predict_time_s: float
    failed: bool = False


CSV_COLUMNS = tuple(f.name for f in fields(MetricRecord))


def _schedule_for(cfg: ExperimentConfig, seeds: SeedPlan, replicate: int) -> TrainSchedule:
    return TrainSchedule(
        _SCHEDULE_FLAGS[cfg.train_schedule],
        fit=FitSchedule(max_iters=cfg.fit_iters),
        fit_subsample=cfg.fit_subsample or None,
        subsample_seed=seeds.seed_int("subsample", replicate),
    )


def make_model(cfg: ExperimentConfig, seeds: SeedPlan, replicate: int):
    """Fresh model instance for one fold of one replicate."""
    build = _MODELS[cfg.model][1]
    return build(cfg, _schedule_for(cfg, seeds, replicate),
                 seeds.generator("assignment", replicate))


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
    """Every model parameter's record field: the configured model's own set,
    the others None."""
    own = _MODELS[cfg.model][0]
    return {name: getattr(cfg, name) if name == own else None
            for name, _ in _MODELS.values() if name is not None}


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
                    model=cfg.model, **params, n_obs=ptr, replicate=rep, fold=fold_idx,
                    mse=mse, rmse=math.sqrt(mse), memory_kb=model.footprint() / 1024.0,
                    train_time_s=train_time, predict_time_s=predict_time, failed=failed,
                ))
    return records


def _ingest_range(model, train: Dataset, start: int, stop: int, batch_size: int) -> int:
    for lo in range(start, stop, batch_size):
        hi = min(lo + batch_size, stop)
        if batch_size == 1:
            model.update(train.X[lo], train.Y[lo])
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


def _write_rows(kind, rows, path) -> None:
    """A CSV with the fields of dataclass `kind` as its header, in order, and
    one line per row."""
    names = [f.name for f in fields(kind)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_format(getattr(row, name)) for name in names] for row in rows)


def emit_csv(records, path) -> None:
    """One header row, `CSV_COLUMNS`, and one row per record."""
    _write_rows(MetricRecord, records, path)


def read_metrics(path) -> list[MetricRecord]:
    """Inverse of emit_csv: each column parsed by its field's type, and an
    empty cell of an optional field read as None.  ContractViolationError,
    naming the line, for a header other than `CSV_COLUMNS`, a row of another
    width or a cell that does not parse."""
    kinds = {f.name: f.type for f in fields(MetricRecord)}
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(fh)
        if tuple(rows.fieldnames or ()) != CSV_COLUMNS:
            raise ContractViolationError(f"{path}: header is not {','.join(CSV_COLUMNS)}")
        for row in rows:
            where = f"{path} line {rows.line_num}"
            if None in row or None in row.values():
                raise ContractViolationError(f"{where}: expected {len(CSV_COLUMNS)} cells")
            values = {}
            for name, raw in row.items():
                try:
                    values[name] = (_parse_scalar(kinds[name], raw)
                                    if raw or "None" not in kinds[name] else None)
                except ValueError:
                    message = f"{where}, column {name}: bad value {raw!r}"
                    raise ContractViolationError(message) from None
            records.append(MetricRecord(**values))
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
    from scipy.special import stdtrit  # about 50 ms, so loaded on first use
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
    _write_rows(SummaryRow, rows, path)
