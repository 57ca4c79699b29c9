"""Datasets and deterministic randomness for the benchmark harness.

Synthetic data comes from a fixed non-stationary surface sampled over a grid;
real tables arrive as delimiter-separated numeric CSV.  All shuffling draws
from purpose-keyed generators derived from one master seed, so every model in
a replicate sees identical data orderings (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ContractViolationError

GRID_SIDE = 100
NOISE_SCALE = 0.05

_PURPOSES = {
    "sampling": 0,
    "noise": 1,
    "folds": 2,
    "assignment": 3,
    "subsample": 4,
}


@dataclass(frozen=True)
class SeedPlan:
    """One master seed fanned out into independent per-purpose streams."""

    master: int

    def sequence(self, purpose: str, replicate: int = 0) -> np.random.SeedSequence:
        if purpose not in _PURPOSES:
            raise ContractViolationError(f"unknown seed purpose {purpose!r}")
        return np.random.SeedSequence(self.master, spawn_key=(_PURPOSES[purpose], replicate))

    def generator(self, purpose: str, replicate: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.sequence(purpose, replicate))

    def seed_int(self, purpose: str, replicate: int = 0) -> int:
        return int(self.sequence(purpose, replicate).generate_state(1)[0])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Inputs, responses, and the offset removed from the responses."""

    X: np.ndarray
    Y: np.ndarray
    name: str = ""
    y_center: float = 0.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError(
                f"{X.shape[0]} input rows vs {Y.shape[0]} responses"
            )
        if X.size and not np.all(np.isfinite(X)):
            raise ContractViolationError("inputs contain non-finite entries")
        if Y.size and not np.all(np.isfinite(Y)):
            raise ContractViolationError("responses contain non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def ndim(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        return replace(self, X=self.X[idx], Y=self.Y[idx])


def center_y(ds: Dataset) -> Dataset:
    """Shift responses to zero mean, recording the offset for later restore."""
    if ds.n == 0:
        return ds
    offset = float(ds.Y.mean())
    return replace(ds, Y=ds.Y - offset, y_center=ds.y_center + offset)


def standardize_inputs(train: Dataset, *others: Dataset):
    """Scale input columns to zero mean / unit spread using train statistics."""
    mu = train.X.mean(axis=0)
    sd = train.X.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    out = [replace(ds, X=(ds.X - mu) / sd) for ds in (train, *others)]
    return out[0] if not others else tuple(out)


def synth_latent(x1, x2):
    """Non-stationary test surface: 5 sin(x1^2 + x2^2) + 3 x1."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    out = 5.0 * np.sin(x1 * x1 + x2 * x2) + 3.0 * x1
    return float(out) if out.ndim == 0 else out


def synth_grid(side: int = GRID_SIDE) -> tuple[np.ndarray, np.ndarray]:
    """The side*side evaluation grid on [-1, 1]^2 and the latent values on it."""
    axis = np.linspace(-1.0, 1.0, side)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    X = np.column_stack([g1.ravel(), g2.ravel()])
    return X, synth_latent(X[:, 0], X[:, 1])


def synth_dataset(n_samples: int, seeds: SeedPlan, replicate: int = 0) -> Dataset:
    """Sample grid points without replacement and add Gaussian noise.

    The noise std is a twentieth of the grid maximum of the latent surface.
    """
    grid_X, grid_f = synth_grid()
    if n_samples > grid_X.shape[0]:
        raise ContractViolationError(
            f"cannot sample {n_samples} from a grid of {grid_X.shape[0]}"
        )
    sigma = NOISE_SCALE * float(grid_f.max())
    idx = seeds.generator("sampling", replicate).choice(
        grid_X.shape[0], size=n_samples, replace=False
    )
    noise = seeds.generator("noise", replicate).normal(0.0, sigma, size=n_samples)
    return Dataset(grid_X[idx], grid_f[idx] + noise, name="synthetic")


def _parse_cell(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError as err:
        raise ContractViolationError(
            f"line {line_no}: non-numeric cell {token!r}"
        ) from err
    if not np.isfinite(value):
        raise ContractViolationError(f"line {line_no}: non-finite cell {token!r}")
    return value


def load_csv(path, x_cols=None, y_col=None, name: str | None = None) -> Dataset:
    """Read a numeric table with an optional header.

    Comma or whitespace delimited; the first row is treated as a header when
    any of its tokens fails to parse as a number.  `x_cols`/`y_col` select the
    predictor and response columns; by default all but the last column are
    predictors and the last is the response.  Malformed rows are reported with
    their line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    rows: list[list[float]] = []
    width = None
    first_row = True
    for line_no, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split(",") if "," in stripped else stripped.split()
        tokens = [t.strip() for t in tokens]
        if first_row:
            first_row = False
            try:
                rows.append([_parse_cell(t, line_no) for t in tokens])
                width = len(tokens)
            except ContractViolationError:
                pass  # header row
            continue
        if width is not None and len(tokens) != width:
            raise ContractViolationError(
                f"line {line_no}: expected {width} columns, found {len(tokens)}"
            )
        rows.append([_parse_cell(t, line_no) for t in tokens])
        if width is None:
            width = len(tokens)
    if not rows:
        raise ContractViolationError(f"{path}: no numeric rows")
    table = np.asarray(rows)
    if y_col is None:
        y_col = table.shape[1] - 1
    if x_cols is None:
        x_cols = [c for c in range(table.shape[1]) if c != y_col]
    x_cols = list(x_cols)
    if min(x_cols + [y_col]) < 0 or y_col in x_cols:
        raise ContractViolationError(f"columns must be >= 0 and the response column {y_col} "
                                     f"not among the predictors {x_cols}")
    if y_col >= table.shape[1] or any(c >= table.shape[1] for c in x_cols):
        raise ContractViolationError("column selection exceeds table width")
    return Dataset(table[:, x_cols], table[:, y_col], name=name or str(path))


def write_csv(ds: Dataset, path) -> None:
    """Dump a dataset back to CSV (debug aid; round-trips through load_csv)."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"x{i + 1}" for i in range(ds.ndim)] + ["y"]
        fh.write(",".join(cols) + "\n")
        for row, y in zip(ds.X, ds.Y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(y)!r}\n")


def dedup_exact(ds: Dataset) -> Dataset:
    """Drop rows whose (X, Y) tuple is bitwise equal to an earlier row."""
    seen: set[bytes] = set()
    keep = []
    for i in range(ds.n):
        key = ds.X[i].tobytes() + np.float64(ds.Y[i]).tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return ds.take(np.asarray(keep, dtype=int))


def kfold(ds: Dataset, k: int, seeds: SeedPlan, replicate: int = 0):
    """Seeded shuffle into k disjoint folds; returns k (train, test) pairs."""
    if k < 2:
        raise ContractViolationError("k-fold needs k >= 2")
    if k > ds.n:
        raise ContractViolationError(f"k={k} exceeds {ds.n} rows")
    perm = seeds.generator("folds", replicate).permutation(ds.n)
    folds = np.array_split(perm, k)
    pairs = []
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        pairs.append((ds.take(train_idx), ds.take(test_idx)))
    return pairs


def train_test_split(ds: Dataset, train_fraction: float | None = None,
                     train_count: int | None = None, test_count: int | None = None,
                     seeds: SeedPlan | None = None, replicate: int = 0):
    """Seeded shuffle into one (train, test) pair, by fraction or by counts."""
    if seeds is None:
        seeds = SeedPlan(0)
    if train_fraction is not None:
        if not 0.0 <= train_fraction <= 1.0:
            raise ContractViolationError("train_fraction must lie in [0, 1]")
        train_count = int(round(train_fraction * ds.n))
        test_count = ds.n - train_count
    if train_count is None:
        raise ContractViolationError("need train_fraction or train_count")
    if test_count is None:
        test_count = ds.n - train_count
    if train_count + test_count > ds.n:
        raise ContractViolationError(
            f"requested {train_count}+{test_count} rows from {ds.n}"
        )
    perm = seeds.generator("folds", replicate).permutation(ds.n)
    return ds.take(perm[:train_count]), ds.take(perm[train_count:train_count + test_count])
