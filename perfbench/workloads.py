"""The benchmark's three workloads, driven through the public splitgp API.

Each workload is one closed loop with a single caller: a streaming caller waits
for every reply before it sends the next observation.  `prepare` builds the
inputs from the seed and the model (set-up, untimed); `run` makes the timed
calls, checks the outputs and returns one `Repeat`.  Package callables are
looked up on their module at call time, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import splitgp

# A failure of one of these escaping a timed call counts that call as failed;
# the workload goes on where it can.
FAILURES = (splitgp.NumericalError, splitgp.DegenerateDataError, splitgp.EmptyModelError)

# Points at which the partition of unity is checked after a repeat.
WEIGHT_CHECK_POINTS = 64


@dataclass
class Repeat:
    """What one repeat of a workload measured and produced."""

    wall_s: float
    step_s: list[float]  # one entry per step, in order; NaN where a call failed
    ingest_obs_per_s: float
    query_rows_per_s: float
    mse: float
    memory_kb: float
    attempted: int
    failed: int
    digest: str
    failures: list[str] = field(default_factory=list)


def digest(*parts) -> str:
    """sha256 over the exact bytes of the non-timing outputs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _timed(call, *args):
    """(result or None, seconds, failed) for one call."""
    t0 = time.perf_counter()
    try:
        result, failed = call(*args), False
    except FAILURES:
        result, failed = None, True
    return result, time.perf_counter() - t0, failed


def _model_checks(model, m: int, ingested: int, variances: np.ndarray, mse: float,
                  responses: np.ndarray, probes: np.ndarray) -> list[str]:
    """Output checks shared by the two streaming workloads."""
    failures = []
    for x in probes:
        total = float(np.sum(model.predict_mean(x).weights))
        if abs(total - 1.0) > 1e-12:
            failures.append(f"prediction weights sum to {total!r}, not 1 within 1e-12")
            break
    if model.n_observations != ingested:
        failures.append(f"model stores {model.n_observations} observations, "
                        f"{ingested} were ingested")
    largest = max(c.n for c in model.children)
    if largest > m:
        failures.append(f"a child holds {largest} rows, above the limit {m}")
    if not np.all(np.isfinite(variances)) or np.any(variances < 0.0):
        failures.append("a predicted variance is negative or not finite")
    var_y = float(np.var(responses))
    if not mse < var_y:
        failures.append(f"mse {mse!r} is not below the response variance {var_y!r}")
    return failures


def _probes(X: np.ndarray) -> np.ndarray:
    step = max(1, X.shape[0] // WEIGHT_CHECK_POINTS)
    return X[::step][:WEIGHT_CHECK_POINTS]


class Prequential:
    """Predict each arriving point, then learn it: the paper's streaming use.

    The model is warmed with `warm` observations in one batch (set-up), so
    every repeat measures the same steady state.  Every append clears the
    child's cache, so each step rebuilds one child at O(m^3); the kernel is
    never refit.
    """

    name = "prequential"
    default_seed = 1
    worker_s = 10.0  # nominal time of one worker process on the reference machine

    def __init__(self, seed: int, warm: int = 600, steps: int = 1000, m: int = 500):
        self.seed, self.warm, self.steps, self.m = seed, warm, steps, m

    def prepare(self):
        ds = splitgp.synth_dataset(self.warm + self.steps, splitgp.SeedPlan(self.seed))
        model = splitgp.SplittingGP(self.m, train_schedule=splitgp.TrainSchedule.never())
        model.update_batch(ds.X[:self.warm], ds.Y[:self.warm])
        return ds, model

    def run(self, prepared) -> Repeat:
        ds, model = prepared
        n, X, Y = self.steps, ds.X[self.warm:], ds.Y[self.warm:]
        means, variances = np.full(n, np.nan), np.full(n, np.nan)
        step_s, predict_s = [], 0.0
        failed = ingested = 0
        wall0 = time.perf_counter()
        for t in range(n):
            pred, dt_p, bad_p = _timed(model.predict, X[t])
            _, dt_u, bad_u = _timed(model.update, X[t], Y[t])
            failed += bad_p + bad_u
            ingested += not bad_u
            predict_s += dt_p
            step_s.append(np.nan if bad_p or bad_u else dt_p + dt_u)
            if pred is not None:
                means[t], variances[t] = pred
        wall = time.perf_counter() - wall0

        ok = ~np.isnan(means)
        mse = float(np.mean((means[ok] - Y[ok]) ** 2))
        out = digest(means, variances, [c.n for c in model.children], model.n_observations)
        failures = _model_checks(model, self.m, self.warm + ingested, variances[ok], mse, Y,
                                 _probes(X))
        return Repeat(wall, step_s, ingested / wall, n / predict_s, mse,
                      model.memory_footprint() / 1024.0, 2 * n, failed, out, failures)


class StreamRefit:
    """Row-by-row ingest with a refit on every split, then repeated batch reads.

    Many small shards make `gp.fit` the cost of writes; deep frozen prior
    chains make `PriorMeanNode.evaluate` the cost of reads.  The model is
    warmed with `warm` rows in one batch (set-up), so each timed refit runs
    over 14 to 28 shards.
    """

    name = "stream_refit"
    default_seed = 2
    worker_s = 7.0

    def __init__(self, seed: int, warm: int = 1000, rows: int = 1000, queries: int = 1000,
                 passes: int = 5, m: int = 100, fit_iters: int = 15):
        self.seed, self.warm, self.rows, self.queries = seed, warm, rows, queries
        self.passes, self.m, self.fit_iters = passes, m, fit_iters

    def prepare(self):
        n = self.warm + self.rows
        ds = splitgp.synth_dataset(n + self.queries, splitgp.SeedPlan(self.seed))
        schedule = splitgp.TrainSchedule(fit=splitgp.FitSchedule(max_iters=self.fit_iters))
        model = splitgp.SplittingGP(self.m, train_schedule=schedule)
        model.update_batch(ds.X[:self.warm], ds.Y[:self.warm])
        return ds, model

    def run(self, prepared) -> Repeat:
        ds, model = prepared
        X, Y = ds.X[self.warm:], ds.Y[self.warm:]
        Xq, Yq = X[self.rows:], Y[self.rows:]
        step_s = []
        failed = ingested = 0
        wall0 = time.perf_counter()
        for t in range(self.rows):
            _, dt, bad = _timed(model.update, X[t], Y[t])
            failed += bad
            ingested += not bad
            step_s.append(np.nan if bad else dt)
        ingest_s = time.perf_counter() - wall0

        # An untimed pass first rebuilds the child posteriors the last refit
        # cleared, so the timed passes measure warm reads.
        means, variances, bad = self._read(model, Xq)
        failed += bad
        pass_s = []
        for _ in range(self.passes):
            t0 = time.perf_counter()
            means, variances, bad = self._read(model, Xq)
            pass_s.append(time.perf_counter() - t0)
            failed += bad
        wall = time.perf_counter() - wall0

        attempted = self.rows + 2 * (self.passes + 1)
        if means is None or variances is None:
            return Repeat(wall, step_s, ingested / ingest_s, 0.0, float("nan"), 0.0,
                          attempted, failed, "", ["the last read pass failed"])
        mse = float(np.mean((means - Yq) ** 2))
        out = digest(means, variances, [c.n for c in model.children], model.n_observations)
        failures = _model_checks(model, self.m, self.warm + ingested, variances, mse, Yq,
                                 _probes(Xq))
        return Repeat(wall, step_s, ingested / ingest_s, self.queries / float(np.median(pass_s)),
                      mse, model.memory_footprint() / 1024.0, attempted, failed, out, failures)

    @staticmethod
    def _read(model, Xq):
        means, _, bad_m = _timed(model.predict_mean_batch, Xq)
        variances, _, bad_v = _timed(model.predict_variance_batch, Xq)
        return means, variances, bad_m + bad_v


class DeskProtocol:
    """The paper's evaluation protocol: the criterion-7 configuration of the
    acceptance tests at one replicate (5 folds), once for the splitting model
    and once for the full GP.
    """

    name = "desk_protocol"
    default_seed = 20250809
    worker_s = 30.0

    def __init__(self, seed: int, synthetic_n: int = 2500, m: int = 500):
        self.seed, self.synthetic_n, self.m = seed, synthetic_n, m

    def config(self, model: str):
        extra = dict(fit_iters=15)
        if model == "fullgp":
            extra = dict(fit_iters=20, fit_subsample=400)
        return splitgp.ExperimentConfig(
            model=model, m=self.m, dataset="synthetic", synthetic_n=self.synthetic_n,
            kfold=5, replicates=1, seed=self.seed, batch_size=500,
            train_schedule="batch", **extra,
        )

    def prepare(self):
        # The same draw run_experiment makes for replicate 0; its response
        # variance is the base of the R^2 check.
        ds = splitgp.synth_dataset(self.synthetic_n, splitgp.SeedPlan(self.seed), 0)
        return float(np.var(ds.Y)), {m: self.config(m) for m in ("splitting", "fullgp")}

    def run(self, prepared) -> Repeat:
        var_y, configs = prepared
        records, failed, attempted = {}, 0, 0
        wall0 = time.perf_counter()
        for model, cfg in configs.items():
            attempted += cfg.kfold
            recs, _, bad = _timed(splitgp.bench.run_experiment, cfg)
            if bad:
                failed += cfg.kfold
                recs = []
            failed += sum(r.failed for r in recs)
            records[model] = recs
        wall = time.perf_counter() - wall0

        split, full = records["splitting"], records["fullgp"]
        failures = []
        if failed:
            failures.append(f"{failed} of {attempted} folds failed")
            return Repeat(wall, [np.nan] * configs["splitting"].kfold, 0.0, 0.0, np.nan, 0.0,
                          attempted, failed, "", failures)
        split_mse = float(np.mean([r.mse for r in split]))
        full_mse = float(np.mean([r.mse for r in full]))
        r2 = 1.0 - split_mse / var_y
        if not split_mse <= 2.0 * full_mse:
            failures.append(f"splitting mse {split_mse!r} exceeds 2x full-GP mse {full_mse!r}")
        if not r2 > 0.9:
            failures.append(f"splitting R^2 {r2!r} is not above 0.9")
        train_s = sum(r.train_time_s for r in split)
        predict_s = sum(r.predict_time_s for r in split)
        test_rows = self.synthetic_n  # the 5 test folds partition the data
        out = digest([(r.model, r.fold, r.n_obs, r.mse, r.memory_kb) for r in split + full])
        return Repeat(
            wall, [r.train_time_s + r.predict_time_s for r in split],
            sum(r.n_obs for r in split) / train_s, test_rows / predict_s, split_mse,
            float(np.mean([r.memory_kb for r in split])), attempted, failed, out, failures,
        )


WORKLOADS = {w.name: w for w in (Prequential, StreamRefit, DeskProtocol)}
