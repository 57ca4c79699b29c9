"""Comparison regressors sharing the streaming interface of the splitting model.

FullGp refits one exact GP over everything seen; LocalGpWgen spawns local
models behind a similarity threshold; Rbcm assigns observations to a fixed
pool of experts at random and combines them as a product of Gaussians.

Like `SplittingGP`, each rejects a non-finite or wrong-width observation
with `ContractViolationError` before it changes any state, and a batch is
checked whole before its first row is stored.
"""

from __future__ import annotations

import warnings
from typing import Protocol, runtime_checkable

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, GpPosterior, fit
from .kernels import KernelSpec, cross_gram, default_spec, scaled_rows
from .model import ChildModel, TrainSchedule, check_batch, check_observation, subsample_shards

SIMILARITY_CLAMP = 1e-300


def _ndim(spec: KernelSpec | None) -> int | None:
    return None if spec is None else spec.ndim


@runtime_checkable
class OnlineRegressor(Protocol):
    """Duck-typed surface the benchmark harness drives."""

    def ingest(self, x: np.ndarray, y: float) -> None: ...

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None: ...

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray: ...

    def footprint(self) -> int: ...


class FullGp:
    """Exact GP over the entire stream, refactorized on demand."""

    def __init__(self, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.X: np.ndarray | None = None
        self.Y = np.zeros(0)
        self._posterior: GpPosterior | None = None
        self.last_fit: FitResult | None = None

    @property
    def n_observations(self) -> int:
        return 0 if self.X is None else self.X.shape[0]

    def _ensure_spec(self, x: np.ndarray, y: float) -> None:
        if self.spec is None:
            self.spec = default_spec(np.append(self.Y, y), np.asarray(x).size)

    def _append(self, x: np.ndarray, y: float) -> None:
        x, y = check_observation(x, y, _ndim(self.spec))
        self._ensure_spec(x, y)
        row = x[None, :]
        self.X = row if self.X is None else np.vstack([self.X, row])
        self.Y = np.append(self.Y, y)
        self._posterior = None

    def ingest(self, x: np.ndarray, y: float) -> None:
        self._append(x, y)
        if self.schedule.every_update:
            self.refit()

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        X, Y = check_batch(X, Y, _ndim(self.spec))
        for i in range(X.shape[0]):
            self._append(X[i], Y[i])
        if X.shape[0] and self.schedule.on_batch:
            self.refit()

    def refit(self) -> FitResult:
        if self.n_observations == 0:
            raise EmptyModelError("cannot fit an empty model")
        shards = subsample_shards([(self.X, self.Y)], self.schedule)
        result = fit(shards, self.spec, self.schedule.fit)
        self.spec = result.spec
        self.last_fit = result
        self._posterior = None
        return result

    def posterior(self) -> GpPosterior:
        if self.spec is None:
            raise EmptyModelError("model has no observations yet")
        if self._posterior is None or self._posterior.spec != self.spec:
            X = self.X if self.X is not None else np.zeros((0, self.spec.ndim))
            self._posterior = GpPosterior(X, self.Y, self.spec)
        return self._posterior

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        post = self.posterior()
        return post.predict_scaled(*scaled_rows(Xstar, self.spec, "Xstar"), variance=False)[0]

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        post = self.posterior()
        x_star = np.asarray(x_star, dtype=float).ravel()
        mean, var = post.predict_scaled(*scaled_rows(x_star, self.spec, "x_star"))
        return float(mean[0]), float(var[0])

    def footprint(self) -> int:
        n = self.n_observations
        if n == 0:
            return 0
        return 8 * (n * n + n * self.X.shape[1] + n)


class LocalGpWgen:
    """Threshold-based local GP: a new local model is spawned whenever no
    existing center is more similar than `w_gen`.

    The threshold is compared against the amplitude-normalized similarity
    exp(-0.5 sum_d (x_d - c_d)^2 / l_d^2), so w_gen keeps its (0, 1] meaning
    whatever the fitted signal variance is.  Prediction weights use the raw
    kernel; the normalization cancels there.
    """

    def __init__(self, w_gen: float, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if not 0.0 < w_gen <= 1.0:
            raise ContractViolationError("w_gen must lie in (0, 1]")
        self.w_gen = float(w_gen)
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.models: list[ChildModel] = []
        self.last_fit: FitResult | None = None

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def n_observations(self) -> int:
        return sum(m.n for m in self.models)

    def _similarities(self, x: np.ndarray) -> np.ndarray:
        centers = np.array([m.center for m in self.models])
        sims = cross_gram(x[None, :], centers, self.spec)[0]
        sims[sims < SIMILARITY_CLAMP] = 0.0
        return sims

    def _ingest_one(self, x: np.ndarray, y: float) -> None:
        x, y = check_observation(x, y, _ndim(self.spec))
        if self.spec is None:
            self.spec = default_spec(np.asarray([y]), x.size)
        if not self.models:
            self.models.append(ChildModel(x[None, :], [y], center=x.copy()))
            return
        sims = self._similarities(x)
        normalized = sims / self.spec.params.signal_variance
        if np.max(normalized) <= self.w_gen:
            self.models.append(ChildModel(x[None, :], [y], center=x.copy()))
        else:
            self.models[int(np.argmax(sims))].append(x, y)

    def ingest(self, x: np.ndarray, y: float) -> None:
        self._ingest_one(x, y)
        if self.schedule.every_update:
            self.refit()

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        X, Y = check_batch(X, Y, _ndim(self.spec))
        for i in range(X.shape[0]):
            self._ingest_one(X[i], Y[i])
        if X.shape[0] and self.schedule.on_batch:
            self.refit()

    def refit(self) -> FitResult:
        if not self.models:
            raise EmptyModelError("cannot fit an empty model")
        shards = subsample_shards([(m.X, m.Y) for m in self.models], self.schedule)
        result = fit(shards, self.spec, self.schedule.fit)
        self.spec = result.spec
        self.last_fit = result
        for m in self.models:
            m.invalidate()
        return result

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        if not self.models:
            raise EmptyModelError("model has no observations yet")
        Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
        centers = np.array([m.center for m in self.models])
        sims = cross_gram(Xstar, centers, self.spec)
        clipped = sims < SIMILARITY_CLAMP
        if np.any(clipped & (sims > 0.0)):
            warnings.warn(
                "similarities below clamp threshold set to zero", RuntimeWarning,
            )
        sims[clipped] = 0.0
        S = sims.sum(axis=1)
        weights = np.empty_like(sims)
        ok = S > 0.0
        weights[ok] = sims[ok] / S[ok, None]
        weights[~ok] = 1.0 / self.n_models
        Xs, a = scaled_rows(Xstar, self.spec, "Xstar")
        means = np.column_stack([
            m.posterior(self.spec).predict_scaled(Xs, a, variance=False)[0]
            for m in self.models
        ])
        return np.sum(weights * means, axis=1)

    def predict(self, x_star: np.ndarray) -> tuple[float, None]:
        mean = float(self.predict_mean_batch(np.asarray(x_star)[None, :])[0])
        return mean, None

    def footprint(self) -> int:
        if not self.models:
            return 0
        ndim = self.models[0].X.shape[1]
        return sum(m.footprint_bytes(ndim) for m in self.models)


class Rbcm:
    """Robust Bayesian committee machine over a fixed pool of GP experts.

    Observations go to a uniformly random expert (seeded).  Prediction combines
    expert Gaussians with differential-entropy weights
    beta_k = 0.5 (log sigma_prior^2 - log sigma_k^2(x*)), normalized to sum to
    one across non-empty experts; with no information (all beta zero) the
    prediction falls back to the prior.
    """

    def __init__(self, n_experts: int, seed: int | np.random.Generator = 0,
                 spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if n_experts < 1:
            raise ContractViolationError("need at least one expert")
        self.n_experts = int(n_experts)
        self.rng = np.random.default_rng(seed)
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.experts: list[ChildModel | None] = [None] * self.n_experts
        self.last_fit: FitResult | None = None

    @property
    def n_observations(self) -> int:
        return sum(e.n for e in self.experts if e is not None)

    def _ingest_one(self, x: np.ndarray, y: float) -> None:
        x, y = check_observation(x, y, _ndim(self.spec))  # before the draw
        if self.spec is None:
            self.spec = default_spec(np.asarray([y]), x.size)
        k = int(self.rng.integers(self.n_experts))
        if self.experts[k] is None:
            self.experts[k] = ChildModel(x[None, :], [y])
        else:
            self.experts[k].append(x, y)

    def ingest(self, x: np.ndarray, y: float) -> None:
        self._ingest_one(x, y)
        if self.schedule.every_update:
            self.refit()

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        X, Y = check_batch(X, Y, _ndim(self.spec))
        for i in range(X.shape[0]):
            self._ingest_one(X[i], Y[i])
        if X.shape[0] and self.schedule.on_batch:
            self.refit()

    def refit(self) -> FitResult:
        shards = [(e.X, e.Y) for e in self.experts if e is not None and e.n > 0]
        if not shards:
            raise EmptyModelError("cannot fit an empty model")
        result = fit(subsample_shards(shards, self.schedule), self.spec, self.schedule.fit)
        self.spec = result.spec
        self.last_fit = result
        for e in self.experts:
            if e is not None:
                e.invalidate()
        return result

    def _combine(self, mus: np.ndarray, sigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Product-of-Gaussians combination for (B, K) expert means/variances."""
        prior_var = self.spec.params.signal_variance
        sigs = np.maximum(sigs, SIMILARITY_CLAMP)
        beta = 0.5 * (np.log(prior_var) - np.log(sigs))
        np.maximum(beta, 0.0, out=beta)
        total = beta.sum(axis=1)
        mean = np.zeros(mus.shape[0])
        var = np.full(mus.shape[0], prior_var)
        informative = total > 0.0
        if np.any(informative):
            bw = beta[informative] / total[informative, None]
            precision = np.sum(bw / sigs[informative], axis=1)
            var[informative] = 1.0 / precision
            mean[informative] = var[informative] * np.sum(
                bw * mus[informative] / sigs[informative], axis=1
            )
        return mean, var

    def predict_batch(self, Xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        live = [e for e in self.experts if e is not None and e.n > 0]
        if not live:
            raise EmptyModelError("all experts are empty")
        Xs, a = scaled_rows(Xstar, self.spec, "Xstar")
        moments = [e.posterior(self.spec).predict_scaled(Xs, a) for e in live]
        mus = np.column_stack([mu for mu, _ in moments])
        sigs = np.column_stack([var for _, var in moments])
        return self._combine(mus, sigs)

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        return self.predict_batch(Xstar)[0]

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        mean, var = self.predict_batch(np.asarray(x_star, dtype=float)[None, :])
        return float(mean[0]), float(var[0])

    def footprint(self) -> int:
        total = 0
        for e in self.experts:
            if e is not None and e.n > 0:
                total += 8 * (e.n * e.n + e.n * e.X.shape[1] + e.n)
        return total
