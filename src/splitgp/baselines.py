"""Comparison regressors sharing the streaming interface of the splitting model.

FullGp refits one exact GP over everything seen.  LocalGpWgen and Rbcm are
pools of local GPs, like `SplittingGP`: each is a router plus a combiner on
`model.LocalGpPool`.  LocalGpWgen's router spawns a local model behind a
similarity threshold, and it predicts with the pool's similarity weights;
Rbcm's router assigns rows to a fixed set of experts at random, and it
combines them as a product of Gaussians.

Like `SplittingGP`, each rejects a non-finite or wrong-width observation
with `ContractViolationError` before it changes any state, and a batch is
checked whole before its first row is stored.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, GpPosterior, fit
from .kernels import KernelSpec, Query, default_spec, scaled_cross_gram, scaled_rows
from .model import (ChildModel, LocalGpPool, TrainSchedule, check_batch, check_observation,
                    subsample_shards)

EXPERT_VARIANCE_FLOOR = 1e-300  # Rbcm floors expert variances here before log and 1/v


def _ndim(spec: KernelSpec | None) -> int | None:
    return None if spec is None else spec.ndim


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

    def _store(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Append checked rows in one copy; the first seed the spec."""
        if self.spec is None:
            self.spec = default_spec(Y[:1], X.shape[1])
        self.X = X.copy() if self.X is None else np.concatenate([self.X, X])
        self.Y = np.concatenate([self.Y, Y])
        self._posterior = None

    def ingest(self, x: np.ndarray, y: float) -> None:
        x, y = check_observation(x, y, _ndim(self.spec))
        self._store(x[None, :], np.array([y]))

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        X, Y = check_batch(X, Y, _ndim(self.spec))
        if X.shape[0]:
            self._store(X, Y)
            if self.schedule.on_batch:
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


class LocalGpWgen(LocalGpPool):
    """Threshold-based local GP (Nguyen-Tuong, Seeger & Peters 2009).

    The router adds a row to the most similar child, or spawns a new child
    centered on the row when no center is more similar than `w_gen`.  The
    threshold is compared against the amplitude-normalized similarity
    exp(-0.5 sum_d (x_d - c_d)^2 / l_d^2), so w_gen keeps its (0, 1] meaning
    whatever the fitted signal variance is.  Predictions use the pool's
    similarity combiner; the normalization cancels there.
    """

    def __init__(self, w_gen: float, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if not 0.0 < w_gen <= 1.0:
            raise ContractViolationError("w_gen must lie in (0, 1]")
        super().__init__(spec, train_schedule)
        self.w_gen = float(w_gen)

    def _route(self, x: np.ndarray, y: float) -> bool:
        if self.children:
            query = Query.of(x[None, :], self.spec)
            sf2 = self.spec.signal_variance
            sims = scaled_cross_gram(query.Xs, query.norms, *self._centers(), sf2)[0]
            if np.max(sims / sf2) > self.w_gen:
                self.children[int(np.argmax(sims))].append(x, y, query)
                return False
        self.children.append(ChildModel(x[None, :], [y], center=x.copy()))
        return False


class Rbcm(LocalGpPool):
    """Robust Bayesian committee machine (Deisenroth & Ng 2015) over a fixed
    pool of GP experts.

    The router sends each row to a uniformly random expert (seeded); the
    `n_experts` children are created empty on the first row and stay in
    that order.  The combiner takes the product of the non-empty experts'
    Gaussians with differential-entropy weights
    beta_k = 0.5 (log sigma_prior^2 - log sigma_k^2(x*)), normalized to sum to
    one; with no information (all beta zero) the prediction falls back to
    the prior.
    """

    def __init__(self, n_experts: int, seed: int | np.random.Generator = 0,
                 spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if n_experts < 1:
            raise ContractViolationError("need at least one expert")
        super().__init__(spec, train_schedule)
        self.n_experts = int(n_experts)
        self.rng = np.random.default_rng(seed)

    def _route(self, x: np.ndarray, y: float) -> bool:
        if not self.children:
            self.children = [ChildModel(np.empty((0, x.size)), np.empty(0), np.zeros(x.size))
                             for _ in range(self.n_experts)]
        self.children[int(self.rng.integers(self.n_experts))].append(x, y)
        return False

    def _combine(self, query: Query, mean: bool,
                 variance: bool) -> tuple[np.ndarray, np.ndarray]:
        """Product-of-Gaussians combination of the non-empty experts."""
        mus, sigs = self._moments(query, [c for c in self.children if c.n > 0], True, True)
        prior_var = self.spec.signal_variance
        sigs = np.maximum(sigs, EXPERT_VARIANCE_FLOOR)
        beta = 0.5 * (np.log(prior_var) - np.log(sigs))
        np.maximum(beta, 0.0, out=beta)
        total = beta.sum(axis=1)
        mu = np.zeros(mus.shape[0])
        var = np.full(mus.shape[0], prior_var)
        informative = total > 0.0
        if np.any(informative):
            bw = beta[informative] / total[informative, None]
            precision = np.sum(bw / sigs[informative], axis=1)
            var[informative] = 1.0 / precision
            mu[informative] = var[informative] * np.sum(
                bw * mus[informative] / sigs[informative], axis=1
            )
        return mu, var
