"""Comparison regressors sharing the streaming interface of the splitting model.

All three are pools of local GPs, like `SplittingGP`: each is a router plus
a combiner on `model.LocalGpPool`.  FullGp's router keeps every row in one
child, so the pool is one exact GP over everything seen.  LocalGpWgen's
router spawns a local model behind a similarity threshold.  These two predict
with the pool's similarity weights.  Rbcm's router assigns rows to a fixed
set of experts at random, and it combines them as a product of Gaussians.

Like `SplittingGP`, each rejects a non-finite or wrong-width observation
with `ContractViolationError` before it changes any state, and a batch is
checked whole before its first row is stored.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractViolationError
from .kernels import KernelSpec, Query
from .model import ChildModel, LocalGpPool, TrainSchedule

EXPERT_VARIANCE_FLOOR = 1e-300  # Rbcm floors expert variances here before log and 1/v


class FullGp(LocalGpPool):
    """Exact GP over the entire stream: a pool of one child.

    The router puts every row in the one child, which the first row
    creates; the similarity combiner then gives that child weight exactly 1.
    """

    # perfbench/tracing.py wraps these methods where it finds them, in this
    # class's own __dict__.
    ingest_batch = LocalGpPool.ingest_batch
    refit = LocalGpPool.refit
    predict_mean_batch = LocalGpPool.predict_mean_batch

    def _route(self, x: np.ndarray, y: float) -> bool:
        if self.children:
            self.children[0].append(x, y)
        else:
            self.children.append(ChildModel(x[None, :], [y], center=x.copy()))
        return False


class LocalGpWgen(LocalGpPool):
    """Threshold-based local GP (Nguyen-Tuong, Seeger & Peters 2009).

    The router adds a row to the nearest child, or spawns a new child
    centered on the row when no center is more similar than `w_gen` under
    the amplitude-normalized similarity exp(-d^2 / 2), that is, when the
    squared scaled distance d^2 to the nearest center is not below
    -2 log(w_gen).  So w_gen keeps its (0, 1] meaning whatever the fitted
    signal variance is.  Predictions use the pool's similarity combiner.
    """

    def __init__(self, w_gen: float, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if not 0.0 < w_gen <= 1.0:
            raise ContractViolationError("w_gen must lie in (0, 1]")
        super().__init__(spec, train_schedule)
        self.w_gen = float(w_gen)
        self._radius2 = -2.0 * np.log(self.w_gen)

    def _route(self, x: np.ndarray, y: float) -> bool:
        if self.children:
            query = Query.of(x[None, :], self.spec)
            idx, d2 = self._nearest(query)
            if d2 < self._radius2:
                self.children[idx].append(x, y, query)
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
