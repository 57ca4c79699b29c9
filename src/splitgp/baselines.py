"""Comparison regressors sharing the streaming interface of the splitting model.

All three are pools of local GPs, like `SplittingGP`: each is a router plus
a combiner on `model.LocalGpPool`.  FullGp's router keeps every row in one
child, so the pool is one exact GP over everything seen.  LocalGpWgen's
router spawns a local model behind a similarity threshold.  These two predict
with the pool's similarity weights.  Rbcm's router assigns rows to a fixed
set of experts at random, and it combines them as a product of Gaussians.

Like `SplittingGP`, each rejects a non-finite or wrong-width observation,
or one that overflows when scaled by the lengthscales, with
`ContractViolationError` before it changes any state: the pool checks and
scales a batch whole before its first row is stored, and each router takes
its row as a one-row slice of that `Query`.
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
    A batch goes into the child as one extension, bitwise the rows appended
    one by one, unless the child caches a posterior, which then grows row by
    row.  The kernel is fit as the schedule asks, right after the FIT_ROWS-th
    row, but a batch does not end with a factorization: a FullGp is read
    once its stream is in.
    """

    # perfbench/tracing.py wraps these methods where it finds them, in this
    # class's own __dict__.
    ingest_batch = LocalGpPool.ingest_batch
    refit = LocalGpPool.refit
    predict_mean_batch = LocalGpPool.predict_mean_batch

    def _route_rows(self, query: Query, Y: np.ndarray) -> None:
        start = 0
        if not self.children:
            self.children.append(ChildModel(query.X[:1], Y[:1]))
            start = 1
        child, rows = self.children[0], range(start, Y.size)
        if child._posterior is None and len(rows) > 1:
            child.extend(query.X[start:], Y[start:])
        else:
            for i in rows:
                self._append(child, query.row(i), Y[i])
        self._center_moved(0)


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

    def _route(self, query: Query, y: float) -> None:
        if self.children:
            idx, d2 = self._nearest(query)
            if d2 < self._radius2:
                self._append(self.children[idx], query, y)
                self._center_moved(idx)
                return
        self.children.append(ChildModel(query.X, [y]))


class Rbcm(LocalGpPool):
    """Robust Bayesian committee machine (Deisenroth & Ng 2015) over a fixed
    pool of GP experts.

    The router sends each row to a uniformly random expert (seeded), one of
    `n_experts` slots; the first row an expert draws creates it, as an expert
    is defined by its data subset, so a slot holds nothing until then, and
    `children` holds the created experts in slot order.  The combiner takes
    the product of the experts' Gaussians with differential-entropy weights
    beta_k = 0.5 (log sigma_prior^2 - log sigma_k^2(x*)), normalized to sum to
    one; with no information (all beta zero) the prediction falls back to
    the prior.  The normalization departs from Deisenroth & Ng, whose
    precision adds (1 - sum beta) / sigma_prior^2: normalized, the combiner is
    the generalized product of experts of Cao & Fleet 2014.  Criterion 9, one
    expert equals the full GP, relies on it.
    """

    def __init__(self, n_experts: int, seed: int | np.random.Generator = 0,
                 spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if n_experts < 1:
            raise ContractViolationError("need at least one expert")
        super().__init__(spec, train_schedule)
        self.n_experts = int(n_experts)
        self.rng = np.random.default_rng(seed)
        self._experts: dict[int, ChildModel] = {}  # the created experts, by slot

    def _route(self, query: Query, y: float) -> None:
        k = int(self.rng.integers(self.n_experts))
        if k in self._experts:
            self._append(self._experts[k], query, y)
            self._center_moved(self.children.index(self._experts[k]))
        else:
            self._experts[k] = ChildModel(query.X, [y])
            self.children = [self._experts[slot] for slot in sorted(self._experts)]

    def _combine(self, query: Query, mean: bool,
                 variance: bool) -> tuple[np.ndarray, np.ndarray, None]:
        """Product-of-Gaussians combination of the experts; no weights."""
        mus, sigs = self._moments(query, True, True)
        prior_var = self._spec.signal_variance
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
        return mu, var, None
