"""The splitting-GP regressor.

Observations stream in one at a time or in batches; each lands in the local
model whose center is nearest in lengthscale-scaled distance, which is the most
similar under the kernel even where every similarity underflows to zero.  A
local model that grows past the splitting limit is bisected along its principal
direction into two children.  Each child inherits the parent's predictive
mean, frozen at split time, as its prior mean and models only the residuals
against it, so a freshly split pair predicts like the parent did.
Predictions aggregate *all* children with similarity weights, which keeps the
mean continuous in the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, FitSchedule, GpPosterior, fit
from .kernels import (Hyperparameters, KernelSpec, cross_gram, default_spec, scaled_cross_gram,
                      scaled_rows, sq_dist)
from .partition import BATCH_SVD, OJA_STREAMING, PrincipalDirectionEstimator, centroid, split

SNAPSHOT_VERSION = 2


class PriorMeanNode:
    """A frozen kernel expansion recording a parent's predictive mean.

    Created when a local model splits: the parent's residual weights and data
    are copied with the kernel spec current at that moment, chained to the
    parent's own prior.  Nodes never change afterwards, so children can be
    refit without touching their inherited mean.  Because a node is frozen
    with its own spec, it keeps its rows scaled by that spec's lengthscales,
    with their squared norms, from its first evaluation on.  The rows are
    checked when that cache is built, which covers rows read from a
    snapshot; query rows are checked on every call.
    """

    __slots__ = ("X", "alpha", "spec", "parent", "_scaled")

    def __init__(self, X: np.ndarray, alpha: np.ndarray, spec: KernelSpec,
                 parent: "PriorMeanNode | None"):
        self.X = X
        self.alpha = alpha
        self.spec = spec
        self.parent = parent
        self._scaled: tuple[np.ndarray, np.ndarray] | None = None

    def evaluate(self, Xstar: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
        """The chain's mean at rows Xstar: this node's expansion on top of
        its ancestors'.  `base`, when given, is the parent's value at the same
        rows, so that no ancestor is evaluated again."""
        if base is None:
            base = self.parent.evaluate(Xstar) if self.parent is not None else 0.0
        if self._scaled is None:
            self._scaled = scaled_rows(self.X, self.spec)
        k = scaled_cross_gram(*scaled_rows(Xstar, self.spec, "Xstar"), *self._scaled,
                              self.spec.params.signal_variance)
        return base + k @ self.alpha

    def chain(self) -> list["PriorMeanNode"]:
        node, out = self, []
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def footprint_bytes(self) -> int:
        p, ndim = self.X.shape
        return 8 * (p * ndim + p)


def _prior_values(prior: PriorMeanNode | None, X: np.ndarray) -> np.ndarray:
    if prior is None:
        return np.zeros(np.atleast_2d(X).shape[0])
    return prior.evaluate(np.atleast_2d(X))


def check_observation(x: np.ndarray, y: float, ndim: int | None) -> tuple[np.ndarray, float]:
    """(x as a flat float row, y as a float), or ContractViolationError when
    either is not finite or x does not have `ndim` entries (None: any)."""
    x, y = np.asarray(x, dtype=float).ravel(), float(y)
    if not np.all(np.isfinite(x)) or not np.isfinite(y):
        raise ContractViolationError("observation contains non-finite values")
    if ndim is not None and x.size != ndim:
        raise ContractViolationError(f"observation has {x.size} dimensions, spec expects {ndim}")
    return x, y


def check_batch(X: np.ndarray, Y: np.ndarray, ndim: int | None) -> tuple[np.ndarray, np.ndarray]:
    """`check_observation` for every row of a batch at once, before any is
    stored, so that a rejected batch leaves the model unchanged."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).ravel()
    if X.shape[0] != Y.shape[0]:
        raise ContractViolationError("batch X rows and Y entries must match")
    if X.shape[0]:
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
            raise ContractViolationError("batch contains non-finite values")
        if ndim is not None and X.shape[1] != ndim:
            raise ContractViolationError(
                f"batch rows have {X.shape[1]} dimensions, spec expects {ndim}"
            )
    return X, Y


class ChildModel:
    """One local GP: its data, its center, its inherited prior mean, and a
    lazy posterior cache over the residuals.

    An append to a child whose posterior is cached costs O(n^2): the prior
    chain is evaluated at the new row only and the cached Cholesky factor
    grows by one row, in place in storage the posterior reserves on its first
    extension and doubles when full, capped at `max_rows` when the owner
    bounds the child's size (a `SplittingGP` child holds at most m + 1).
    Otherwise, or when `GpPosterior.extended` declines, the cache is cleared
    and the next use rebuilds it in O(n^3).  The owning model validates each
    row before it reaches `append`.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, center: np.ndarray | None = None,
                 prior: PriorMeanNode | None = None, max_rows: int | None = None):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.Y = np.asarray(Y, dtype=float).ravel()
        self.center = centroid(self.X) if center is None else np.asarray(center, dtype=float)
        self.prior = prior
        self.max_rows = max_rows
        self._residuals: np.ndarray | None = None
        self._posterior: GpPosterior | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, x: np.ndarray, y: float) -> None:
        x, y = np.asarray(x, dtype=float), float(y)
        post = self._posterior
        if post is not None:
            post = post.extended(x, y - _prior_values(self.prior, x)[0])
        self.X = np.vstack([self.X, x])
        self.Y = np.append(self.Y, y)
        self.center = centroid(self.X)
        self._posterior = post
        self._residuals = None if post is None else post.Y

    def invalidate(self) -> None:
        self._posterior = None

    def residuals(self) -> np.ndarray:
        """Responses minus the inherited prior mean; what the local GP models."""
        if self._residuals is None:
            self._residuals = self.Y - _prior_values(self.prior, self.X)
        return self._residuals

    def posterior(self, spec: KernelSpec) -> GpPosterior:
        if self._posterior is None or self._posterior.spec != spec:
            self._posterior = GpPosterior(self.X, self.residuals(), spec,
                                          max_rows=self.max_rows)
        return self._posterior

    def mean_at(self, Xstar: np.ndarray, spec: KernelSpec) -> np.ndarray:
        """Per-child predictive mean: inherited prior plus the residual layer."""
        Xstar = np.atleast_2d(Xstar)
        mu, _ = self.posterior(spec).predict_scaled(*scaled_rows(Xstar, spec, "Xstar"),
                                                    variance=False)
        return _prior_values(self.prior, Xstar) + mu

    def footprint_bytes(self, ndim: int) -> int:
        # Gram entries + stored rows + responses + center, 8 bytes a scalar.
        return 8 * (self.n * self.n + self.n * ndim + self.n + ndim)


@dataclass
class TrainSchedule:
    """When to re-optimize the shared hyperparameters, and with what budget.

    `on_split` refits after a split during single-observation updates;
    `on_batch` refits once at the end of every batch; `every_update` is the
    per-observation refit of the sequential algorithm, off by default because
    it is prohibitive on streams.  `fit_subsample`, when set, caps the number
    of rows per shard used for the hyperparameter search (seeded); posteriors
    always condition on all data.
    """

    on_split: bool = True
    on_batch: bool = True
    every_update: bool = False
    fit: FitSchedule = field(default_factory=FitSchedule)
    fit_subsample: int | None = None
    subsample_seed: int = 0

    @classmethod
    def never(cls) -> "TrainSchedule":
        return cls(on_split=False, on_batch=False, every_update=False)


def subsample_shards(shards, schedule: TrainSchedule):
    """Cap rows per shard for the hyperparameter search when configured."""
    cap = schedule.fit_subsample
    if cap is None:
        return shards
    rng = np.random.default_rng(schedule.subsample_seed)
    out = []
    for X, Y in shards:
        if X.shape[0] > cap:
            idx = np.sort(rng.choice(X.shape[0], cap, replace=False))
            out.append((X[idx], Y[idx]))
        else:
            out.append((X, Y))
    return out


@dataclass
class PredictionSummary:
    """Aggregate prediction with the per-child weights that produced it."""

    mean: float
    weights: np.ndarray
    normalizer: float
    variance: float | None = None
    uniform_fallback: bool = False


class SplittingGP:
    """Streaming GP regressor with similarity-routed local models.

    Parameters
    ----------
    split_limit : int
        Maximum observations a local model may hold before it is bisected,
        >= 2.
    spec : KernelSpec, optional
        Shared kernel; defaults are derived from the first data seen.
    train_schedule : TrainSchedule, optional
    estimator_mode : str
        "batch-svd" (exact principal direction) or "oja-streaming".
    """

    def __init__(self, split_limit: int, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None,
                 estimator_mode: str = BATCH_SVD):
        if split_limit < 2:
            raise ContractViolationError("split limit must be at least 2")
        if estimator_mode not in (BATCH_SVD, OJA_STREAMING):
            raise ContractViolationError(f"unknown estimator mode {estimator_mode!r}")
        self.m = int(split_limit)
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.estimator_mode = estimator_mode
        self.children: list[ChildModel] = []
        self.last_fit: FitResult | None = None

    # -- ingestion ---------------------------------------------------------

    @property
    def n_children(self) -> int:
        return len(self.children)

    @property
    def n_observations(self) -> int:
        return sum(c.n for c in self.children)

    @property
    def ndim(self) -> int | None:
        return self.children[0].X.shape[1] if self.children else None

    def _ensure_spec(self, x: np.ndarray, y: float) -> None:
        if self.spec is None:
            ys = np.concatenate([c.Y for c in self.children] + [[y]]) if self.children else [y]
            self.spec = default_spec(np.asarray(ys), np.asarray(x).size)

    def _nearest_child(self, x: np.ndarray) -> int:
        """Index of the child whose center is nearest to x in scaled distance."""
        centers = np.array([c.center for c in self.children])
        return int(np.argmin(sq_dist(x[None, :], centers, self.spec)[0]))

    def _new_child(self, X: np.ndarray, Y: np.ndarray, center: np.ndarray | None = None,
                   prior: PriorMeanNode | None = None) -> ChildModel:
        # A child holds at most m + 1 rows: the one past m triggers its split.
        return ChildModel(X, Y, center, prior, max_rows=self.m + 1)

    def _ingest_one(self, x: np.ndarray, y: float) -> bool:
        """Route one observation; returns True when it triggered a split."""
        x, y = check_observation(x, y, None if self.spec is None else self.spec.ndim)
        self._ensure_spec(x, y)
        if not self.children:
            self.children.append(self._new_child(x[None, :], [y], center=x.copy()))
            return False
        idx = self._nearest_child(x)
        child = self.children[idx]
        child.append(x, y)
        if child.n > self.m:
            self._split_child(idx)
            return True
        return False

    def _split_child(self, idx: int) -> None:
        child = self.children[idx]
        node = PriorMeanNode(
            child.X.copy(),
            child.posterior(self.spec).alpha.copy(),
            self.spec,
            child.prior,
        )
        est = None
        if self.estimator_mode == OJA_STREAMING:
            est = PrincipalDirectionEstimator(mode=OJA_STREAMING)
        result = split(child.X, child.Y, child.center, est)
        self.children[idx] = self._new_child(*result.left, prior=node)
        self.children.append(self._new_child(*result.right, prior=node))

    def update(self, x: np.ndarray, y: float) -> None:
        """Insert a single observation, splitting and refitting per schedule."""
        split_occurred = self._ingest_one(x, y)
        if self.schedule.every_update or (split_occurred and self.schedule.on_split):
            self.refit()

    def update_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Insert rows in order; hyperparameters are refit once at the end."""
        X, Y = check_batch(X, Y, None if self.spec is None else self.spec.ndim)
        if X.shape[0] == 0:
            return
        for i in range(X.shape[0]):
            self._ingest_one(X[i], Y[i])
        if self.schedule.on_batch:
            self.refit()

    def ingest(self, x: np.ndarray, y: float) -> None:
        self.update(x, y)

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        self.update_batch(X, Y)

    # -- training ----------------------------------------------------------

    def _fit_shards(self) -> list[tuple[np.ndarray, np.ndarray]]:
        shards = [(c.X, c.residuals()) for c in self.children if c.n > 0]
        return subsample_shards(shards, self.schedule)

    def refit(self) -> FitResult:
        """Re-optimize the shared hyperparameters on the current children."""
        if not self.children:
            raise EmptyModelError("cannot fit an empty model")
        result = fit(self._fit_shards(), self.spec, self.schedule.fit)
        self.spec = result.spec
        self.last_fit = result
        for child in self.children:
            child.invalidate()
        return result

    # -- prediction --------------------------------------------------------

    def _weights(self, Xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-child weights for a batch of query rows: (weights, S, fallback)."""
        centers = np.array([c.center for c in self.children])
        sims = cross_gram(Xstar, centers, self.spec)  # (B, C)
        S = sims.sum(axis=1)
        fallback = S <= 0.0
        weights = np.empty_like(sims)
        ok = ~fallback
        weights[ok] = sims[ok] / S[ok, None]
        if np.any(fallback):
            warnings.warn(
                "similarity normalizer underflowed to zero; using uniform weights",
                RuntimeWarning,
            )
            weights[fallback] = 1.0 / self.n_children
        return weights, S, fallback

    def _require_children(self):
        if not self.children:
            raise EmptyModelError("model has no observations yet")

    def _prior_node_values(self, Xstar: np.ndarray) -> dict[int, np.ndarray]:
        """Every unique prior node's value at Xstar, keyed by the node's id.

        Ancestors come first, so each node is evaluated once, on top of its
        parent's value.
        """
        values: dict[int, np.ndarray] = {}
        for node in self.prior_nodes():
            base = None if node.parent is None else values[id(node.parent)]
            values[id(node)] = node.evaluate(Xstar, base)
        return values

    def _aggregate(self, Xstar: np.ndarray, weights: np.ndarray, mean: bool,
                   variance: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Weighted mean and variance over the children at query rows; None
        for what is not asked.

        The rows are checked and scaled once; each child then builds one
        kernel row per query row for both moments, and each prior node is
        evaluated once.  Every prediction entry point comes through here, so
        a single-row `predict` and a one-row batch do the same arithmetic.
        """
        spec = self.spec
        Xs, a = scaled_rows(Xstar, spec, "Xstar")
        priors = self._prior_node_values(Xstar) if mean else {}
        shape = (Xs.shape[0], self.n_children)
        means = np.empty(shape) if mean else None
        variances = np.empty(shape) if variance else None
        for j, child in enumerate(self.children):
            mu, var = child.posterior(spec).predict_scaled(Xs, a, mean, variance)
            if mean:
                means[:, j] = mu if child.prior is None else priors[id(child.prior)] + mu
            if variance:
                variances[:, j] = var
        return (
            np.sum(weights * means, axis=1) if mean else None,
            np.sum(weights * weights * variances, axis=1) if variance else None,
        )

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate posterior mean over all children for query rows."""
        self._require_children()
        Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
        weights, _, _ = self._weights(Xstar)
        return self._aggregate(Xstar, weights, mean=True, variance=False)[0]

    def predict_variance_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate variance under independence of the child posteriors."""
        self._require_children()
        Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
        weights, _, _ = self._weights(Xstar)
        return self._aggregate(Xstar, weights, mean=False, variance=True)[1]

    def _predict_one(self, x_star: np.ndarray,
                     variance: bool) -> tuple[PredictionSummary, float | None]:
        self._require_children()
        x_star = np.asarray(x_star, dtype=float).ravel()[None, :]
        weights, S, fallback = self._weights(x_star)
        mean, var = self._aggregate(x_star, weights, mean=True, variance=variance)
        summary = PredictionSummary(
            mean=float(mean[0]),
            weights=weights[0],
            normalizer=float(S[0]),
            uniform_fallback=bool(fallback[0]),
        )
        return summary, None if var is None else float(var[0])

    def predict_mean(self, x_star: np.ndarray) -> PredictionSummary:
        """Weighted-average prediction at a single point, with its weights."""
        return self._predict_one(x_star, variance=False)[0]

    def predict_variance(self, x_star: np.ndarray) -> float:
        self._require_children()
        x_star = np.asarray(x_star, dtype=float).ravel()
        return float(self.predict_variance_batch(x_star[None, :])[0])

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        """(mean, variance) at a single point from one set of weights and one
        kernel row per child."""
        summary, var = self._predict_one(x_star, variance=True)
        return summary.mean, var

    # -- accounting and persistence -----------------------------------------

    def prior_nodes(self) -> list[PriorMeanNode]:
        """Unique frozen prior nodes reachable from the live children,
        ancestors before descendants."""
        seen: list[PriorMeanNode] = []
        ids = set()
        for child in self.children:
            for node in reversed(child.prior.chain() if child.prior else []):
                if id(node) not in ids:
                    ids.add(id(node))
                    seen.append(node)
        return seen

    def memory_footprint(self) -> int:
        """Bytes for per-child Gram entries, rows, responses and centers, plus
        the rows and weights of the frozen prior expansions."""
        if not self.children:
            return 0
        ndim = self.ndim or 0
        total = sum(c.footprint_bytes(ndim) for c in self.children)
        total += sum(node.footprint_bytes() for node in self.prior_nodes())
        return total

    def gram_footprint(self) -> int:
        """Bytes of stored kernel-matrix entries alone (the dominant term)."""
        return 8 * sum(c.n * c.n for c in self.children)

    def footprint(self) -> int:
        return self.memory_footprint()

    def save(self, path) -> None:
        """Write a versioned snapshot (children, priors, kernel, split limit)."""
        nodes = self.prior_nodes()
        order = {id(node): i for i, node in enumerate(nodes)}
        payload = {
            "version": np.array(SNAPSHOT_VERSION),
            "m": np.array(self.m),
            "estimator_mode": np.array(self.estimator_mode),
            "n_children": np.array(self.n_children),
            "n_nodes": np.array(len(nodes)),
        }
        if self.spec is not None:
            payload["spec"] = _spec_to_array(self.spec)
        for i, node in enumerate(nodes):
            payload[f"node_{i}_X"] = node.X
            payload[f"node_{i}_alpha"] = node.alpha
            payload[f"node_{i}_spec"] = _spec_to_array(node.spec)
            payload[f"node_{i}_parent"] = np.array(
                -1 if node.parent is None else order[id(node.parent)]
            )
        for i, child in enumerate(self.children):
            payload[f"child_{i}_X"] = child.X
            payload[f"child_{i}_Y"] = child.Y
            payload[f"child_{i}_c"] = child.center
            payload[f"child_{i}_prior"] = np.array(
                -1 if child.prior is None else order[id(child.prior)]
            )
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "SplittingGP":
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != SNAPSHOT_VERSION:
                raise ContractViolationError(f"unsupported snapshot version {version}")
            spec = _spec_from_array(data["spec"]) if "spec" in data else None
            model = cls(int(data["m"]), spec=spec,
                        estimator_mode=str(data["estimator_mode"]))
            nodes: list[PriorMeanNode] = []
            for i in range(int(data["n_nodes"])):
                parent_idx = int(data[f"node_{i}_parent"])
                nodes.append(PriorMeanNode(
                    data[f"node_{i}_X"],
                    data[f"node_{i}_alpha"],
                    _spec_from_array(data[f"node_{i}_spec"]),
                    nodes[parent_idx] if parent_idx >= 0 else None,
                ))
            for i in range(int(data["n_children"])):
                prior_idx = int(data[f"child_{i}_prior"])
                model.children.append(model._new_child(
                    data[f"child_{i}_X"], data[f"child_{i}_Y"], data[f"child_{i}_c"],
                    prior=nodes[prior_idx] if prior_idx >= 0 else None,
                ))
        return model


def _spec_to_array(spec: KernelSpec) -> np.ndarray:
    return np.concatenate([
        [spec.params.signal_variance, spec.params.noise_variance],
        spec.params.lengthscales,
    ])


def _spec_from_array(arr: np.ndarray) -> KernelSpec:
    return KernelSpec(Hyperparameters(arr[2:], float(arr[0]), float(arr[1])))
