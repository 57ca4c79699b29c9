"""The local-GP pool and the splitting-GP regressor built on it.

`LocalGpPool` holds local GPs under one shared kernel; a subclass supplies
the router that places each row, and may replace the similarity combiner.

In `SplittingGP`, observations stream in one at a time or in batches; each
lands in the local model whose center is nearest in lengthscale-scaled
distance, which is the most similar under the kernel even where every
similarity underflows to zero.  A local model that grows past the splitting
limit is bisected along its principal direction into two children.  Each
child inherits the parent's predictive mean, frozen at split time, as its
prior mean and models only the residuals against it, so a freshly split pair
predicts like the parent did.  Predictions aggregate *all* children with
similarity weights, which keeps the mean continuous in the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, FitSchedule, GpPosterior, fit
from .kernels import (
    KernelSpec,
    Query,
    default_spec,
    scaled_cross_gram,
    scaled_rows,
    scaled_sq_dist,
)
from .partition import centroid, split

SNAPSHOT_VERSION = 5


class PriorMeanNode:
    """A frozen kernel expansion recording a parent's predictive mean.

    Created when a local model splits: the parent's residual weights and data
    are copied with the kernel spec current at that moment, chained to the
    parent's own prior.  Nodes never change afterwards, so children can be
    refit without touching their inherited mean.  Because a node is frozen
    with its own spec, it keeps its rows scaled by that spec's lengthscales,
    with their squared norms, from its first evaluation on.  The rows are
    checked when that cache is built, which covers rows read from a
    snapshot.  A query comes either as a `Query`, whose scaled rows are used
    when its spec is the node's, or as bare rows, checked on the call.

    A single-row evaluation leaves a one-entry memo of the row's bytes and
    the chain's value there, so the append that follows a predict of the
    same row reads the chain without a kernel evaluation.
    """

    __slots__ = ("X", "alpha", "spec", "parent", "_scaled", "_memo")

    def __init__(self, X: np.ndarray, alpha: np.ndarray, spec: KernelSpec,
                 parent: "PriorMeanNode | None"):
        self.X = X
        self.alpha = alpha
        self.spec = spec
        self.parent = parent
        self._scaled: tuple[np.ndarray, np.ndarray] | None = None
        self._memo: tuple[bytes, np.ndarray] | None = None

    def evaluate(self, Xstar: np.ndarray, base: np.ndarray | None = None,
                 query: Query | None = None) -> np.ndarray:
        """The chain's mean at rows Xstar: this node's expansion on top of
        its ancestors'.  `base`, when given, is the parent's value at the same
        rows, so that no ancestor is evaluated again.  `query`, when given,
        holds the same rows, checked and scaled."""
        Xstar = np.asarray(Xstar, dtype=float)
        key = Xstar.tobytes() if Xstar.shape[0] == 1 else None
        if key is not None and self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        if base is None:
            base = self.parent.evaluate(Xstar, None, query) if self.parent is not None else 0.0
        if self._scaled is None:
            self._scaled = scaled_rows(self.X, self.spec)
        scaled = (query.scaled(self.spec) if query is not None
                  else scaled_rows(Xstar, self.spec, "Xstar"))
        value = base + scaled_cross_gram(*scaled, *self._scaled,
                                         self.spec.signal_variance) @ self.alpha
        if key is not None:
            value.flags.writeable = False  # every later hit returns this array
            self._memo = (key, value)
        return value

    def chain(self) -> list["PriorMeanNode"]:
        node, out = self, []
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def footprint_bytes(self) -> int:
        p, ndim = self.X.shape
        return 8 * (p * ndim + p)


def _prior_values(prior: PriorMeanNode | None, X: np.ndarray,
                  query: Query | None = None) -> np.ndarray:
    if prior is None:
        return np.zeros(np.atleast_2d(X).shape[0])
    return prior.evaluate(np.atleast_2d(X), None, query)


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

    The rows and responses live in a buffer reserved for `max_rows` rows
    when the owner bounds the child's size (a `SplittingGP` child holds at
    most m + 1), else doubled when full; `X` and `Y` are views of its first
    n rows, which an append never writes.  The center is a running row sum
    divided by n, which for inputs of two or more columns is bitwise
    `X.mean(axis=0)`: NumPy sums axis 0 of a C-ordered array row by row.

    An append to a child whose posterior is cached costs O(n^2): the prior
    chain is evaluated at the new row only and the cached Cholesky factor
    grows by one row, in place in storage the posterior reserves on its first
    extension and doubles when full, capped at `max_rows`.  When the append
    follows a predict of the same row, the chain's value and the solve
    l = L^-1 k are that predict's memos, so no kernel row is built at all.
    Otherwise, or when `GpPosterior.extended` declines, the cache is cleared
    and the next use rebuilds it in O(n^3).  The owning model validates each
    row before it reaches `append`.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, center: np.ndarray | None = None,
                 prior: PriorMeanNode | None = None, max_rows: int | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y, dtype=float).ravel()
        n = X.shape[0]
        self._Xbuf = np.empty((max(n, max_rows or 0, 1), X.shape[1]))
        self._Ybuf = np.empty(self._Xbuf.shape[0])
        self._Xbuf[:n], self._Ybuf[:n] = X, Y
        self.X, self.Y = self._Xbuf[:n], self._Ybuf[:n]
        # Accumulated row by row, as appends continue the sum; `X.sum(axis=0)`
        # would sum a single column pairwise instead.
        self._sum = np.add.accumulate(X)[-1].copy() if n else np.zeros(X.shape[1])
        self.center = centroid(self.X) if center is None else np.asarray(center, dtype=float)
        self.prior = prior
        self.max_rows = max_rows
        self._residuals: np.ndarray | None = None
        self._posterior: GpPosterior | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, x: np.ndarray, y: float, query: Query | None = None) -> None:
        """Store one row; `query`, when given, is x as a checked and scaled
        one-row `Query`."""
        x, y = np.asarray(x, dtype=float).ravel(), float(y)
        post = self._posterior
        if post is not None:
            if query is None:
                query = Query.of(x[None, :], post.spec, "x")
            prior = _prior_values(self.prior, query.X, query)
            post = post.extended(x, y - prior[0], query.scaled(post.spec))
        n = self.n
        if n == self._Xbuf.shape[0]:
            self._Xbuf = np.concatenate([self._Xbuf, np.empty_like(self._Xbuf)])
            self._Ybuf = np.concatenate([self._Ybuf, np.empty_like(self._Ybuf)])
        self._Xbuf[n], self._Ybuf[n] = x, y
        self.X, self.Y = self._Xbuf[:n + 1], self._Ybuf[:n + 1]
        self._sum += x
        self.center = self._sum / (n + 1)
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

    def footprint_bytes(self, ndim: int) -> int:
        # Gram entries + stored rows + responses + center, 8 bytes a scalar.
        return 8 * (self.n * self.n + self.n * ndim + self.n + ndim)


@dataclass
class TrainSchedule:
    """When to re-optimize the shared kernel parameters, and with what budget.

    `on_split` refits after a split during single-observation updates;
    `on_batch` refits once at the end of every batch.  `fit_subsample`, when
    set, caps the number of rows per shard used for the hyperparameter search
    (seeded) and is at least 1; posteriors always condition on all data.
    """

    on_split: bool = True
    on_batch: bool = True
    fit: FitSchedule = field(default_factory=FitSchedule)
    fit_subsample: int | None = None
    subsample_seed: int = 0

    def __post_init__(self):
        if self.fit_subsample is not None and self.fit_subsample < 1:
            raise ContractViolationError("fit_subsample must be None or >= 1")

    @classmethod
    def never(cls) -> "TrainSchedule":
        return cls(on_split=False, on_batch=False)


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
    """Aggregate prediction with the per-child weights that produced it:
    one per child, non-negative, summing to one at every query."""

    mean: float
    weights: np.ndarray


class LocalGpPool:
    """A pool of local GPs under one shared kernel, with a router and a
    combiner.

    A subclass supplies the router, `_route(x, y)`, which stores one checked
    row in a child and returns True when that split a child.  The pool owns
    everything else: row checks, seeding the spec from the first row, the
    ingest loop, the nearest center, the kernel refit over the children's
    residuals, each child's predictive moments at the query rows, and the
    combiner.  The default combiner weights every child by its similarity
    k(c_j, x) to the query row, normalized to sum to one, and far from every
    center gives the weight to the nearest; a subclass may replace it.  The
    four regressors are subclasses: `SplittingGP`, and in `baselines`
    `FullGp` (one child), `LocalGpWgen` and `Rbcm`.
    """

    def __init__(self, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
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

    def _centers(self) -> tuple[np.ndarray, np.ndarray]:
        """The children's centers as a `scaled_rows` pair under the spec."""
        return scaled_rows(np.array([c.center for c in self.children]), self.spec, "centers")

    def _nearest(self, query: Query) -> tuple[int, float]:
        """(index, squared scaled distance) of the child whose center is
        nearest to the one query row, which is its most similar child."""
        d2 = scaled_sq_dist(query.Xs, query.norms, *self._centers())[0]
        idx = int(np.argmin(d2))
        return idx, float(d2[idx])

    def update(self, x: np.ndarray, y: float) -> None:
        """Insert a single observation, refitting after a split per schedule."""
        x, y = check_observation(x, y, None if self.spec is None else self.spec.ndim)
        if self.spec is None:
            self.spec = default_spec(np.asarray([y]), x.size)
        if self._route(x, y) and self.schedule.on_split:
            self.refit()

    def update_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Insert rows in order, checked as one batch before the first is
        stored; the kernel is refit once at the end."""
        X, Y = check_batch(X, Y, None if self.spec is None else self.spec.ndim)
        if X.shape[0] == 0:
            return
        if self.spec is None:
            self.spec = default_spec(Y[:1], X.shape[1])
        for x, y in zip(X, Y):
            self._route(x, y)
        if self.schedule.on_batch:
            self.refit()

    def ingest(self, x: np.ndarray, y: float) -> None:
        self.update(x, y)

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        self.update_batch(X, Y)

    # -- training ----------------------------------------------------------

    def refit(self) -> FitResult:
        """Re-optimize the shared kernel parameters on the residuals of the
        non-empty children."""
        shards = [(c.X, c.residuals()) for c in self.children if c.n > 0]
        if not shards:
            raise EmptyModelError("cannot fit an empty model")
        result = fit(subsample_shards(shards, self.schedule), self.spec, self.schedule.fit)
        self.spec = result.spec
        self.last_fit = result
        for child in self.children:
            child.invalidate()
        return result

    # -- prediction --------------------------------------------------------

    def _query(self, Xstar: np.ndarray) -> Query:
        if not self.children:
            raise EmptyModelError("model has no observations yet")
        return Query.of(Xstar, self.spec)

    def _prior_node_values(self, query: Query) -> dict[int, np.ndarray]:
        """Every unique prior node's value at the query rows, keyed by the
        node's id.

        Ancestors come first, so each node is evaluated once, on top of its
        parent's value.
        """
        values: dict[int, np.ndarray] = {}
        for node in self.prior_nodes():
            base = None if node.parent is None else values[id(node.parent)]
            values[id(node)] = node.evaluate(query.X, base, query)
        return values

    def _moments(self, query: Query, children: list[ChildModel], mean: bool,
                 variance: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Each child's posterior mean and latent variance at the query rows,
        one column per child; None for what is not asked.

        Each child builds one kernel row per query row for both moments, and
        each prior node is evaluated once.
        """
        spec = self.spec
        priors = self._prior_node_values(query) if mean else {}
        shape = (query.X.shape[0], len(children))
        means = np.empty(shape) if mean else None
        variances = np.empty(shape) if variance else None
        for j, child in enumerate(children):
            mu, var = child.posterior(spec).predict_scaled(query.Xs, query.norms, mean, variance)
            if mean:
                means[:, j] = mu if child.prior is None else priors[id(child.prior)] + mu
            if variance:
                variances[:, j] = var
        return means, variances

    def _weights(self, query: Query) -> np.ndarray:
        """Per-child weights k(c_j, x) / sum_i k(c_i, x), one row per query
        row: a softmax of -d_j^2 / 2 without the row's constants sf2 and
        |x|^2, so no sum underflows and an overflowing |x|^2 does no harm."""
        Zs, b = self._centers()
        E = b - 2.0 * (query.Xs @ Zs.T)  # d_j^2 - |x|^2, (B, C)
        E -= E.min(axis=1, keepdims=True)
        np.exp(-0.5 * E, out=E)
        E /= E.sum(axis=1, keepdims=True)
        return E

    def _combine(self, query: Query, mean: bool,
                 variance: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The weighted mean and the variance under independence of the
        children, sum_j w_j^2 v_j, at the query rows.  Every prediction entry
        point comes through here, so a single-row `predict` and a one-row
        batch do the same arithmetic."""
        weights = self._weights(query)
        means, variances = self._moments(query, self.children, mean, variance)
        return (
            np.sum(weights * means, axis=1) if mean else None,
            np.sum(weights * weights * variances, axis=1) if variance else None,
        )

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate posterior mean over the children at query rows."""
        return self._combine(self._query(Xstar), mean=True, variance=False)[0]

    def predict_variance_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate latent variance over the children at query rows."""
        return self._combine(self._query(Xstar), mean=False, variance=True)[1]

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        """(mean, variance) at a single point, given flat or as one row."""
        query = self._query(np.asarray(x_star, dtype=float).ravel()[None, :])
        mean, var = self._combine(query, mean=True, variance=True)
        return float(mean[0]), float(var[0])

    # -- accounting ----------------------------------------------------------

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

    def footprint(self) -> int:
        """Bytes for the non-empty children's Gram entries, rows, responses
        and centers, and the frozen prior expansions' rows and weights."""
        ndim = self.ndim or 0
        total = sum(c.footprint_bytes(ndim) for c in self.children if c.n > 0)
        return total + sum(node.footprint_bytes() for node in self.prior_nodes())

    memory_footprint = footprint  # the name perfbench's workloads read


class SplittingGP(LocalGpPool):
    """Streaming GP regressor with similarity-routed local models.

    The router sends each row to the child with the nearest center and
    bisects a child that passes the split limit.

    Parameters
    ----------
    split_limit : int
        Maximum observations a local model may hold before it is bisected,
        >= 2.
    spec : KernelSpec, optional
        Shared kernel; defaults are derived from the first data seen.
    train_schedule : TrainSchedule, optional
    """

    def __init__(self, split_limit: int, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if split_limit < 2:
            raise ContractViolationError("split limit must be at least 2")
        super().__init__(spec, train_schedule)
        self.m = int(split_limit)

    # perfbench/tracing.py wraps these methods where it finds them, in this
    # class's own __dict__.
    update = LocalGpPool.update
    refit = LocalGpPool.refit
    predict = LocalGpPool.predict
    predict_mean_batch = LocalGpPool.predict_mean_batch
    predict_variance_batch = LocalGpPool.predict_variance_batch

    def _new_child(self, X: np.ndarray, Y: np.ndarray, center: np.ndarray | None = None,
                   prior: PriorMeanNode | None = None) -> ChildModel:
        # A child holds at most m + 1 rows: the one past m triggers its split.
        return ChildModel(X, Y, center, prior, max_rows=self.m + 1)

    def _route(self, x: np.ndarray, y: float) -> bool:
        if not self.children:
            self.children.append(self._new_child(x[None, :], [y], center=x.copy()))
            return False
        query = Query.of(x[None, :], self.spec)
        idx = self._nearest(query)[0]
        child = self.children[idx]
        child.append(x, y, query)
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
        result = split(child.X, child.Y, child.center)
        self.children[idx] = self._new_child(*result.left, prior=node)
        self.children.append(self._new_child(*result.right, prior=node))

    def predict_mean(self, x_star: np.ndarray) -> PredictionSummary:
        """Weighted-average prediction at a single point, with its weights."""
        query = self._query(np.asarray(x_star, dtype=float).ravel()[None, :])
        weights = self._weights(query)
        means = self._moments(query, self.children, mean=True, variance=False)[0]
        return PredictionSummary(mean=float(np.sum(weights * means, axis=1)[0]),
                                 weights=weights[0])

    # -- accounting and persistence -----------------------------------------

    def gram_footprint(self) -> int:
        """Bytes of stored kernel-matrix entries alone (the dominant term)."""
        return 8 * sum(c.n * c.n for c in self.children)

    def save(self, path) -> None:
        """Write a versioned snapshot: children, priors, kernel, split limit,
        training schedule and the last fit's outcome."""
        nodes = self.prior_nodes()
        order = {id(node): i for i, node in enumerate(nodes)}
        payload = {
            "version": np.array(SNAPSHOT_VERSION),
            "m": np.array(self.m),
            "n_children": np.array(self.n_children),
            "n_nodes": np.array(len(nodes)),
        }
        payload.update(_schedule_to_payload(self.schedule))
        if self.spec is not None:
            payload["spec"] = _spec_to_array(self.spec)
        if self.last_fit is not None:
            last = self.last_fit
            payload["last_fit_spec"] = _spec_to_array(last.spec)
            payload["last_fit"] = np.array([last.objective, last.iterations,
                                            last.converged, last.warning], dtype=float)
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
            model = cls(int(data["m"]), spec=spec, train_schedule=_schedule_from_payload(data))
            if "last_fit" in data:
                objective, iterations, converged, warning = data["last_fit"]
                model.last_fit = FitResult(_spec_from_array(data["last_fit_spec"]),
                                           float(objective), int(iterations),
                                           bool(converged), bool(warning))
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
    return np.concatenate([[spec.signal_variance, spec.noise_variance], spec.lengthscales])


def _spec_from_array(arr: np.ndarray) -> KernelSpec:
    return KernelSpec(arr[2:], float(arr[0]), float(arr[1]))


def _schedule_to_payload(schedule: TrainSchedule) -> dict[str, np.ndarray]:
    subsample = schedule.fit_subsample
    return {
        "schedule_flags": np.array([schedule.on_split, schedule.on_batch]),
        "schedule_fit": np.array(schedule.fit.max_iters),
        "schedule_subsample": np.array(-1 if subsample is None else subsample),
        # Text, because a seed may not fit in 64 bits.
        "schedule_subsample_seed": np.array(str(schedule.subsample_seed)),
    }


def _schedule_from_payload(data) -> TrainSchedule:
    on_split, on_batch = (bool(v) for v in data["schedule_flags"])
    subsample = int(data["schedule_subsample"])
    return TrainSchedule(on_split, on_batch, FitSchedule(int(data["schedule_fit"])),
                         None if subsample < 0 else subsample,
                         int(str(data["schedule_subsample_seed"])))
