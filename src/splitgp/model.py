"""The local-GP pool and the splitting-GP regressor built on it.

`LocalGpPool` holds local GPs under one shared kernel; a subclass supplies
the router that places each row, and may replace the similarity combiner.

In `SplittingGP`, observations stream in one at a time or in batches; each
lands in the local model whose center is nearest in lengthscale-scaled
distance, read from the scores the similarity weights use, so the most
similar under the kernel even where every similarity underflows to zero.  A
local model that grows past the splitting limit is bisected along its
principal direction into two children.  Each child inherits the parent's
predictive mean, frozen at split time, as its prior mean and models only the
residuals against it, so a freshly split pair predicts like the parent did.
Predictions aggregate *all* children with similarity weights, which keeps
the mean continuous in the input.

Rows are checked and scaled once, where they enter the pool, as one
`kernels.Query` per batch whose one-row slices reach the router, the child
and its posterior; a prior node scales its own rows when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, FitSchedule, GpPosterior, fit
from .kernels import KernelSpec, Query, default_spec, scaled_cross_gram, scaled_rows
from .partition import split

SNAPSHOT_VERSION = 6


class PriorMeanNode:
    """A frozen kernel expansion recording a parent's predictive mean.

    Created when a local model splits: it takes the parent's residual weights
    and rows, which the dropped parent never writes again, with the kernel
    spec current at that moment, chained to the parent's own prior.  A node's
    expansion never changes afterwards, so children can be refit without
    touching their inherited mean.  Because a node is frozen with its own
    spec, it scales its rows under that spec when it is made, into the
    augmented form of `kernels.scaled_rows`, which checks them; that covers
    rows read from a snapshot.  A query comes as a `Query`, whose `aug` is
    used when its spec is the node's.  Nothing writes to a node once made.
    """

    __slots__ = ("X", "alpha", "spec", "parent", "_scaled")

    def __init__(self, X: np.ndarray, alpha: np.ndarray, spec: KernelSpec,
                 parent: "PriorMeanNode | None"):
        self.X, self.alpha, self.spec, self.parent = X, alpha, spec, parent
        self._scaled = scaled_rows(X, spec)

    def expansion(self, query: Query) -> np.ndarray:
        """This node's own kernel expansion at the query rows."""
        return scaled_cross_gram(query.scaled(self.spec), self._scaled,
                                 self.spec.signal_variance) @ self.alpha

    def evaluate(self, Xstar: np.ndarray, query: Query) -> np.ndarray:
        """The chain's mean at rows Xstar, ((0.0 + root) + ...) + this node's
        expansion.  `query` holds the same rows, checked and scaled."""
        value = 0.0
        for node in reversed(self.chain()):
            value = value + node.expansion(query)
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


def check_scaled(X: np.ndarray, lengthscales: np.ndarray) -> None:
    """ContractViolationError when 4 |x / l|^2 overflows for a row of X, as a
    squared distance sums two such norms and twice their rows' product.  Python
    floats overflow to inf without a warning, and beat NumPy on one row."""
    ls = lengthscales.tolist()
    for row in X.tolist():
        if not 4.0 * sum((v / l) * (v / l) for v, l in zip(row, ls)) < math.inf:
            raise ContractViolationError("observation overflows when scaled by the lengthscales")


class ChildModel:
    """One local GP: its data, its center, its inherited prior mean, and a
    lazy posterior cache over the residuals.

    The rows and responses live in a buffer reserved for `max_rows` rows
    when the owner bounds the child's size (a `SplittingGP` child holds at
    most m + 1), else doubled when full; `X` and `Y` are views of its first
    n rows, which an append never writes.  A cached posterior's rows are
    such a view, so the child holds each row once.  It holds at least one:
    no rows raise ContractViolationError.  The center is a running row sum
    divided by n; for inputs of two or more columns it is bitwise
    `X.mean(axis=0)`: NumPy sums axis 0 of a C-ordered array row by row.

    An append to a child whose posterior is cached costs a kernel row and an
    O(n^2) solve: the row goes into the buffer, the prior chain is evaluated
    at it only, and the cached posterior grows by one row over the new view,
    in place, in storage sized to the buffer's length (`GpPosterior.append`).
    After a read of the same row, the pool passes that read's solve
    l = L^-1 k and chain value, keyed by posterior: no kernel row, no solve.
    Without a cached posterior, or when `GpPosterior.append` declines, the
    cache is cleared and the next use rebuilds it in O(n^3).  The owning pool
    checks and scales each row before it reaches `append`, as a one-row
    `Query`.  A refit may leave the fit's posterior of all the rows in a slot
    apart: `posterior(spec)` takes it at its spec instead of rebuilding, and
    an append or `invalidate` drops it ungrown.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, prior: PriorMeanNode | None = None,
                 max_rows: int | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y, dtype=float).ravel()
        n = X.shape[0]
        if not n:
            raise ContractViolationError("a child needs at least one row")
        self._Xbuf = np.empty((max(n, max_rows or 0), X.shape[1]))
        self._Ybuf = np.empty(self._Xbuf.shape[0])
        self._Xbuf[:n], self._Ybuf[:n] = X, Y
        self.X, self.Y = self._Xbuf[:n], self._Ybuf[:n]
        # Accumulated row by row, as appends continue the sum; `X.sum(axis=0)`
        # would sum one column pairwise.  + 0.0 makes a -0 sum +0, as NumPy's.
        self._sum = np.add.accumulate(X)[-1] + 0.0
        self.center = self._sum / n
        self.prior = prior
        self._residuals: np.ndarray | None = None
        self._posterior: GpPosterior | None = None
        self._adopted: GpPosterior | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def append(self, query: Query, y: float, solved: dict | None = None) -> None:
        """Store one row, given as a checked and scaled one-row `Query`;
        `solved` maps posteriors to a read's (l, chain value) at the row."""
        x, y = query.X[0], float(y)
        n = self.n
        if n == self._Xbuf.shape[0]:
            self._Xbuf = np.concatenate([self._Xbuf, np.empty_like(self._Xbuf)])
            self._Ybuf = np.concatenate([self._Ybuf, np.empty_like(self._Ybuf)])
        self._Xbuf[n], self._Ybuf[n] = x, y
        self.X, self.Y = self._Xbuf[:n + 1], self._Ybuf[:n + 1]
        self._sum += x
        self.center = self._sum / (n + 1)
        post, self._adopted = self._posterior, None
        if post is not None:
            l, prior = (solved or {}).get(post, (None, None))
            if prior is None:
                prior = 0.0 if self.prior is None else self.prior.evaluate(query.X, query)[0]
            if not post.append(self.X, y - prior, self._Xbuf.shape[0],
                               query.scaled(post.spec), l):
                post = None
        self._posterior = post
        self._residuals = None if post is None else post.Y

    def invalidate(self) -> None:
        self._posterior = self._adopted = None

    def residuals(self) -> np.ndarray:
        """Responses minus the inherited prior mean, what the local GP models;
        the chain walk shares one `Query` of the rows."""
        if self._residuals is None:
            prior = self.prior
            self._residuals = self.Y - (0.0 if prior is None else
                                        prior.evaluate(self.X, Query.of(self.X, prior.spec)))
        return self._residuals

    def posterior(self, spec: KernelSpec) -> GpPosterior:
        if self._posterior is None or self._posterior.spec != spec:
            adopted, self._adopted = self._adopted, None
            self._posterior = adopted if adopted is not None and adopted.spec == spec else (
                GpPosterior(self.X, self.residuals(), spec))
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


@dataclass
class _Handoff:
    """A one-row read's `Query`, its center scores with the scaled centers
    they came from, and each child's posterior mapped to (l, chain value)."""

    query: Query
    scores: np.ndarray | None = None
    centers: np.ndarray | None = None
    solved: dict = field(default_factory=dict)


class LocalGpPool:
    """A pool of local GPs under one shared kernel, with a router and a
    combiner.

    A subclass supplies the router, `_route(query, y)`, which stores one row,
    a one-row `Query`, in a child and returns True when that split a child.
    The pool owns everything else: row checks and scaling, once per batch,
    seeding the spec from the first row, the ingest loop, the nearest center,
    the kernel refit over the children's residuals, each child's predictive
    moments at the query rows, and the combiner.  The default combiner weights
    every child by its similarity k(c_j, x) to the query row, normalized to
    sum to one, and far from every center gives the weight to the nearest; a
    subclass may replace it.  The nearest center and the weights read one score
    per center, `_scores`, so a row routed to its nearest center lands where
    its weight is largest, from the centers scaled in one array, whose row a
    router rewrites when it appends to a child.  A read changes nothing but
    the `_Handoff` a one-row read leaves for an `update` of the same row bytes
    to route and append with; any other read, update or refit drops it.  The
    four regressors are subclasses: `SplittingGP`, and in `baselines`
    `FullGp` (one child), `LocalGpWgen` and `Rbcm`.
    """

    def __init__(self, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        self.spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.children: list[ChildModel] = []
        self.last_fit: FitResult | None = None
        self._node_lengthscales = np.inf  # elementwise minimum over frozen nodes
        self._centers: tuple | None = None  # (children, spec, scaled centers, norms)
        self._handoff: _Handoff | None = None

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

    def _scaled_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Scaled centers, (C, d), and squared norms: extended, or rebuilt if stale."""
        kept, children, spec = self._centers, self.children, self.spec
        fresh = kept is not None and kept[0] is children and kept[1] is spec
        if not fresh or len(kept[2]) != len(children):
            old = kept[2] if fresh and len(kept[2]) < len(children) else np.empty((0, spec.ndim))
            Cs = np.concatenate([old, [c.center / spec.lengthscales for c in children[len(old):]]])
            kept = self._centers = (children, spec, Cs, np.sum(Cs * Cs, axis=1))
        return kept[2], kept[3]

    def _center_moved(self, idx: int) -> None:
        """Rewrite child idx's row of the kept centers, if it has one."""
        kept = self._centers
        if kept is not None and idx < len(kept[2]):
            c = self.children[idx].center[None, :] / self.spec.lengthscales
            kept[2][idx], kept[3][idx] = c[0], (c * c).sum(axis=1)[0]

    def _scores(self, query: Query) -> np.ndarray:
        """|c_j|^2 - 2 x.c_j for each query row x and center c_j, (B, C): the
        squared scaled distance d_j^2 less the row's own |x|^2, which no
        comparison between centers needs and which, far from every center,
        would absorb the cross term.  Routing and the weights read these."""
        Cs, norms = self._scaled_centers()
        handoff = self._handoff
        if handoff is None or handoff.query is not query:
            return norms - 2.0 * (query.Xs @ Cs.T)
        if handoff.centers is not Cs:
            handoff.scores, handoff.centers = norms - 2.0 * (query.Xs @ Cs.T), Cs
        return handoff.scores

    def _nearest(self, query: Query) -> tuple[int, float]:
        """(index, squared scaled distance) of the child whose center is
        nearest to the one query row, the lowest score, which is the child
        the weights favour most."""
        scores = self._scores(query)[0]
        idx = int(scores.argmin())
        return idx, max(float(scores[idx]) + float(query.norms[0]), 0.0)

    def _append(self, child: ChildModel, query: Query, y: float) -> ChildModel:
        """Store the row in the child, with what the handoff's read solved."""
        child.append(query, y, self._handoff and self._handoff.solved)
        return child

    def update(self, x: np.ndarray, y: float) -> None:
        """Insert a single observation: a one-row batch through the checks
        and routing of `update_batch`, refit after a split per schedule.  y
        may be a float or a one-entry array; a rejected row changes nothing."""
        split = any(self._add_rows(np.asarray(x, dtype=float).reshape(1, -1), y))
        if split and self.schedule.on_split:
            self.refit()

    def update_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Insert rows in order, checked as one batch before the first is
        stored; the kernel is refit once at the end."""
        if self._add_rows(X, Y) and self.schedule.on_batch:
            self.refit()

    def _add_rows(self, X: np.ndarray, Y: np.ndarray) -> list[bool]:
        """Check the rows as one batch, before any is stored, seed the spec
        from the first row if unset, scale them as one `Query`, or take the
        handoff's when it holds these row bytes, and route them in order,
        each as its one-row slice; True for each row that split a child.  The
        routers, children and posteriors take those slices as they are."""
        handoff, self._handoff = self._handoff, None
        X, Y = np.atleast_2d(np.asarray(X, dtype=float)), np.asarray(Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError("batch X rows and Y entries must match")
        if X.shape[0] == 0:
            return []
        if not np.isfinite(Y).all():
            raise ContractViolationError("batch Y contains non-finite values")
        spec = default_spec(Y[:1], X.shape[1]) if self.spec is None else self.spec
        q = handoff and handoff.query  # a one-row read's, if of these rows
        if not q or (q.X.tobytes(), q.X.shape, q.spec) != (X.tobytes(), X.shape, spec):
            handoff, q = None, Query.of(X, spec, "batch X")
        check_scaled(X, np.minimum(spec.lengthscales, self._node_lengthscales))
        self.spec, self._handoff = spec, handoff  # read by the router's `_scores`
        try:
            return [self._route(q.row(i), y) for i, y in enumerate(Y)]
        finally:
            self._handoff = None

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        self.update_batch(X, Y)

    # -- training ----------------------------------------------------------

    def refit(self) -> FitResult:
        """Re-optimize the shared kernel parameters on the residuals of the
        children.  Every cached posterior is dropped; a child whose
        rows the fit saw whole, not cut by `fit_subsample`, adopts the one the
        fit returns for it, if any, as it is; an append takes the bound of its
        storage from the child's buffer.  `last_fit` keeps no posterior."""
        if not self.children:
            raise EmptyModelError("cannot fit an empty model")
        shards = subsample_shards([(c.X, c.residuals()) for c in self.children], self.schedule)
        result = fit(shards, self.spec, self.schedule.fit)
        posteriors, result.posteriors = result.posteriors or [], None
        self.spec, self._handoff = result.spec, None
        self.last_fit = result
        for child in self.children:
            child.invalidate()
        for child, post in zip(self.children, posteriors):
            if post.n == child.n:
                child._adopted = post
        return result

    # -- prediction --------------------------------------------------------

    def _query(self, Xstar: np.ndarray) -> Query:
        if not self.children:
            raise EmptyModelError("model has no observations yet")
        query = Query.of(Xstar, self.spec)
        self._handoff = _Handoff(query) if len(query.X) == 1 else None
        return query

    def _moments(self, query: Query, mean: bool,
                 variance: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Each child's posterior mean and latent variance at the query rows,
        one column per child; None for what is not asked.

        Each child builds one kernel row per query row for both moments; a
        one-row read leaves each child's solve and chain value on the handoff.
        """
        values = self._chain_values(lambda node: node.expansion(query)) if mean else {}
        priors = [values.get(c.prior) for c in self.children]  # None: no prior, or no mean
        posts = [c.posterior(self.spec) for c in self.children]
        if query.X.shape[0] == 1:  # floats from each child's one solve
            rows = [post.predict_row(query.aug) for post in posts]
            chains = [None if p is None else p[0] for p in priors]
            if self._handoff is not None and self._handoff.query is query:
                self._handoff.solved = {p: (l, c) for p, (_, _, l), c in zip(posts, rows, chains)}
            means = np.array([[m if c is None else c + m for c, (m, _, _) in zip(chains, rows)]])
            variances = np.array([[v for _, v, _ in rows]])
            return (means if mean else None), (variances if variance else None)
        rows = [post.predict_scaled(query.aug, mean, variance) for post in posts]
        means = np.column_stack([mu if p is None else p + mu
                                 for p, (mu, _) in zip(priors, rows)]) if mean else None
        variances = np.column_stack([var for _, var in rows]) if variance else None
        return means, variances

    def _chain_values(self, expand) -> dict:
        """Each node on the children's chains, ancestors first, mapped to its
        parent's value plus expand(node); a child climbs only to a node valued."""
        values = {}
        for child in self.children:
            nodes, node = [], child.prior
            while node is not None and node not in values:
                nodes.append(node)
                node = node.parent
            value = 0.0 if node is None else values[node]
            for node in reversed(nodes):
                value = values[node] = value + expand(node)
        return values

    def _weights(self, query: Query) -> np.ndarray:
        """Per-child weights k(c_j, x) / sum_i k(c_i, x), one row per query
        row: a softmax of minus half the `_scores`, which leave out the row's
        constants sf2 and |x|^2, so no sum underflows and an overflowing
        |x|^2 does no harm."""
        scores = self._scores(query)
        E = np.exp(-0.5 * (scores - scores.min(axis=1, keepdims=True)))
        return E / E.sum(axis=1, keepdims=True)

    def _combine(self, query: Query, mean: bool, variance: bool):
        """The weighted mean, the variance under independence of the children,
        sum_j w_j^2 v_j, and the weights, at the query rows.  Every prediction
        entry point comes through here, so a single-row `predict`,
        `predict_mean` and a one-row batch do the same arithmetic."""
        weights = self._weights(query)
        means, variances = self._moments(query, mean, variance)
        return ((weights * means).sum(axis=1) if mean else None,
                (weights * weights * variances).sum(axis=1) if variance else None, weights)

    def predict_mean_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate posterior mean over the children at query rows."""
        return self._combine(self._query(Xstar), mean=True, variance=False)[0]

    def predict_variance_batch(self, Xstar: np.ndarray) -> np.ndarray:
        """Aggregate latent variance over the children at query rows."""
        return self._combine(self._query(Xstar), mean=False, variance=True)[1]

    def predict(self, x_star: np.ndarray) -> tuple[float, float]:
        """(mean, variance) at a single point, given flat or as one row."""
        query = self._query(np.asarray(x_star, dtype=float).ravel()[None, :])
        mean, var, _ = self._combine(query, mean=True, variance=True)
        return float(mean[0]), float(var[0])

    # -- accounting ----------------------------------------------------------

    def prior_nodes(self) -> list[PriorMeanNode]:
        """Unique frozen prior nodes reachable from the live children,
        ancestors before descendants, in the climb a read values them in."""
        return list(self._chain_values(lambda node: 0.0))

    def footprint(self) -> int:
        """Bytes for the children's Gram entries, rows, responses and
        centers, and the frozen prior expansions' rows and weights."""
        ndim = self.ndim or 0
        total = sum(c.footprint_bytes(ndim) for c in self.children)
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

    def _new_child(self, X: np.ndarray, Y: np.ndarray,
                   prior: PriorMeanNode | None = None) -> ChildModel:
        # A child holds at most m + 1 rows: the one past m triggers its split.
        return ChildModel(X, Y, prior, max_rows=self.m + 1)

    def _route(self, query: Query, y: float) -> bool:
        if not self.children:
            self.children.append(self._new_child(query.X, [y]))
            return False
        idx = self._nearest(query)[0]
        if self._append(self.children[idx], query, y).n > self.m:
            self._split_child(idx)
            return True
        self._center_moved(idx)
        return False

    def _freeze(self, X: np.ndarray, alpha: np.ndarray, spec: KernelSpec,
                parent: PriorMeanNode | None) -> PriorMeanNode:
        """A new prior node, whose lengthscales join every later row's check."""
        self._node_lengthscales = np.minimum(self._node_lengthscales, spec.lengthscales)
        return PriorMeanNode(X, alpha, spec, parent)

    def _split_child(self, idx: int) -> None:
        # The child is dropped with its buffer full: nothing writes X or alpha again.
        child = self.children[idx]
        node = self._freeze(child.X, child.posterior(self.spec).alpha, self.spec, child.prior)
        result = split(child.X, child.Y, child.center)
        self.children[idx] = self._new_child(*result.left, node)
        self._center_moved(idx)
        self.children.append(self._new_child(*result.right, node))

    def predict_mean(self, x_star: np.ndarray) -> PredictionSummary:
        """Weighted-average prediction at a single point, with its weights."""
        query = self._query(np.asarray(x_star, dtype=float).ravel()[None, :])
        mean, _, weights = self._combine(query, mean=True, variance=False)
        return PredictionSummary(mean=float(mean[0]), weights=weights[0])

    # -- accounting and persistence -----------------------------------------

    def save(self, path) -> None:
        """Write a versioned snapshot: children, priors, kernel, split limit,
        training schedule and the last fit's outcome."""
        nodes = self.prior_nodes()
        order = {node: i for i, node in enumerate(nodes)}  # None is -1
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
            payload[f"node_{i}_parent"] = np.array(order.get(node.parent, -1))
        for i, child in enumerate(self.children):
            payload[f"child_{i}_X"] = child.X
            payload[f"child_{i}_Y"] = child.Y
            payload[f"child_{i}_prior"] = np.array(order.get(child.prior, -1))
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
                nodes.append(model._freeze(
                    data[f"node_{i}_X"],
                    data[f"node_{i}_alpha"],
                    _spec_from_array(data[f"node_{i}_spec"]),
                    nodes[parent_idx] if parent_idx >= 0 else None,
                ))
            for i in range(int(data["n_children"])):
                prior_idx = int(data[f"child_{i}_prior"])
                model.children.append(model._new_child(
                    data[f"child_{i}_X"], data[f"child_{i}_Y"],
                    nodes[prior_idx] if prior_idx >= 0 else None,
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
