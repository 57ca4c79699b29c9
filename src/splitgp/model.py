"""The local-GP pool and the splitting-GP regressor built on it.

`LocalGpPool` holds local GPs under one shared kernel; a subclass supplies
the router that places each row, and may replace the similarity combiner.

In `SplittingGP`, observations stream in one at a time or in batches; each
lands in the local model whose center is nearest in lengthscale-scaled
distance, read from the pool's center scores, so the most similar under the
kernel even where every similarity underflows to zero.  A
local model that grows past the splitting limit is bisected along its
principal direction into two children.  Each child inherits the parent's
predictive mean, frozen at split time, as its prior mean and models only the
residuals against it, so a freshly split pair predicts like the parent did.
Predictions aggregate *all* children under a gate that weights each child
by its share of the rows and a Gaussian of its own spread about its center,
which keeps the mean continuous in the input.  The shared kernel is fit
once, before the first split (`TrainSchedule`), so an update's cost is
bounded by the splitting limit and every frozen mean shares one spec.

Rows are checked and scaled once, where they enter the pool, as one
`kernels.Query` per batch whose one-row slices reach the router, the child
and its posterior; a prior node scales its own rows when it is made.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .exceptions import ContractViolationError, EmptyModelError
from .gp import FitResult, FitSchedule, GpPosterior, fit
from .kernels import FAR_NORM, KernelSpec, Query, default_spec, scaled_cross_gram, scaled_rows
from .partition import split

SNAPSHOT_VERSION = 9

FIT_ROWS = 500  # the row after which a pool makes its one fit (`TrainSchedule`)

# Added to each child's mean squared deviation per scaled dimension, the
# variance of its gate Gaussian; a child of one row, or of duplicates, needs it.
GATE_RIDGE = 1e-3

# A query row whose |x / l|^2 is below this takes its log gate weights as one
# product with the pooled gate rows, which adds a rounding error of about
# eps |x / l|^2 / GATE_RIDGE, 2e-7 here, to that of the scores; a row farther
# out takes them from the center scores, which keep the distances that
# |x / l|^2 would swamp.
_GATE_NEAR = 1e6

# A far row's scores and |x / l|^2, and every center's |c / l|^2 in the gate, are
# clamped to this, so no product with p = 1 / (2 s^2) <= 1 / (2 GATE_RIDGE) overflows.
_FLOAT_MAX = float(np.finfo(float).max)
_GATE_FAR = 0.5 * GATE_RIDGE * _FLOAT_MAX


class PriorMeanNode:
    """A frozen kernel expansion recording a parent's predictive mean.

    Created when a local model splits: it takes the parent's residual weights
    and rows, which the dropped parent never writes again, chained to the
    parent's own prior.  No fit follows a freeze (`LocalGpPool.refit`), so
    every node shares the pool's spec: it scales its rows under that spec
    when made, as `kernels.scaled_rows`, which checks them (rows read from a
    snapshot too), and takes a query as a `Query` under it.  Nothing writes
    to a node once made.
    """

    __slots__ = ("X", "alpha", "parent", "_scaled")

    def __init__(self, X: np.ndarray, alpha: np.ndarray, spec: KernelSpec,
                 parent: "PriorMeanNode | None"):
        self.X, self.alpha, self.parent = X, alpha, parent
        self._scaled = scaled_rows(X, spec)

    def expansion(self, query: Query) -> np.ndarray:
        """This node's own kernel expansion at the query rows."""
        return scaled_cross_gram(query.aug, self._scaled, query.spec.signal_variance) @ self.alpha

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


def _check_stored(query: Query) -> Query:
    """The query, if its rows' |x / l|^2 are below `kernels.FAR_NORM`, so that
    a squared distance between two stored rows, at most 4 FAR_NORM, is
    finite; else ContractViolationError."""
    if not query.norms.max() < FAR_NORM:
        raise ContractViolationError("observation overflows when scaled by the lengthscales")
    return query


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
    Beside it runs a Welford sum per column, M2 += (x - c_old)(x - c_new),
    the spread the pool's gate reads.  Both run row by row from the first
    row, in `__init__` and `extend` as in `append`, so a split or loaded
    child holds bitwise what a streamed one does.

    An append to a child whose posterior is cached costs a kernel row and an
    O(n^2) solve: the row goes into the buffer, the prior chain is evaluated
    at it only, and the cached posterior grows by one row over the new view,
    in place, in storage sized to the buffer's length (`GpPosterior.append`).
    After a read of the same row, the pool passes that read's solve
    l = L^-1 k and chain value, keyed by posterior: no kernel row, no solve.
    Without a cached posterior, or when `GpPosterior.append` declines, the
    cache is cleared and the next use rebuilds it in O(n^3).  The owning pool
    checks and scales each row before it reaches `append`, as a one-row
    `Query`, and passes its one spec, dropping every posterior when a fit
    changes it.  `factorize`, at the end of a `SplittingGP` batch, may leave
    a posterior of all the rows in a slot apart: `posterior` takes it
    instead of rebuilding, and an append or `invalidate` drops it ungrown.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, prior: PriorMeanNode | None = None,
                 max_rows: int | None = None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.asarray(Y, dtype=float).ravel()
        n, ndim = X.shape
        if not n:
            raise ContractViolationError("a child needs at least one row")
        self._Xbuf = np.empty((max(n, max_rows or 0), ndim))
        self._Ybuf = np.empty(self._Xbuf.shape[0])
        self.X, self.Y = self._Xbuf[:0], self._Ybuf[:0]
        self._sum, self._m2 = np.zeros(ndim), [0.0] * ndim
        self.prior = prior
        self._posterior: GpPosterior | None = None
        self._adopted: GpPosterior | None = None
        self.extend(X, Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def _reserve(self, rows: int) -> None:
        """Double the buffer's length until it holds `rows` rows, with one
        copy of the stored rows."""
        size = self._Xbuf.shape[0]
        if size < rows:
            while size < rows:
                size *= 2
            Xbuf, Ybuf = np.empty((size, self._Xbuf.shape[1])), np.empty(size)
            Xbuf[:self.n], Ybuf[:self.n] = self.X, self.Y
            self._Xbuf, self._Ybuf = Xbuf, Ybuf

    def extend(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Store rows, checked by the caller, as appends of each in turn
        would, without a posterior to grow: any cached one is dropped."""
        n, k = self.n, X.shape[0]
        if not k:
            return
        self._reserve(n + k)
        self._Xbuf[n:n + k], self._Ybuf[n:n + k] = X, Y
        self.X, self.Y = self._Xbuf[:n + k], self._Ybuf[:n + k]
        # The running sums and centers as appends form them, one row at a
        # time: `accumulate` adds in order.  The first row's old center is itself.
        sums = np.add.accumulate(np.concatenate([self._sum[None, :], X]))[1:]
        centers = sums / np.arange(n + 1, n + k + 1)[:, None]
        before = np.concatenate([[self.center if n else X[0]], centers[:-1]])
        with np.errstate(over="ignore", invalid="ignore"):  # a row past 1e154 where l > 1
            terms = (X - before) * (X - centers)
        self._m2 = np.add.accumulate(np.concatenate([[self._m2], terms]))[-1].tolist()
        # + 0.0 makes a -0 sum +0, as NumPy's.
        self._sum = sums[-1] + 0.0
        self.center = self._sum / (n + k)
        self._posterior = self._adopted = None

    def append(self, query: Query, y: float, solved: dict | None = None) -> None:
        """Store one row, given as a checked and scaled one-row `Query`;
        `solved` maps posteriors to a read's (l, chain value) at the row."""
        x, y = query.X[0], float(y)
        n = self.n
        if n == self._Xbuf.shape[0]:
            self._reserve(n + 1)
        self._Xbuf[n], self._Ybuf[n] = x, y
        self.X, self.Y = self._Xbuf[:n + 1], self._Ybuf[:n + 1]
        old = self.center
        self._sum += x
        self.center = self._sum / (n + 1)
        # Python floats overflow to inf without a warning.
        self._m2 = [m + (a - o) * (a - c) for m, a, o, c in
                    zip(self._m2, x.tolist(), old.tolist(), self.center.tolist())]
        post, self._adopted = self._posterior, None
        if post is not None:
            l, prior = (solved or {}).get(post, (None, None))
            if prior is None:
                prior = 0.0 if self.prior is None else self.prior.evaluate(query.X, query)[0]
            if not post.append(self.X, y - prior, self._Xbuf.shape[0], query.aug, l):
                post = None
        self._posterior = post

    def invalidate(self) -> None:
        self._posterior = self._adopted = None

    def residuals(self, spec: KernelSpec) -> np.ndarray:
        """Responses minus the inherited prior mean, computed on each call: what
        the local GP models; the chain walk shares one `Query` of the rows."""
        prior = self.prior
        return self.Y - (0.0 if prior is None else prior.evaluate(self.X, Query.of(self.X, spec)))

    def posterior(self, spec: KernelSpec) -> GpPosterior:
        if self._posterior is None:
            adopted, self._adopted = self._adopted, None
            self._posterior = adopted if adopted is not None else (
                GpPosterior(self.X, self.residuals(spec), spec))
        return self._posterior

    def factorize(self, spec: KernelSpec) -> None:
        """Build the posterior at spec into the slot apart, if the child holds
        none: bitwise the one a read would build, and dropped by an append."""
        if self._posterior is None and self._adopted is None:
            self._adopted = GpPosterior(self.X, self.residuals(spec), spec)

    def footprint_bytes(self, ndim: int) -> int:
        # Gram entries + stored rows + responses + center, 8 bytes a scalar.
        return 8 * (self.n * self.n + self.n * ndim + self.n + ndim)


def _gate_rows(Cs: np.ndarray, norms: np.ndarray, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows [2 p_j c_j, 2 p_j, a_j - p_j |c_j|^2], (C, d + 2), from the scaled
    centers, their squared norms and the gate terms: a query row's
    `Query.aug`, [x, -|x|^2 / 2, 1], times row j is a_j - p_j |x - c_j|^2.
    |c_j|^2 is clamped to _GATE_FAR there, so that no product overflows."""
    return np.column_stack([2.0 * p[:, None] * Cs, 2.0 * p, a - p * np.minimum(norms, _GATE_FAR)])


def _gate_entry(child: ChildModel, lengthscales: list) -> tuple[float, float]:
    """(log n - d/2 log s^2, 1 / (2 s^2)) for the child's gate: s^2 is the mean
    squared deviation per dimension of its rows scaled by the lengthscales,
    plus GATE_RIDGE, and at most the largest float.  Python floats, so the
    pool's rebuild and its one-row rewrite agree bitwise and warn of no
    overflow."""
    d = len(lengthscales)
    s2 = sum(m / l / l for m, l in zip(child._m2, lengthscales)) / (child.n * d) + GATE_RIDGE
    s2 = s2 if s2 < _FLOAT_MAX else _FLOAT_MAX  # and NaN, from inf * 0
    return math.log(child.n) - 0.5 * d * math.log(s2), 0.5 / s2


@dataclass
class TrainSchedule:
    """When the pool fits the shared kernel parameters, and with what budget.

    With `fit_once` the pool fits the kernel once, right after it stores its
    FIT_ROWS-th row (a `SplittingGP`'s min(FIT_ROWS, m)-th, before any
    split), in whichever `update` or `update_batch` carries that row.  No
    update fits again, so its cost is bounded by the split limit, not by the
    number of children.  `never()` keeps the given or first-row spec; an
    explicit `refit()` fits under either, until the first split.  A model
    counts as fit once it holds a `last_fit`, which a snapshot keeps.
    `fit_subsample`, when set, caps the rows per shard used for the
    hyperparameter search (seeded) and is at least 1; posteriors always
    condition on all data.
    """

    fit_once: bool = True
    fit: FitSchedule = field(default_factory=FitSchedule)
    fit_subsample: int | None = None
    subsample_seed: int = 0

    def __post_init__(self):
        if self.fit_subsample is not None and self.fit_subsample < 1:
            raise ContractViolationError("fit_subsample must be None or >= 1")

    @classmethod
    def never(cls) -> "TrainSchedule":
        return cls(fit_once=False)


def subsample_shards(shards, schedule: TrainSchedule):
    """Cap rows per shard for the hyperparameter search when configured."""
    cap, rng = schedule.fit_subsample, np.random.default_rng(schedule.subsample_seed)
    picks = [np.sort(rng.choice(len(Y), cap, replace=False)) if cap is not None and len(Y) > cap
             else slice(None) for _, Y in shards]
    return [(X[i], Y[i]) for (X, Y), i in zip(shards, picks)]


@dataclass
class PredictionSummary:
    """Aggregate prediction with the per-child weights that produced it:
    one per child, non-negative, summing to one at every query."""

    mean: float
    weights: np.ndarray


@dataclass
class _Handoff:
    """A one-row read's `Query` and each child's posterior mapped to
    (l, chain value) at the row."""

    query: Query
    solved: dict = field(default_factory=dict)


class LocalGpPool:
    """A pool of local GPs under one shared kernel, with a router and a
    combiner.

    A subclass supplies the router, `_route(query, y)`, which stores one row,
    a one-row `Query`, in a child; it may take a whole batch in `_route_rows`
    instead.  The pool owns everything else: row checks and scaling, once
    per batch, the ingest loop, the nearest center, the one kernel fit (see
    `TrainSchedule`), each child's predictive moments at the query rows, and
    the combiner.  Its one kernel spec is read-only: the first row seeds it
    if none is given, and only a fit changes it, which `refit` refuses once
    a node is frozen.  The default combiner weights every child by its
    similarity k(c_j, x) to the query row, normalized to sum to one, and far
    from every center gives the weight to the nearest (along the row's
    direction for a `Query`'s far row); a subclass may replace it.  The
    nearest center and the weights read one score per center, `_scores`,
    from the centers scaled in one array, whose row a router rewrites when
    it appends to a child, with the child's gate row (`_gate_rows`) beside
    them.  A read changes nothing but the `_Handoff` a
    one-row read leaves for an `update` of the same row bytes to route and
    append with; any other read, update or refit drops it.  The four
    regressors are subclasses: `SplittingGP`, and in `baselines` `FullGp`
    (one child), `LocalGpWgen` and `Rbcm`.
    """

    _fit_rows = FIT_ROWS

    def __init__(self, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        self._spec = spec
        self.schedule = train_schedule or TrainSchedule()
        self.children: list[ChildModel] = []
        self.last_fit: FitResult | None = None
        # (children, spec, scaled centers, their squared norms, gate rows)
        self._centers: tuple | None = None
        self._handoff: _Handoff | None = None

    spec = property(lambda self: self._spec, doc="The kernel spec; None until a row seeds it.")

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

    def _scaled_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scaled centers, (C, d), their squared norms, and the gate rows,
        (C, d + 2) (`_gate_rows`): extended, or rebuilt if stale."""
        kept, children, spec = self._centers, self.children, self._spec
        fresh = kept is not None and kept[0] is children and kept[1] is spec
        if not fresh or len(kept[2]) != len(children):
            d = spec.ndim
            old = (kept[2:] if fresh and len(kept[2]) < len(children) else
                   (np.empty((0, d)), np.empty(0), np.empty((0, d + 2))))
            new, ls = children[len(old[0]):], spec.lengthscales.tolist()
            Cs = np.reshape([c.center / spec.lengthscales for c in new], (-1, d))
            norms = np.sum(Cs * Cs, axis=1)
            G = _gate_rows(Cs, norms, *np.reshape([_gate_entry(c, ls) for c in new], (-1, 2)).T)
            kept = self._centers = (children, spec, *map(np.concatenate, zip(old, (Cs, norms, G))))
        return kept[2:]

    def _center_moved(self, idx: int) -> None:
        """Rewrite child idx's row of the kept centers and gate (`_gate_rows`), if it has one."""
        kept = self._centers
        if kept is not None and idx < len(kept[2]):
            child = self.children[idx]
            c = child.center[None, :] / self._spec.lengthscales
            norm = (c * c).sum(axis=1)[0]
            a, p = _gate_entry(child, self._spec.lengthscales.tolist())
            kept[2][idx], kept[3][idx] = c[0], norm
            kept[4][idx] = [*(2.0 * p * c[0]), 2.0 * p, a - p * min(norm, _GATE_FAR)]

    def _scores(self, query: Query) -> np.ndarray:
        """|c_j|^2 - 2 x.c_j for each query row x and center c_j, (B, C): the
        squared scaled distance d_j^2 less the row's own |x|^2, which no
        comparison between centers needs and which, far from every center,
        would absorb the cross term.  Routing and the weights read these."""
        Cs, norms, _ = self._scaled_centers()
        return norms - 2.0 * (query.Xs @ Cs.T)

    def _nearest(self, query: Query) -> tuple[int, float]:
        """(index, squared scaled distance) of the child whose center is
        nearest to the one query row, the lowest score."""
        scores = self._scores(query)[0]
        idx = int(scores.argmin())
        return idx, max(float(scores[idx]) + float(query.norms[0]), 0.0)

    def _append(self, child: ChildModel, query: Query, y: float) -> ChildModel:
        """Store the row in the child, with what the handoff's read solved."""
        child.append(query, y, self._handoff and self._handoff.solved)
        return child

    def update(self, x: np.ndarray, y: float) -> None:
        """Insert a single observation: a one-row batch through this class's
        `update_batch`, without a subclass's batch end.  y may be a float or
        a one-entry array; a rejected row changes nothing."""
        LocalGpPool.update_batch(self, np.asarray(x, dtype=float).reshape(1, -1), y)

    def update_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Insert rows in order: check them as one batch before any is stored,
        seed the spec from the first row if unset, scale them as one `Query`,
        or take the handoff's when it holds these row bytes, and route them.
        A row is stored only if its |x / l|^2 is below `kernels.FAR_NORM`.
        The schedule's one fit comes right after the row it is due at; the
        rest are checked and scaled again under the fitted spec, so one that
        overflows only there is rejected with the rows before it stored."""
        handoff, self._handoff = self._handoff, None
        X, Y = np.atleast_2d(np.asarray(X, dtype=float)), np.asarray(Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError("batch X rows and Y entries must match")
        if X.shape[0] == 0:
            return
        if not np.isfinite(Y).all():
            raise ContractViolationError("batch Y contains non-finite values")
        spec = default_spec(Y[:1], X.shape[1]) if self._spec is None else self._spec
        q = handoff and handoff.query  # a one-row read's, if of these rows
        if not q or (q.X.tobytes(), q.X.shape) != (X.tobytes(), X.shape):
            handoff, q = None, Query.of(X, spec, "batch X")
        _check_stored(q)
        self._spec, self._handoff = spec, handoff  # read by the router's `_append`
        due = (self._fit_rows - self.n_observations
               if self.schedule.fit_once and self.last_fit is None else 0)
        k = due if 0 < due <= len(Y) else len(Y)  # rows stored before the fit
        try:
            self._route_rows(q if k == len(Y) else q.rows(slice(k)), Y[:k])
        finally:
            self._handoff = None
        if k == due:
            self.refit()
            if k < len(Y):
                self._route_rows(_check_stored(Query.of(X[k:], self._spec, "batch X")), Y[k:])

    def _route_rows(self, query: Query, Y: np.ndarray) -> None:
        """Route each row as its one-row slice, which the routers, children
        and posteriors take as it is."""
        for i, y in enumerate(Y):
            self._route(query.row(i), y)

    def ingest_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        self.update_batch(X, Y)

    # -- training ----------------------------------------------------------

    def refit(self) -> FitResult:
        """Optimize the shared kernel parameters on the children's rows and
        responses, each child a shard, and drop every cached posterior.
        Every prior node shares the pool's spec, so once one is frozen this
        raises ContractViolationError and changes nothing."""
        if not self.children:
            raise EmptyModelError("cannot fit an empty model")
        if any(c.prior is not None for c in self.children):
            raise ContractViolationError("the kernel is fixed once a prior node is frozen")
        shards = subsample_shards([(c.X, c.Y) for c in self.children], self.schedule)
        result = fit(shards, self._spec, self.schedule.fit)
        self._spec, self._handoff, self.last_fit = result.spec, None, result
        for child in self.children:
            child.invalidate()
        return result

    # -- prediction --------------------------------------------------------

    def _query(self, Xstar: np.ndarray) -> Query:
        if not self.children:
            raise EmptyModelError("model has no observations yet")
        query = Query.of(Xstar, self._spec)
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
        posts = [c.posterior(self._spec) for c in self.children]
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
    """Streaming GP regressor with nearest-center routing and a gated
    combiner.

    The router sends each row to the child with the nearest center and
    bisects a child that passes the split limit.  A batch ends with every
    child that holds no posterior factorized (`ChildModel.factorize`), so the
    first read after it builds no factor.  The combiner is the gate of a
    mixture of experts (Xu, Jordan & Hinton 1995; Meeds & Osindero 2006),
    `_weights`, not the paper's similarity weights k(c_j, x): a child's
    weight follows the spread of its own rows, not the kernel's width.

    Parameters
    ----------
    split_limit : int
        Maximum observations a local model may hold before it is bisected,
        >= 2.
    spec : KernelSpec, optional
        Shared kernel; defaults are derived from the first data seen.
    train_schedule : TrainSchedule, optional
        By default the kernel is fit once, before the first split
        (`TrainSchedule`).
    """

    def __init__(self, split_limit: int, spec: KernelSpec | None = None,
                 train_schedule: TrainSchedule | None = None):
        if split_limit < 2:
            raise ContractViolationError("split limit must be at least 2")
        super().__init__(spec, train_schedule)
        self.m = int(split_limit)
        self._fit_rows = min(FIT_ROWS, self.m)

    # perfbench/tracing.py wraps these methods where it finds them, in this
    # class's own __dict__.
    update = LocalGpPool.update
    refit = LocalGpPool.refit
    predict = LocalGpPool.predict
    predict_mean_batch = LocalGpPool.predict_mean_batch
    predict_variance_batch = LocalGpPool.predict_variance_batch

    def update_batch(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Insert rows in order, as `LocalGpPool.update_batch`, then
        factorize each child that holds no posterior."""
        super().update_batch(X, Y)
        for child in self.children:
            child.factorize(self._spec)

    def _weights(self, query: Query) -> np.ndarray:
        """The gate, one row per query row: w_j(x) proportional to
        n_j (s_j^2)^(-d/2) exp(-|x - c_j|^2 / (2 s_j^2)), s_j^2 the child's
        mean squared deviation per scaled dimension plus GATE_RIDGE: a
        softmax of a_j - p_j |x - c_j|^2, with a_j = log n_j - d/2 log s_j^2
        and p_j = 1 / (2 s_j^2).

        A row with |x|^2 below _GATE_NEAR takes these as `Query.aug` times
        the pooled gate rows (`_gate_rows`).  Farther out |x|^2 would swamp
        the distances that set the children apart, so such a row takes them
        from the `_scores`, |x - c_j|^2 = |x|^2 + score_j, less the row's
        constant (min p) |x|^2: a_j - p_j score_j - (p_j - min p) |x|^2.  No
        |x|^2 is added to a score, so even an overflowing |x|^2 does no
        harm: the widest children differ by their scores alone, and the
        others get weight 0.  There scores and |x|^2 are clamped to
        _GATE_FAR, so no product overflows.  O(C) work per row, no loop over
        the children."""
        _, norms, G = self._scaled_centers()
        far = query.norms >= _GATE_NEAR
        if not far.any():
            logw = query.aug @ G.T
        else:  # the product only for the near rows, whose aug cannot overflow it
            near, d = ~far, query.Xs.shape[1]
            p = 0.5 * G[:, d]
            a = G[:, d + 1] + p * np.minimum(norms, _GATE_FAR)
            scores = np.maximum(np.minimum(self._scores(query), _GATE_FAR), -_GATE_FAR)
            logw = a - p * scores - np.multiply.outer(np.minimum(query.norms, _GATE_FAR),
                                                      p - p.min())
            logw[near] = query.aug[near] @ G.T
        logw -= logw.max(axis=1, keepdims=True)
        np.exp(logw, out=logw)
        logw /= logw.sum(axis=1, keepdims=True)
        return logw

    def _new_child(self, X: np.ndarray, Y: np.ndarray,
                   prior: PriorMeanNode | None = None) -> ChildModel:
        # A child holds at most m + 1 rows: the one past m triggers its split.
        return ChildModel(X, Y, prior, max_rows=self.m + 1)

    def _route(self, query: Query, y: float) -> None:
        if not self.children:
            self.children.append(self._new_child(query.X, [y]))
        else:
            idx = self._nearest(query)[0]
            if self._append(self.children[idx], query, y).n > self.m:
                self._split_child(idx)
            else:
                self._center_moved(idx)

    def _split_child(self, idx: int) -> None:
        # The child is dropped with its buffer full: nothing writes X or alpha again.
        child = self.children[idx]
        node = PriorMeanNode(child.X, child.posterior(self._spec).alpha, self._spec, child.prior)
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
        """Write a snapshot of version SNAPSHOT_VERSION: a JSON `header` of m,
        the node and child counts, and the spec, schedule and last fit as their
        dataclass fields (NumPy values as Python ones), beside each node's and
        child's arrays, which name a parent or prior node by index (-1: none)."""
        nodes = self.prior_nodes()
        order = {node: i for i, node in enumerate(nodes)}
        header = {"m": self.m, "n_nodes": len(nodes), "n_children": self.n_children,
                  "spec": self.spec and asdict(self.spec), "schedule": asdict(self.schedule),
                  "last_fit": self.last_fit and asdict(self.last_fit)}
        payload = {"version": np.array(SNAPSHOT_VERSION),
                   "header": np.array(json.dumps(header, default=lambda v: v.tolist()))}
        for i, node in enumerate(nodes):
            payload[f"node_{i}_X"] = node.X
            payload[f"node_{i}_alpha"] = node.alpha
            payload[f"node_{i}_parent"] = np.array(order.get(node.parent, -1))
        for i, child in enumerate(self.children):
            payload[f"child_{i}_X"] = child.X
            payload[f"child_{i}_Y"] = child.Y
            payload[f"child_{i}_prior"] = np.array(order.get(child.prior, -1))
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "SplittingGP":
        """The model a snapshot holds.  An older version is refused before the
        header is read; the header's settings are rebuilt by their dataclasses,
        which check them."""
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != SNAPSHOT_VERSION:
                raise ContractViolationError(f"unsupported snapshot version {version}")
            head = json.loads(str(data["header"]))
            spec = head["spec"] and KernelSpec(**head["spec"])
            schedule = head["schedule"]
            model = cls(head["m"], spec=spec, train_schedule=TrainSchedule(
                **{**schedule, "fit": FitSchedule(**schedule["fit"])}))
            if last := head["last_fit"]:
                model.last_fit = FitResult(**{**last, "spec": KernelSpec(**last["spec"])})
            nodes: list[PriorMeanNode] = []
            for i in range(head["n_nodes"]):
                parent_idx = int(data[f"node_{i}_parent"])
                nodes.append(PriorMeanNode(data[f"node_{i}_X"], data[f"node_{i}_alpha"], spec,
                                           nodes[parent_idx] if parent_idx >= 0 else None))
            for i in range(head["n_children"]):
                prior_idx = int(data[f"child_{i}_prior"])
                model.children.append(model._new_child(
                    data[f"child_{i}_X"], data[f"child_{i}_Y"],
                    nodes[prior_idx] if prior_idx >= 0 else None))
        return model
