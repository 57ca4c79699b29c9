"""Exact single-GP inference.

Posterior mean/variance, log marginal likelihood with its log-domain gradient,
and gradient-ascent hyperparameter fitting over one or more data shards that
share a kernel.  A posterior grows by one observation in O(n^2) by appending
a row to its Cholesky factor (Seeger 2004, "Low rank updates for the Cholesky
decomposition").  A factor that needed jitter, or a new pivot too small to
trust, is not extended: the caller refactorizes in O(n^3), so small-lengthscale
instabilities are not compounded.  Batch construction and fitting always
factorize from scratch.

Storage.  A freshly built posterior holds its factor as a full n x n array.
Its first extension copies the factor, packed by rows, into storage reserved
for twice the current rows, or for the most rows the posterior's owner
expects when that is fewer, together with the rows, their lengthscale-scaled
copies and norms, the responses and v = L^-1 Y.  Each later append writes one
row of each there, with no O(n^2) allocation or copy; the storage is copied
to twice its size only when it is full.  Single-row solves read the packed factor in place through
BLAS `dtpsv`; batch solves unpack it once per call.

Validation.  Inputs are checked where they enter: `kernels.gram` and
`kernels.scaled_rows` reject non-finite or wrong-width rows, `GpPosterior`
non-finite responses.  Stored rows are checked once more when a posterior
first scales them for kernel rows; query rows once per call.  The SciPy and
BLAS calls here therefore skip their own finiteness scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dger, dtpsv, dtrsv
from scipy.linalg.lapack import dpotri, dtpttr, dtrttp

from .exceptions import ContractViolationError, NumericalError
from .kernels import KernelSpec, gram, scaled_cross_gram, scaled_rows

LOG_2PI = float(np.log(2.0 * np.pi))

# Escalating diagonal jitter applied only when a plain factorization fails.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)

# Negative round-off this small is clamped to zero; anything worse is an error.
VARIANCE_SLACK = 1e-10

# A new Cholesky pivot d^2 at or below this fraction of the prior variance
# sf2 + sn2 is too close to singular to extend a factor with.
PIVOT_RTOL = 1e-10


def _factorize(K: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, adding the smallest jitter that succeeds.

    K is left unchanged, and the factor's upper triangle is zero.  Given
    `out`, an F-ordered array of K's shape, the factor is formed in it rather
    than in a fresh array; K must then be symmetric, as a Gram matrix is.
    """
    n = K.shape[0]
    for jitter in JITTER_LADDER:
        try:
            M = K if jitter == 0.0 else K + jitter * np.eye(n)
            if out is not None:
                np.copyto(out.T, M)  # a contiguous copy: out.T is C-ordered like M
                M = out
            return cholesky(M, lower=True, overwrite_a=out is not None,
                            check_finite=False), jitter
        except LinAlgError:
            continue
    raise NumericalError(
        f"kernel matrix of size {n} is not positive definite even with jitter"
    )


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


class _Storage:
    """Reserved rows that posteriors of one lineage grow in.

    Row i of the lower factor L is packed at [i(i+1)/2, (i+1)(i+2)/2), which
    BLAS reads as the column-major upper triangle of L^T, so appending a row
    writes past the end of what is there.  A posterior of n rows reads the
    first n rows of every array; `rows` counts those written, so only the
    posterior that wrote the last row may append in place.
    """

    __slots__ = ("packed", "X", "Xs", "norms", "Y", "v", "rows")

    def __init__(self, capacity: int, ndim: int):
        self.packed = np.empty(_packed_size(capacity))
        self.X = np.empty((capacity, ndim))
        self.Xs = np.empty((capacity, ndim))
        self.norms = np.empty(capacity)
        self.Y = np.empty(capacity)
        self.v = np.empty(capacity)
        self.rows = 0


class GpPosterior:
    """A GP conditioned on (X, Y) under a fixed kernel spec.

    Immutable after construction; caches the Cholesky factor of the noisy Gram
    matrix and the weight vector alpha = (K + sn2 I)^-1 Y.  `extended` returns
    a new posterior with one more observation.  A caller that has already
    built the noisy Gram matrix `gram(X, spec, add_noise=True)` passes it as
    K; the posterior factorizes a copy and keeps no reference to it.  A caller
    that holds the factor of a discarded posterior of the same size passes it
    as `out`, and the new factor overwrites it instead of a fresh array.

    `max_rows` is the most observations the caller will extend this posterior
    to, when that is bounded; it caps the storage an extension reserves (see
    the module docstring).  The rows scaled by the lengthscales, and their
    norms, are built on the first kernel-row request, after a check of the
    stored rows, so a posterior that only serves a fit never holds them.
    `chol` is the n x n lower factor; an extended posterior unpacks it into a
    fresh array on each read.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, spec: KernelSpec,
                 K: np.ndarray | None = None, out: np.ndarray | None = None,
                 max_rows: int | None = None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, spec.ndim) if X.size else X.reshape(0, spec.ndim)
        Y = np.asarray(Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries"
            )
        if not np.all(np.isfinite(Y)):
            raise ContractViolationError("Y contains non-finite entries")
        if X.shape[0] and X.shape[1] != spec.ndim:
            raise ContractViolationError(
                f"X has {X.shape[1]} columns, spec expects {spec.ndim}"
            )
        self.X = X
        self.Y = Y
        self.spec = spec
        self.max_rows = max_rows
        if self.n:
            if K is None:
                K = gram(X, spec, add_noise=True)
            elif K.shape != (self.n, self.n):
                raise ContractViolationError(
                    f"Gram matrix has shape {K.shape}, expected {(self.n, self.n)}"
                )
            if out is not None and out.shape != (self.n, self.n):
                raise ContractViolationError(
                    f"factor buffer has shape {out.shape}, expected {(self.n, self.n)}"
                )
            self._L, self.jitter = _factorize(K, out)
            self.alpha = cho_solve((self._L, True), Y, check_finite=False)
        else:
            self._L = np.zeros((0, 0))
            self.jitter = 0.0
            self.alpha = np.zeros(0)
        self._store: _Storage | None = None  # set on the first extension
        self._scaled: tuple[np.ndarray, np.ndarray] | None = None
        self._v: np.ndarray | None = None  # L^-1 Y, kept once the factor grows

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def chol(self) -> np.ndarray:
        if self._store is None:
            return self._L
        n = self.n
        return dtpttr(n, self._store.packed[:_packed_size(n)], uplo="U")[0].T

    def scaled_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored rows as `kernels.scaled_rows` gives them, built once."""
        if self._scaled is None:
            self._scaled = scaled_rows(self.X, self.spec)
        return self._scaled

    def _solve_lower(self, k: np.ndarray) -> np.ndarray:
        """L^-1 k for one contiguous vector k, which it overwrites."""
        if self._store is None:
            return dtrsv(self._L, k, lower=1, overwrite_x=1)
        return dtpsv(self.n, self._store.packed, k, lower=0, trans=1, overwrite_x=1)

    def predict_scaled(self, Xs: np.ndarray, a: np.ndarray, mean: bool = True,
                       variance: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Posterior mean and noise-free latent variance at query rows given
        as their `kernels.scaled_rows` pair under this posterior's spec;
        None for what is not asked.

        One kernel row per query row serves both.  A single row is solved
        against the factor where it is stored; more rows against `chol` in
        one call.
        """
        sf2 = self.spec.params.signal_variance
        B = Xs.shape[0]
        if not self.n:
            return (np.zeros(B) if mean else None), (np.full(B, sf2) if variance else None)
        K = scaled_cross_gram(Xs, a, *self.scaled_rows(), sf2)
        mu = K @ self.alpha if mean else None
        if not variance:
            return mu, None
        if B == 1:
            l = self._solve_lower(K[0])
            var = np.array([sf2 - l @ l])
        else:
            V = solve_triangular(self.chol, K.T, lower=True, check_finite=False)
            var = sf2 - np.sum(V * V, axis=0)
        low = var.min() if var.size else 0.0
        if low < -VARIANCE_SLACK:
            raise NumericalError(f"posterior variance {low} below round-off slack")
        np.maximum(var, 0.0, out=var)
        return mu, var

    def _reserve(self) -> _Storage:
        """Storage holding this posterior's n rows with room for more."""
        n = self.n
        capacity = 2 * n
        if self.max_rows is not None and n < self.max_rows < capacity:
            capacity = self.max_rows
        store = _Storage(capacity, self.spec.ndim)
        size = _packed_size(n)
        if self._store is None:
            store.packed[:size] = dtrttp(self._L.T, uplo="U")[0]
        else:
            store.packed[:size] = self._store.packed[:size]
        store.X[:n] = self.X
        store.Xs[:n], store.norms[:n] = self.scaled_rows()
        store.Y[:n] = self.Y
        if self._v is None:
            store.v[:n] = self._solve_lower(self.Y.copy())
        else:
            store.v[:n] = self._v
        store.rows = n
        return store

    def extended(self, x: np.ndarray, y: float) -> "GpPosterior | None":
        """This posterior conditioned on one more observation (x, y), in O(n^2).

        Appends the row [l^T d] to the factor, with l = L^-1 k(X, x) and
        d^2 = sf2 + sn2 - l.l, extends v = L^-1 Y by (y - l.v) / d and
        back-substitutes alpha = L^-T v.  Returns None, leaving the caller to
        refactorize, when there is no factor, when it needed jitter, or when
        any pivot, old or new, is not above PIVOT_RTOL of sf2 + sn2: a nearly
        singular factor is not built upon.
        """
        if self.jitter != 0.0 or not self.n:
            return None
        params = self.spec.params
        prior_var = params.signal_variance + params.noise_variance
        min_pivot = PIVOT_RTOL * prior_var
        # A grown factor's pivots all passed this test as they were added.
        if self._store is None and not np.min(np.diagonal(self._L)) ** 2 > min_pivot:
            return None
        x = np.asarray(x, dtype=float).reshape(1, -1)
        xs, a = scaled_rows(x, self.spec, "x")
        l = self._solve_lower(scaled_cross_gram(xs, a, *self.scaled_rows(),
                                                params.signal_variance)[0])
        d2 = prior_var - l @ l
        if not d2 > min_pivot:
            return None
        n, d, y = self.n, float(np.sqrt(d2)), float(y)
        store = self._store
        if store is None or store.rows != n or store.Y.size == n:
            store = self._reserve()
        start = _packed_size(n)
        store.packed[start:start + n] = l
        store.packed[start + n] = d
        store.X[n], store.Xs[n], store.norms[n], store.Y[n] = x[0], xs[0], a[0], y
        store.v[n] = (y - l @ store.v[:n]) / d
        store.rows = n + 1

        out = object.__new__(GpPosterior)  # __init__ would refactorize
        n += 1
        out.X, out.Y, out.spec, out.max_rows = store.X[:n], store.Y[:n], self.spec, self.max_rows
        out._L, out.jitter, out._store = None, 0.0, store
        out._scaled = (store.Xs[:n], store.norms[:n])
        out._v = store.v[:n]
        out.alpha = dtpsv(n, store.packed, out._v.copy(), lower=0, trans=0, overwrite_x=1)
        return out

    def _check_spec(self, spec: KernelSpec) -> None:
        if spec != self.spec:
            raise ContractViolationError(
                "kernel spec differs from the one this posterior was factorized with"
            )


def posterior_mean(post: GpPosterior, x_star: np.ndarray, spec: KernelSpec):
    """Posterior mean at one point (scalar in, scalar out) or a batch of rows."""
    post._check_spec(spec)
    mu, _ = post.predict_scaled(*scaled_rows(x_star, spec, "x_star"), variance=False)
    return float(mu[0]) if np.ndim(x_star) == 1 else mu


def posterior_variance(post: GpPosterior, x_star: np.ndarray, spec: KernelSpec):
    """Posterior variance (noise-free latent) at one point or a batch of rows."""
    post._check_spec(spec)
    _, var = post.predict_scaled(*scaled_rows(x_star, spec, "x_star"), mean=False)
    return float(var[0]) if np.ndim(x_star) == 1 else var


def log_marginal_likelihood(post: GpPosterior, spec: KernelSpec) -> float:
    """log p(Y | X, spec) through the cached factorization."""
    post._check_spec(spec)
    if post.n == 0:
        raise ContractViolationError("log marginal likelihood needs at least one observation")
    fit_term = -0.5 * float(post.Y @ post.alpha)
    logdet = float(np.sum(np.log(np.diag(post.chol))))
    return fit_term - logdet - 0.5 * post.n * LOG_2PI


def lml_gradient(post: GpPosterior, spec: KernelSpec,
                 K: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the log marginal likelihood w.r.t. each log-domain parameter,
    in O(n^2 d) time and O(n^2) memory.

    Each component is the trace identity 0.5 tr(W dK/dtheta_j) with
    W = alpha alpha^T - K^-1 (Rasmussen & Williams 2006, eq. 5.9), evaluated
    without the (d+2) x n x n tensor of `kernels.gram_gradients`.  With
    P = W o K_f, K_f the noise-free Gram matrix, and x_d the d-th input
    column:

    - lengthscale d: (sum_i x_id^2 (P 1)_i - x_d^T P x_d) / l_d^2;
    - signal variance: sum(P) / 2;
    - noise variance: sn2 tr(W) / 2.

    The inputs are centred per column first; the kernel is shift-invariant,
    and on offset inputs the two lengthscale terms would otherwise cancel.
    K^-1 comes from LAPACK `dpotri` on the cached factor, which fills one
    triangle T of a copy of it and leaves the other zero.  With
    G = (alpha alpha^T / 2 - T) o K_f and its diagonal set to sf2 W_ii / 2,
    P = G + G^T, so every term above is read off G: P 1 is G's row plus
    column sums, x_d^T P x_d is 2 x_d^T G x_d and sum(P) is 2 sum(G).  G is
    formed in place in the `dpotri` copy, which is the only n x n array the
    call allocates.  A jittered factor gives the gradient of the jittered K,
    as the posterior's alpha does.

    K is the posterior's Gram matrix when the caller still holds it; only its
    off-diagonal entries are read, so it may carry noise on the diagonal, and
    it must be symmetric, as `kernels.gram` builds it.
    """
    post._check_spec(spec)
    if post.n == 0:
        raise ContractViolationError("gradient needs at least one observation")
    params, alpha = spec.params, post.alpha
    if K is None:
        K = gram(post.X, spec)
    # dpotri writes the lower triangle of K^-1 into an F-ordered copy of L and
    # leaves the rest alone, which is zero because L's upper triangle is.
    H, info = dpotri(post.chol, lower=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info {info}")
    w_diag = alpha * alpha - H.diagonal()
    H = dger(-0.5, alpha, alpha, a=H, overwrite_a=1)  # H = T - alpha alpha^T / 2
    H *= K.T  # H = -G off the diagonal; K.T is K, in H's memory order
    np.fill_diagonal(H, -0.5 * params.signal_variance * w_diag)
    p_rows = -(H.sum(axis=0) + H.sum(axis=1))  # P 1
    Xc = post.X - post.X.mean(axis=0)
    ls = params.lengthscales
    grad_ls = (p_rows @ (Xc * Xc) + 2.0 * np.einsum("ij,ij->j", Xc, H @ Xc)) / (ls * ls)
    return np.concatenate([
        grad_ls,
        [0.5 * p_rows.sum(), 0.5 * params.noise_variance * w_diag.sum()],
    ])


@dataclass
class FitSchedule:
    """Budget and stopping rules for gradient-ascent hyperparameter fitting."""

    max_iters: int = 50
    grad_tol: float = 1e-5
    initial_step: float = 0.25
    max_step: float = 1.0
    min_step: float = 1e-7
    step_growth: float = 1.5


@dataclass
class FitResult:
    """Outcome of a fit call.  `warning` flags an aborted numerical step."""

    spec: KernelSpec
    objective: float
    iterations: int
    converged: bool
    warning: bool = False


def _shard_lml(theta: np.ndarray, shards, spec: KernelSpec,
               spare: list | None = None) -> tuple[float, list]:
    """Summed LML at theta, with each shard's (posterior, noisy Gram matrix).

    The Gram matrix is built once per shard and candidate: the posterior
    factorizes it, and the gradient at an accepted candidate reuses it.
    `spare` is such a list from a candidate the caller has discarded; its
    Gram matrices and factors are overwritten, so that a line search reuses
    the same n x n arrays rather than freeing and allocating them per
    candidate, which would map and fault fresh pages each time.
    """
    cand = spec.with_log_vector(theta)
    fitted = []
    total = 0.0
    for i, (X, Y) in enumerate(shards):
        old_post, old_K = spare[i] if spare else (None, None)
        K = gram(X, cand, add_noise=True, out=old_K)
        post = GpPosterior(X, Y, cand, K, None if old_post is None else old_post.chol)
        total += log_marginal_likelihood(post, cand)
        fitted.append((post, K))
    return total, fitted


def fit(shards, spec: KernelSpec, schedule: FitSchedule | None = None) -> FitResult:
    """Maximize the summed log marginal likelihood over data shards sharing spec.

    Gradient ascent in the log domain with a backtracking step; only strictly
    improving steps are accepted, so the objective never decreases.  On a
    numerical failure the last feasible spec is returned with `warning` set.
    """
    schedule = schedule or FitSchedule()
    shards = [
        (np.asarray(X, dtype=float), np.asarray(Y, dtype=float).ravel())
        for X, Y in shards
        if np.asarray(Y).size > 0
    ]
    if not shards:
        raise ContractViolationError("fit needs at least one non-empty shard")

    theta = spec.to_log_vector()
    try:
        obj, fitted = _shard_lml(theta, shards, spec)
    except NumericalError:
        return FitResult(spec, -np.inf, 0, converged=False, warning=True)

    spare = None  # the arrays of the last discarded candidate
    step = schedule.initial_step
    converged = False
    warning = False
    moved = False
    it = 0
    for it in range(1, schedule.max_iters + 1):
        try:
            grad = np.zeros_like(theta)
            for post, K in fitted:
                grad += lml_gradient(post, post.spec, K)
        except NumericalError:
            warning = True
            break
        gmax = float(np.max(np.abs(grad)))
        if gmax < schedule.grad_tol:
            converged = True
            break
        direction = grad / gmax  # largest coordinate moves by `step` log units
        accepted = False
        s = step
        while s >= schedule.min_step:
            cand_fitted = spare
            try:
                cand_obj, cand_fitted = _shard_lml(theta + s * direction, shards, spec, spare)
            except NumericalError:
                cand_obj = -np.inf
            if cand_obj > obj:
                theta = theta + s * direction
                # The replaced candidate's arrays are the next one's buffers.
                obj, fitted, spare = cand_obj, cand_fitted, fitted
                step = min(s * schedule.step_growth, schedule.max_step)
                accepted = True
                moved = True
                break
            spare = cand_fitted
            s *= 0.5
        if not accepted:
            converged = True  # no ascent direction at line-search resolution
            break

    final = spec.with_log_vector(theta) if moved else spec
    return FitResult(final, obj, it, converged, warning)
