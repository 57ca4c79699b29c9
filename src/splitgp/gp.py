"""Exact single-GP inference.

Posterior mean/variance, log marginal likelihood with its log-domain gradient,
and gradient-ascent hyperparameter fitting over one or more data shards that
share a kernel.  A posterior grows by one observation in O(n^2) by appending
a row to its Cholesky factor (Seeger 2004, "Low rank updates for the Cholesky
decomposition").  A factor that needed jitter, or a new pivot too small to
trust, is not extended: the caller refactorizes in O(n^3), so small-lengthscale
instabilities are not compounded.  Batch construction and fitting always
factorize from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from .exceptions import ContractViolationError, NumericalError
from .kernels import KernelSpec, cross_gram, gram, gram_gradients

LOG_2PI = float(np.log(2.0 * np.pi))

# Escalating diagonal jitter applied only when a plain factorization fails.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)

# Negative round-off this small is clamped to zero; anything worse is an error.
VARIANCE_SLACK = 1e-10

# A new Cholesky pivot d^2 at or below this fraction of the prior variance
# sf2 + sn2 is too close to singular to extend a factor with.
PIVOT_RTOL = 1e-10


def _factorize(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, adding the smallest jitter that succeeds."""
    n = K.shape[0]
    for jitter in JITTER_LADDER:
        try:
            M = K if jitter == 0.0 else K + jitter * np.eye(n)
            return cholesky(M, lower=True), jitter
        except LinAlgError:
            continue
    raise NumericalError(
        f"kernel matrix of size {n} is not positive definite even with jitter"
    )


class GpPosterior:
    """A GP conditioned on (X, Y) under a fixed kernel spec.

    Immutable after construction; caches the Cholesky factor of the noisy Gram
    matrix and the weight vector alpha = (K + sn2 I)^-1 Y.  `extended` returns
    a new posterior with one more observation.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, spec: KernelSpec):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, spec.ndim) if X.size else X.reshape(0, spec.ndim)
        Y = np.asarray(Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries"
            )
        if X.shape[0] and X.shape[1] != spec.ndim:
            raise ContractViolationError(
                f"X has {X.shape[1]} columns, spec expects {spec.ndim}"
            )
        self.X = X
        self.Y = Y
        self.spec = spec
        if self.n:
            K = gram(X, spec, add_noise=True)
            self.chol, self.jitter = _factorize(K)
            self.alpha = cho_solve((self.chol, True), Y)
        else:
            self.chol = np.zeros((0, 0))
            self.jitter = 0.0
            self.alpha = np.zeros(0)
        self._v: np.ndarray | None = None  # L^-1 Y, formed on first extension

    @property
    def n(self) -> int:
        return self.X.shape[0]

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
        if not np.min(np.diagonal(self.chol)) ** 2 > min_pivot:
            return None
        x = np.asarray(x, dtype=float).reshape(1, self.spec.ndim)
        k = cross_gram(x, self.X, self.spec)[0]
        l = solve_triangular(self.chol, k, lower=True, check_finite=False)
        d2 = prior_var - l @ l
        if not d2 > min_pivot:
            return None
        if self._v is None:
            self._v = solve_triangular(self.chol, self.Y, lower=True, check_finite=False)
        n, d, y = self.n, float(np.sqrt(d2)), float(y)
        chol = np.empty((n + 1, n + 1))
        chol[:n, :n] = self.chol
        chol[:n, n] = 0.0
        chol[n, :n] = l
        chol[n, n] = d
        out = object.__new__(GpPosterior)  # __init__ would refactorize
        out.X = np.vstack([self.X, x])
        out.Y = np.append(self.Y, y)
        out.spec = self.spec
        out.chol, out.jitter = chol, 0.0
        out._v = np.append(self._v, (y - l @ self._v) / d)
        out.alpha = solve_triangular(chol, out._v, lower=True, trans="T", check_finite=False)
        return out

    def _check_spec(self, spec: KernelSpec) -> None:
        if spec != self.spec:
            raise ContractViolationError(
                "kernel spec differs from the one this posterior was factorized with"
            )


def posterior_mean(post: GpPosterior, x_star: np.ndarray, spec: KernelSpec):
    """Posterior mean at one point (scalar in, scalar out) or a batch of rows."""
    post._check_spec(spec)
    x_star = np.asarray(x_star, dtype=float)
    single = x_star.ndim == 1
    if post.n == 0:
        out = np.zeros(1 if single else x_star.shape[0])
    else:
        ks = cross_gram(x_star, post.X, spec)
        out = ks @ post.alpha
    return float(out[0]) if single else out


def posterior_variance(post: GpPosterior, x_star: np.ndarray, spec: KernelSpec):
    """Posterior variance (noise-free latent) at one point or a batch of rows."""
    post._check_spec(spec)
    x_star = np.asarray(x_star, dtype=float)
    single = x_star.ndim == 1
    sf2 = spec.params.signal_variance
    if post.n == 0:
        out = np.full(1 if single else x_star.shape[0], sf2)
    else:
        ks = cross_gram(x_star, post.X, spec)
        v = solve_triangular(post.chol, ks.T, lower=True)
        out = sf2 - np.sum(v * v, axis=0)
        low = out.min() if out.size else 0.0
        if low < -VARIANCE_SLACK:
            raise NumericalError(f"posterior variance {low} below round-off slack")
        np.maximum(out, 0.0, out=out)
    return float(out[0]) if single else out


def log_marginal_likelihood(post: GpPosterior, spec: KernelSpec) -> float:
    """log p(Y | X, spec) through the cached factorization."""
    post._check_spec(spec)
    if post.n == 0:
        raise ContractViolationError("log marginal likelihood needs at least one observation")
    fit_term = -0.5 * float(post.Y @ post.alpha)
    logdet = float(np.sum(np.log(np.diag(post.chol))))
    return fit_term - logdet - 0.5 * post.n * LOG_2PI


def lml_gradient(post: GpPosterior, spec: KernelSpec) -> np.ndarray:
    """Gradient of the log marginal likelihood w.r.t. each log-domain parameter.

    Uses the trace identity 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j) with
    K the noisy Gram matrix.
    """
    post._check_spec(spec)
    if post.n == 0:
        raise ContractViolationError("gradient needs at least one observation")
    grads = gram_gradients(post.X, spec)
    K_inv = cho_solve((post.chol, True), np.eye(post.n))
    inner = np.outer(post.alpha, post.alpha) - K_inv
    return 0.5 * np.einsum("ij,kij->k", inner, grads)


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


def _shard_lml(theta: np.ndarray, shards, spec: KernelSpec) -> tuple[float, list]:
    cand = spec.with_log_vector(theta)
    posteriors = []
    total = 0.0
    for X, Y in shards:
        post = GpPosterior(X, Y, cand)
        total += log_marginal_likelihood(post, cand)
        posteriors.append(post)
    return total, posteriors


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
        obj, posteriors = _shard_lml(theta, shards, spec)
    except NumericalError:
        return FitResult(spec, -np.inf, 0, converged=False, warning=True)

    step = schedule.initial_step
    converged = False
    warning = False
    moved = False
    it = 0
    for it in range(1, schedule.max_iters + 1):
        try:
            grad = np.zeros_like(theta)
            for post in posteriors:
                grad += lml_gradient(post, post.spec)
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
            try:
                cand_obj, cand_posts = _shard_lml(theta + s * direction, shards, spec)
            except NumericalError:
                cand_obj = -np.inf
            if cand_obj > obj:
                theta = theta + s * direction
                obj, posteriors = cand_obj, cand_posts
                step = min(s * schedule.step_growth, schedule.max_step)
                accepted = True
                moved = True
                break
            s *= 0.5
        if not accepted:
            converged = True  # no ascent direction at line-search resolution
            break

    final = spec.with_log_vector(theta) if moved else spec
    return FitResult(final, obj, it, converged, warning)
