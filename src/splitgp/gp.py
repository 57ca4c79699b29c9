"""Exact single-GP inference.

Posterior mean/variance, log marginal likelihood with its log-domain gradient,
and hyperparameter fitting by SciPy's L-BFGS-B over one or more data shards
that share a kernel.  A posterior grows by one observation in O(n^2) by
appending a row to its Cholesky factor (Seeger 2004, "Low rank updates for
the Cholesky decomposition").  A factor that needed jitter, or a new pivot
too small to trust, is not grown: the caller refactorizes in O(n^3), so
small-lengthscale instabilities are not compounded.  Batch construction and
fitting always factorize from scratch.

Storage.  A freshly built posterior holds its factor as a full n x n array and
v = L^-1 Y.  Its first append copies the factor, packed by rows, into storage
reserved for the caller's capacity, with the rows' augmented scaled form
(`kernels.scaled_rows`: each row scaled by the lengthscales, with its squared
norm), the responses and v; the input rows stay the caller's.  Each later
append writes one row of each there, with no O(n^2) allocation or copy and no
alpha = L^-T v, built when read: a one-row read takes k.alpha as (L^-1 k).v
(Rasmussen & Williams 2006, Alg. 2.1), and returns l = L^-1 k for an
append of that row to take.  Full storage is copied once into
storage for a new, larger capacity.  A kernel block reads the first n
augmented rows in place.  Single-row solves read the packed factor in place
through BLAS `dtpsv`; batch solves unpack it once.

Gram matrices.  The Cholesky factor and K^-1 each occupy one triangle, so a
posterior and the gradient read only the lower triangle of K, and build only
that, with `kernels.gram_lower`.  Every O(n^2) or larger product of a fit
runs in SciPy's BLAS, none in NumPy's: the two packages load separate
OpenBLAS libraries, and when BLAS threads are not pinned, alternating
between them makes their thread pools fight for the cores.

Validation.  Inputs are checked where they enter: `kernels.gram_lower`,
`kernels.scaled_rows` and `kernels.Query` reject non-finite or wrong-width
rows, `GpPosterior` non-finite responses.  A row streamed into a
`model.LocalGpPool` is checked and scaled once, where it enters the pool,
and reaches `GpPosterior.append` already scaled; stored rows are checked
once more when a posterior first scales them for kernel rows, and query
rows once per call.  The SciPy and BLAS calls here therefore skip their own
finiteness scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.linalg.blas import dsymv, dsyr, dtpsv, dtrmm, dtrsv
from scipy.linalg.lapack import dlauum, dtpttr, dtrtri, dtrttp

from .exceptions import ContractViolationError, NumericalError
from .kernels import FAR_NORM, PANEL, KernelSpec, Query, gram_lower, scaled_cross_gram, scaled_rows

LOG_2PI = float(np.log(2.0 * np.pi))

# Escalating diagonal jitter applied only when a plain factorization fails.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)

# Negative round-off this small is clamped to zero; anything worse is an error.
VARIANCE_SLACK = 1e-10

# A new Cholesky pivot d^2 at or below this fraction of the prior variance
# sf2 + sn2 is too close to singular to extend a factor with.
PIVOT_RTOL = 1e-10

# Diagonal blocks of at most this many rows are inverted by LAPACK `dtrtri`;
# larger triangles are split in halves joined by BLAS `dtrmm` products.
TRI_BLOCK = 64


def _staged(work: np.ndarray, offset: int, block: np.ndarray) -> np.ndarray:
    """A copy of `block` in `work`, from `offset` on, F-contiguous, so that
    f2py hands it to BLAS and LAPACK without a copy of its own."""
    rows, cols = block.shape
    out = work[offset:offset + rows * cols].reshape(rows, cols, order="F")
    out[...] = block
    return out


def _invert_lower(L: np.ndarray, work: np.ndarray | None = None) -> None:
    """Overwrite the lower-triangular L, in either memory order, with L^-1.

    By halves, inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]
    (Du Croz & Higham 1992 give this the error bounds of LAPACK's column
    method): diagonal blocks of at most TRI_BLOCK rows go to `dtrtri`, and B
    is multiplied by A^-1 in panels of at most TRI_BLOCK rows, then by
    -C^-1 in panels of at most TRI_BLOCK columns, each a `dtrmm` call.
    f2py would copy a block that is not contiguous, so every block is
    staged F-contiguously in one work array of k (k + TRI_BLOCK) entries,
    k = ceil(n / 2), and the result written back.  The upper triangle is
    never written.  A zero pivot raises NumericalError.
    """
    n = L.shape[0]
    if work is None:
        k = n - n // 2
        work = np.empty(k * (k + TRI_BLOCK) if n > TRI_BLOCK else n * n)
    if n <= TRI_BLOCK:
        inv, info = dtrtri(_staged(work, 0, L), lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"dtrtri failed with info {info}")
        L[...] = inv
        return
    m = n // 2
    _invert_lower(L[:m, :m], work)
    _invert_lower(L[m:, m:], work)
    B = L[m:, :m]
    tri = _staged(work, 0, L[:m, :m])
    for i in range(0, n - m, TRI_BLOCK):  # B <- B A^-1, by row panels
        panel = _staged(work, m * m, B[i:i + TRI_BLOCK])
        B[i:i + TRI_BLOCK] = dtrmm(1.0, tri, panel, side=1, lower=1, overwrite_b=1)
    tri = _staged(work, 0, L[m:, m:])
    size = (n - m) ** 2
    for j in range(0, m, TRI_BLOCK):  # B <- -C^-1 B, by column panels
        panel = _staged(work, size, B[:, j:j + TRI_BLOCK])
        B[:, j:j + TRI_BLOCK] = dtrmm(-1.0, tri, panel, lower=1, overwrite_b=1)


def _factorize(fill, out: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric K, with the smallest jitter that
    succeeds, formed in `out`, F-ordered; its upper triangle is zero.
    `fill(out)` writes at least K's lower triangle before every attempt: a
    failed one overwrites `out`.  Only that triangle is read.
    """
    n = out.shape[0]
    for jitter in JITTER_LADDER:
        fill(out)
        if jitter:
            out.flat[::n + 1] += jitter
        try:
            return cholesky(out, lower=True, overwrite_a=True, check_finite=False), jitter
        except LinAlgError:
            continue
    raise NumericalError(
        f"kernel matrix of size {n} is not positive definite even with jitter"
    )


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


class _Storage:
    """Reserved rows that one posterior grows in.

    Row i of the lower factor L is packed at [i(i+1)/2, (i+1)(i+2)/2), which
    BLAS reads as the column-major upper triangle of L^T, so appending a row
    writes past the end of what is there.  A posterior of n rows reads the
    first n rows of every array.
    """

    __slots__ = ("packed", "scaled", "Y", "v")

    def __init__(self, capacity: int, ndim: int):
        self.packed = np.empty(_packed_size(capacity))
        self.scaled = np.empty((capacity, ndim + 2))
        self.Y = np.empty(capacity)
        self.v = np.empty(capacity)


class GpPosterior:
    """A GP conditioned on (X, Y), at least one observation, under a fixed
    kernel spec; no rows raise ContractViolationError.

    Caches the Cholesky factor L of the noisy Gram matrix, v = L^-1 Y and,
    once read, alpha = (K + sn2 I)^-1 Y, and keeps X as given, so the caller
    must not write those rows.  `append` conditions it on one more observation
    in place, and is the only call that changes it.  A caller that has already
    built the noisy Gram matrix, as `kernels.gram_lower(X, spec,
    add_noise=True)` does, passes it as K; the posterior factorizes a copy and
    keeps no reference to it (without K, it builds the Gram matrix with
    `gram_lower` in place of its factor).  Only K[i, j] with i >= j is read:
    the strict lower triangle and the diagonal, in either memory order.  A
    caller that holds the factor of a discarded posterior of the same size
    passes it as `out`, an F-contiguous array, and the new factor overwrites
    it instead of a fresh array.

    The rows' augmented scaled form (`kernels.scaled_rows`) is built on the
    first kernel-row request, after a check of the stored rows, so a
    posterior that only serves a fit never holds it.
    `chol` is the n x n lower factor; a grown posterior unpacks it into a
    fresh array on each read.

    A single-row query also returns l = L^-1 k, which `append` at that row
    takes instead of building the kernel row and solving again.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, spec: KernelSpec,
                 K: np.ndarray | None = None, out: np.ndarray | None = None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, spec.ndim)
        Y = np.asarray(Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ContractViolationError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
        if not X.shape[0]:
            raise ContractViolationError("a posterior needs at least one observation")
        if not np.all(np.isfinite(Y)):
            raise ContractViolationError("Y contains non-finite entries")
        if X.shape[1] != spec.ndim:
            raise ContractViolationError(f"X has {X.shape[1]} columns, spec expects {spec.ndim}")
        self.X = X
        self.Y = Y
        self.spec = spec
        for name, arr in (("Gram matrix", K), ("factor buffer", out)):
            if arr is not None and arr.shape != (self.n, self.n):
                raise ContractViolationError(
                    f"{name} has shape {arr.shape}, expected {(self.n, self.n)}")
        out = np.empty((self.n, self.n), order="F") if out is None else out
        if K is None:
            fill = lambda dst: gram_lower(X, spec, add_noise=True, out=dst)
        else:
            def fill(dst):  # K's lower triangle, by column panels
                for j in range(0, self.n, PANEL):
                    dst[j:, j:j + PANEL] = K[j:, j:j + PANEL]
        self._L, self.jitter = _factorize(fill, out)
        # BLAS `dtrsv` for v, and for alpha when read: half `cho_solve`'s time.
        self._v = dtrsv(self._L, Y.copy(), lower=1, overwrite_x=1)
        self._alpha: np.ndarray | None = None  # L^-T v, built when read
        self._store: _Storage | None = None  # set on the first append
        self._scaled: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def chol(self) -> np.ndarray:
        if self._store is None:
            return self._L
        n = self.n
        return dtpttr(n, self._store.packed[:_packed_size(n)], uplo="U")[0].T

    @property
    def alpha(self) -> np.ndarray:
        """L^-T v, back-substituted on the first read after an append."""
        if self._alpha is None:
            v, store = self._v.copy(), self._store
            self._alpha = (dtrsv(self._L, v, lower=1, trans=1, overwrite_x=1) if store is None
                           else dtpsv(self.n, store.packed, v, lower=0, trans=0, overwrite_x=1))
        return self._alpha

    def scaled_rows(self) -> np.ndarray:
        """The stored rows as `kernels.scaled_rows` gives them, built once; a
        grown posterior's are the first n rows of its storage."""
        if self._scaled is None:
            self._scaled = scaled_rows(self.X, self.spec)
        return self._scaled

    def _solve_lower(self, k: np.ndarray) -> np.ndarray:
        """L^-1 k for one contiguous vector k, which it overwrites."""
        if self._store is None:
            return dtrsv(self._L, k, lower=1, overwrite_x=1)
        return dtpsv(self.n, self._store.packed, k, lower=0, trans=1, overwrite_x=1)

    def predict_row(self, Xa: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(mean, latent variance, l) at one row given as `predict_scaled`
        takes it: l = L^-1 k gives l.v and sf2 - l.l, and `append` takes it."""
        sf2 = self.spec.signal_variance
        l = self._solve_lower(scaled_cross_gram(Xa, self.scaled_rows(), sf2)[0])
        var = sf2 - float(l @ l)
        if var < -VARIANCE_SLACK:
            raise NumericalError(f"posterior variance {var} below round-off slack")
        return float(l @ self._v), max(var, 0.0), l

    def predict_scaled(self, Xa: np.ndarray, mean: bool = True,
                       variance: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Posterior mean and noise-free latent variance at query rows given
        as their `kernels.Query.aug` under this posterior's spec; None for
        what is not asked.

        A single row takes `predict_row`'s arithmetic whatever is asked.
        More rows share one kernel row each for both moments: the mean is
        K alpha, and the rows are solved against `chol` in one call.
        """
        if Xa.shape[0] == 1:
            mu, var, _ = self.predict_row(Xa)
            return np.array([mu]) if mean else None, np.array([var]) if variance else None
        sf2 = self.spec.signal_variance
        K = scaled_cross_gram(Xa, self.scaled_rows(), sf2)
        mu = K @ self.alpha if mean else None
        if not variance:
            return mu, None
        V = solve_triangular(self.chol, K.T, lower=True, overwrite_b=True, check_finite=False)
        var = sf2 - np.sum(V * V, axis=0)
        low = var.min() if var.size else 0.0
        if low < -VARIANCE_SLACK:
            raise NumericalError(f"posterior variance {low} below round-off slack")
        np.maximum(var, 0.0, out=var)
        return mu, var

    def _reserve(self, capacity: int) -> _Storage:
        """Storage for `capacity` rows that holds this posterior's n rows."""
        n = self.n
        store = _Storage(capacity, self.spec.ndim)
        size = _packed_size(n)
        if self._store is None:
            store.packed[:size] = dtrttp(self._L.T, uplo="U")[0]
        else:
            store.packed[:size] = self._store.packed[:size]
        store.scaled[:n], store.Y[:n], store.v[:n] = self.scaled_rows(), self.Y, self._v
        return store

    def append(self, X: np.ndarray, y: float, capacity: int, scaled: np.ndarray,
               l: np.ndarray | None = None) -> bool:
        """Condition this posterior on one more observation, in place and in
        O(n^2): X is its n rows then the new row x, which it keeps as its
        rows, and y is x's response.  `capacity` is the number of rows the
        storage it grows in is sized for, more than n (see the module
        docstring); `scaled` is x as a one-row `kernels.Query.aug` under this
        posterior's spec, checked and scaled by the caller.

        Appends the row [l^T d] to the factor, with l = L^-1 k(X, x) and
        d^2 = sf2 + sn2 - l.l, and extends v = L^-1 Y by (y - l.v) / d; alpha
        is dropped, to be back-substituted when read.  A caller that holds
        `predict_row`'s l for x, solved by this posterior at its n rows,
        passes it, and the step is O(n) bookkeeping.  Returns False and
        changes nothing, leaving the caller to refactorize, when the factor
        needed jitter, or when any pivot, old or new, is not above PIVOT_RTOL
        of sf2 + sn2: a nearly singular factor is not built upon.
        """
        if self.jitter != 0.0:
            return False
        prior_var = self.spec.signal_variance + self.spec.noise_variance
        min_pivot = PIVOT_RTOL * prior_var
        # A grown factor's pivots all passed this test as they were added.
        if self._store is None and not np.min(np.diagonal(self._L)) ** 2 > min_pivot:
            return False
        n = self.n
        if X.shape[0] != n + 1 or capacity <= n:
            raise ContractViolationError(f"{X.shape[0]} rows and capacity {capacity} for "
                                         f"{n + 1} rows")
        if l is None:
            l = self._solve_lower(scaled_cross_gram(scaled, self.scaled_rows(),
                                                    self.spec.signal_variance)[0])
        d2 = prior_var - l @ l
        if not d2 > min_pivot:
            return False
        d, y = float(np.sqrt(d2)), float(y)
        store = self._store
        if store is None or store.Y.size == n:
            store = self._store = self._reserve(capacity)
        start = _packed_size(n)
        store.packed[start:start + n] = l
        store.packed[start + n] = d
        row = store.scaled[n]  # x's stored side: its query side, last two columns swapped
        row[:-2], row[-2:], store.Y[n] = scaled[0, :-2], scaled[0, -2:][::-1], y
        store.v[n] = (y - l @ store.v[:n]) / d

        n += 1
        self.X, self.Y, self._L = X, store.Y[:n], None
        self._scaled, self._v, self._alpha = store.scaled[:n], store.v[:n], None
        return True


def posterior_mean(post: GpPosterior, x_star: np.ndarray):
    """Posterior mean at one point (scalar in, scalar out) or a batch of rows."""
    mu, _ = post.predict_scaled(Query.of(x_star, post.spec, "x_star").aug, variance=False)
    return float(mu[0]) if np.ndim(x_star) == 1 else mu


def posterior_variance(post: GpPosterior, x_star: np.ndarray):
    """Posterior variance (noise-free latent) at one point or a batch of rows."""
    _, var = post.predict_scaled(Query.of(x_star, post.spec, "x_star").aug, mean=False)
    return float(var[0]) if np.ndim(x_star) == 1 else var


def log_marginal_likelihood(post: GpPosterior) -> float:
    """log p(Y | X, spec) under the posterior's spec, through its factorization."""
    fit_term = -0.5 * float(post.Y @ post.alpha)
    logdet = float(np.sum(np.log(np.diag(post.chol))))
    return fit_term - logdet - 0.5 * post.n * LOG_2PI


def lml_gradient(post: GpPosterior, K: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the log marginal likelihood w.r.t. each log-domain parameter
    of the posterior's spec, in O(n^2 d) time and O(n^2) memory.

    Each component is the trace identity 0.5 tr(W dK/dtheta_j) with
    W = alpha alpha^T - K^-1 (Rasmussen & Williams 2006, eq. 5.9), evaluated
    without the (d+2) x n x n tensor of `kernels.gram_gradients`.  With
    P = W o K_f, K_f the noise-free Gram matrix, and x_d the d-th input
    column scaled by its lengthscale:

    - lengthscale d: sum_i x_id^2 (P 1)_i - x_d^T P x_d;
    - signal variance: sum(P) / 2;
    - noise variance: sn2 tr(W) / 2.

    The lengthscale term is the pairwise form sum_ij P_ij (x_id - x_jd)^2 / 2
    expanded, to which P's diagonal adds nothing: P is formed without it,
    and sf2 sum_i W_ii joins sum(P) apart.  The columns are centred on their
    median, as on offset inputs the two terms would cancel; a lone far row,
    whose entries of P are exactly 0, then enters nowhere.  The expanded
    form loses digits on duplicate rows, within 10 eps cond(K), and on a far
    cluster of rows, where it may overflow: NumericalError, a failed `fit`
    evaluation.  The pairwise form, exact on both, costs d more n^2 passes.

    K^-1 = L^-T L^-1 is formed in one F-ordered n x n array H, the only
    n x n array the call allocates: H is a copy of the cached factor, or,
    for a grown posterior, the array `chol` unpacks, which is already a
    copy.  `_invert_lower` overwrites L there with L^-1, and LAPACK `dlauum`
    with one triangle of L^-T L^-1: the lower for a fresh factor, the upper
    for a grown one.  Everything after works on that triangle alone, in
    SciPy's BLAS (see the module docstring; at n = 400 and two threads on a
    2-vCPU Xeon, a gradient took 8 ms with a NumPy n x d product in it,
    1.5 ms without): BLAS `dsyr` subtracts alpha alpha^T, giving -W; the
    product with K_f runs over the triangle in column panels, and the
    diagonal is set to 0, giving -P off its diagonal.  BLAS `dsymv` of that
    triangle against 1 and against each centred column x_d gives P 1 and
    x_d^T P x_d, and sum(P) is the sum of P 1 plus sf2 sum_i W_ii.  These
    d + 1 `dsymv` calls took a third of the time of one `dsymm` against
    [1 | X_c] at n = 500 and d = 2, and less up to d = 8 (one BLAS thread,
    2-vCPU Xeon): OpenBLAS's `dsymm` is slow on so few columns.  A jittered
    factor gives the gradient of the jittered K, as the posterior's alpha
    does.

    K is the posterior's Gram matrix when the caller still holds it, in
    either memory order; only K[i, j] with i > j is read, so it may carry
    noise on the diagonal and anything above it.  Without K, the call builds
    that triangle with `kernels.gram_lower`.
    """
    n, alpha, spec = post.n, post.alpha, post.spec
    if K is None:
        K = gram_lower(post.X, spec)
    fresh = post._store is None
    lower = int(fresh)
    # A copy of a fresh factor holds L in its lower triangle; the F-ordered
    # transpose of a grown posterior's unpacked `chol` holds L^T in its upper.
    H = np.array(post.chol, order="F") if fresh else post.chol.T
    _invert_lower(H if fresh else H.T)
    H = dlauum(H, lower=lower, overwrite_c=1)[0]
    w_diag = alpha * alpha - H.diagonal()
    H = dsyr(-1.0, alpha, lower=lower, a=H, overwrite_a=1)  # -W in the triangle
    tri = H if fresh else H.T  # the triangle as a lower one, as K holds it
    for j in range(0, n, PANEL):
        tri[j:, j:j + PANEL] *= K[j:, j:j + PANEL]
    np.fill_diagonal(H, 0.0)  # -P off the diagonal, in the triangle
    Xs = post.X / spec.lengthscales
    Xc = Xs - np.median(Xs, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        p_rows = dsymv(-1.0, H, np.ones(n), lower=lower)  # P 1, less P's diagonal
        xPx = np.array([x @ dsymv(-1.0, H, x, lower=lower) for x in Xc.T])
        p_sum = p_rows.sum() + spec.signal_variance * w_diag.sum()
        grad = np.concatenate([p_rows @ (Xc * Xc) - xPx,
                               [0.5 * p_sum, 0.5 * spec.noise_variance * w_diag.sum()]])
    if not np.isfinite(grad).all():
        raise NumericalError("the gradient overflows")
    return grad


# Standard deviation of the log-normal prior that `fit` puts on each log
# parameter, centred at its warm start.  Without it, the summed LML of
# residual shards peaks at sf2 -> 0 and lengthscales -> infinity.
PRIOR_SCALE = 0.5


@dataclass
class FitSchedule:
    """Iteration budget of the L-BFGS-B hyperparameter fit, >= 0; at 0 the
    fit evaluates its warm start only."""

    max_iters: int = 50

    def __post_init__(self):
        if self.max_iters < 0:
            raise ContractViolationError("fit budget max_iters must be >= 0")


@dataclass
class FitResult:
    """Outcome of a fit call: the spec, the maximized objective (summed LML
    plus log prior) there, SciPy's iteration count and convergence flag, and
    `warning`, set when an evaluation failed numerically."""

    spec: KernelSpec
    objective: float
    iterations: int
    converged: bool
    warning: bool = False


def _shard_lml(theta: np.ndarray, shards, spec: KernelSpec,
               spare: list | None = None) -> tuple[float, list]:
    """Summed LML at theta, with each shard's (posterior, noisy Gram matrix),
    the Gram matrix built by `kernels.gram_lower`, so only its lower triangle.

    The posterior factorizes the Gram matrix and the gradient reuses it.
    `spare` is such a list from an earlier evaluation, whose arrays are
    overwritten: a fit reuses one set of n x n arrays rather than mapping and
    faulting fresh pages for every evaluation.  A trial spec that scales a
    row to |x / l|^2 >= `kernels.FAR_NORM`, past the bound a pool stores its
    rows under, would overflow both: NumericalError.
    """
    cand = spec.with_log_vector(theta)
    with np.errstate(over="ignore"):
        if not all(((X / cand.lengthscales) ** 2).sum(axis=1).max() < FAR_NORM for X, _ in shards):
            raise NumericalError("a row overflows when scaled by the trial lengthscales")
    fitted, total = [], 0.0
    for i, (X, Y) in enumerate(shards):
        old_post, old_K = spare[i] if spare else (None, None)
        K = gram_lower(X, cand, add_noise=True, out=old_K)
        post = GpPosterior(X, Y, cand, K, None if old_post is None else old_post.chol)
        total += log_marginal_likelihood(post)
        fitted.append((post, K))
    return total, fitted


def fit(shards, spec: KernelSpec, schedule: FitSchedule | None = None) -> FitResult:
    """Maximize the summed log marginal likelihood over data shards sharing
    spec, plus a log-normal prior of scale PRIOR_SCALE on each log parameter
    centred at spec (MAP; Rasmussen & Williams 2006, 5.2), by SciPy's L-BFGS-B
    (R&W 5.4.1).  A zero noise variance, whose log is -inf, is held at zero.
    An evaluation that fails numerically reads +inf to the optimizer and sets
    `warning`.  If the warm start fails, or nothing beats it, spec itself is
    returned.
    """
    from scipy.optimize import minimize  # about 0.2 s, so loaded on first use

    schedule = schedule or FitSchedule()
    shards = [(np.asarray(X, dtype=float), np.asarray(Y, dtype=float).ravel())
              for X, Y in shards]
    if not shards or not all(Y.size for _, Y in shards):
        raise ContractViolationError("fit needs at least one shard, each with observations")

    theta = spec.to_log_vector()
    free = slice(None) if spec.noise_variance > 0.0 else slice(0, -1)
    start = theta[free].copy()
    buffers = None  # the first evaluation's arrays, overwritten by every later one
    warning = False

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal buffers, warning
        theta[free] = x
        try:
            if not np.abs(x).max() < 700.0:  # exp would overflow or underflow, or x is NaN
                raise NumericalError("log parameters out of range")
            lml, buffers = _shard_lml(theta, shards, spec, buffers)
            grad = sum(lml_gradient(post, K) for post, K in buffers)
        except NumericalError:
            if buffers is None:
                raise  # the warm start has no objective
            warning = True
            return np.inf, np.zeros_like(x)
        pull = (x - start) / PRIOR_SCALE**2
        return 0.5 * pull @ (x - start) - lml, pull - grad[free]

    try:
        if schedule.max_iters < 1:  # SciPy would still take one step
            return FitResult(spec, -negated(start)[0], 0, False, warning)
        res = minimize(negated, start, jac=True, method="L-BFGS-B",
                       options={"maxiter": schedule.max_iters})
    except NumericalError:
        return FitResult(spec, -np.inf, 0, converged=False, warning=True)
    if not np.isfinite(res.x).all():  # SciPy kept a step to NaN: nothing beat the start
        return FitResult(spec, -negated(start)[0], res.nit, False, True)
    # Otherwise L-BFGS-B returns an accepted iterate, never one worse than the start.
    theta[free] = res.x
    final = spec if np.array_equal(res.x, start) else spec.with_log_vector(theta)
    return FitResult(final, -res.fun, res.nit, res.success, warning)
