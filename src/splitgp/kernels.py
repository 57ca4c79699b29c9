"""RBF kernel with automatic relevance determination.

One per-dimension lengthscale vector, a signal variance and a noise variance
parameterize every GP in the package.  Positive parameters are mirrored into
an unconstrained log-domain vector, on which `gp.fit` optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dsyr2k

from .exceptions import ContractViolationError


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel parameters shared by all local GPs.

    Parameters
    ----------
    lengthscales : array of shape (M,)
        One strictly positive lengthscale per input dimension.
    signal_variance : float
        Prior variance of the latent function, > 0.
    noise_variance : float
        Observation-noise variance, >= 0; enters only the Gram diagonal.
    """

    lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float)).copy()
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        if ls.ndim != 1 or ls.size == 0:
            raise ContractViolationError("lengthscales must be a non-empty vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ContractViolationError("lengthscales must be finite and strictly positive")
        if not np.isfinite(self.signal_variance) or self.signal_variance <= 0.0:
            raise ContractViolationError("signal_variance must be finite and > 0")
        if not self.noise_variance >= 0.0:
            raise ContractViolationError("noise_variance must be >= 0")

    @property
    def ndim(self) -> int:
        return self.lengthscales.size

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return (
            np.array_equal(self.lengthscales, other.lengthscales)
            and self.signal_variance == other.signal_variance
            and self.noise_variance == other.noise_variance
        )

    def to_log_vector(self) -> np.ndarray:
        """Unconstrained representation: [log ls_1..ls_M, log sf2, log sn2]."""
        with np.errstate(divide="ignore"):
            return np.concatenate(
                [
                    np.log(self.lengthscales),
                    [np.log(self.signal_variance), np.log(self.noise_variance)],
                ]
            )

    def with_log_vector(self, theta: np.ndarray) -> "KernelSpec":
        """The spec whose `to_log_vector` is theta."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size < 3:
            raise ContractViolationError("log vector must contain at least one lengthscale")
        return KernelSpec(
            lengthscales=np.exp(theta[:-2]),
            signal_variance=float(np.exp(theta[-2])),
            noise_variance=float(np.exp(theta[-1])),
        )


def default_spec(y: np.ndarray, ndim: int) -> KernelSpec:
    """Starting kernel parameters: unit lengthscales, signal variance from the
    responses seen so far, noise at a tenth of that."""
    y = np.asarray(y, dtype=float)
    var = float(np.var(y)) if y.size >= 2 else 1.0
    if not np.isfinite(var) or var <= 0.0:
        var = 1.0
    return KernelSpec(np.ones(ndim), var, 0.1 * var)


def _check_rows(X: np.ndarray, spec: KernelSpec, arg: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != spec.ndim:
        raise ContractViolationError(
            f"{arg} has shape {X.shape}, expected (*, {spec.ndim})"
        )
    if X.size and not np.all(np.isfinite(X)):
        raise ContractViolationError(f"{arg} contains non-finite entries")
    return X


def kernel_eval(x: np.ndarray, x_prime: np.ndarray, spec: KernelSpec) -> float:
    """Evaluate k(x, x') for a single pair of points."""
    return float(cross_gram(x, x_prime, spec)[0, 0])


def _scale(X: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    Xs = X / spec.lengthscales
    return Xs, np.sum(Xs * Xs, axis=1)


def scaled_rows(X: np.ndarray, spec: KernelSpec, arg: str = "X") -> tuple[np.ndarray, np.ndarray]:
    """Rows X / lengthscales, after `_check_rows`, with their squared norms.

    The pair is one side of `scaled_cross_gram`.  An object whose rows and
    spec never change computes it once and keeps it.
    """
    return _scale(_check_rows(X, spec, arg), spec)


class Query(NamedTuple):
    """Query rows checked once and scaled once under `spec`, so that every
    consumer of one call shares one `scaled_rows` pair (Xs, norms)."""

    X: np.ndarray
    Xs: np.ndarray
    norms: np.ndarray
    spec: KernelSpec

    @classmethod
    def of(cls, X: np.ndarray, spec: KernelSpec, arg: str = "Xstar") -> "Query":
        X = _check_rows(X, spec, arg)
        return cls(X, *_scale(X, spec), spec)

    def scaled(self, spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
        """The rows' `scaled_rows` pair under `spec`: the kept one when spec
        equals the query's, else scaled afresh."""
        if spec == self.spec:
            return self.Xs, self.norms
        return scaled_rows(self.X, spec, "Xstar")


# Entries per block of `scaled_sq_dist`'s norm sum, so that its temporary
# stays at 64 KiB.  A temporary as large as the result would be a second large
# allocation on every call, and each large allocation maps fresh pages.
_NORM_BLOCK = 8192


def scaled_sq_dist(Xs: np.ndarray, a: np.ndarray, Zs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of Xs and Zs, whose squared row
    norms are a and b, in one fresh buffer.

    Entry (i, j) is (a_i + b_j) - 2 G_ij, with G = Xs Zs^T the buffer.  It
    serves routing and cross-kernel rows; Gram matrices are built by
    `gram_lower`.  The kernel is sf2 * exp(-D / 2), so the smallest distance
    is the largest similarity, also where every similarity underflows to
    zero.
    """
    D = Xs @ Zs.T
    D *= -2.0
    step = max(1, _NORM_BLOCK // max(b.size, 1))
    for i in range(0, a.size, step):
        D[i:i + step] += np.add.outer(a[i:i + step], b)
    np.maximum(D, 0.0, out=D)
    return D


def _rbf(D: np.ndarray, sf2: float) -> np.ndarray:
    """sf2 * exp(-D / 2), overwriting the squared distances D."""
    D *= -0.5
    np.exp(D, out=D)
    D *= sf2
    return D


def scaled_cross_gram(Xs: np.ndarray, a: np.ndarray, Zs: np.ndarray, b: np.ndarray,
                      sf2: float) -> np.ndarray:
    """k(X, Z) from the `scaled_rows` pairs (Xs, a) of X and (Zs, b) of Z,
    both under the spec whose signal variance is sf2; a fresh (n, p) array.

    The one place the kernel formula is applied to rows: `cross_gram` calls
    it, and so do the objects that keep their stored rows pre-scaled.
    """
    return _rbf(scaled_sq_dist(Xs, a, Zs, b), sf2)


def cross_gram(X: np.ndarray, Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Noise-free kernel matrix k(X, Z) of shape (n, p), a fresh array."""
    return scaled_cross_gram(*scaled_rows(X, spec, "X"), *scaled_rows(Z, spec, "Z"),
                             spec.signal_variance)


# Columns per panel of the elementwise passes over one triangle of an n x n
# array.  A pass over a panel touches only its rows on and below the panel's
# diagonal block, so a triangle costs about half a full pass.  Widths from 32
# to 256 timed within noise at n = 400 to 2000 (one BLAS thread, 2-vCPU Xeon).
PANEL = 64


def gram_lower(X: np.ndarray, spec: KernelSpec, add_noise: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
    """The lower triangle (entries i >= j) of the kernel matrix k(X, X), in an
    F-ordered (n, n) array, with exactly sf2 (or sf2 + sn2) on the diagonal.

    The result is written into `out`, an F-contiguous (n, n) float array,
    when one is given; otherwise it is a fresh array.  Entries above the
    diagonal are unspecified.

    One BLAS `dsyr2k` call (SciPy's) writes -D / 2 into the lower triangle,
    D the lengthscale-scaled squared distance, as A B^T + B A^T with
    A = [Xs, 1] and B = [Xs / 2, -a / 2] for the scaled rows Xs and their
    squared norms a.  Then min(., 0), exp and the scaling by sf2 run over
    the triangle in column panels of PANEL columns.
    """
    Xs, a = scaled_rows(X, spec)
    n, d = Xs.shape
    if out is None:
        out = np.empty((n, n), order="F")
    elif out.shape != (n, n) or out.dtype != float or not out.flags.f_contiguous:
        raise ContractViolationError(
            f"Gram buffer must be an F-contiguous ({n}, {n}) float array")
    if not n:
        return out
    A = np.empty((n, d + 1), order="F")
    B = np.empty((n, d + 1), order="F")
    A[:, :d], A[:, d] = Xs, 1.0
    B[:, :d], B[:, d] = 0.5 * Xs, -0.5 * a
    dsyr2k(1.0, A, B, beta=0.0, c=out, lower=1, overwrite_c=1)
    sf2 = spec.signal_variance
    # NumPy runs a ufunc over a strided view several times slower per entry
    # than over a contiguous array, so each panel is read once into a
    # contiguous work array, transformed there, and written back once.
    work = np.empty(n * min(n, PANEL))
    for j in range(0, n, PANEL):
        panel = out[j:, j:j + PANEL]
        tmp = work[:panel.size].reshape(panel.shape, order="F")
        np.minimum(panel, 0.0, out=tmp)
        np.exp(tmp, out=tmp)
        np.multiply(tmp, sf2, out=panel)
    np.fill_diagonal(out, sf2 + spec.noise_variance if add_noise else sf2)
    return out


def gram(X: np.ndarray, spec: KernelSpec, add_noise: bool = False,
         out: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix k(X, X), optionally with noise variance on the diagonal.

    Bitwise symmetric, with exactly sf2 (or sf2 + sn2) on the diagonal: the
    lower triangle of `gram_lower`, mirrored.  The result is written into
    `out`, a C- or F-contiguous (n, n) float array, when one is given;
    otherwise it is a fresh array.
    """
    K = gram_lower(X, spec, add_noise,
                   out.T if out is not None and out.flags.c_contiguous else out)
    for j in range(0, K.shape[0], PANEL):
        K[:j, j:j + PANEL] = K[j:j + PANEL, :j].T
        block = K[j:j + PANEL, j:j + PANEL]
        np.copyto(block, block.T, where=~np.tri(block.shape[0], dtype=bool))
    return K if out is None else out


def gram_gradients(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Derivatives of the noisy Gram matrix w.r.t. each log-domain parameter.

    Returns an array of shape (M + 2, n, n): one symmetric matrix per
    lengthscale, then signal variance, then noise variance.  The noise slot is
    the identity scaled by the natural-domain noise variance (chain rule
    through the log).

    This is the reference the tests check `gp.lml_gradient` against, not the
    fit path: the fit never builds this O(M n^2) tensor.
    """
    X = _check_rows(X, spec, "X")
    n, m = X.shape
    K = gram(X, spec, add_noise=False)
    out = np.empty((m + 2, n, n))
    ls = spec.lengthscales
    for d in range(m):
        diff = X[:, d:d + 1] - X[:, d]
        out[d] = K * (diff * diff) / (ls[d] * ls[d])
    out[m] = K
    out[m + 1] = spec.noise_variance * np.eye(n)
    return out
