"""RBF kernel with automatic relevance determination.

One per-dimension lengthscale vector, a signal variance and a noise variance
parameterize every GP in the package.  Positive parameters are mirrored into
an unconstrained log-domain vector for gradient ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError

RBF_ARD = "rbf-ard"
_FAMILIES = (RBF_ARD,)


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Kernel hyperparameters shared by all local GPs.

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
        if not isinstance(other, Hyperparameters):
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

    @classmethod
    def from_log_vector(cls, theta: np.ndarray) -> "Hyperparameters":
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 1 or theta.size < 3:
            raise ContractViolationError("log vector must contain at least one lengthscale")
        return cls(
            lengthscales=np.exp(theta[:-2]),
            signal_variance=float(np.exp(theta[-2])),
            noise_variance=float(np.exp(theta[-1])),
        )

    def to_kv_text(self) -> str:
        """Flat key=value block used by the CLI config."""
        ls = ",".join(repr(float(v)) for v in self.lengthscales)
        return (
            f"lengthscales={ls}\n"
            f"signal_variance={self.signal_variance!r}\n"
            f"noise_variance={self.noise_variance!r}\n"
        )

    @classmethod
    def from_kv_text(cls, text: str) -> "Hyperparameters":
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
        try:
            ls = np.array([float(v) for v in fields["lengthscales"].split(",")])
            return cls(ls, float(fields["signal_variance"]), float(fields["noise_variance"]))
        except KeyError as err:
            raise ContractViolationError(f"missing hyperparameter key: {err}") from err


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A kernel family paired with its hyperparameters."""

    params: Hyperparameters
    family: str = RBF_ARD

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ContractViolationError(f"unknown kernel family {self.family!r}")

    @property
    def ndim(self) -> int:
        return self.params.ndim

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, KernelSpec):
            return NotImplemented
        return self.family == other.family and self.params == other.params

    def to_log_vector(self) -> np.ndarray:
        return self.params.to_log_vector()

    def with_log_vector(self, theta: np.ndarray) -> "KernelSpec":
        return KernelSpec(Hyperparameters.from_log_vector(theta), family=self.family)


def default_spec(y: np.ndarray, ndim: int) -> KernelSpec:
    """Starting hyperparameters: unit lengthscales, signal variance from the
    responses seen so far, noise at a tenth of that."""
    y = np.asarray(y, dtype=float)
    var = float(np.var(y)) if y.size >= 2 else 1.0
    if not np.isfinite(var) or var <= 0.0:
        var = 1.0
    return KernelSpec(Hyperparameters(np.ones(ndim), var, 0.1 * var))


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


def scaled_rows(X: np.ndarray, spec: KernelSpec, arg: str = "X") -> tuple[np.ndarray, np.ndarray]:
    """Rows X / lengthscales, after `_check_rows`, with their squared norms.

    The pair is one side of `scaled_cross_gram`.  An object whose rows and
    spec never change computes it once and keeps it.
    """
    Xs = _check_rows(X, spec, arg) / spec.params.lengthscales
    return Xs, np.sum(Xs * Xs, axis=1)


# Entries per block of `_sq_dist`'s norm sum, so that its temporary stays at
# 64 KiB.  A temporary as large as the result would be a second large
# allocation on every call, and each large allocation maps fresh pages.
_NORM_BLOCK = 8192


def _sq_dist(Xs: np.ndarray, a: np.ndarray, Zs: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of Xs and Zs, whose squared row
    norms are a and b, in one buffer: `out` if given, else a fresh array.

    Entry (i, j) is (a_i + b_j) - 2 G_ij, with G = Xs Zs^T the buffer.  When
    Zs is Xs, numpy forms G by a symmetric rank-k update, so the result is
    bitwise symmetric.
    """
    D = np.matmul(Xs, Zs.T, out=out)
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
    return _rbf(_sq_dist(Xs, a, Zs, b), sf2)


def sq_dist(X: np.ndarray, Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Lengthscale-scaled squared distances between rows, of shape (n, p).

    `cross_gram` is sf2 * exp(-sq_dist / 2), so the smallest distance is the
    largest similarity, also where every similarity underflows to zero.
    """
    return _sq_dist(*scaled_rows(X, spec, "X"), *scaled_rows(Z, spec, "Z"))


def cross_gram(X: np.ndarray, Z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Noise-free kernel matrix k(X, Z) of shape (n, p), a fresh array."""
    return scaled_cross_gram(*scaled_rows(X, spec, "X"), *scaled_rows(Z, spec, "Z"),
                             spec.params.signal_variance)


def gram(X: np.ndarray, spec: KernelSpec, add_noise: bool = False,
         out: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix k(X, X), optionally with noise variance on the diagonal.

    Bitwise symmetric, with exactly sf2 (or sf2 + sn2) on the diagonal.  The
    result is written into `out`, a C-ordered (n, n) float array, when one is
    given; otherwise it is a fresh array.
    """
    params = spec.params
    Xs, a = scaled_rows(X, spec)
    sf2 = params.signal_variance
    K = _rbf(_sq_dist(Xs, a, Xs, a, out), sf2)
    np.fill_diagonal(K, sf2 + params.noise_variance if add_noise else sf2)
    return K


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
    ls = spec.params.lengthscales
    for d in range(m):
        diff = X[:, d:d + 1] - X[:, d]
        out[d] = K * (diff * diff) / (ls[d] * ls[d])
    out[m] = K
    out[m + 1] = spec.params.noise_variance * np.eye(n)
    return out
