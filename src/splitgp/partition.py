"""Principal-direction bisection of a local model's data.

The first principal component of the inputs defines a hyperplane through the
model's center; rows on the positive side form the left child, the rest the
right child.  The direction comes either from a thin SVD of the mean-centered
rows or from a streaming Oja's-rule estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ContractViolationError, DegenerateDataError

BATCH_SVD = "batch-svd"
OJA_STREAMING = "oja-streaming"

_TIE_RTOL = 1e-9
_UNIT_TOL = 1e-12


def centroid(X: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the rows."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise ContractViolationError("centroid of zero rows is undefined")
    return X.mean(axis=0)


def _default_learning_rate(t: int) -> float:
    return 1.0 / (100.0 + t)


class PrincipalDirectionEstimator:
    """First-principal-component estimator, batch or streaming.

    In batch mode the estimator is stateless.  In streaming mode it keeps a
    running mean, an observation counter and the current unit-norm direction,
    updated by Oja's rule with a decaying learning rate; the state is seeded by
    the first observation with a nonzero offset from the running mean.
    """

    def __init__(self, mode: str = BATCH_SVD,
                 learning_rate: Callable[[int], float] = _default_learning_rate):
        if mode not in (BATCH_SVD, OJA_STREAMING):
            raise ContractViolationError(f"unknown estimator mode {mode!r}")
        self.mode = mode
        self.learning_rate = learning_rate
        self._direction: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._count = 0
        self._t = 0

    @property
    def direction(self) -> np.ndarray | None:
        return None if self._direction is None else self._direction.copy()

    def observe(self, x: np.ndarray) -> None:
        """Fold one observation into the running mean and the Oja iterate."""
        x = np.asarray(x, dtype=float).ravel()
        if self._mean is None:
            self._mean = x.copy()
            self._count = 1
            return
        self._count += 1
        self._mean += (x - self._mean) / self._count
        u = x - self._mean
        norm_u = float(np.linalg.norm(u))
        if self._direction is None:
            if norm_u > 0.0:
                self._direction = u / norm_u
            return
        self._t += 1
        w = self._direction + self.learning_rate(self._t) * (u @ self._direction) * u
        norm_w = float(np.linalg.norm(w))
        if norm_w < _UNIT_TOL:
            self._direction = u / norm_u if norm_u > 0.0 else self._direction
        else:
            self._direction = w / norm_w


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > _UNIT_TOL:
            return v if comp > 0.0 else -v
    return v


def _batch_direction(X: np.ndarray) -> np.ndarray:
    centered = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 0.0:
        raise DegenerateDataError("all rows identical; no principal direction")
    tied = int(np.sum(s >= s[0] * (1.0 - _TIE_RTOL)))
    if tied == 1:
        v = vt[0]
    else:
        # Tied spectrum: pick, inside the tied subspace, the direction closest
        # to the lowest-index coordinate axis with a nonzero projection.
        basis = vt[:tied]
        v = None
        for j in range(X.shape[1]):
            proj = basis.T @ basis[:, j]
            norm = float(np.linalg.norm(proj))
            if norm > _TIE_RTOL:
                v = proj / norm
                break
        if v is None:
            v = vt[0]
    v = v / np.linalg.norm(v)
    return _canonical_sign(v)


def principal_direction(X: np.ndarray,
                        est: PrincipalDirectionEstimator | None = None) -> np.ndarray:
    """Unit vector along which the mean-centered rows vary most.

    Batch mode computes it exactly via thin SVD; streaming mode folds the rows
    into the estimator's Oja state and returns the current iterate.  The sign
    is fixed by making the first nonzero component positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractViolationError("principal direction needs at least two rows")
    if np.all(X == X[0]):
        raise DegenerateDataError("all rows identical; no principal direction")
    if est is None or est.mode == BATCH_SVD:
        return _batch_direction(X)
    for row in X:
        est.observe(row)
    if est._direction is None:
        return _batch_direction(X)
    return _canonical_sign(est._direction.copy())


@dataclass
class SplitResult:
    """Two (inputs, responses, centroid) triples partitioning a parent's rows."""

    left: tuple[np.ndarray, np.ndarray, np.ndarray]
    right: tuple[np.ndarray, np.ndarray, np.ndarray]
    direction: np.ndarray


def split(X: np.ndarray, Y: np.ndarray, center: np.ndarray,
          est: PrincipalDirectionEstimator | None = None) -> SplitResult:
    """Bisect a local model's data by the hyperplane through `center`
    orthogonal to the principal direction.

    A row lands on the left iff its projection v.(x - center) is strictly
    positive; zero projections go right.  When the hyperplane leaves one side
    empty (the center may lag the centroid), the cut falls back to the median
    projection, then to a rank split, so both children are always non-empty.
    Identical rows have no principal direction; they go straight to the rank
    split, which keeps arrival order, and the reported direction is zero.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    center = np.asarray(center, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ContractViolationError("X rows and Y entries must match")
    if X.shape[0] < 2:
        raise ContractViolationError("cannot split fewer than two rows")

    try:
        v = principal_direction(X, est)
    except DegenerateDataError:
        v = np.zeros(X.shape[1])
    proj = (X - center) @ v
    left_mask = proj > 0.0
    n_left = int(left_mask.sum())
    if n_left == 0 or n_left == X.shape[0]:
        median = float(np.median(proj))
        left_mask = proj > median
        n_left = int(left_mask.sum())
    if n_left == 0 or n_left == X.shape[0]:
        order = np.argsort(proj, kind="stable")
        left_mask = np.zeros(X.shape[0], dtype=bool)
        left_mask[order[X.shape[0] // 2:]] = True

    right_mask = ~left_mask
    left = (X[left_mask], Y[left_mask], centroid(X[left_mask]))
    right = (X[right_mask], Y[right_mask], centroid(X[right_mask]))
    return SplitResult(left=left, right=right, direction=v)
