"""Principal-direction bisection of a local model's data.

The first principal component of the inputs defines a hyperplane through the
model's center; rows on the positive side form the left child, the rest the
right child.  The direction comes from a thin SVD of the mean-centered rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolationError, DegenerateDataError

_TIE_RTOL = 1e-9
_UNIT_TOL = 1e-12


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > _UNIT_TOL:
            return v if comp > 0.0 else -v
    return v


def principal_direction(X: np.ndarray) -> np.ndarray:
    """Unit vector along which the mean-centered rows vary most, from a thin
    SVD.  The sign is fixed by making the first nonzero component positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractViolationError("principal direction needs at least two rows")
    if np.all(X == X[0]):
        raise DegenerateDataError("all rows identical; no principal direction")
    _, s, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
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


@dataclass
class SplitResult:
    """Two (inputs, responses) pairs partitioning a parent's rows."""

    left: tuple[np.ndarray, np.ndarray]
    right: tuple[np.ndarray, np.ndarray]
    direction: np.ndarray


def split(X: np.ndarray, Y: np.ndarray, center: np.ndarray) -> SplitResult:
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
        v = principal_direction(X)
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
    return SplitResult(left=(X[left_mask], Y[left_mask]),
                       right=(X[right_mask], Y[right_mask]), direction=v)
