import numpy as np
import pytest

from splitgp import KernelSpec, SplittingGP, TrainSchedule
from splitgp.exceptions import ContractViolationError, DegenerateDataError
from splitgp.partition import principal_direction, split


class TestPrincipalDirection:
    def test_axis_aligned_spread(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
        v = principal_direction(X)
        assert np.allclose(v, [1.0, 0.0], atol=1e-12)

    def test_symmetric_cross_is_deterministic(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        v1 = principal_direction(X)
        v2 = principal_direction(X)
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        # Tie broken toward the lowest coordinate axis with the sign rule.
        assert np.allclose(v1, [1.0, 0.0], atol=1e-12)

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3)) * np.array([3.0, 1.0, 0.5])
        v = principal_direction(X)
        centered = X - X.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        oracle = vecs[:, -1]
        assert abs(v @ oracle) > 1.0 - 1e-10

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 40):
            X = rng.normal(size=(n, 4))
            assert np.linalg.norm(principal_direction(X)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_rows_degenerate(self):
        X = np.tile([1.0, 2.0], (5, 1))
        with pytest.raises(DegenerateDataError):
            principal_direction(X)

    def test_single_row_rejected(self):
        with pytest.raises(ContractViolationError):
            principal_direction(np.array([[1.0, 2.0]]))


class TestSplit:
    def test_hand_traced_example(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
        Y = np.array([1.0, 2.0, 3.0, 4.0])
        result = split(X, Y, np.array([2.0, 0.0]))
        lX, lY = result.left
        rX, rY = result.right
        assert np.array_equal(lX, [[3.0, 0.0], [5.0, 0.0]])
        assert np.array_equal(lY, [3.0, 4.0])
        assert np.array_equal(rX, [[-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(rY, [1.0, 2.0])

    def test_boundary_point_goes_right(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        result = split(X, np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0]))
        # Projection of the middle row is exactly zero: assigned right.
        assert np.array_equal(result.left[0], [[2.0, 0.0]])
        assert np.array_equal(result.right[0], [[0.0, 0.0], [1.0, 0.0]])

    def test_mirrored_data_swaps_sides(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2)) * np.array([3.0, 1.0])
        Y = rng.normal(size=30)
        c = X.mean(axis=0)
        res = split(X, Y, c)
        res_m = split(-X, Y, -c)
        assert np.array_equal(np.sort(res.left[1]), np.sort(res_m.right[1]))
        assert np.array_equal(np.sort(res.right[1]), np.sort(res_m.left[1]))

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(57, 3))
        Y = rng.normal(size=57)
        res = split(X, Y, X.mean(axis=0))
        n_left = res.left[0].shape[0]
        assert n_left + res.right[0].shape[0] == 57
        assert 0 < n_left < 57
        merged = np.vstack([res.left[0], res.right[0]])
        key = np.lexsort(X.T)
        key_m = np.lexsort(merged.T)
        assert np.array_equal(X[key], merged[key_m])

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_split_children_centers_are_bitwise_row_means(self, ndim):
        # Each child of a split, and each later append, derives its center
        # from its own rows.
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, ndim)) * 10.0 ** rng.integers(-2, 3, size=(120, 1))
        model = SplittingGP(10, KernelSpec(np.ones(ndim), 1.0, 0.1), TrainSchedule.never())
        for t, x in enumerate(X):
            model.update(x, float(t))
            for child in model.children:
                assert child.center.tobytes() == child.X.mean(axis=0).tobytes()
        assert model.n_children > 4

    def test_offset_center_falls_back_to_median(self):
        # Center far outside the data puts every projection on one side.
        rng = np.random.default_rng(8)
        X = rng.normal(size=(21, 2))
        Y = rng.normal(size=21)
        res = split(X, Y, np.array([100.0, 0.0]))
        assert res.left[0].shape[0] > 0
        assert res.right[0].shape[0] > 0
        assert res.left[0].shape[0] + res.right[0].shape[0] == 21

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        Y = rng.normal(size=40)
        c = X.mean(axis=0)
        r1, r2 = split(X, Y, c), split(X, Y, c)
        assert np.array_equal(r1.left[0], r2.left[0])
        assert np.array_equal(r1.direction, r2.direction)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ContractViolationError):
            split(np.array([[1.0]]), np.array([2.0]), np.array([1.0]))


def test_pddp_beats_random_hyperplanes_on_clustered_data():
    rng = np.random.default_rng(10)
    direction = np.array([0.8, 0.6])
    labels = rng.random(150) < 0.5
    X = rng.normal(size=(150, 2)) + np.where(labels, 4.0, -4.0)[:, None] * direction
    c = X.mean(axis=0)
    res = split(X, np.zeros(150), c)
    pddp_wcv = sum(
        float(np.sum((S - S.mean(axis=0)) ** 2)) for S in (res.left[0], res.right[0])
    )
    for _ in range(50):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        mask = (X - c) @ v > 0
        if mask.all() or not mask.any():
            continue
        rand_wcv = sum(
            float(np.sum((S - S.mean(axis=0)) ** 2)) for S in (X[mask], X[~mask])
        )
        assert pddp_wcv <= rand_wcv
