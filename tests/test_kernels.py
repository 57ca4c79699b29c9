import itertools
import math
import warnings

import numpy as np
import pytest

from splitgp.exceptions import ContractViolationError
from splitgp.kernels import (
    KernelSpec,
    Query,
    cross_gram,
    default_spec,
    gram,
    gram_gradients,
    gram_lower,
    scaled_cross_gram,
    scaled_rows,
)
from splitgp.model import ChildModel, SplittingGP, TrainSchedule


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)


class TestEval:
    def test_zero_distance_gives_signal_variance(self):
        spec = make_spec([1.0, 1.0], sf2=2.0)
        assert cross_gram([0.3, -0.7], [0.3, -0.7], spec)[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_unit_distance_analytic(self):
        spec = make_spec([1.0, 1.0])
        value = cross_gram([0.0, 0.0], [1.0, 0.0], spec)[0, 0]
        assert value == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_huge_lengthscale_suppresses_dimension(self):
        spec = make_spec([1.0, 1e12])
        value = cross_gram([0.0, 5.0], [1.0, -5.0], spec)[0, 0]
        assert value == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_dimension_mismatch_raises(self):
        spec = make_spec([1.0, 1.0])
        with pytest.raises(ContractViolationError):
            cross_gram([0.0], [1.0], spec)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        spec = make_spec([0.7, 1.3, 2.0], sf2=1.7)
        for _ in range(50):
            x, z = rng.normal(size=3), rng.normal(size=3)
            k_xz = cross_gram(x, z, spec)[0, 0]
            assert k_xz == pytest.approx(cross_gram(z, x, spec)[0, 0], rel=1e-14)
            assert 0.0 < k_xz <= spec.signal_variance
            if not np.array_equal(x, z):
                assert k_xz < spec.signal_variance

    def test_continuity_halving(self):
        # A non-stationary point of the map t -> k(x + t*d, z).
        spec = make_spec([1.0, 1.0])
        x = np.array([0.5, -0.2])
        z = np.array([-0.3, 0.4])
        d = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
        base = cross_gram(x, z, spec)[0, 0]
        deltas = [abs(cross_gram(x + h * d, z, spec)[0, 0] - base) for h in (1e-2, 5e-3, 2.5e-3)]
        for coarse, fine in zip(deltas, deltas[1:]):
            assert fine <= 0.5 * coarse * 1.25


class TestGram:
    def test_single_point_with_noise(self):
        spec = make_spec([1.0, 1.0], sf2=1.0, sn2=0.1)
        K = gram(np.array([[0.0, 0.0]]), spec, add_noise=True)
        assert K == pytest.approx(np.array([[1.1]]), abs=1e-15)

    def test_duplicated_rows_duplicate_entries(self):
        spec = make_spec([1.0, 1.0])
        X = np.array([[0.1, 0.2], [0.1, 0.2], [1.0, -1.0]])
        K = gram(X, spec, add_noise=False)
        assert np.array_equal(K[0], K[1])
        assert np.array_equal(K[:, 0], K[:, 1])

    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(1)
        spec = make_spec([0.5, 1.5], sf2=2.0, sn2=0.3)
        X = rng.normal(size=(3, 2))
        K = gram(X, spec, add_noise=False)
        for i in range(3):
            for j in range(3):
                assert abs(K[i, j] - cross_gram(X[i], X[j], spec)[0, 0]) < 1e-15

    def test_psd_with_noise(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 50):
            spec = make_spec(rng.uniform(0.3, 2.0, size=3), sf2=1.5, sn2=0.05)
            X = rng.normal(size=(n, 3))
            K = gram(X, spec, add_noise=True)
            assert np.linalg.eigvalsh(K).min() >= 0.0


class TestGramGradients:
    def test_signal_slot_is_noiseless_gram(self):
        rng = np.random.default_rng(3)
        spec = make_spec([0.8, 1.2], sf2=1.7, sn2=0.2)
        X = rng.normal(size=(5, 2))
        grads = gram_gradients(X, spec)
        assert np.allclose(grads[2], gram(X, spec, add_noise=False), atol=1e-15)

    def test_noise_slot_is_scaled_identity(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.3)
        X = np.linspace(0, 1, 4)[:, None]
        grads = gram_gradients(X, spec)
        assert np.allclose(grads[-1], 0.3 * np.eye(4), atol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(4)
        spec = make_spec([0.7, 1.4], sf2=2.0, sn2=0.15)
        X = rng.normal(size=(4, 2))
        grads = gram_gradients(X, spec)
        theta = spec.to_log_vector()
        h = 1e-6
        for j in range(theta.size):
            lift = np.zeros_like(theta)
            lift[j] = h
            plus = gram(X, spec.with_log_vector(theta + lift), add_noise=True)
            minus = gram(X, spec.with_log_vector(theta - lift), add_noise=True)
            fd = (plus - minus) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-10)
            assert np.abs(fd - grads[j]).max() / scale < 1e-5


class TestHyperparameters:
    def test_log_round_trip(self):
        hp = KernelSpec(np.array([0.5, 2.0, 7.0]), 3.0, 0.25)
        back = hp.with_log_vector(hp.to_log_vector())
        assert np.allclose(back.lengthscales, hp.lengthscales, rtol=1e-15)
        assert back.signal_variance == pytest.approx(3.0, rel=1e-15)
        assert back.noise_variance == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("ls,sf2,sn2", [
        ([0.0, 1.0], 1.0, 0.1),
        ([-1.0], 1.0, 0.1),
        ([np.inf], 1.0, 0.1),
        ([1.0], 0.0, 0.1),
        ([1.0], -2.0, 0.1),
        ([1.0], 1.0, -0.1),
    ])
    def test_invalid_values_raise(self, ls, sf2, sn2):
        with pytest.raises(ContractViolationError):
            KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)

    def test_default_spec_follows_sample_variance(self):
        y = np.array([1.0, 3.0, 5.0])
        spec = default_spec(y, ndim=2)
        assert np.array_equal(spec.lengthscales, [1.0, 1.0])
        assert spec.signal_variance == pytest.approx(np.var(y))
        assert spec.noise_variance == pytest.approx(0.1 * np.var(y))


def test_cross_gram_shape_and_consistency():
    rng = np.random.default_rng(5)
    spec = make_spec([1.0, 1.0, 1.0])
    X, Z = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
    K = cross_gram(X, Z, spec)
    assert K.shape == (4, 6)
    assert K[2, 3] == pytest.approx(cross_gram(X[2], Z[3], spec)[0, 0], rel=1e-14)


def textbook_cross_gram(X, Z, spec):
    diff = (X[:, None, :] - Z[None, :, :]) / spec.lengthscales
    return spec.signal_variance * np.exp(-0.5 * np.sum(diff * diff, axis=2))


class TestOneBufferGram:
    def test_gram_is_bitwise_symmetric_with_exact_diagonal(self):
        rng = np.random.default_rng(6)
        for (n, d), offset in itertools.product(((1, 1), (7, 3), (300, 8), (1100, 2)), (0, 1e3)):
            spec = make_spec(rng.uniform(0.3, 2.0, size=d), sf2=1.7, sn2=0.3)
            X = rng.normal(size=(n, d)) + offset
            for add_noise, diag in ((False, 1.7), (True, 1.7 + 0.3)):
                K = gram(X, spec, add_noise=add_noise)
                assert np.array_equal(K, K.T)
                assert np.all(np.diagonal(K) == diag)

    @pytest.mark.parametrize("n,p", [(1, 40), (40, 1), (37, 53), (0, 5), (300, 100)])
    def test_cross_gram_matches_textbook(self, n, p):
        rng = np.random.default_rng(7)
        spec = make_spec(rng.uniform(0.5, 2.0, size=3), sf2=1.3)
        X, Z = rng.normal(size=(n, 3)), rng.normal(size=(p, 3))
        K = cross_gram(X, Z, spec)
        expected = textbook_cross_gram(X, Z, spec)
        assert K.shape == (n, p)
        assert np.all(np.abs(K - expected) <= 1e-12 * expected)

    def test_cross_gram_returns_fresh_array(self):
        rng = np.random.default_rng(8)
        spec = make_spec([1.0, 1.0])
        X, Z = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        X0, Z0 = X.copy(), Z.copy()
        K = cross_gram(X, Z, spec)
        assert not np.shares_memory(K, X) and not np.shares_memory(K, Z)
        K[:] = -1.0
        assert np.array_equal(X, X0) and np.array_equal(Z, Z0)
        assert not np.shares_memory(cross_gram(X, X, spec), X)
        assert not np.shares_memory(gram(X, spec), X)

    def test_gram_into_given_buffer(self):
        rng = np.random.default_rng(10)
        spec = make_spec([0.7, 1.9, 1.1], sf2=1.4, sn2=0.2)
        X = rng.normal(size=(120, 3)) + 1e3
        for add_noise in (False, True):
            buffer = np.full((120, 120), np.nan)
            K = gram(X, spec, add_noise=add_noise, out=buffer)
            assert K is buffer
            assert np.array_equal(K, gram(X, spec, add_noise=add_noise))
            assert np.array_equal(K, K.T)

    def test_sq_dist_orders_like_similarity(self):
        # The pool routes a row to the child with the largest kernel similarity.
        rng = np.random.default_rng(9)
        spec = make_spec([0.4, 2.5], sf2=0.8)
        x, centers = rng.normal(size=(1, 2)), rng.normal(size=(30, 2))
        model = SplittingGP(40, spec=spec, train_schedule=TrainSchedule.never())
        model.children = [ChildModel(c[None, :], [0.0]) for c in centers]
        idx, d2 = model._nearest(Query.of(x, spec))
        diff = (x[0] - centers[idx]) / spec.lengthscales
        assert d2 == pytest.approx(diff @ diff, rel=1e-12, abs=1e-14)
        model.update(x[0], 0.0)
        assert [c.n for c in model.children] == [1 + (j == idx) for j in range(30)]
        assert idx == np.argmax(cross_gram(x, centers, spec)[0])


class TestCrossGramBlock:
    """`scaled_cross_gram` builds a block in one GEMM over augmented rows."""

    @staticmethod
    def _block(X, Z, spec):
        return scaled_cross_gram(Query.of(X, spec).aug, scaled_rows(Z, spec),
                                 spec.signal_variance)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("p", [0, 1, 65, 300])
    @pytest.mark.parametrize("B", [0, 1, 3, 700])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_textbook(self, d, B, p, offset):
        # The GEMM sums terms as large as |x / l|^2 / 2 and |z / l|^2 / 2, so
        # its rounding error in -D / 2 scales with them, as `gram_lower`'s
        # does: 1e-14 relative per unit of 1 + a_i + b_j.
        rng = np.random.default_rng(15)
        spec = make_spec(rng.uniform(0.5, 2.0, size=d), sf2=1.3)
        X, Z = rng.normal(size=(B, d)) + offset, rng.normal(size=(p, d)) + offset
        K = self._block(X, Z, spec)
        assert K.shape == (B, p) and K.T.flags.f_contiguous
        a = np.sum((X / spec.lengthscales) ** 2, axis=1)
        b = np.sum((Z / spec.lengthscales) ** 2, axis=1)
        expected = textbook_cross_gram(X, Z, spec)
        assert np.all(np.abs(K - expected) <= 1e-14 * (1.0 + a[:, None] + b) * expected)

    def test_overflowing_query_norm_gives_exact_zeros(self):
        rng = np.random.default_rng(16)
        spec = make_spec([1.0, 0.5], sf2=1.3)
        X = np.array([[0.3, -0.2], [1e200, 0.0], [0.0, -1e160]])
        Z = rng.normal(size=(40, 2))
        with np.errstate(over="ignore"):  # |x / l|^2 overflows to inf
            query = Query.of(X, spec)
        assert np.isinf(query.norms[1:]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = scaled_cross_gram(query.aug, scaled_rows(Z, spec), 1.3)
        assert np.all(K[1:] == 0.0) and not np.isnan(K).any()
        expected = textbook_cross_gram(X[:1], Z, spec)
        assert np.all(np.abs(K[:1] - expected) <= 1e-14 * expected)


class TestGramLower:
    """`gram_lower` builds one triangle; `gram` is that triangle mirrored."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 300])
    def test_matches_textbook(self, n, d):
        rng = np.random.default_rng(11)
        spec = make_spec(rng.uniform(0.5, 2.0, size=d), sf2=1.3, sn2=0.4)
        X = rng.normal(size=(n, d))
        for add_noise in (False, True):
            K = gram_lower(X, spec, add_noise=add_noise)
            assert K.shape == (n, n) and K.flags.f_contiguous
            expected = textbook_cross_gram(X, X, spec)
            lower = np.tril_indices(n, -1)
            assert np.all(np.abs(K[lower] - expected[lower]) <= 1e-12 * expected[lower])
            assert np.all(np.diagonal(K) == (1.3 + 0.4 if add_noise else 1.3))

    def test_is_the_lower_triangle_of_gram(self):
        rng = np.random.default_rng(12)
        ulp = 4 * np.spacing(1.6)
        for (n, d), offset in itertools.product(((1, 1), (65, 3), (300, 8)), (0.0, 1e3)):
            spec = make_spec(rng.uniform(0.3, 2.0, size=d), sf2=1.6, sn2=0.2)
            X = rng.normal(size=(n, d)) + offset
            for add_noise in (False, True):
                lower = np.tril(gram_lower(X, spec, add_noise=add_noise))
                assert np.all(np.abs(lower - np.tril(gram(X, spec, add_noise=add_noise))) <= ulp)

    def test_into_given_buffer(self):
        rng = np.random.default_rng(13)
        spec = make_spec([0.7, 1.9, 1.1], sf2=1.4, sn2=0.2)
        X = rng.normal(size=(130, 3)) + 1e3
        for add_noise in (False, True):
            buffer = np.full((130, 130), np.nan, order="F")
            K = gram_lower(X, spec, add_noise=add_noise, out=buffer)
            assert np.shares_memory(K, buffer)
            assert np.array_equal(np.tril(buffer), np.tril(gram_lower(X, spec, add_noise)))

    @pytest.mark.parametrize("buffer", [np.empty((5, 5)), np.empty((5, 4), order="F"),
                                        np.empty((5, 5), dtype=np.float32, order="F")])
    def test_bad_buffer_rejected(self, buffer):
        X = np.random.default_rng(14).normal(size=(5, 2))
        with pytest.raises(ContractViolationError):
            gram_lower(X, make_spec([1.0, 1.0]), out=buffer)
