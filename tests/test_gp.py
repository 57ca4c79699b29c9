import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.blas import dtpsv, dtrsv
from scipy.linalg.lapack import dtrtri

import splitgp.gp as gp_module
from splitgp.exceptions import ContractViolationError, NumericalError
from splitgp.gp import (
    FitSchedule,
    GpPosterior,
    fit,
    lml_gradient,
    log_marginal_likelihood,
    posterior_mean,
    posterior_variance,
)
from splitgp.kernels import KernelSpec, Query, gram, gram_gradients


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)


# Dense direct-solve oracle, deliberately avoiding the Cholesky code path.

def oracle_mean(X, Y, spec, x_star):
    K = gram(X, spec, add_noise=True)
    ks = gram(np.vstack([x_star[None, :], X]), spec, add_noise=False)[0, 1:]
    return ks @ np.linalg.solve(K, Y)


def oracle_variance(X, Y, spec, x_star):
    K = gram(X, spec, add_noise=True)
    ks = gram(np.vstack([x_star[None, :], X]), spec, add_noise=False)[0, 1:]
    return spec.signal_variance - ks @ np.linalg.solve(K, ks)


def oracle_lml(X, Y, spec):
    K = gram(X, spec, add_noise=True)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * Y @ np.linalg.solve(K, Y) - 0.5 * logdet - 0.5 * len(Y) * math.log(2 * math.pi)


class TestPosteriorMean:
    def test_noiseless_interpolation_single_point(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        x = np.array([0.3])
        post = GpPosterior(x[None, :], np.array([3.0]), spec)
        assert posterior_mean(post, x) == pytest.approx(3.0, abs=1e-12)

    def test_three_point_dense_oracle(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.1)
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([0.0, 1.0, 0.0])
        post = GpPosterior(X, Y, spec)
        x_star = np.array([0.5])
        assert posterior_mean(post, x_star) == pytest.approx(
            oracle_mean(X, Y, spec, x_star), abs=1e-10
        )

    def test_linear_in_responses(self):
        rng = np.random.default_rng(0)
        spec = make_spec([1.0, 1.0], sn2=0.2)
        X = rng.normal(size=(6, 2))
        y1, y2 = rng.normal(size=6), rng.normal(size=6)
        x_star = rng.normal(size=2)
        m1 = posterior_mean(GpPosterior(X, y1, spec), x_star)
        m2 = posterior_mean(GpPosterior(X, y2, spec), x_star)
        m12 = posterior_mean(GpPosterior(X, 2.0 * y1 - 3.0 * y2, spec), x_star)
        assert m12 == pytest.approx(2.0 * m1 - 3.0 * m2, rel=1e-10, abs=1e-12)


class TestPosteriorVariance:
    def test_zero_at_training_point_noiseless(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        X = np.array([[-1.0], [0.5], [2.0]])
        post = GpPosterior(X, np.array([1.0, -1.0, 0.5]), spec)
        assert abs(posterior_variance(post, X[1])) < 1e-10

    def test_three_point_dense_oracle(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.1)
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([0.0, 1.0, 0.0])
        post = GpPosterior(X, Y, spec)
        x_star = np.array([0.5])
        assert posterior_variance(post, x_star) == pytest.approx(
            oracle_variance(X, Y, spec, x_star), abs=1e-8
        )

    def test_bounded_by_signal_variance(self):
        rng = np.random.default_rng(1)
        spec = make_spec([0.8, 1.1], sf2=2.3, sn2=0.05)
        X = rng.normal(size=(10, 2))
        post = GpPosterior(X, rng.normal(size=10), spec)
        for _ in range(25):
            v = posterior_variance(post, rng.normal(size=2))
            assert 0.0 <= v <= 2.3 + 1e-12


class TestLogMarginalLikelihood:
    def test_scalar_analytic_case(self):
        spec = make_spec([1.0], sf2=1.0, sn2=1.0)
        post = GpPosterior(np.array([[0.0]]), np.array([0.0]), spec)
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert log_marginal_likelihood(post) == pytest.approx(expected, abs=1e-12)

    def test_zero_response_maximizes_data_fit(self):
        rng = np.random.default_rng(2)
        spec = make_spec([1.0, 1.0], sn2=0.3)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        lml_zero = log_marginal_likelihood(GpPosterior(X, np.zeros(5), spec))
        lml_y = log_marginal_likelihood(GpPosterior(X, Y, spec))
        assert lml_zero >= lml_y

    def test_dense_oracle(self):
        rng = np.random.default_rng(3)
        spec = make_spec([0.9, 1.3], sf2=1.5, sn2=0.2)
        X = rng.normal(size=(4, 2))
        Y = rng.normal(size=4)
        post = GpPosterior(X, Y, spec)
        assert log_marginal_likelihood(post) == pytest.approx(
            oracle_lml(X, Y, spec), abs=1e-9
        )

    def test_empty_rejected(self):
        # A posterior holds at least one observation, so there is no empty
        # log marginal likelihood to take.
        for X in (np.zeros((0, 1)), np.zeros(0)):
            with pytest.raises(ContractViolationError):
                GpPosterior(X, np.zeros(0), make_spec([1.0]))


class TestGradient:
    def test_signal_gradient_negative_at_zero_response(self):
        rng = np.random.default_rng(4)
        spec = make_spec([1.0, 1.0], sn2=0.3)
        X = rng.normal(size=(5, 2))
        post = GpPosterior(X, np.zeros(5), spec)
        grad = lml_gradient(post)
        assert grad[2] < 0.0  # signal-variance slot

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(5)
        spec = make_spec([0.8, 1.4], sf2=1.6, sn2=0.25)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        post = GpPosterior(X, Y, spec)
        grad = lml_gradient(post)
        theta = spec.to_log_vector()
        h = 1e-5
        for j in range(theta.size):
            lift = np.zeros_like(theta)
            lift[j] = h
            sp, sm = spec.with_log_vector(theta + lift), spec.with_log_vector(theta - lift)
            fd = (
                log_marginal_likelihood(GpPosterior(X, Y, sp))
                - log_marginal_likelihood(GpPosterior(X, Y, sm))
            ) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(fd), 1e-8) < 1e-4

    def test_gradient_small_at_converged_optimum(self):
        # The fit maximizes the LML plus a log-normal prior centred at the
        # warm start, so at its optimum that sum's gradient vanishes.
        rng = np.random.default_rng(6)
        X = np.sort(rng.uniform(-2, 2, size=24))[:, None]
        Y = np.sin(1.5 * X[:, 0]) + rng.normal(0, 0.1, size=24)
        start = make_spec([1.0], sf2=1.0, sn2=0.1)
        result = fit([(X, Y)], start, FitSchedule(max_iters=500))
        assert result.converged
        post = GpPosterior(X, Y, result.spec)
        pull = (result.spec.to_log_vector() - start.to_log_vector()) / gp_module.PRIOR_SCALE**2
        assert np.abs(pull).max() > 1e-2  # the prior term is not negligible
        assert np.abs(lml_gradient(post) - pull).max() < 1e-3


def tensor_gradient(post, spec):
    """The trace identity over the explicit (d+2) x n x n tensor of Gram derivatives."""
    K_inv = cho_solve((post.chol, True), np.eye(post.n))
    inner = np.outer(post.alpha, post.alpha) - K_inv
    return 0.5 * np.einsum("ij,kij->k", inner, gram_gradients(post.X, spec))


class TestGradientOracle:
    """`lml_gradient` against the tensor form of the same trace identity."""

    @staticmethod
    def gap(post, spec):
        expected = tensor_gradient(post, spec)
        return np.abs(lml_gradient(post) - expected).max() / np.abs(expected).max()

    def test_random_shards(self):
        rng = np.random.default_rng(13)
        for trial in range(40):
            n, d = int(rng.integers(2, 301)), int(rng.integers(1, 9))
            spec = make_spec(np.exp(rng.uniform(-1, 1, d)), sf2=float(np.exp(rng.uniform(-1, 1))),
                             sn2=float(np.exp(rng.uniform(-5, 0))))
            offset = 1e3 if trial % 3 == 0 else 0.0  # shift-invariance, cancellation
            X = rng.normal(size=(n, d)) + offset
            post = GpPosterior(X, rng.normal(size=n), spec)
            assert self.gap(post, spec) <= 1e-8, (n, d, offset)

    def test_extended_factor(self):
        rng = np.random.default_rng(14)
        spec = make_spec([0.8, 1.3], sf2=1.4, sn2=0.05)
        X, Y = rng.normal(size=(40, 2)), rng.normal(size=40)
        post = GpPosterior(X[:30], Y[:30], spec)
        for i in range(30, 40):
            assert post.append(X[:i + 1], Y[i], 40, Query.of(X[i:i + 1], spec).aug)
        assert self.gap(post, spec) <= 1e-8

    @pytest.mark.parametrize("r", [1e2, 1e8, 1e150])
    def test_one_far_row(self, r):
        # Against the pairwise form sum_ij P_ij (x_i - x_j)^2 / 2, in which
        # the far row's entries of P are exactly 0 at every distance.
        X = np.random.default_rng(0).uniform(-1, 1, (20, 2))
        X[3] = [r, 0.0]
        spec = make_spec([1.0, 1.0], sf2=1.0, sn2=0.1)
        post = GpPosterior(X, np.random.default_rng(1).normal(size=20), spec)
        W = np.outer(post.alpha, post.alpha) - cho_solve((post.chol, True), np.eye(20))
        P = W * gram(X, spec)
        exact = 0.5 * np.sum(P * (X[:, None, 0] - X[None, :, 0]) ** 2)
        assert abs(lml_gradient(post)[0] - exact) <= 1e-12 * abs(exact)

    def test_jittered_duplicate_shard(self):
        # Duplicate rows at sn2 = 0 make K singular, so the factor needs jitter
        # and K^-1 is ill-conditioned.  Both formulas then lose digits in
        # proportion to cond(K + jitter I); the bound allows 10 eps cond.
        rng = np.random.default_rng(15)
        spec = make_spec([1.0, 0.7], sf2=1.2, sn2=0.0)
        for offset in (0.0, 1e3):
            rows = np.repeat(np.arange(12), 2)
            X = rng.uniform(-2, 2, size=(12, 2))[rows] + offset
            Y = np.sin(X.sum(axis=1))
            post = GpPosterior(X, Y, spec)
            assert post.jitter > 0.0
            K = gram(X, spec, add_noise=True) + post.jitter * np.eye(X.shape[0])
            bound = max(1e-8, 10.0 * np.finfo(float).eps * np.linalg.cond(K))
            assert self.gap(post, spec) <= bound

    def test_jittered_duplicate_shard_against_exact_reference(self):
        # The same shards as above, now against the trace identity evaluated
        # at 40 digits, which bounds the error of the expanded lengthscale
        # term itself rather than its gap to another floating-point formula.
        # The reference takes the jittered Gram matrix the posterior
        # factorized, as stored: at offset 1e3 that matrix is itself off the
        # exact kernel by far more than eps, which is `gram`'s error, not
        # the gradient's.
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 40
        rng = np.random.default_rng(15)
        spec = make_spec([1.0, 0.7], sf2=1.2, sn2=0.0)
        for offset in (0.0, 1e3):
            rows = np.repeat(np.arange(12), 2)
            X = rng.uniform(-2, 2, size=(12, 2))[rows] + offset
            Y = np.sin(X.sum(axis=1))
            post = GpPosterior(X, Y, spec)
            assert post.jitter > 0.0
            n, d = X.shape
            ls = [mp.mpf(v) for v in spec.lengthscales]
            sq = [[[(mp.mpf(X[i, k]) - mp.mpf(X[j, k])) ** 2 / ls[k] ** 2 for k in range(d)]
                   for j in range(n)] for i in range(n)]
            K = gram(X, spec, add_noise=True)
            K.flat[::n + 1] += post.jitter  # as the posterior's factorization does
            K_f = mp.matrix(gram(X, spec).tolist())
            K_inv = mp.matrix(K.tolist()) ** -1
            alpha = K_inv * mp.matrix([mp.mpf(y) for y in Y])
            P = [[(alpha[i] * alpha[j] - K_inv[i, j]) * K_f[i, j] for j in range(n)]
                 for i in range(n)]
            exact = [sum(P[i][j] * sq[i][j][k] for i in range(n) for j in range(n)) / 2
                     for k in range(d)]
            exact = np.array([float(v) for v in exact + [sum(map(sum, P)) / 2, 0]])
            bound = 10.0 * np.finfo(float).eps * np.linalg.cond(K)
            error = np.abs(lml_gradient(post) - exact).max() / np.abs(exact).max()
            assert error <= bound, (offset, error, bound)

    def test_reused_gram_gives_the_same_gradient(self):
        rng = np.random.default_rng(16)
        spec = make_spec([0.9, 1.1, 0.6], sf2=1.3, sn2=0.2)
        X, Y = rng.normal(size=(50, 3)), rng.normal(size=50)
        K = gram(X, spec, add_noise=True)
        post = GpPosterior(X, Y, spec, K)
        fresh = GpPosterior(X, Y, spec)
        assert np.array_equal(post.chol, fresh.chol)
        assert np.array_equal(post.alpha, fresh.alpha)
        assert np.array_equal(lml_gradient(post, K), lml_gradient(post))


class TestInvertLower:
    """`gp._invert_lower` against LAPACK `dtrtri` on Cholesky factors of
    sizes around the block size and its multiples."""

    @staticmethod
    def factor(kind, n):
        rng = np.random.default_rng(n)
        if kind == "jittered":  # duplicate rows at sn2 = 0
            spec = make_spec([0.9, 1.3], sf2=1.1, sn2=0.0)
            X = rng.uniform(-2, 2, size=((n + 1) // 2, 2))[np.repeat(np.arange(n), 2)[:n]]
            post = GpPosterior(X, rng.normal(size=n), spec)
            assert (post.jitter > 0.0) == (n > 1)
            return post.chol
        spec = make_spec([0.9, 1.3], sf2=1.1, sn2=0.1)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=n)
        if kind == "plain":
            return GpPosterior(X, Y, spec).chol
        post = GpPosterior(X[:(n + 1) // 2], Y[:(n + 1) // 2], spec)
        for i in range((n + 1) // 2, n):
            assert post.append(X[:i + 1], Y[i], n, Query.of(X[i:i + 1], spec).aug)
        return post.chol

    @pytest.mark.parametrize("kind", ["plain", "jittered", "grown"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300, 401])
    def test_matches_dtrtri(self, kind, n):
        L = self.factor(kind, n)
        expected, info = dtrtri(L, lower=1)
        assert info == 0
        bound = 10.0 * np.finfo(float).eps * np.linalg.cond(L)
        for order in "FC":  # a grown posterior's gradient inverts a C-ordered array
            H = np.array(L, order=order)
            gp_module._invert_lower(H)
            assert np.abs(H - expected).max() <= bound * np.abs(expected).max(), order
            assert np.all(np.triu(H, 1) == 0.0)

    @pytest.mark.parametrize("pivot", [0, 40, 64, 100, 128])
    def test_zero_pivot_raises(self, pivot):
        L = self.factor("plain", 129)
        L[pivot, pivot] = 0.0
        with pytest.raises(NumericalError):
            gp_module._invert_lower(np.array(L, order="F"))


def test_fit_builds_one_gram_per_factorization(monkeypatch):
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, size=(60, 2))
    Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=60)
    shards = [(X[:30], Y[:30]), (X[30:], Y[30:])]
    grams, posteriors = [], []
    gram_fn, init = gp_module.gram_lower, GpPosterior.__init__
    monkeypatch.setattr(gp_module, "gram_lower",
                        lambda *a, **k: grams.append(1) or gram_fn(*a, **k))
    monkeypatch.setattr(GpPosterior, "__init__",
                        lambda self, *a, **k: posteriors.append(1) or init(self, *a, **k))
    result = fit(shards, make_spec([1.0, 1.0], sn2=0.1), FitSchedule(max_iters=10))
    assert result.iterations > 1
    assert len(grams) == len(posteriors)


class TestBufferReuse:
    """The fit reuses its n x n arrays instead of allocating them afresh.

    Freeing and allocating MB-sized arrays per call returns pages to the OS
    and faults them in again; these tests pin down that the hot path does not.
    """

    def test_posterior_factorizes_into_the_given_buffer(self):
        rng = np.random.default_rng(18)
        for sn2, rows in ((0.1, np.arange(40)), (0.0, np.repeat(np.arange(20), 2))):
            spec = make_spec([0.9, 1.2], sf2=1.1, sn2=sn2)
            X = rng.normal(size=(20 if sn2 == 0.0 else 40, 2))[rows]
            Y = rng.normal(size=40)
            K = gram(X, spec, add_noise=True)
            buffer = GpPosterior(X, rng.normal(size=40), spec).chol
            post = GpPosterior(X, Y, spec, K, buffer)
            fresh = GpPosterior(X, Y, spec)
            assert np.shares_memory(post.chol, buffer)
            assert post.jitter == fresh.jitter and (post.jitter > 0.0) == (sn2 == 0.0)
            assert np.array_equal(post.chol, fresh.chol)
            assert np.array_equal(post.alpha, fresh.alpha)

    def test_own_gram_factorized_in_place(self):
        # Without K, the posterior factorizes the Gram matrix it builds; the
        # factor is bitwise the one of a separate copy, plain and jittered.
        rng = np.random.default_rng(24)
        for sn2, rows in ((0.1, np.arange(40)), (0.0, np.repeat(np.arange(20), 2))):
            spec = make_spec([0.9, 1.2], sf2=1.1, sn2=sn2)
            X = rng.normal(size=(40, 2))[rows]
            post = GpPosterior(X, rng.normal(size=40), spec)
            K = gram(X, spec, add_noise=True)
            assert (post.jitter > 0.0) == (sn2 == 0.0)
            assert np.array_equal(post.chol, cholesky(K + post.jitter * np.eye(40), lower=True))
            assert np.array_equal(post.chol, GpPosterior(X, post.Y, spec, K).chol)

    def test_build_holds_one_n_by_n_array(self):
        rng = np.random.default_rng(25)
        n = 400
        spec = make_spec([0.8, 1.4], sf2=1.2, sn2=0.1)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=n)
        tracemalloc.start()
        try:
            GpPosterior(X, Y, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_wrong_buffer_shape_rejected(self):
        with pytest.raises(ContractViolationError):
            GpPosterior(np.zeros((3, 1)), np.zeros(3), make_spec([1.0]), None,
                        np.zeros((2, 2), order="F"))

    # A grown posterior's `chol` unpacks into a fresh array, which the
    # gradient then uses as its one n x n array instead of copying it again.
    @pytest.mark.parametrize("kind", ["fresh", "grown"])
    def test_gradient_allocates_one_n_by_n_array(self, kind):
        rng = np.random.default_rng(19)
        n = 400
        spec = make_spec([0.8, 1.4], sf2=1.2, sn2=0.1)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=n)
        K = gram(X, spec, add_noise=True)
        if kind == "fresh":
            post = GpPosterior(X, Y, spec, K)
        else:
            post = GpPosterior(X[:-1], Y[:-1], spec)
            assert post.append(X, Y[-1], n, Query.of(X[-1:], spec).aug)
        tracemalloc.start()
        try:
            lml_gradient(post, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_candidate_built_in_spare_arrays(self):
        rng = np.random.default_rng(20)
        spec = make_spec([1.0, 0.6], sf2=1.3, sn2=0.2)
        shards = [(rng.normal(size=(n, 2)), rng.normal(size=n)) for n in (30, 45)]
        theta = spec.to_log_vector() + 0.1
        _, spare = gp_module._shard_lml(spec.to_log_vector(), shards, spec)
        buffers = [(post.chol, K) for post, K in spare]
        total, fitted = gp_module._shard_lml(theta, shards, spec, spare)
        fresh_total, fresh = gp_module._shard_lml(theta, shards, spec)
        assert total == fresh_total
        for (post, K), (chol, K_buf), (post0, K0) in zip(fitted, buffers, fresh):
            assert np.shares_memory(post.chol, chol) and np.shares_memory(K, K_buf)
            assert np.array_equal(post.chol, post0.chol)
            assert np.array_equal(np.tril(K), np.tril(K0))  # the triangle a fit builds
            assert np.array_equal(post.alpha, post0.alpha)

    # From a short and a long warm start alike, the optimizer's line search
    # makes evaluations it rejects; those reuse the arrays too.
    @pytest.mark.parametrize("start_lengthscale", [0.25, 4.0])
    def test_fit_allocates_one_candidate(self, monkeypatch, start_lengthscale):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, size=(90, 2))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=90)
        shards = [(X[:30], Y[:30]), (X[30:], Y[30:])]
        fresh = []
        gram_fn = gp_module.gram_lower
        monkeypatch.setattr(gp_module, "gram_lower", lambda *a, out=None, **k: fresh.append(
            out is None) or gram_fn(*a, out=out, **k))
        result = fit(shards, make_spec([start_lengthscale] * 2, sn2=0.1),
                     FitSchedule(max_iters=10))
        assert result.iterations > 2
        # The first evaluation allocates; every later one overwrites its arrays.
        assert sum(fresh) == len(shards) < len(fresh)


class TestLowerTriangle:
    """Only the strictly lower triangle of a Gram matrix is read, plus the
    diagonal where a posterior factorizes it: NaN above the diagonal changes
    no bit of any result."""

    @staticmethod
    def shard(kind):
        rng = np.random.default_rng(26)
        if kind == "jittered":  # duplicate rows at sn2 = 0
            spec = make_spec([0.9, 1.3], sf2=1.1, sn2=0.0)
            X = rng.uniform(-2, 2, size=(35, 2))[np.repeat(np.arange(35), 2)] + 1e3
        else:
            spec = make_spec([0.9, 1.3], sf2=1.1, sn2=0.1)
            X = rng.normal(size=(70, 2))
        return X, rng.normal(size=70), spec

    @staticmethod
    def nan_above(K):
        K = K.copy(order="K")
        K[np.triu_indices(K.shape[0], 1)] = np.nan
        return K

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("kind", ["plain", "jittered"])
    def test_posterior_and_fresh_gradient(self, kind, order):
        X, Y, spec = self.shard(kind)
        K = np.array(gram(X, spec, add_noise=True), order=order)
        full, part = GpPosterior(X, Y, spec, K), GpPosterior(X, Y, spec, self.nan_above(K))
        assert (full.jitter > 0.0) == (kind == "jittered") and part.jitter == full.jitter
        assert np.array_equal(part.chol, full.chol)
        assert np.array_equal(part.alpha, full.alpha)
        assert log_marginal_likelihood(part) == log_marginal_likelihood(full)
        assert np.array_equal(lml_gradient(part, self.nan_above(K)),
                              lml_gradient(full, K))

    @pytest.mark.parametrize("order", "CF")
    def test_grown_gradient(self, order):
        X, Y, spec = self.shard("plain")
        post = GpPosterior(X[:60], Y[:60], spec)
        for i in range(60, 70):
            assert post.append(X[:i + 1], Y[i], 70, Query.of(X[i:i + 1], spec).aug)
        K = np.array(gram(X, spec), order=order)
        grad = lml_gradient(post, K)
        assert np.all(np.isfinite(grad))
        assert np.array_equal(lml_gradient(post, self.nan_above(K)), grad)

    def test_fit(self, monkeypatch):
        rng = np.random.default_rng(27)
        X = rng.uniform(-2, 2, size=(80, 2))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=80)
        shards, spec = [(X[:35], Y[:35]), (X[35:], Y[35:])], make_spec([0.7, 1.5], sn2=0.1)
        expected = fit(shards, spec, FitSchedule(max_iters=8))
        build = gp_module.gram_lower

        def nan_above(*args, **kwargs):
            K = build(*args, **kwargs)
            K[np.triu_indices(K.shape[0], 1)] = np.nan
            return K

        monkeypatch.setattr(gp_module, "gram_lower", nan_above)
        result = fit(shards, spec, FitSchedule(max_iters=8))
        assert result.iterations == expected.iterations > 2
        assert result.objective == expected.objective
        assert result.spec == expected.spec


class TestFit:
    def test_zero_budget_returns_input(self):
        spec = make_spec([1.0], sn2=0.2)
        X = np.array([[0.0], [1.0]])
        result = fit([(X, np.array([0.5, -0.5]))], spec, FitSchedule(max_iters=0))
        assert result.spec is spec
        assert result.iterations == 0

    def test_negative_budget_rejected(self):
        # A negative budget would fit nothing, silently, as 0 does on purpose.
        with pytest.raises(ContractViolationError, match="max_iters"):
            FitSchedule(max_iters=-3)

    def test_zero_noise_is_held_at_zero(self):
        rng = np.random.default_rng(22)
        X = rng.uniform(-2, 2, size=(30, 1))
        Y = np.sin(2 * X[:, 0])
        result = fit([(X, Y)], make_spec([1.0], sf2=0.5, sn2=0.0), FitSchedule(max_iters=20))
        assert result.spec.noise_variance == 0.0
        assert np.all(np.isfinite(result.spec.lengthscales))
        assert np.isfinite(result.spec.signal_variance) and np.isfinite(result.objective)
        assert result.iterations > 0 and not result.warning

    def test_failed_warm_start_returns_input(self, monkeypatch):
        # Duplicate rows at zero noise are singular; without jitter, the warm
        # start's factorization fails.
        monkeypatch.setattr(gp_module, "JITTER_LADDER", (0.0,))
        spec = make_spec([1.0], sn2=0.0)
        X = np.array([[0.0], [0.0], [1.0]])
        result = fit([(X, np.array([0.5, 0.5, -0.5]))], spec, FitSchedule(max_iters=10))
        assert result.spec is spec
        assert result.warning and not result.converged
        assert result.iterations == 0 and result.objective == -np.inf

    def test_failed_evaluation_reads_as_infeasible(self, monkeypatch):
        rng = np.random.default_rng(23)
        X = rng.uniform(-2, 2, size=(40, 1))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=40)
        calls = []
        gradient = gp_module.lml_gradient

        def failing_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise gp_module.NumericalError("injected")
            return gradient(*args)

        monkeypatch.setattr(gp_module, "lml_gradient", failing_third)
        spec = make_spec([1.0], sn2=0.1)
        start = log_marginal_likelihood(GpPosterior(X, Y, spec))
        result = fit([(X, Y)], spec, FitSchedule(max_iters=10))
        assert result.warning and len(calls) > 3
        assert np.isfinite(result.objective) and result.objective >= start

    def test_objective_never_decreases(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, size=(40, 1))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.2, size=40)
        spec = make_spec([1.0], sf2=float(np.var(Y)), sn2=0.1 * float(np.var(Y)))
        start = log_marginal_likelihood(GpPosterior(X, Y, spec))
        result = fit([(X, Y)], spec, FitSchedule(max_iters=30))
        assert result.objective >= start

    def test_recovers_generating_lengthscale(self):
        rng = np.random.default_rng(8)
        true = make_spec([0.7], sf2=2.0, sn2=0.05)
        X = np.sort(rng.uniform(-3, 3, size=200))[:, None]
        K = gram(X, true, add_noise=True)
        Y = np.linalg.cholesky(K) @ rng.standard_normal(200)
        start = make_spec([1.0], sf2=float(np.var(Y)), sn2=0.1 * float(np.var(Y)))
        result = fit([(X, Y)], start, FitSchedule(max_iters=150))
        recovered = result.spec.lengthscales[0]
        assert abs(recovered - 0.7) / 0.7 < 0.25

    def test_shards_differ_from_concatenation_generally(self):
        rng = np.random.default_rng(9)
        spec = make_spec([1.0], sn2=0.2)
        X = rng.uniform(-1, 1, size=(12, 1))
        Y = rng.normal(size=12)
        split_lml = sum(
            log_marginal_likelihood(GpPosterior(Xp, Yp, spec))
            for Xp, Yp in ((X[:6], Y[:6]), (X[6:], Y[6:]))
        )
        joint_lml = log_marginal_likelihood(GpPosterior(X, Y, spec))
        assert abs(split_lml - joint_lml) > 1e-3

    def test_shards_match_concatenation_when_blocks_decouple(self):
        rng = np.random.default_rng(10)
        spec = make_spec([1.0], sn2=0.2)
        X1 = rng.uniform(0, 1, size=(6, 1))
        X2 = X1 + 1e6  # cross-block kernel entries underflow to zero
        Y1, Y2 = rng.normal(size=6), rng.normal(size=6)
        split_lml = sum(
            log_marginal_likelihood(GpPosterior(Xp, Yp, spec))
            for Xp, Yp in ((X1, Y1), (X2, Y2))
        )
        joint = log_marginal_likelihood(
            GpPosterior(np.vstack([X1, X2]), np.concatenate([Y1, Y2]), spec))
        assert split_lml == pytest.approx(joint, rel=1e-9)

    def test_requires_nonempty_shard(self):
        with pytest.raises(ContractViolationError):
            fit([(np.zeros((0, 1)), np.zeros(0))], make_spec([1.0]), FitSchedule())

    def test_empty_shard_among_others_rejected(self):
        rng = np.random.default_rng(5)
        full = (rng.uniform(0, 1, (6, 1)), rng.normal(size=6))
        for shards in ([full, (np.zeros((0, 1)), np.zeros(0))],
                       [(np.zeros((0, 1)), np.zeros(0)), full, full]):
            with pytest.raises(ContractViolationError):
                fit(shards, make_spec([1.0]), FitSchedule(max_iters=2))


def test_non_finite_responses_rejected():
    with pytest.raises(ContractViolationError):
        GpPosterior(np.array([[0.0], [1.0]]), np.array([0.0, np.nan]), make_spec([1.0]))


def test_wrong_gram_shape_rejected():
    with pytest.raises(ContractViolationError):
        GpPosterior(np.zeros((3, 1)), np.zeros(3), make_spec([1.0]), np.eye(2))


def test_noiseless_interpolation_invariant():
    rng = np.random.default_rng(11)
    spec = make_spec([1.0, 1.0], sf2=1.5, sn2=0.0)
    X = rng.uniform(-2, 2, size=(8, 2))  # well separated with high probability
    Y = rng.normal(size=8)
    post = GpPosterior(X, Y, spec)
    recon = posterior_mean(post, X)
    assert np.abs(recon - Y).max() < 1e-8


def test_cholesky_reconstruction_invariant():
    rng = np.random.default_rng(12)
    spec = make_spec([0.9, 1.2], sf2=1.3, sn2=0.15)
    X = rng.normal(size=(20, 2))
    Y = rng.normal(size=20)
    post = GpPosterior(X, Y, spec)
    K = gram(X, spec, add_noise=True)
    recon = post.chol @ post.chol.T
    assert np.linalg.norm(recon - K) / np.linalg.norm(K) < 1e-10
    assert np.linalg.norm(K @ post.alpha - Y) / np.linalg.norm(Y) < 1e-8


@pytest.mark.parametrize("kind", ["jitter", "pivot"])
def test_declined_append_changes_nothing(kind):
    # A jittered factor is never grown; nor is one whose new pivot, here a
    # duplicate row's at noise 1e-12, is at or below PIVOT_RTOL of sf2 + sn2.
    # The pivot case declines on a grown posterior whose storage is full.
    rng = np.random.default_rng(28)
    if kind == "jitter":
        spec = make_spec([0.9, 1.3], sf2=1.2, sn2=0.0)
        X = rng.uniform(-2, 2, size=(6, 2))[np.repeat(np.arange(6), 2)]
        post = GpPosterior(X[:-1], rng.normal(size=11), spec)
        assert post.jitter > 0.0
    else:
        spec = make_spec([0.9, 1.3], sf2=1.2, sn2=1e-12)
        X = rng.uniform(-2, 2, size=(7, 2))
        X[-1] = X[2]
        post = GpPosterior(X[:-2], rng.normal(size=5), spec)
        assert post.append(X[:-1], 0.5, 6, Query.of(X[-2:-1], spec).aug)
    state = [a.copy() for a in (post.chol, post.alpha, post.X, post.Y)]
    assert not post.append(X, 0.25, X.shape[0], Query.of(X[-1:], spec).aug)
    for got, want in zip((post.chol, post.alpha, post.X, post.Y), state):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_alpha_built_on_read_is_the_eager_back_substitution():
    # An append extends v = L^-1 Y only; alpha = L^-T v is back-substituted
    # when read.  Read after every append or only at the end, it is bitwise
    # what back-substituting after every append, as BLAS `dtrsv` on a fresh
    # factor and `dtpsv` on a grown one, gives.
    rng = np.random.default_rng(29)
    spec = make_spec([0.8, 1.1], sf2=1.3, sn2=0.05)
    X = rng.uniform(-2, 2, size=(40, 2))
    Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(40)
    every, last = GpPosterior(X[:10], Y[:10], spec), GpPosterior(X[:10], Y[:10], spec)
    L = every.chol
    eager = dtrsv(L, dtrsv(L, Y[:10].copy(), lower=1), lower=1, trans=1)
    assert every.alpha.tobytes() == eager.tobytes()
    for i in range(10, 40):
        scaled = Query.of(X[i:i + 1], spec).aug
        for post in (every, last):
            assert post.append(X[:i + 1], Y[i], 40, scaled)
        eager = dtpsv(i + 1, every._store.packed, every._v.copy(), lower=0, trans=0)
        assert every.alpha.tobytes() == eager.tobytes()
    assert last.alpha.tobytes() == every.alpha.tobytes()
    assert np.abs(last.alpha - GpPosterior(X, Y, spec).alpha).max() <= 1e-9
