import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

import splitgp.gp as gp_module
from splitgp.exceptions import ContractViolationError
from splitgp.gp import (
    FitSchedule,
    GpPosterior,
    fit,
    lml_gradient,
    log_marginal_likelihood,
    posterior_mean,
    posterior_variance,
)
from splitgp.kernels import Hyperparameters, KernelSpec, gram, gram_gradients


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(Hyperparameters(np.asarray(ls, dtype=float), sf2, sn2))


# Dense direct-solve oracle, deliberately avoiding the Cholesky code path.

def oracle_mean(X, Y, spec, x_star):
    K = gram(X, spec, add_noise=True)
    ks = gram(np.vstack([x_star[None, :], X]), spec, add_noise=False)[0, 1:]
    return ks @ np.linalg.solve(K, Y)


def oracle_variance(X, Y, spec, x_star):
    K = gram(X, spec, add_noise=True)
    ks = gram(np.vstack([x_star[None, :], X]), spec, add_noise=False)[0, 1:]
    return spec.params.signal_variance - ks @ np.linalg.solve(K, ks)


def oracle_lml(X, Y, spec):
    K = gram(X, spec, add_noise=True)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * Y @ np.linalg.solve(K, Y) - 0.5 * logdet - 0.5 * len(Y) * math.log(2 * math.pi)


class TestPosteriorMean:
    def test_empty_prior_mean_is_zero(self):
        spec = make_spec([1.0, 1.0])
        post = GpPosterior(np.zeros((0, 2)), np.zeros(0), spec)
        assert posterior_mean(post, np.array([0.4, 0.6]), spec) == 0.0

    def test_noiseless_interpolation_single_point(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        x = np.array([0.3])
        post = GpPosterior(x[None, :], np.array([3.0]), spec)
        assert posterior_mean(post, x, spec) == pytest.approx(3.0, abs=1e-12)

    def test_three_point_dense_oracle(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.1)
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([0.0, 1.0, 0.0])
        post = GpPosterior(X, Y, spec)
        x_star = np.array([0.5])
        assert posterior_mean(post, x_star, spec) == pytest.approx(
            oracle_mean(X, Y, spec, x_star), abs=1e-10
        )

    def test_linear_in_responses(self):
        rng = np.random.default_rng(0)
        spec = make_spec([1.0, 1.0], sn2=0.2)
        X = rng.normal(size=(6, 2))
        y1, y2 = rng.normal(size=6), rng.normal(size=6)
        x_star = rng.normal(size=2)
        m1 = posterior_mean(GpPosterior(X, y1, spec), x_star, spec)
        m2 = posterior_mean(GpPosterior(X, y2, spec), x_star, spec)
        m12 = posterior_mean(GpPosterior(X, 2.0 * y1 - 3.0 * y2, spec), x_star, spec)
        assert m12 == pytest.approx(2.0 * m1 - 3.0 * m2, rel=1e-10, abs=1e-12)

    def test_stale_spec_rejected(self):
        spec = make_spec([1.0])
        post = GpPosterior(np.array([[0.0]]), np.array([1.0]), spec)
        other = make_spec([2.0])
        with pytest.raises(ContractViolationError):
            posterior_mean(post, np.array([0.0]), other)


class TestPosteriorVariance:
    def test_empty_prior_variance(self):
        spec = make_spec([1.0], sf2=1.7)
        post = GpPosterior(np.zeros((0, 1)), np.zeros(0), spec)
        assert posterior_variance(post, np.array([0.3]), spec) == pytest.approx(1.7)

    def test_zero_at_training_point_noiseless(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        X = np.array([[-1.0], [0.5], [2.0]])
        post = GpPosterior(X, np.array([1.0, -1.0, 0.5]), spec)
        assert abs(posterior_variance(post, X[1], spec)) < 1e-10

    def test_three_point_dense_oracle(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.1)
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([0.0, 1.0, 0.0])
        post = GpPosterior(X, Y, spec)
        x_star = np.array([0.5])
        assert posterior_variance(post, x_star, spec) == pytest.approx(
            oracle_variance(X, Y, spec, x_star), abs=1e-8
        )

    def test_bounded_by_signal_variance(self):
        rng = np.random.default_rng(1)
        spec = make_spec([0.8, 1.1], sf2=2.3, sn2=0.05)
        X = rng.normal(size=(10, 2))
        post = GpPosterior(X, rng.normal(size=10), spec)
        for _ in range(25):
            v = posterior_variance(post, rng.normal(size=2), spec)
            assert 0.0 <= v <= 2.3 + 1e-12


class TestLogMarginalLikelihood:
    def test_scalar_analytic_case(self):
        spec = make_spec([1.0], sf2=1.0, sn2=1.0)
        post = GpPosterior(np.array([[0.0]]), np.array([0.0]), spec)
        expected = -0.5 * math.log(2.0) - 0.5 * math.log(2.0 * math.pi)
        assert log_marginal_likelihood(post, spec) == pytest.approx(expected, abs=1e-12)

    def test_zero_response_maximizes_data_fit(self):
        rng = np.random.default_rng(2)
        spec = make_spec([1.0, 1.0], sn2=0.3)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        lml_zero = log_marginal_likelihood(GpPosterior(X, np.zeros(5), spec), spec)
        lml_y = log_marginal_likelihood(GpPosterior(X, Y, spec), spec)
        assert lml_zero >= lml_y

    def test_dense_oracle(self):
        rng = np.random.default_rng(3)
        spec = make_spec([0.9, 1.3], sf2=1.5, sn2=0.2)
        X = rng.normal(size=(4, 2))
        Y = rng.normal(size=4)
        post = GpPosterior(X, Y, spec)
        assert log_marginal_likelihood(post, spec) == pytest.approx(
            oracle_lml(X, Y, spec), abs=1e-9
        )

    def test_empty_rejected(self):
        spec = make_spec([1.0])
        post = GpPosterior(np.zeros((0, 1)), np.zeros(0), spec)
        with pytest.raises(ContractViolationError):
            log_marginal_likelihood(post, spec)


class TestGradient:
    def test_signal_gradient_negative_at_zero_response(self):
        rng = np.random.default_rng(4)
        spec = make_spec([1.0, 1.0], sn2=0.3)
        X = rng.normal(size=(5, 2))
        post = GpPosterior(X, np.zeros(5), spec)
        grad = lml_gradient(post, spec)
        assert grad[2] < 0.0  # signal-variance slot

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(5)
        spec = make_spec([0.8, 1.4], sf2=1.6, sn2=0.25)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        post = GpPosterior(X, Y, spec)
        grad = lml_gradient(post, spec)
        theta = spec.to_log_vector()
        h = 1e-5
        for j in range(theta.size):
            lift = np.zeros_like(theta)
            lift[j] = h
            sp, sm = spec.with_log_vector(theta + lift), spec.with_log_vector(theta - lift)
            fd = (
                log_marginal_likelihood(GpPosterior(X, Y, sp), sp)
                - log_marginal_likelihood(GpPosterior(X, Y, sm), sm)
            ) / (2 * h)
            assert abs(fd - grad[j]) / max(abs(fd), 1e-8) < 1e-4

    def test_gradient_small_at_converged_optimum(self):
        rng = np.random.default_rng(6)
        X = np.sort(rng.uniform(-2, 2, size=24))[:, None]
        Y = np.sin(1.5 * X[:, 0]) + rng.normal(0, 0.1, size=24)
        result = fit([(X, Y)], make_spec([1.0], sf2=1.0, sn2=0.1),
                     FitSchedule(max_iters=500, grad_tol=1e-5))
        assert result.converged
        post = GpPosterior(X, Y, result.spec)
        assert np.abs(lml_gradient(post, result.spec)).max() < 1e-3


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
        return np.abs(lml_gradient(post, spec) - expected).max() / np.abs(expected).max()

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
            post = post.extended(X[i], Y[i])
        assert self.gap(post, spec) <= 1e-8

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

    def test_reused_gram_gives_the_same_gradient(self):
        rng = np.random.default_rng(16)
        spec = make_spec([0.9, 1.1, 0.6], sf2=1.3, sn2=0.2)
        X, Y = rng.normal(size=(50, 3)), rng.normal(size=50)
        K = gram(X, spec, add_noise=True)
        post = GpPosterior(X, Y, spec, K)
        fresh = GpPosterior(X, Y, spec)
        assert np.array_equal(post.chol, fresh.chol)
        assert np.array_equal(post.alpha, fresh.alpha)
        assert np.array_equal(lml_gradient(post, spec, K), lml_gradient(post, spec))


def test_fit_builds_one_gram_per_factorization(monkeypatch):
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, size=(60, 2))
    Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=60)
    shards = [(X[:30], Y[:30]), (X[30:], Y[30:])]
    grams, posteriors = [], []
    gram_fn, init = gp_module.gram, GpPosterior.__init__
    monkeypatch.setattr(gp_module, "gram", lambda *a, **k: grams.append(1) or gram_fn(*a, **k))
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

    def test_wrong_buffer_shape_rejected(self):
        with pytest.raises(ContractViolationError):
            GpPosterior(np.zeros((3, 1)), np.zeros(3), make_spec([1.0]), None,
                        np.zeros((2, 2), order="F"))

    def test_gradient_allocates_one_n_by_n_array(self):
        rng = np.random.default_rng(19)
        n = 400
        spec = make_spec([0.8, 1.4], sf2=1.2, sn2=0.1)
        X, Y = rng.normal(size=(n, 2)), rng.normal(size=n)
        K = gram(X, spec, add_noise=True)
        post = GpPosterior(X, Y, spec, K)
        tracemalloc.start()
        try:
            lml_gradient(post, spec, K)
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
            assert np.array_equal(post.chol, post0.chol) and np.array_equal(K, K0)
            assert np.array_equal(post.alpha, post0.alpha)

    # A large first step is rejected before any candidate has been accepted.
    @pytest.mark.parametrize("initial_step", [0.25, 4.0])
    def test_line_search_allocates_only_two_candidates(self, monkeypatch, initial_step):
        rng = np.random.default_rng(21)
        X = rng.uniform(-2, 2, size=(90, 2))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, size=90)
        shards = [(X[:30], Y[:30]), (X[30:], Y[30:])]
        fresh = []
        gram_fn = gp_module.gram
        monkeypatch.setattr(gp_module, "gram", lambda *a, out=None, **k: fresh.append(
            out is None) or gram_fn(*a, out=out, **k))
        result = fit(shards, make_spec([1.0, 1.0], sn2=0.1),
                     FitSchedule(max_iters=10, initial_step=initial_step))
        assert result.iterations > 2
        # The starting point and the first candidate; every later candidate
        # reuses the arrays of the one it replaced or of a rejected one.
        assert sum(fresh) == 2 * len(shards) < len(fresh)


class TestFit:
    def test_zero_budget_returns_input(self):
        spec = make_spec([1.0], sn2=0.2)
        X = np.array([[0.0], [1.0]])
        result = fit([(X, np.array([0.5, -0.5]))], spec, FitSchedule(max_iters=0))
        assert result.spec is spec
        assert result.iterations == 0

    def test_objective_never_decreases(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, size=(40, 1))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.2, size=40)
        spec = make_spec([1.0], sf2=float(np.var(Y)), sn2=0.1 * float(np.var(Y)))
        start = log_marginal_likelihood(GpPosterior(X, Y, spec), spec)
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
        recovered = result.spec.params.lengthscales[0]
        assert abs(recovered - 0.7) / 0.7 < 0.25

    def test_shards_differ_from_concatenation_generally(self):
        rng = np.random.default_rng(9)
        spec = make_spec([1.0], sn2=0.2)
        X = rng.uniform(-1, 1, size=(12, 1))
        Y = rng.normal(size=12)
        split_lml = sum(
            log_marginal_likelihood(GpPosterior(Xp, Yp, spec), spec)
            for Xp, Yp in ((X[:6], Y[:6]), (X[6:], Y[6:]))
        )
        joint_lml = log_marginal_likelihood(GpPosterior(X, Y, spec), spec)
        assert abs(split_lml - joint_lml) > 1e-3

    def test_shards_match_concatenation_when_blocks_decouple(self):
        rng = np.random.default_rng(10)
        spec = make_spec([1.0], sn2=0.2)
        X1 = rng.uniform(0, 1, size=(6, 1))
        X2 = X1 + 1e6  # cross-block kernel entries underflow to zero
        Y1, Y2 = rng.normal(size=6), rng.normal(size=6)
        split_lml = sum(
            log_marginal_likelihood(GpPosterior(Xp, Yp, spec), spec)
            for Xp, Yp in ((X1, Y1), (X2, Y2))
        )
        joint = log_marginal_likelihood(
            GpPosterior(np.vstack([X1, X2]), np.concatenate([Y1, Y2]), spec), spec
        )
        assert split_lml == pytest.approx(joint, rel=1e-9)

    def test_requires_nonempty_shard(self):
        with pytest.raises(ContractViolationError):
            fit([(np.zeros((0, 1)), np.zeros(0))], make_spec([1.0]), FitSchedule())


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
    recon = posterior_mean(post, X, spec)
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


def test_branching_extensions_stay_independent():
    # Extending one posterior twice: the second extension finds the shared
    # storage's next row taken and copies instead of overwriting it.
    rng = np.random.default_rng(26)
    spec = make_spec([0.9, 1.3], sf2=1.2, sn2=0.05)
    X, Y = rng.normal(size=(24, 2)), rng.normal(size=24)
    base = GpPosterior(X[:20], Y[:20], spec).extended(X[20], Y[20])
    first = base.extended(X[21], Y[21]).extended(X[22], Y[22])
    second = base.extended(X[23], Y[23])
    for post, rows in ((base, np.arange(21)), (first, np.arange(23)),
                       (second, np.r_[np.arange(21), 23])):
        fresh = GpPosterior(X[rows], Y[rows], spec)
        assert np.array_equal(post.X, X[rows]) and np.array_equal(post.Y, Y[rows])
        for got, want in ((post.chol, fresh.chol), (post.alpha, fresh.alpha)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        x = rng.normal(size=2)
        assert posterior_variance(post, x, spec) == pytest.approx(
            posterior_variance(fresh, x, spec), rel=1e-9, abs=1e-12)
