import math
import warnings

import numpy as np
import pytest

from splitgp.baselines import FullGp, LocalGpWgen, Rbcm
from splitgp.data import SeedPlan, synth_dataset
from splitgp.exceptions import ContractViolationError, EmptyModelError
from splitgp.gp import GpPosterior, posterior_mean, posterior_variance
from splitgp.kernels import KernelSpec, default_spec
from splitgp.model import SplittingGP, TrainSchedule


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)


def quiet(**kwargs):
    return dict(train_schedule=TrainSchedule.never(), **kwargs)


class TestFullGp:
    def test_thin_adapter_over_gp_core(self):
        rng = np.random.default_rng(0)
        spec = make_spec([1.0, 1.0], sn2=0.2)
        X, Y = rng.normal(size=(30, 2)), rng.normal(size=30)
        model = FullGp(spec=spec, **quiet())
        model.ingest_batch(X, Y)
        post = GpPosterior(X, Y, spec)
        x = np.array([0.2, -0.5])
        mean, var = model.predict(x)
        # Both sides take the same predict_scaled path; the one child's
        # similarity weight exp(0) / exp(0) is exactly 1.
        assert mean == posterior_mean(post, x, spec)
        assert var == posterior_variance(post, x, spec)

    def test_far_field_predict_raises_no_warning(self):
        rng = np.random.default_rng(2)
        model = FullGp(spec=make_spec([1.0, 1.0], sn2=0.2), **quiet())
        model.ingest_batch(rng.normal(size=(10, 2)), rng.normal(size=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, var = model.predict(np.array([1e3, 1e3]))
        assert (mean, var) == (0.0, 1.0)  # the prior: every k(x_i, x) is 0

    def test_predict_without_rows_rejected(self):
        model = FullGp(spec=make_spec([1.0], sf2=1.9), **quiet())
        with pytest.raises(EmptyModelError):
            model.predict(np.array([0.4]))

    def test_streaming_equals_batch_construction(self):
        rng = np.random.default_rng(1)
        spec = make_spec([1.0, 1.0], sn2=0.15)
        X, Y = rng.normal(size=(100, 2)), rng.normal(size=100)
        streamed = FullGp(spec=spec, **quiet())
        for x, y in zip(X, Y):
            streamed.ingest(x, y)
        post = GpPosterior(X, Y, spec)
        queries = rng.normal(size=(20, 2))
        direct = posterior_mean(post, queries, spec)
        assert np.abs(streamed.predict_mean_batch(queries) - direct).max() < 1e-12
        # Batches, first into an empty model, store the same bits as rows.
        batched = FullGp(spec=spec, **quiet())
        for rows in (slice(0, 1), slice(1, 60), slice(60, 60), slice(60, 100)):
            batch = X[rows].copy()
            batched.ingest_batch(batch, Y[rows])
            batch[:] = np.nan  # the model keeps no view of the caller's array
        b_child, s_child = batched.children[0], streamed.children[0]
        assert np.array_equal(b_child.X, s_child.X) and np.array_equal(b_child.Y, s_child.Y)
        for a, b in ((b_child.posterior(spec), s_child.posterior(spec)),
                     (b_child.posterior(spec), post)):
            assert np.array_equal(a.chol, b.chol) and np.array_equal(a.alpha, b.alpha)
        # Without a spec, both seed it from the first response.
        unseeded = FullGp(**quiet()), FullGp(**quiet())
        for x, y in zip(X, Y):
            row = x.copy()
            unseeded[0].ingest(row, y)
            row[:] = np.nan
        unseeded[1].ingest_batch(X, Y)
        assert unseeded[0].spec == unseeded[1].spec == default_spec(Y[:1], 2)
        assert all(np.array_equal(model.children[0].X, X) for model in unseeded)

    def test_footprint_quadratic_term(self):
        rng = np.random.default_rng(2)
        model = FullGp(spec=make_spec([1.0, 1.0]), **quiet())
        model.ingest_batch(rng.normal(size=(10, 2)), rng.normal(size=10))
        # Gram entries, rows, responses and the child's center.
        assert model.footprint() == 8 * (100 + 20 + 10 + 2)


class TestLocalGpWgen:
    def test_first_observation_creates_model(self):
        model = LocalGpWgen(0.5, **quiet())
        model.ingest(np.array([0.3, 0.3]), 1.0)
        assert model.n_children == 1
        assert np.array_equal(model.children[0].center, [0.3, 0.3])

    def test_tiny_wgen_reduces_to_full_gp(self):
        rng = np.random.default_rng(3)
        spec = make_spec([1.0, 1.0], sn2=0.1)
        X = rng.uniform(-1, 1, size=(200, 2))
        Y = np.sin(X[:, 0]) + rng.normal(0, 0.1, 200)
        local = LocalGpWgen(1e-15, spec=spec, **quiet())
        full = FullGp(spec=spec, **quiet())
        for x, y in zip(X, Y):
            local.ingest(x, y)
            full.ingest(x, y)
        assert local.n_children == 1
        queries = rng.uniform(-1, 1, size=(30, 2))
        gap = np.abs(local.predict_mean_batch(queries) - full.predict_mean_batch(queries))
        assert gap.max() < 1e-10

    def test_far_point_spawns_new_model(self):
        # Under unit lengthscales k < 0.99 once the distance exceeds 0.1418.
        spec = make_spec([1.0, 1.0], sf2=1.0, sn2=0.1)
        model = LocalGpWgen(0.99, spec=spec, **quiet())
        model.ingest(np.array([0.0, 0.0]), 0.0)
        model.ingest(np.array([0.2, 0.0]), 1.0)
        assert model.n_children == 2

    def test_threshold_boundary_is_inclusive(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.1)
        w = math.exp(-0.5)
        model = LocalGpWgen(w, spec=spec, **quiet())
        model.ingest(np.array([0.0]), 0.0)
        model.ingest(np.array([1.0]), 1.0)  # similarity exactly w_gen -> new model
        assert model.n_children == 2

    def test_threshold_uses_normalized_similarity(self):
        # Same data, inflated signal variance: model count must not change.
        for sf2 in (1.0, 25.0):
            spec = make_spec([1.0, 1.0], sf2=sf2, sn2=0.1)
            model = LocalGpWgen(0.5, spec=spec, **quiet())
            model.ingest(np.array([0.0, 0.0]), 0.0)
            model.ingest(np.array([2.0, 0.0]), 1.0)
            assert model.n_children == 2

    def test_predict_single_model_matches_posterior(self):
        rng = np.random.default_rng(4)
        spec = make_spec([1.0], sn2=0.1)
        X, Y = rng.normal(size=(15, 1)), rng.normal(size=15)
        model = LocalGpWgen(1e-15, spec=spec, **quiet())
        model.ingest_batch(X, Y)
        post = GpPosterior(X, Y, spec)
        x = np.array([0.1])
        mean, var = model.predict(x)
        assert mean == pytest.approx(posterior_mean(post, x, spec), abs=1e-12)
        assert var == pytest.approx(posterior_variance(post, x, spec), abs=1e-12)

    def test_predict_identical_models_reproduce_common_mean(self):
        rng = np.random.default_rng(5)
        spec = make_spec([1.0], sn2=0.1)
        X, Y = rng.normal(size=(8, 1)), rng.normal(size=8)
        model = LocalGpWgen(0.9, spec=spec, **quiet())
        from splitgp.model import ChildModel
        model.children = [
            ChildModel(X.copy(), Y.copy(), center=np.array([-1.0])),
            ChildModel(X.copy(), Y.copy(), center=np.array([1.0])),
        ]
        post = GpPosterior(X, Y, spec)
        x = np.array([0.3])
        assert model.predict(x)[0] == pytest.approx(posterior_mean(post, x, spec), abs=1e-12)

    def test_two_model_weighted_mean_by_hand(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        model = LocalGpWgen(0.9, spec=spec, **quiet())
        from splitgp.model import ChildModel
        model.children = [
            ChildModel(np.array([[-1.0]]), [2.0]),
            ChildModel(np.array([[2.0]]), [-1.0]),
        ]
        x = np.array([0.0])
        k1, k2 = math.exp(-0.5), math.exp(-2.0)
        mean1 = k1 * 2.0   # single noiseless point: k(x, x1) * y1 / k(x1, x1)
        mean2 = k2 * -1.0
        expected = (k1 * mean1 + k2 * mean2) / (k1 + k2)
        assert model.predict(x)[0] == pytest.approx(expected, rel=1e-12)

    def test_wgen_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            LocalGpWgen(0.0)
        with pytest.raises(ContractViolationError):
            LocalGpWgen(1.5)

    def test_predict_without_models_rejected(self):
        model = LocalGpWgen(0.5, **quiet())
        with pytest.raises(EmptyModelError):
            model.predict(np.array([0.0]))


class TestRbcm:
    def test_single_expert_equals_full_gp(self):
        rng = np.random.default_rng(6)
        spec = make_spec([1.0, 1.0], sn2=0.1)
        X = rng.uniform(-1, 1, size=(120, 2))
        Y = np.cos(2 * X[:, 0]) * X[:, 1] + rng.normal(0, 0.1, 120)
        committee = Rbcm(1, seed=0, spec=spec, **quiet())
        full = FullGp(spec=spec, **quiet())
        for x, y in zip(X, Y):
            committee.ingest(x, y)
            full.ingest(x, y)
        queries = rng.uniform(-1, 1, size=(25, 2))
        gap = np.abs(committee.predict_mean_batch(queries) - full.predict_mean_batch(queries))
        assert gap.max() < 1e-10

    def test_seeded_assignment_reproducible(self):
        rng = np.random.default_rng(7)
        X, Y = rng.normal(size=(50, 2)), rng.normal(size=50)
        a = Rbcm(4, seed=99, spec=make_spec([1.0, 1.0]), **quiet())
        b = Rbcm(4, seed=99, spec=make_spec([1.0, 1.0]), **quiet())
        a.ingest_batch(X, Y)
        b.ingest_batch(X, Y)
        sizes = lambda m: [0 if e is None else e.n for e in m.children]
        assert sizes(a) == sizes(b)

    def test_binomial_balance(self):
        rng = np.random.default_rng(8)
        model = Rbcm(10, seed=5, spec=make_spec([1.0]), **quiet())
        model.ingest_batch(rng.normal(size=(1000, 1)), rng.normal(size=1000))
        for expert in model.children:
            assert expert is not None
            assert 50 <= expert.n <= 150  # 100 +- 5 sigma, sigma ~ 9.5

    def test_no_information_reverts_to_prior(self):
        spec = make_spec([1.0], sf2=2.5, sn2=0.1)
        model = Rbcm(2, seed=0, spec=spec, **quiet())
        model.ingest(np.array([0.0]), 1.0)
        model.ingest(np.array([0.1]), 1.1)
        mean, var = model.predict(np.array([1e6]))  # far away: no data effect
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(2.5, rel=1e-9)

    def test_identical_experts_reproduce_common_mean(self):
        rng = np.random.default_rng(9)
        spec = make_spec([1.0], sn2=0.1)
        X, Y = rng.normal(size=(10, 1)), rng.normal(size=10)
        model = Rbcm(3, seed=0, spec=spec, **quiet())
        from splitgp.model import ChildModel
        model.children = [ChildModel(X.copy(), Y.copy()) for _ in range(3)]
        post = GpPosterior(X, Y, spec)
        x = np.array([0.4])
        mean, _ = model.predict(x)
        assert mean == pytest.approx(posterior_mean(post, x, spec), abs=1e-12)

    def test_two_expert_formula_oracle(self):
        rng = np.random.default_rng(10)
        spec = make_spec([1.0], sf2=1.8, sn2=0.2)
        model = Rbcm(2, seed=1, spec=spec, **quiet())
        X1, Y1 = rng.normal(size=(6, 1)), rng.normal(size=6)
        X2, Y2 = rng.normal(size=(9, 1)) + 1.0, rng.normal(size=9)
        from splitgp.model import ChildModel
        model.children = [ChildModel(X1, Y1), ChildModel(X2, Y2)]
        x = np.array([0.5])
        mus, sigs = [], []
        for Xk, Yk in ((X1, Y1), (X2, Y2)):
            post = GpPosterior(Xk, Yk, spec)
            mus.append(posterior_mean(post, x, spec))
            sigs.append(posterior_variance(post, x, spec))
        beta = [0.5 * (math.log(1.8) - math.log(s)) for s in sigs]
        total = sum(beta)
        bw = [b / total for b in beta]
        precision = sum(w / s for w, s in zip(bw, sigs))
        var_expected = 1.0 / precision
        mean_expected = var_expected * sum(w * mu / s for w, mu, s in zip(bw, mus, sigs))
        mean, var = model.predict(x)
        assert mean == pytest.approx(mean_expected, abs=1e-12)
        assert var == pytest.approx(var_expected, abs=1e-12)

    def test_all_empty_rejected(self):
        model = Rbcm(3, seed=0, spec=make_spec([1.0]), **quiet())
        with pytest.raises(EmptyModelError):
            model.predict(np.array([0.0]))

    def test_expert_count_validated(self):
        with pytest.raises(ContractViolationError):
            Rbcm(0)


def test_models_deterministic_given_seed_and_stream():
    seeds = SeedPlan(77)
    ds = synth_dataset(150, seeds)
    queries = ds.X[:10]
    for build in (
        lambda: SplittingGP(40, train_schedule=TrainSchedule.never()),
        lambda: FullGp(**quiet()),
        lambda: LocalGpWgen(0.3, **quiet()),
        lambda: Rbcm(3, seed=11, **quiet()),
    ):
        a, b = build(), build()
        a.ingest_batch(ds.X, ds.Y)
        b.ingest_batch(ds.X, ds.Y)
        assert np.array_equal(a.predict_mean_batch(queries), b.predict_mean_batch(queries))


every_model = pytest.mark.parametrize("build", [
    lambda: SplittingGP(8, train_schedule=TrainSchedule.never()),
    lambda: FullGp(**quiet()),
    lambda: LocalGpWgen(0.5, **quiet()),
    lambda: Rbcm(2, seed=3, **quiet()),
], ids=["splitting", "fullgp", "local", "rbcm"])


@every_model
def test_bad_rows_rejected_at_ingest(build):
    ds = synth_dataset(20, SeedPlan(78))
    queries = ds.X[:5]
    model, reference = build(), build()
    model.ingest_batch(ds.X, ds.Y)
    reference.ingest_batch(ds.X, ds.Y)
    bad = [
        (np.array([np.nan, 0.0]), 1.0),
        (np.array([0.0, np.inf]), 1.0),
        (np.array([0.1, 0.2]), np.inf),
        (np.array([0.1, 0.2]), np.nan),
        (np.array([0.1, 0.2, 0.3]), 1.0),
        (np.array([0.1]), 1.0),
    ]
    for x, y in bad:
        with pytest.raises(ContractViolationError):
            model.ingest(x, y)
        with pytest.raises(ContractViolationError):
            model.ingest_batch(np.vstack([ds.X[:2], x]) if x.size == 2 else x[None, :],
                               np.append(ds.Y[:2], y) if x.size == 2 else [y])
    assert model.n_observations == ds.n
    assert np.array_equal(model.predict_mean_batch(queries),
                          reference.predict_mean_batch(queries))
    # Both go on alike: a rejected row drew nothing from a seeded assignment.
    model.ingest(ds.X[0] + 0.05, 0.3)
    reference.ingest(ds.X[0] + 0.05, 0.3)
    assert np.array_equal(model.predict_mean_batch(queries),
                          reference.predict_mean_batch(queries))


@every_model
def test_predict_accepts_a_one_row_array(build):
    ds = synth_dataset(30, SeedPlan(79))
    model = build()
    model.ingest_batch(ds.X, ds.Y)
    for x in (ds.X[3], np.array([0.15, -0.35])):
        assert model.predict(x[None, :]) == model.predict(x)
