import math
import tracemalloc
import warnings

import numpy as np
import pytest

from splitgp import gp as gp_module
from splitgp import model as model_module
from splitgp.baselines import FullGp, LocalGpWgen, Rbcm
from splitgp.data import SeedPlan, synth_dataset, synth_latent
from splitgp.exceptions import ContractViolationError, EmptyModelError, NumericalError
from splitgp.gp import FitSchedule, GpPosterior, posterior_mean, posterior_variance
from splitgp.kernels import FAR_NORM, KernelSpec, Query, cross_gram, gram
from splitgp.model import (FIT_ROWS, GATE_RIDGE, SNAPSHOT_VERSION, ChildModel, PriorMeanNode,
                           SplittingGP, TrainSchedule)


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)


def quiet_model(m, spec=None, **kwargs):
    return SplittingGP(m, spec=spec, train_schedule=TrainSchedule.never(), **kwargs)


def _count_fits(monkeypatch):
    """A list that grows by one entry per kernel fit the model makes."""
    fits, fit = [], model_module.fit
    monkeypatch.setattr(model_module, "fit", lambda *args: fits.append(1) or fit(*args))
    return fits


def _row(x):
    """x as the checked and scaled one-row `Query` that `ChildModel.append`
    takes, under unit lengthscales."""
    return Query.of(x[None, :], make_spec(np.ones(x.size)))


class TestUpdate:
    def test_first_observation_creates_centered_child(self):
        model = quiet_model(5)
        model.update(np.array([0.4, -0.2]), 1.5)
        assert model.n_children == 1
        assert np.array_equal(model.children[0].center, [0.4, -0.2])
        assert np.array_equal(model.children[0].Y, [1.5])

    def test_third_collinear_point_triggers_split(self):
        model = quiet_model(2)
        for x, y in [(0.0, 0.0), (0.1, 0.1), (10.0, 1.0)]:
            model.update(np.array([x]), y)
        assert model.n_children == 2
        assert all(c.n <= 2 for c in model.children)

    def test_far_field_point_joins_nearest_center(self):
        # Every similarity to -1000 underflows to zero, so the argmax of the
        # similarities would pick child 0 whatever its center.
        model = quiet_model(3, spec=make_spec([1.0], sf2=1.0, sn2=0.1))
        for x in (0.0, 0.5, 100.0, 100.5):
            model.update(np.array([x]), 0.0)
        near, far = sorted(model.children, key=lambda c: c.center[0])
        assert (near.center[0], far.center[0]) == (0.25, 100.25)
        model.update(np.array([-1000.0]), 0.0)
        assert sorted(near.X[:, 0]) == [-1000.0, 0.0, 0.5]
        assert sorted(far.X[:, 0]) == [100.0, 100.5]

    def test_far_field_row_joins_the_child_its_weights_pick(self):
        # At |x / l| = 1e150 the row's own |x|^2 = 1e300 absorbs the cross
        # term 2 x.c ~ 1e151, so a distance that adds it ties every center.
        # The row joins the child of the lowest score; the two children are
        # equally wide, so the gate gives that child all the weight too.
        model = quiet_model(3, spec=make_spec([1.0, 1.0], sf2=1.0, sn2=0.1))
        for x in ((-5.0, 0.0), (-5.1, 0.0), (5.0, 0.0), (5.1, 0.0)):
            model.update(np.array(x), 0.0)
        centers = [c.center.tolist() for c in model.children]
        left = centers.index([-5.05, 0.0])
        x = np.array([-1e150, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = model.predict_mean(x).weights
            scores = model._scores(Query.of(x, model.spec))[0]
            model.update(x, 1.0)
        assert scores.argmin() == left and weights[left] == 1.0
        assert [c.n for c in model.children] == [2 + (j == left) for j in range(2)]
        assert model.children[left].X[-1].tolist() == x.tolist()

    def test_new_point_joins_most_similar_center(self):
        spec = make_spec([1.0, 1.0])
        model = quiet_model(50, spec=spec)
        model.children.append(ChildModel(np.array([[0.0, 0.0]]), [0.0]))
        model.children.append(ChildModel(np.array([[10.0, 0.0]]), [1.0]))
        model.update(np.array([9.0, 0.0]), 2.0)
        assert model.children[0].n == 1
        assert model.children[1].n == 2

    def test_center_recomputed_after_append(self):
        model = quiet_model(10)
        model.update(np.array([0.0, 0.0]), 0.0)
        model.update(np.array([1.0, 1.0]), 1.0)
        assert np.allclose(model.children[0].center, [0.5, 0.5])

    def test_non_finite_rejected(self):
        model = quiet_model(5)
        with pytest.raises(ContractViolationError):
            model.update(np.array([np.nan, 0.0]), 1.0)
        model.update(np.array([0.0, 0.0]), 0.0)
        with pytest.raises(ContractViolationError):
            model.update(np.array([0.0, 0.0]), float("inf"))

    def test_overflowing_row_rejected_before_the_spec_is_seeded(self):
        # At unit lengthscales |x|^2 = 1e400 overflows; the pool warns nothing
        # and keeps no spec seeded from the rejected row.
        model = quiet_model(5)
        with pytest.raises(ContractViolationError, match="overflows"):
            model.update(np.array([1e200, 0.0]), 1.0)
        with pytest.raises(ContractViolationError, match="overflows"):
            model.update_batch(np.array([[0.0, 0.0], [0.0, -1e200]]), [1.0, 2.0])
        assert model.spec is None and model.n_observations == 0

    def test_identical_inputs_split_by_arrival_rank(self):
        model = quiet_model(10)
        x = np.array([0.3, -0.7])
        for i in range(40):
            model.update(x, float(i))
        assert model.n_observations == 40
        assert all(c.n <= 10 for c in model.children)
        stored = np.sort(np.concatenate([c.Y for c in model.children]))
        assert np.array_equal(stored, np.arange(40.0))

    def test_split_limit_below_two_rejected(self):
        with pytest.raises(ContractViolationError):
            SplittingGP(1)


class TestUpdateBatch:
    def test_batch_of_one_equals_single_update(self):
        xs = np.array([[0.0], [0.4], [1.2], [5.0]])
        ys = np.array([0.0, 1.0, 0.5, -1.0])
        a, b = quiet_model(3), quiet_model(3)
        for x, y in zip(xs, ys):
            a.update(x, y)
            b.update_batch(x[None, :], [y])
        assert a.n_children == b.n_children
        for ca, cb in zip(a.children, b.children):
            assert np.array_equal(ca.X, cb.X)
            assert np.array_equal(ca.Y, cb.Y)

    def test_empty_batch_is_noop(self):
        model = quiet_model(3)
        model.update(np.array([0.0]), 1.0)
        model.update_batch(np.zeros((0, 1)), np.zeros(0))
        assert model.n_children == 1
        assert model.n_observations == 1

    def test_streaming_invariants(self):
        seeds = SeedPlan(3)
        ds = synth_dataset(600, seeds)
        model = quiet_model(100)
        model.update_batch(ds.X, ds.Y)
        assert all(c.n <= 100 for c in model.children)
        assert model.n_observations == 600
        stored = np.vstack([np.column_stack([c.X, c.Y]) for c in model.children])
        stream = np.column_stack([ds.X, ds.Y])
        assert np.array_equal(
            stored[np.lexsort(stored.T)], stream[np.lexsort(stream.T)]
        )

    def test_child_count_bounds(self):
        seeds = SeedPlan(4)
        ds = synth_dataset(900, seeds)
        model = quiet_model(120)
        model.update_batch(ds.X, ds.Y)
        n, m = 900, 120
        assert int(np.ceil(n / m)) <= model.n_children <= int(np.ceil(2 * n / m)) + 1


class TestPredict:
    def test_single_child_matches_gp_posterior(self):
        spec = make_spec([1.0], sn2=0.05)
        model = quiet_model(50, spec=spec)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(12, 1))
        Y = np.sin(2 * X[:, 0])
        model.update_batch(X, Y)
        assert model.n_children == 1
        post = GpPosterior(X, Y, spec)
        for x in (np.array([0.3]), np.array([-0.8])):
            summary = model.predict_mean(x)
            assert summary.mean == pytest.approx(posterior_mean(post, x), abs=1e-12)
            assert summary.weights.shape == (1,)
            assert summary.weights[0] == pytest.approx(1.0, abs=1e-15)
            assert model.predict(x)[1] == pytest.approx(
                posterior_variance(post, x), abs=1e-12
            )

    def test_identical_children_reproduce_common_mean(self):
        spec = make_spec([1.0, 1.0], sn2=0.1)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        Y = rng.normal(size=8)
        model = quiet_model(50, spec=spec)
        model.children = [ChildModel(X.copy(), Y.copy()) for _ in range(3)]
        for child, center in zip(model.children, [[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]]):
            child.center = np.array(center)
        post = GpPosterior(X, Y, spec)
        for x in rng.normal(size=(20, 2)):
            expected = posterior_mean(post, x)
            assert model.predict_mean(x).mean == pytest.approx(expected, abs=1e-12)

    def test_equidistant_children_average(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        k = cross_gram([0.7], [0.0], spec)[0, 0]
        model = quiet_model(50, spec=spec)
        # Single-point children whose means at x*=0 are exactly 1.0 and 3.0.
        model.children = [
            ChildModel(np.array([[-0.7]]), [1.0 / k]),
            ChildModel(np.array([[0.7]]), [3.0 / k]),
        ]
        summary = model.predict_mean(np.array([0.0]))
        assert np.allclose(summary.weights, [0.5, 0.5])
        assert summary.mean == pytest.approx(2.0, abs=1e-12)
        # Symmetric construction: equal child variances v give v/2.
        v = posterior_variance(model.children[0].posterior(spec), np.array([0.0]))
        assert model.predict(np.array([0.0]))[1] == pytest.approx(v / 2, abs=1e-12)

    def test_three_child_variance_formula_oracle(self):
        spec = make_spec([1.0, 1.0], sf2=1.4, sn2=0.2)
        rng = np.random.default_rng(2)
        model = quiet_model(50, spec=spec)
        for _ in range(3):
            X = rng.normal(size=(5, 2))
            model.children.append(ChildModel(X, rng.normal(size=5)))
        x = np.array([0.25, -0.4])
        # The gate: n_j N(x; c_j, s_j^2 I) in scaled coordinates, formed naively.
        ls = spec.lengthscales
        s2 = np.array([np.mean(((c.X - c.X.mean(axis=0)) / ls) ** 2) + GATE_RIDGE
                       for c in model.children])
        d2 = np.array([np.sum(((x - c.center) / ls) ** 2) for c in model.children])
        dens = np.array([c.n for c in model.children]) * s2 ** -1.0 * np.exp(-d2 / (2 * s2))
        weights = dens / dens.sum()
        variances = np.array([
            posterior_variance(c.posterior(spec), x) for c in model.children
        ])
        expected = float(np.sum(weights ** 2 * variances))
        assert model.predict(x)[1] == pytest.approx(expected, abs=1e-12)
        assert model.predict(x)[1] <= variances.max() + 1e-15

    def test_weights_partition_of_unity(self):
        seeds = SeedPlan(5)
        ds = synth_dataset(300, seeds)
        model = quiet_model(60)
        model.update_batch(ds.X, ds.Y)
        rng = np.random.default_rng(6)
        for x in rng.uniform(-2, 2, size=(100, 2)):
            summary = model.predict_mean(x)
            assert abs(summary.weights.sum() - 1.0) <= 1e-12
            assert np.all(summary.weights >= 0.0)

    def test_far_field_weight_goes_to_nearest_child(self):
        # Every similarity underflows to zero at the query; the weights still
        # follow the scaled distances, so the nearer child takes them all.
        spec = make_spec([1e-3, 1e-3], sn2=0.01)
        model = quiet_model(50, spec=spec)
        model.children = [
            ChildModel(np.array([[0.0, 0.0]]), [1.0]),
            ChildModel(np.array([[0.1, 0.0]]), [2.0]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = model.predict_mean(np.array([1e3, 1e3]))
        assert summary.weights.tolist() == [0.0, 1.0]
        assert np.isfinite(summary.mean)

    def test_weights_finite_where_the_query_norm_overflows(self):
        # |x / l|^2 overflows to inf at this row; the weights never form it.
        model = quiet_model(50, spec=make_spec([1.0, 1.0], sn2=0.01))
        model.children = [
            ChildModel(np.array([[0.0, 0.0]]), [1.0]),
            ChildModel(np.array([[1.0, 0.0]]), [2.0]),
        ]
        with np.errstate(over="ignore"):  # scaling the query row overflows
            summary = model.predict_mean(np.array([1e200, 0.0]))
        assert summary.weights.tolist() == [0.0, 1.0]
        assert summary.mean == 0.0

    def test_mean_continuous_past_the_underflow_frontier(self):
        # Past x = 4.86 every similarity to both centers underflows; the mean
        # must keep following the nearer child B there instead of jumping.
        spec = make_spec([0.1], sf2=1.0, sn2=0.01)
        prior = PriorMeanNode(np.array([[0.0]]), np.array([1.0]), make_spec([100.0], sn2=0.01),
                              None)
        model = quiet_model(50, spec=spec)
        model.children = [ChildModel(np.array([[0.0]]), [1.0], prior=prior),
                          ChildModel(np.array([[1.0]]), [0.0])]
        xs = np.linspace(3.0, 6.0, 300_001)[:, None]
        assert np.abs(np.diff(model.predict_mean_batch(xs))).max() <= 1e-6

    def test_predict_computes_weights_once(self, monkeypatch):
        ds = synth_dataset(60, SeedPlan(5))
        model = quiet_model(15)
        model.update_batch(ds.X, ds.Y)
        x = np.array([0.1, -0.2])
        expected = (model.predict_mean(x).mean, float(model.predict_variance_batch(x[None, :])[0]))
        calls = []
        weights = SplittingGP._weights
        monkeypatch.setattr(
            SplittingGP, "_weights", lambda self, X: calls.append(1) or weights(self, X)
        )
        assert model.predict(x) == expected
        assert len(calls) == 1

    def test_empty_model_rejected(self):
        model = quiet_model(5)
        with pytest.raises(EmptyModelError):
            model.predict_mean(np.array([0.0]))


class TestPriorInheritance:
    def test_children_carry_parent_mean_after_split(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(41, 1))
        Y = np.sin(3 * X[:, 0]) + rng.normal(0, 0.05, 41)
        sched = TrainSchedule(fit=FitSchedule(max_iters=30))
        model = SplittingGP(40, train_schedule=sched)
        model.update_batch(X[:40], Y[:40])
        grid = np.linspace(-1, 1, 50)[:, None]
        before = model.predict_mean_batch(grid)
        model.schedule = TrainSchedule.never()
        model.update(X[40], Y[40])
        assert model.n_children == 2
        after = model.predict_mean_batch(grid)
        # One extra observation plus the split barely moves the surface.
        assert np.abs(after - before).max() < 0.3
        assert model.children[0].prior is model.children[1].prior

    def test_fit_uses_residuals(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, size=(30, 1))
        Y = rng.normal(size=30)
        model = quiet_model(20)
        model.update_batch(X, Y)
        assert model.n_children >= 2
        for child in model.children:
            if child.prior is not None:
                offset = child.prior.evaluate(child.X, Query.of(child.X, model.spec))
                assert np.allclose(child.residuals(model.spec), child.Y - offset, atol=1e-12)


class TestMemoryFootprint:
    def test_empty_model(self):
        assert quiet_model(5).memory_footprint() == 0

    def test_single_child_accounting(self):
        model = quiet_model(50)
        rng = np.random.default_rng(9)
        model.update_batch(rng.normal(size=(10, 2)), rng.normal(size=10))
        assert model.n_children == 1
        assert model.memory_footprint() == 8 * (10 * 10 + 10 * 2 + 10 + 2)

    def test_streaming_bound(self):
        seeds = SeedPlan(10)
        n, m = 800, 150
        ds = synth_dataset(n, seeds)
        model = quiet_model(m)
        model.update_batch(ds.X, ds.Y)
        assert 8 * sum(c.n * c.n for c in model.children) <= 8 * m * n
        # Live-child portion obeys the per-child bound; each of the C-1 splits
        # froze at most m+1 rows (plus weights) into a prior node.
        ndim, C = 2, model.n_children
        live = sum(c.footprint_bytes(ndim) for c in model.children)
        assert live <= 8 * (m * n + n * ndim + n + C * ndim)
        assert model.memory_footprint() <= live + 8 * (C - 1) * (m + 1) * (ndim + 1)


class TestSnapshot:
    def test_round_trip_preserves_predictions(self, tmp_path):
        seeds = SeedPlan(11)
        ds = synth_dataset(250, seeds)
        sched = TrainSchedule(fit=FitSchedule(max_iters=10))
        model = SplittingGP(60, train_schedule=sched)
        model.update_batch(ds.X, ds.Y)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = SplittingGP.load(path)
        assert loaded.m == model.m
        assert loaded.n_children == model.n_children
        grid = np.random.default_rng(12).uniform(-1, 1, size=(40, 2))
        assert np.array_equal(model.predict_mean_batch(grid), loaded.predict_mean_batch(grid))
        assert loaded.memory_footprint() == model.memory_footprint()

    @staticmethod
    def _stream(seed, n=160):
        """A 2-d stream in which every fifth input lies on the line x2 = 2 x1
        and every fifth repeats an earlier input."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 2))
        X[2::5, 1] = 2.0 * X[2::5, 0]
        for t in range(4, n, 5):
            X[t] = X[rng.integers(t)]
        return X, np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(n)

    @staticmethod
    def _predict_then_update(model, X, Y):
        out = []
        for x, y in zip(X, Y):
            out.append(model.predict(x))
            model.update(x, y)
        grid = np.random.default_rng(0).uniform(-1.5, 1.5, size=(30, 2))
        return np.concatenate([np.ravel(out), model.predict_mean_batch(grid),
                               model.predict_variance_batch(grid)])

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("m", [15, 60])
    @pytest.mark.parametrize("refit", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_save_load_continue_matches_uninterrupted(self, tmp_path, seed, m, refit, warm):
        X, Y = self._stream(seed)
        sched = (TrainSchedule(fit=FitSchedule(max_iters=3))
                 if refit else TrainSchedule.never())
        model = SplittingGP(m, train_schedule=sched)
        for t in range(100):
            if warm and model.children:
                model.predict(X[t])
            model.update(X[t], Y[t])
        assert (model.last_fit is not None) == refit  # the one fit, at row m
        if warm:
            # The fit clears every cache, so the warm model ends on a read.
            model.predict(X[100])
        assert any(c._posterior is not None for c in model.children) == warm
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        assert loaded.schedule == model.schedule
        expected = self._predict_then_update(model, X[100:], Y[100:])
        got = self._predict_then_update(loaded, X[100:], Y[100:])
        assert loaded.n_observations == model.n_observations == X.shape[0]
        if warm:
            # The loaded model refactorizes the factors the other one grew
            # row by row, so the two agree to round-off, not bitwise.
            gap = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
            assert gap <= 1e-9
        else:
            assert got.tobytes() == expected.tobytes()

    def test_never_model_keeps_its_schedule_across_load(self, tmp_path):
        # A `never` model must not start refitting once loaded: the loaded
        # stream matches the uninterrupted one with no help from the caller.
        X, Y = self._stream(34)
        model = quiet_model(15)
        for t in range(100):
            model.update(X[t], Y[t])
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        assert loaded.schedule == TrainSchedule.never()
        expected = self._predict_then_update(model, X[100:], Y[100:])
        got = self._predict_then_update(loaded, X[100:], Y[100:])
        assert loaded.last_fit is None and loaded.spec == model.spec
        assert got.tobytes() == expected.tobytes()

    def test_schedule_and_last_fit_round_trip(self, tmp_path):
        X, Y = self._stream(35, n=60)
        sched = TrainSchedule(fit=FitSchedule(max_iters=4), fit_subsample=20,
                              subsample_seed=2**70 + 3)
        model = SplittingGP(25, train_schedule=sched)
        model.update_batch(X, Y)
        assert model.last_fit is not None
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        assert loaded.schedule == sched
        assert type(loaded.schedule.fit.max_iters) is int
        got, want = loaded.last_fit, model.last_fit
        assert got.spec == want.spec
        assert (got.objective, got.iterations, got.converged, got.warning) == (
            want.objective, want.iterations, want.converged, want.warning)

    def test_numpy_scalar_settings_round_trip(self, tmp_path):
        X, Y = self._stream(38, n=60)
        sched = TrainSchedule(fit=FitSchedule(np.int64(3)), fit_subsample=np.int64(20),
                              subsample_seed=np.uint64(2**63 + 5))
        model = SplittingGP(25, train_schedule=sched)
        model.update_batch(X, Y)
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        assert loaded.schedule == sched and loaded.schedule.subsample_seed == 2**63 + 5
        assert loaded.last_fit == model.last_fit
        expected = self._predict_then_update(model, X[:20], Y[:20])
        assert self._predict_then_update(loaded, X[:20], Y[:20]).tobytes() == expected.tobytes()

    def _rejected(self, tmp_path, version, **payload_edits):
        """Save a snapshot, relabel it `version` with the payload edits (None
        deletes a key), and expect the load to refuse it."""
        model = quiet_model(5)
        model.update_batch(*self._stream(33, n=12))
        model.save(tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            payload = {k: v for k, v in data.items() if k not in payload_edits}
        payload.update({k: v for k, v in payload_edits.items() if v is not None},
                       version=np.array(version))
        np.savez(tmp_path / "old.npz", **payload)
        with pytest.raises(ContractViolationError, match=f"version {version}"):
            SplittingGP.load(tmp_path / "old.npz")

    def test_version_2_snapshot_rejected(self, tmp_path):
        self._rejected(tmp_path, 2, estimator_mode=np.array("batch-svd"))

    def test_version_3_snapshot_rejected(self, tmp_path):
        # Version 3 has no schedule; loading it would silently refit a
        # `never` model on every split and batch.
        self._rejected(tmp_path, 3, schedule_flags=None, schedule_fit=None,
                       schedule_subsample=None, schedule_subsample_seed=None)

    def test_version_4_snapshot_rejected(self, tmp_path):
        # Version 4 stores the six fields of the old line-search schedule.
        self._rejected(tmp_path, 4, schedule_fit=np.array([50, 1e-5, 0.25, 1.0, 1e-7, 1.5]))

    def test_version_5_snapshot_rejected(self, tmp_path):
        # Version 5 stores each child's center, which a child now derives.
        self._rejected(tmp_path, 5, child_0_c=np.zeros(2))

    def test_version_6_snapshot_rejected(self, tmp_path):
        # Version 6 stores the refit flags (on_split, on_batch), which the
        # fit-once schedule replaced.
        self._rejected(tmp_path, 6, schedule_fit_once=None,
                       schedule_flags=np.array([True, True]))

    def test_version_7_snapshot_rejected(self, tmp_path):
        # Version 7 stores a spec per prior node; every node now shares the
        # pool's one spec.
        assert SNAPSHOT_VERSION == 9
        self._rejected(tmp_path, 7, node_0_spec=np.array([1.0, 0.1, 1.0, 1.0]))

    def test_version_8_snapshot_rejected(self, tmp_path):
        # Version 8 stores the spec, schedule and last fit as arrays of their
        # own; the version alone refuses it, before any header is read.
        self._rejected(tmp_path, 8)

    def test_model_saved_after_its_fit_never_fits_again(self, tmp_path, monkeypatch):
        X, Y = self._stream(36, n=200)
        model = SplittingGP(15, train_schedule=TrainSchedule(fit=FitSchedule(max_iters=3)))
        for x, y in zip(X[:60], Y[:60]):
            model.update(x, y)
        assert model.n_children > 1 and model.last_fit is not None
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        fits = _count_fits(monkeypatch)
        n = loaded.n_children
        for x, y in zip(X[60:140], Y[60:140]):
            loaded.update(x, y)
        loaded.update_batch(X[140:], Y[140:])
        assert not fits and loaded.n_children > n + 2
        assert loaded.spec == model.spec and loaded.last_fit == model.last_fit

    @pytest.mark.parametrize("then", ["batch", "row"])
    def test_model_saved_before_its_fit_fits_at_its_fit_row(self, tmp_path, monkeypatch, then):
        # At m = 15 the fit comes right after the 15th row, before the
        # first split, whether that row arrives alone or inside a batch.
        X, Y = self._stream(37, n=120)
        model = SplittingGP(15, train_schedule=TrainSchedule(fit=FitSchedule(max_iters=3)))
        for x, y in zip(X[:10], Y[:10]):
            model.update(x, y)
        assert model.n_children == 1 and model.last_fit is None
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        fits = _count_fits(monkeypatch)
        if then == "batch":
            loaded.update_batch(X[10:20], Y[10:20])  # fits after its fifth row, then splits
            assert loaded.n_children == 2 and len(fits) == 1
        else:
            for x, y in zip(X[10:20], Y[10:20]):
                loaded.update(x, y)
                assert len(fits) == (loaded.n_observations >= 15)
                assert loaded.n_children == 1 + (loaded.n_observations > 15)
        assert loaded.last_fit is not None and loaded.prior_nodes()
        loaded.update_batch(X[-5:], Y[-5:])
        assert len(fits) == 1


def test_update_refits_on_split_per_schedule():
    rng = np.random.default_rng(13)
    sched = TrainSchedule(fit=FitSchedule(max_iters=3))
    model = SplittingGP(10, train_schedule=sched)
    for i in range(11):
        model.update(rng.uniform(-1, 1, size=2), rng.normal())
    assert model.n_children == 2
    assert model.last_fit is not None


class TestFitOnce:
    """The default schedule fits the kernel once, right after row
    min(FIT_ROWS, m), before the first split; after that an update
    factorizes at most the child it splits, whatever the number of children,
    as the paper's bound on an update's cost asks.  Counted, not timed."""

    @staticmethod
    def _collinear(rng):
        t = rng.uniform(-2, 2, 400)
        return np.column_stack([t, 0.5 * t]), np.sin(2 * t) + 0.05 * rng.standard_normal(400)

    @staticmethod
    def _uniform(rng):
        X = rng.uniform(-2, 2, size=(2000, 2))
        return X, np.sin(X).sum(axis=1) + 0.05 * rng.standard_normal(2000)

    @pytest.mark.parametrize("stream, m, children", [("collinear", 10, 40), ("uniform", 50, 40)])
    def test_one_fit_then_an_update_factorizes_at_most_its_split_child(
            self, monkeypatch, stream, m, children):
        X, Y = getattr(self, f"_{stream}")(np.random.default_rng(91))
        fits = _count_fits(monkeypatch)
        built, init = [], GpPosterior.__init__

        def counted(post, X, *args, **kwargs):
            built.append(X.shape[0])
            init(post, X, *args, **kwargs)

        monkeypatch.setattr(GpPosterior, "__init__", counted)
        model = SplittingGP(m)
        splits = 0
        for x, y in zip(X, Y):
            fitted, n_children, start = bool(fits), model.n_children, len(built)
            model.update(x, y)
            if fitted:
                split = model.n_children > n_children
                splits += split
                assert built[start:] == ([m + 1] if split else [])
        assert len(fits) == 1 and model.n_children >= children and splits >= children - 2

    @pytest.mark.parametrize("m", [7, 40])
    @pytest.mark.parametrize("ingest", ["rows", "batch"])
    def test_the_fit_comes_before_the_first_node_is_frozen(self, monkeypatch, m, ingest):
        # Row min(FIT_ROWS, m) fits; a split needs m + 1 rows in one child,
        # so every node is frozen under the fitted spec, the pool's one spec.
        X, Y = self._uniform(np.random.default_rng(92))
        model = SplittingGP(m, train_schedule=TrainSchedule(fit=FitSchedule(max_iters=3)))
        frozen, init = [], PriorMeanNode.__init__

        def recorded(node, X, alpha, spec, parent):
            frozen.append((model.last_fit, spec))
            init(node, X, alpha, spec, parent)

        monkeypatch.setattr(PriorMeanNode, "__init__", recorded)
        if ingest == "rows":
            for x, y in zip(X[:200], Y[:200]):
                model.update(x, y)
        else:
            model.update_batch(X[:200], Y[:200])
        assert len(frozen) >= 3 and model.last_fit is not None
        assert all(fit is model.last_fit and spec is model.spec for fit, spec in frozen)

    def test_refit_after_a_split_is_refused_and_changes_nothing(self):
        X, Y = self._uniform(np.random.default_rng(93))
        model = SplittingGP(10, train_schedule=TrainSchedule(fit=FitSchedule(max_iters=3)))
        model.update_batch(X[:60], Y[:60])
        assert model.prior_nodes()
        grid = X[100:120]
        state = (model.spec, model.last_fit)
        before = (model.predict_mean_batch(grid).tobytes(),
                  model.predict_variance_batch(grid).tobytes())
        with pytest.raises(ContractViolationError, match="fixed"):
            model.refit()
        assert (model.spec, model.last_fit) == state and model.spec is state[0]
        with pytest.raises(AttributeError):  # and the spec is read-only
            model.spec = make_spec([1.0, 1.0])
        assert (model.predict_mean_batch(grid).tobytes(),
                model.predict_variance_batch(grid).tobytes()) == before

    @pytest.mark.parametrize("kind", ["fullgp", "splitting", "local"])
    def test_a_far_stored_row_bounds_the_fit(self, kind):
        # Row 250, at 6.5e153, is stored: its |x / l|^2 is below FAR_NORM at
        # l = 1.  Under a trial lengthscale below about 0.97 it is not, and
        # the Gram matrix would overflow; that trial fails as an evaluation,
        # here with warnings as errors, and the fit sets `warning`.
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.5, 0.5, size=(FIT_ROWS, 2))
        X[250] = (6.5e153, 0.0)
        signal = np.sin(10 * X[:, 0]) * np.cos(10 * X[:, 1])
        signal[250] = 0.0
        model = {"fullgp": FullGp, "splitting": lambda: SplittingGP(FIT_ROWS),
                 "local": lambda: LocalGpWgen(0.001)}[kind]()
        model.update_batch(X, signal + 0.01 * rng.standard_normal(FIT_ROWS))
        assert model.last_fit is not None and model.last_fit.warning
        assert np.sum((X[250] / model.spec.lengthscales) ** 2) < FAR_NORM
        assert np.isfinite(model.predict(X[0])).all()

    @pytest.mark.parametrize("kind", ["fullgp", "splitting"])
    def test_a_far_cluster_fails_the_gradient_not_the_fit(self, kind):
        # Rows 250-252 sit near 6.5e153, below FAR_NORM at every trial spec,
        # but close enough to each other that their kernel entries are not 0:
        # the gradient's x_d^T P x_d overflows.  That evaluation fails, here
        # with warnings as errors, and the fit sets `warning`.
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.5, 0.5, size=(FIT_ROWS, 2))
        X[250:253] = [(6.5e153, 0.0), (6.5e153, 0.3), (6.5e153 * (1 - 1e-16), 0.1)]
        signal = np.sin(10 * X[:, 0]) * np.cos(10 * X[:, 1])
        signal[250:253] = 0.0
        model = FullGp() if kind == "fullgp" else SplittingGP(FIT_ROWS)
        model.update_batch(X, signal + 0.01 * rng.standard_normal(FIT_ROWS))
        assert model.last_fit is not None and model.last_fit.warning
        assert np.isfinite(model.predict(X[0])).all()

    @pytest.mark.parametrize("seed, unfitted", [(5, 0.0071), (6, 0.00746)])
    def test_nodes_under_the_fitted_spec_track_the_latent_surface(self, seed, unfitted):
        # A 500-row warm batch at m = 100 fits at row 100, before its first
        # split; 1,500 single updates follow.  When the first split came
        # before the fit, 6 or 7 of about 28 nodes held the one-row default
        # spec, and the mean's squared error against the noise-free surface
        # on the last 1,000 rows was `unfitted`.
        ds = synth_dataset(3000, SeedPlan(seed))
        model = SplittingGP(100, train_schedule=TrainSchedule(fit=FitSchedule(15)))
        model.update_batch(ds.X[:500], ds.Y[:500])
        for x, y in zip(ds.X[500:2000], ds.Y[500:2000]):
            model.update(x, y)
        Xq = ds.X[2000:]
        mse_f = float(np.mean((model.predict_mean_batch(Xq) - synth_latent(*Xq.T)) ** 2))
        assert mse_f < unfitted


@pytest.mark.parametrize("cap", [0, -5])
def test_fit_subsample_below_one_rejected(cap):
    with pytest.raises(ContractViolationError, match="fit_subsample"):
        TrainSchedule(fit_subsample=cap)
    assert TrainSchedule(fit_subsample=1).fit_subsample == 1


class TestIncrementalUpdate:
    """Appends to a child with a cached posterior extend its Cholesky factor;
    each result is checked against a fresh factorization of the same data."""

    @staticmethod
    def _stream(kind, rng, n):
        if kind == "smooth":
            X = rng.uniform(-2, 2, size=(n, 2))
        else:  # nine distinct inputs, each repeated many times
            X = 1.5 * rng.integers(0, 3, size=(n, 2)).astype(float)
        return X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n)

    @staticmethod
    def _record_branches(monkeypatch):
        taken = {"cold": 0, "grown": 0, "jitter": 0, "pivot": 0}
        child_append, post_append = ChildModel.append, GpPosterior.append

        def traced_child_append(self, *args):
            taken["cold"] += self._posterior is None
            child_append(self, *args)

        def traced_post_append(self, *args):
            out = post_append(self, *args)
            key = "grown" if out else "jitter" if self.jitter else "pivot"
            taken[key] += 1
            return out

        monkeypatch.setattr(ChildModel, "append", traced_child_append)
        monkeypatch.setattr(GpPosterior, "append", traced_post_append)
        return taken

    @staticmethod
    def _relative_gap(a, b):
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

    @pytest.mark.parametrize("kind, sn2, seed, branches", [
        ("smooth", 0.05, 21, {"cold", "grown"}),
        ("smooth", 0.05, 22, {"cold", "grown"}),
        ("duplicates", 1e-12, 23, {"grown", "pivot"}),
        ("duplicates", 0.0, 24, {"grown", "jitter"}),
    ])
    def test_matches_fresh_factorization(self, monkeypatch, kind, sn2, seed, branches):
        rng = np.random.default_rng(seed)
        X, Y = self._stream(kind, rng, 160)
        model = SplittingGP(25, spec=make_spec([0.8, 1.2], sn2=sn2),
                            train_schedule=TrainSchedule(fit_once=False,
                                                         fit=FitSchedule(max_iters=3)))
        taken = self._record_branches(monkeypatch)
        for t in range(X.shape[0]):
            if t == 20 and kind == "smooth":  # before the first split, at row 26
                before = model.spec
                model.refit()  # a spec change: the next append finds no cache
                assert model.spec != before
            elif t % 4 and model.children:
                model.predict(X[t])  # caches every child's posterior
            model.update(X[t], Y[t])
            for c in model.children:
                post = c._posterior
                if post is None:
                    continue
                assert post.spec == model.spec
                prior = (c.prior.evaluate(c.X, Query.of(c.X, model.spec))
                         if c.prior is not None else 0.0)
                fresh = GpPosterior(c.X, c.Y - prior, model.spec)
                assert self._relative_gap(post.Y, fresh.Y) <= 1e-9
                assert self._relative_gap(post.chol, fresh.chol) <= 1e-9
                assert self._relative_gap(post.alpha, fresh.alpha) <= 1e-9
        assert {k for k, v in taken.items() if v} >= branches

    def test_backward_stable_when_ill_conditioned(self, monkeypatch):
        # At noise 1e-9 every repeated input leaves a pivot near 1e-9: above
        # the refusal threshold, so the factor keeps growing, but the Gram
        # matrix has condition ~1e10 and no two solvers agree to 1e-9.  The
        # extended factor and weights must still reproduce K and the
        # residuals to round-off.
        rng = np.random.default_rng(25)
        X, Y = self._stream("duplicates", rng, 120)
        model = quiet_model(25, spec=make_spec([0.8, 1.2], sn2=1e-9))
        taken = self._record_branches(monkeypatch)
        eps = np.finfo(float).eps
        for t in range(X.shape[0]):
            if model.children:
                model.predict(X[t])
            model.update(X[t], Y[t])
            for c in model.children:
                post = c._posterior
                if post is None:
                    continue
                K = gram(c.X, model.spec, add_noise=True)
                scale = 100 * c.n * eps
                assert np.max(np.abs(post.chol @ post.chol.T - K)) <= scale * np.max(K)
                resid = K @ post.alpha - post.Y
                bound = np.max(K) * np.sum(np.abs(post.alpha)) + np.max(np.abs(post.Y))
                assert np.max(np.abs(resid)) <= scale * bound
        assert taken["grown"] > 0 and taken["pivot"] == taken["jitter"] == 0


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class TestSingleQueryPath:
    """`predict` on one point does the batch paths' arithmetic with one kernel
    row per child and one evaluation per prior node."""

    @staticmethod
    def _streamed(seed):
        # Every third input repeats an earlier one; m = 10 over 300 rows
        # builds prior chains several splits deep.  A predict before each
        # update leaves some children with grown factors, some fresh.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(300, 2))
        X[2::3] = X[0:-2:3]
        Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(300)
        model = quiet_model(10, spec=make_spec([0.7, 1.1], sn2=0.02))
        for t in range(X.shape[0]):
            if t % 5 and model.children:
                model.predict(X[t])
            model.update(X[t], Y[t])
        assert max(len(c.prior.chain()) for c in model.children if c.prior) >= 3
        queries = np.vstack([
            X[::25],                            # training inputs, some duplicated
            rng.uniform(-2.5, 2.5, size=(12, 2)),
            [[9.0, -9.0], [-14.0, 3.0]],        # far field, weights still defined
            [[1e3, 1e3]],                       # every similarity underflows
        ])
        return model, queries

    @staticmethod
    def _blocks(monkeypatch):
        """(query rows, stored side) of every cross-kernel block a prior node
        builds."""
        blocks = []
        build = model_module.scaled_cross_gram

        def counted(Xa, Za, sf2):
            blocks.append((Xa.shape[0], Za))
            return build(Xa, Za, sf2)

        monkeypatch.setattr(model_module, "scaled_cross_gram", counted)
        return blocks

    @pytest.mark.parametrize("seed", [41, 42])
    def test_single_point_matches_batch(self, seed):
        model, queries = self._streamed(seed)
        single = np.array([model.predict(q) for q in queries])
        assert _relative_gap(single[:, 0], model.predict_mean_batch(queries)) <= 1e-12
        assert _relative_gap(single[:, 1], model.predict_variance_batch(queries)) <= 1e-12
        for q in queries:
            weights = model.predict_mean(q).weights
            assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-12

    def test_each_prior_node_evaluated_once_per_call(self, monkeypatch):
        model, queries = self._streamed(43)
        nodes = model.prior_nodes()
        assert len(nodes) >= 3
        blocks = self._blocks(monkeypatch)

        def per_node():
            return [sum(Za is node._scaled for _, Za in blocks) for node in nodes]

        for call, rows in ((model.predict, queries[0]), (model.predict_mean, queries[-3]),
                           (model.predict_mean_batch, queries)):
            blocks.clear()
            call(rows)
            assert per_node() == [1] * len(nodes)
        blocks.clear()
        model.predict_variance_batch(queries)  # needs no prior mean
        assert not blocks

    def test_posterior_rebuilds_leave_one_query_block_per_node(self, monkeypatch, tmp_path):
        # A loaded model rebuilds every posterior on its first read, and each
        # rebuild evaluates the chain at its child's own rows; the chain at
        # the query rows is still built once per node.
        model, queries = self._streamed(43)
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        nodes = loaded.prior_nodes()
        assert max(c.n for c in loaded.children) < len(queries)
        blocks = self._blocks(monkeypatch)
        loaded.predict_mean_batch(queries)
        assert [sum(b == len(queries) and Za is node._scaled for b, Za in blocks)
                for node in nodes] == [1] * len(nodes)
        assert len(blocks) > len(nodes)  # the rebuilds' own blocks

    def test_batch_read_leaves_no_batch_on_the_nodes(self):
        # A batch's chain values serve its own call only; a single row's stay
        # on the pool's handoff, one float per child, for the update that may
        # follow, bitwise what the child's chain walk gives.
        rng = np.random.default_rng(47)
        model = SplittingGP(20, KernelSpec(np.ones(2), 1.0, 0.01), TrainSchedule.never())
        model.update_batch(rng.uniform(-10, 10, (1000, 2)), rng.normal(size=1000))
        nodes = model.prior_nodes()
        assert len(nodes) >= 50
        model.predict_mean_batch(rng.uniform(-10, 10, (10, 2)))
        queries = rng.uniform(-10, 10, (5000, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.predict_mean_batch(queries)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 0.25e6 and model._handoff is None
        model.predict(queries[0])
        solved = model._handoff.solved
        assert list(solved) == [child._posterior for child in model.children]
        row = queries[:1]
        for child, (_, chain) in zip(model.children, solved.values()):
            if child.prior is None:
                assert chain is None
            else:
                walked = child.prior.evaluate(row, Query.of(row, model.spec))
                assert np.shape(chain) == () and chain.tobytes() == walked[0].tobytes()


class TestRowsScaledOnce:
    """A streamed row is checked and scaled once, where it enters the pool:
    one `Query.of` per `update` or `update_batch` call below the split limit,
    whatever the batch length, and one per `ChildModel.residuals` walk,
    whatever the chain depth.  Every model and node here shares one spec."""

    SPEC = make_spec([0.7, 1.1], sn2=0.02)
    FACTORIES = {
        "splitting": lambda spec: SplittingGP(100, spec=spec,
                                              train_schedule=TrainSchedule.never()),
        "fullgp": lambda spec: FullGp(spec=spec, train_schedule=TrainSchedule.never()),
        "local": lambda spec: LocalGpWgen(0.3, spec=spec, train_schedule=TrainSchedule.never()),
        "rbcm": lambda spec: Rbcm(3, seed=5, spec=spec, train_schedule=TrainSchedule.never()),
    }

    @staticmethod
    def _count_queries(monkeypatch):
        calls = []
        build = Query.of.__func__
        monkeypatch.setattr(Query, "of", classmethod(
            lambda cls, *args, **kwargs: calls.append(1) or build(cls, *args, **kwargs)))
        return calls

    @pytest.mark.parametrize("kind", ["splitting", "fullgp", "local", "rbcm"])
    def test_one_query_per_update_call(self, monkeypatch, kind):
        # An update that follows a one-row read of the same row takes that
        # read's `Query`, so it makes none; after a read of another row, or a
        # call in between, it makes its own.
        rng = np.random.default_rng(71)
        X, Y = rng.uniform(-2, 2, size=(70, 2)), rng.normal(size=70)
        model = self.FACTORIES[kind](self.SPEC)
        calls = self._count_queries(monkeypatch)
        model.update_batch(X[:30], Y[:30])
        assert len(calls) == 1
        for t in range(30, 50):
            # Each read caches every posterior, so the update grows one.
            read = (X[t], X[t] + 0.5, X[t:t + 1])[t % 3]
            (model.predict if t % 3 < 2 else model.predict_mean_batch)(read)
            if t % 4 == 3:
                model.predict_mean_batch(X[:2])  # drops the handoff
            calls.clear()
            model.update(X[t], Y[t])
            assert len(calls) == (1 if t % 3 == 1 or t % 4 == 3 else 0)
        model.predict(X[50])
        calls.clear()
        model.update_batch(X[50:], Y[50:])  # grows the cached posteriors
        assert len(calls) == 1
        assert sum(c._posterior is not None for c in model.children) >= 1
        if kind == "splitting":
            assert model.n_children == 1  # below the split limit

    @pytest.mark.parametrize("kind", ["splitting", "fullgp", "local", "rbcm"])
    def test_update_after_predicting_an_overflowing_row_is_rejected(self, kind):
        # The read's `Query` holds |x / l|^2 = inf; the update that takes it
        # still checks the row, rejects it and changes nothing.
        rng = np.random.default_rng(73)
        model = self.FACTORIES[kind](make_spec([1.0, 1.0], sn2=0.02))
        model.update_batch(rng.uniform(-2, 2, size=(10, 2)), rng.normal(size=10))
        x = np.array([1e200, 0.0])
        mean, var = model.predict(x)
        assert np.isfinite(mean) and np.isfinite(var)
        sizes = [c.n for c in model.children]
        with pytest.raises(ContractViolationError):
            model.update(x, 1.0)
        assert [c.n for c in model.children] == sizes

    def test_one_query_per_chain_walk(self, monkeypatch):
        rng = np.random.default_rng(72)
        X = rng.uniform(-2, 2, size=(300, 2))
        model = quiet_model(6, spec=self.SPEC)
        model.update_batch(X, np.sin(X).sum(axis=1))
        child = max((c for c in model.children if c.prior), key=lambda c: len(c.prior.chain()))
        nodes = child.prior.chain()
        assert len(nodes) >= 4
        calls = self._count_queries(monkeypatch)
        expanded, expansion = [], PriorMeanNode.expansion
        monkeypatch.setattr(PriorMeanNode, "expansion", lambda node, query: (
            expanded.append((node, query)) or expansion(node, query)))
        residuals = ChildModel(child.X, child.Y, child.prior).residuals(model.spec)
        assert len(calls) == 1 and residuals.shape == (child.n,)
        # Every node expands the one query of the child's rows, root first.
        assert [node for node, _ in expanded] == nodes[::-1]
        assert all(query is expanded[0][1] for _, query in expanded)
        assert expanded[0][1].X.tobytes() == child.X.tobytes()


def _state(obj):
    """obj's contents, to compare before and after a call: an array by
    identity and bytes, a posterior by its attributes, an object with slots
    (a prior node, a posterior's storage) by its slots, anything else by
    identity."""
    if isinstance(obj, np.ndarray):
        return id(obj), obj.shape, obj.tobytes()
    if isinstance(obj, GpPosterior):
        return id(obj), {name: _state(value) for name, value in vars(obj).items()}
    slots = getattr(type(obj), "__slots__", ())
    return id(obj), {name: _state(getattr(obj, name)) for name in slots}


class TestReadsChangeNothing:
    """A read changes nothing but the pool's handoff: no slot of a prior
    node or of a posterior, once a first read has cached the posteriors and
    built their lazy alpha and scaled rows.  The nodes are visited in one
    climb per read that stops where an earlier child's climb went."""

    SPEC = make_spec([0.7, 1.1], sn2=0.02)
    FACTORIES = TestRowsScaledOnce.FACTORIES

    @pytest.mark.parametrize("kind", ["splitting", "fullgp", "local", "rbcm"])
    def test_reads_leave_every_node_and_posterior_as_it_was(self, kind):
        rng = np.random.default_rng(74)
        X = rng.uniform(-2, 2, size=(120, 2))
        Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(120)
        model = (quiet_model(10, spec=self.SPEC) if kind == "splitting"
                 else self.FACTORIES[kind](self.SPEC))
        for t in range(X.shape[0]):  # a predict before each update grows factors
            if t:
                model.predict(X[t])
            model.update(X[t], Y[t])
        grid = rng.uniform(-2.5, 2.5, size=(7, 2))
        model.predict_mean_batch(grid)
        model.predict_variance_batch(grid)
        nodes, posts = model.prior_nodes(), [c._posterior for c in model.children]
        assert all(post is not None for post in posts)
        assert any(post._store is not None for post in posts)
        if kind == "splitting":
            assert len(nodes) >= 3
        before = [_state(obj) for obj in nodes + posts]
        model.predict(grid[0])
        model.predict(X[-1])
        model.predict_mean_batch(grid[:1])
        model.predict_variance_batch(grid[1:2])
        model.predict_mean_batch(grid)
        model.predict_variance_batch(grid)
        if kind == "splitting":
            model.predict_mean(grid[2])
        assert [c._posterior for c in model.children] == posts
        assert [_state(obj) for obj in nodes + posts] == before

    def test_one_climb_per_read_on_a_deep_chain(self, monkeypatch):
        # A drifting stream at m = 6 builds a chain of about 70 nodes.  A read
        # or a `prior_nodes()` call reads each node's parent at most once,
        # where walking every child's whole chain would read thousands, and
        # a read expands each node once.
        rng = np.random.default_rng(75)
        X = np.column_stack([np.linspace(0, 20, 600), rng.uniform(-1, 1, 600)])
        model = quiet_model(6, spec=make_spec([1.0, 1.0], sn2=0.01))
        model.update_batch(X, np.sin(X[:, 0]) + 0.1 * rng.standard_normal(600))
        nodes = model.prior_nodes()
        depths = [len(c.prior.chain()) for c in model.children if c.prior]
        assert max(depths) >= 50 and sum(depths) > 10 * len(nodes)
        grid = np.column_stack([np.linspace(-1, 21, 5), np.zeros(5)])
        model.predict_mean_batch(grid)  # caches every posterior
        visits, parent = [], PriorMeanNode.parent
        monkeypatch.setattr(PriorMeanNode, "parent", property(
            lambda node: visits.append(node) or parent.__get__(node)))
        expanded, expansion = [], PriorMeanNode.expansion
        monkeypatch.setattr(PriorMeanNode, "expansion", lambda node, query: (
            expanded.append(node) or expansion(node, query)))
        bound = len(nodes) + model.n_children
        assert model.prior_nodes() == nodes and len(visits) <= bound
        for call, rows in ((model.predict, grid[0]), (model.predict_mean_batch, grid),
                           (model.predict_mean, grid[4])):
            visits.clear()
            expanded.clear()
            call(rows)
            assert len(visits) <= bound
            assert sorted(map(id, expanded)) == sorted(map(id, nodes))
        visits.clear()
        model.footprint()
        assert len(visits) <= bound


def _gathered_scores(model, Xq):
    """The center scores from the centers gathered afresh from the children."""
    query = Query.of(Xq, model.spec)
    Cs = np.array([c.center for c in model.children]) / model.spec.lengthscales
    return np.sum(Cs * Cs, axis=1) - 2.0 * (query.Xs @ Cs.T)


def assert_pooled_scores(model, Xq):
    """The pool's scores, read from its kept centers, are bitwise the
    gathered ones."""
    pooled = model._scores(Query.of(Xq, model.spec))
    assert pooled.tobytes() == _gathered_scores(model, Xq).tobytes()


class TestPooledCenters:
    """The pool keeps its scaled centers in one array: an update rewrites the
    row of the child it stores in, and a split rewrites one row and appends
    one, so no update gathers the centers from the child list."""

    SPEC = make_spec([0.7, 1.1], sn2=0.02)
    GRID = np.random.default_rng(80).uniform(-2.5, 2.5, size=(9, 2))

    def test_update_rewrites_one_row_and_a_split_two(self, monkeypatch):
        rng = np.random.default_rng(81)
        X = rng.uniform(-2, 2, size=(80, 2))
        model = quiet_model(8, spec=self.SPEC)
        model.update_batch(X[:20], np.sin(X[:20]).sum(axis=1))
        moved, center_moved = [], SplittingGP._center_moved
        monkeypatch.setattr(SplittingGP, "_center_moved",
                            lambda self, idx: moved.append(idx) or center_moved(self, idx))
        splits = 0
        for x in X[20:]:
            model.predict(x)  # brings the kept centers up to date
            kept, n = model._centers[2], model.n_children
            before = kept.copy()
            moved.clear()
            model.update(x, float(np.sin(x).sum()))
            assert model._centers[2] is kept and len(moved) == 1  # one row, in place
            rows = np.arange(n) != moved[0]
            assert kept[rows].tobytes() == before[rows].tobytes()
            Cs = model._scaled_centers()[0]
            if model.n_children > n:  # a split: the rewrite, then one new row
                splits += 1
                assert Cs is not kept and len(Cs) == n + 1
                assert Cs[:n].tobytes() == kept.tobytes()
            else:
                assert Cs is kept
            assert_pooled_scores(model, self.GRID)
        assert splits >= 3

    def test_scores_follow_a_refit_and_a_reload(self, tmp_path):
        rng = np.random.default_rng(82)
        X = rng.uniform(-2, 2, size=(60, 2))
        Y = np.sin(X).sum(axis=1)
        model = SplittingGP(10, spec=self.SPEC, train_schedule=TrainSchedule(
            fit_once=False, fit=FitSchedule(max_iters=3)))
        model.update_batch(X[:10], Y[:10])
        assert_pooled_scores(model, self.GRID)
        spec = model.spec
        model.refit()  # before the first split, which fixes the kernel
        assert model.spec != spec
        assert_pooled_scores(model, self.GRID)
        model.update_batch(X[10:40], Y[10:40])
        assert model.prior_nodes()
        assert_pooled_scores(model, self.GRID)
        model.save(tmp_path / "model.npz")
        loaded = SplittingGP.load(tmp_path / "model.npz")
        for x, y in zip(X[40:], Y[40:]):
            for m in (model, loaded):
                m.predict(x)
                m.update(x, y)
                assert_pooled_scores(m, self.GRID)
        assert model._scores(Query.of(self.GRID, model.spec)).tobytes() == (
            loaded._scores(Query.of(self.GRID, loaded.spec)).tobytes())

    @pytest.mark.parametrize("kind", ["splitting", "local"])
    def test_scores_follow_children_and_centers_set_directly(self, kind):
        # As some tests build a pool: the child list replaced or lengthened,
        # and centers set before the first read; then a refit moves the spec.
        rng = np.random.default_rng(83)
        X, Y = rng.normal(size=(8, 2)), rng.normal(size=8)
        model = (quiet_model(50, spec=self.SPEC) if kind == "splitting" else
                 LocalGpWgen(0.9, spec=self.SPEC, train_schedule=TrainSchedule.never()))
        model.children = [ChildModel(X.copy(), Y.copy()) for _ in range(3)]
        for child in model.children:
            child.center = rng.normal(size=2)
        model.predict(X[0])
        assert_pooled_scores(model, self.GRID)
        model.children.append(ChildModel(X[:2], Y[:2]))
        assert_pooled_scores(model, self.GRID)
        model.children = model.children[1:]
        assert_pooled_scores(model, self.GRID)
        spec = model.spec
        model.refit()
        assert model.spec != spec
        assert_pooled_scores(model, self.GRID)
        model.update(X[1], 0.5)
        assert_pooled_scores(model, self.GRID)


@pytest.mark.parametrize("kind", ["splitting", "fullgp", "local", "rbcm"])
def test_far_field_reads_raise_no_warning(kind):
    # |x / l|^2 overflows at x = 1e200: the row gets an exact zero kernel
    # row, by design, and no read warns of the overflow, here with warnings
    # as errors and no `np.errstate`.
    rng = np.random.default_rng(84)
    X = rng.uniform(-2, 2, size=(30, 2))
    spec, never = make_spec([0.5, 0.5], sn2=0.02), TrainSchedule.never()
    model = {"splitting": lambda: SplittingGP(8, spec=spec, train_schedule=never),
             "fullgp": lambda: FullGp(spec=spec, train_schedule=never),
             "local": lambda: LocalGpWgen(0.3, spec=spec, train_schedule=never),
             "rbcm": lambda: Rbcm(3, seed=5, spec=spec, train_schedule=never)}[kind]()
    model.update_batch(X, np.sin(X).sum(axis=1))
    x = np.array([1e200, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reads = [*model.predict(x), *model.predict_mean_batch(np.array([x, X[0]])),
                 *model.predict_variance_batch(x[None, :]), *model.predict_mean_batch(x[None, :])]
        if kind == "splitting":
            assert model.n_children > 1 and model.prior_nodes()
            reads.append(model.predict_mean(x).mean)
    assert np.all(np.isfinite(reads))


class TestFactorStorage:
    """A grown factor lives in storage reserved once, not in a fresh array
    per append."""

    def test_append_copies_no_factor(self):
        rng = np.random.default_rng(44)
        n = 400
        X = rng.uniform(-2, 2, size=(n + 2, 2))
        Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n + 2)
        model = quiet_model(500, spec=make_spec([0.8, 1.2], sn2=0.05))
        model.update_batch(X[:n], Y[:n])
        model.predict(X[n])  # caches the posterior
        model.update(X[n], Y[n])  # its first extension reserves the storage
        child = model.children[0]
        assert child._posterior is not None
        tracemalloc.start()
        try:
            model.update(X[n + 1], Y[n + 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        post = child._posterior
        assert post is not None and post.n == n + 2  # extended, not cleared
        assert peak < n * n * 8 / 4
        fresh = GpPosterior(child.X, child.Y, model.spec)
        assert _relative_gap(post.alpha, fresh.alpha) <= 1e-9

    def test_single_row_predict_copies_no_stored_rows(self):
        # A kernel row reads the posterior's augmented rows, n x (d + 2),
        # where they are kept, for a fresh factor and for a grown one.
        rng = np.random.default_rng(46)
        n, d = 500, 8
        X = rng.uniform(-2, 2, size=(n + 3, d))
        Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n + 3)
        model = quiet_model(600, spec=make_spec(np.full(d, 1.5), sn2=0.05))
        model.update_batch(X[:n], Y[:n])
        for t in (n, n + 1):
            model.predict(X[t])  # caches the posterior and its scaled rows
            tracemalloc.start()
            try:
                model.predict(X[t + 1])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * d * 8 / 2
            model.update(X[t], Y[t])
        post = model.children[0]._posterior
        assert post is not None and post.n == n + 2 and post._store is not None

    def test_unbounded_child_grows_past_its_storage(self):
        # A LocalGpWgen model has no size limit, so its storage doubles when
        # full; each boundary crossing is checked against a fresh factor.
        rng = np.random.default_rng(45)
        X = rng.uniform(-2, 2, size=(90, 2))
        Y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(90)
        spec = make_spec([0.8, 1.2], sn2=0.05)
        model = LocalGpWgen(1e-15, spec=spec, train_schedule=TrainSchedule.never())
        capacities = set()
        for t in range(X.shape[0]):
            if t >= 3:
                model.predict(X[t])  # caches the posterior
            model.update(X[t], Y[t])
            assert model.n_children == 1
            post = model.children[0]._posterior
            if post is None or post._store is None:
                continue
            capacities.add(post._store.Y.size)
            fresh = GpPosterior(model.children[0].X, model.children[0].Y, spec)
            assert _relative_gap(post.Y, fresh.Y) <= 1e-9
            assert _relative_gap(post.chol, fresh.chol) <= 1e-9
            assert _relative_gap(post.alpha, fresh.alpha) <= 1e-9
        assert len(capacities) >= 4


class TestQueryReuse:
    """An update that follows a predict of the same row reuses that
    predict's prior-chain value and its solve l = L^-1 k, which the pool's
    handoff holds; the result is bitwise what computing them afresh gives."""

    SPEC = make_spec([0.7, 1.1], sn2=0.02)

    @staticmethod
    def _stream(seed, n=240):
        # Every third input repeats an earlier one.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 2))
        X[2::3] = X[0:-2:3]
        return X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n)

    FACTORIES = {
        "splitting": lambda spec: SplittingGP(10, spec=spec,
                                              train_schedule=TrainSchedule.never()),
        "local": lambda spec: LocalGpWgen(0.3, spec=spec, train_schedule=TrainSchedule.never()),
        "rbcm": lambda spec: Rbcm(3, seed=5, spec=spec, train_schedule=TrainSchedule.never()),
    }

    @staticmethod
    def _batch(model, grid):
        return np.concatenate([model.predict_mean_batch(grid),
                               model.predict_variance_batch(grid)])

    @pytest.mark.parametrize("kind", ["splitting", "local", "rbcm"])
    @pytest.mark.parametrize("seed", [51, 52])
    def test_predict_then_update_matches_update_only(self, kind, seed):
        # Both models cache every child's posterior before each update, so
        # both extend the same factors.  One caches them by a predict of the
        # row about to arrive; the other by a two-row batch mean, which
        # leaves no handoff, so its updates build every kernel row and solve
        # themselves.
        X, Y = self._stream(seed)
        probe = np.array([[0.3, -0.4], [-1.2, 0.8]])
        reuse, fresh = self.FACTORIES[kind](self.SPEC), self.FACTORIES[kind](self.SPEC)
        for t in range(X.shape[0]):
            if t:
                reuse.predict(X[t])
                fresh.predict_mean_batch(probe)
            reuse.update(X[t], Y[t])
            fresh.update(X[t], Y[t])
        if kind == "splitting":
            assert max(len(c.prior.chain()) for c in reuse.children if c.prior) >= 3
        pairs = list(zip(reuse.children, fresh.children, strict=True))
        assert sum(a._posterior is not None for a, _ in pairs) >= 2
        for a, b in pairs:
            assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()
            assert a.center.tobytes() == b.center.tobytes()
            assert (a._posterior is None) == (b._posterior is None)
            if a._posterior is not None:
                assert a._posterior.chol.tobytes() == b._posterior.chol.tobytes()
                assert a._posterior.alpha.tobytes() == b._posterior.alpha.tobytes()
        grid = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(25, 2))
        assert self._batch(reuse, grid).tobytes() == self._batch(fresh, grid).tobytes()

    @staticmethod
    def _count_query_work(monkeypatch):
        """Counts kernel evaluations in `model` (by prior nodes, and by the
        weights of a predict) and in `gp` (by posteriors), and solves
        L^-1 k; the solve of L^-1 Y that reserves storage is not one."""
        counts = {"model_kernel": 0, "gp_kernel": 0, "solve": 0}
        reserving = []
        model_kernel, gp_kernel = model_module.scaled_cross_gram, gp_module.scaled_cross_gram
        solve, reserve = GpPosterior._solve_lower, GpPosterior._reserve

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        def counted_solve(self, k):
            counts["solve"] += not reserving
            return solve(self, k)

        def flagged_reserve(self, *args):
            reserving.append(1)
            try:
                return reserve(self, *args)
            finally:
                reserving.pop()

        monkeypatch.setattr(model_module, "scaled_cross_gram",
                            counted("model_kernel", model_kernel))
        monkeypatch.setattr(gp_module, "scaled_cross_gram",
                            counted("gp_kernel", gp_kernel))
        monkeypatch.setattr(GpPosterior, "_solve_lower", counted_solve)
        monkeypatch.setattr(GpPosterior, "_reserve", flagged_reserve)
        return counts

    def _streamed(self, seed, schedule=None, n=150):
        """A model streamed n rows; below its split limit, which fixes the
        kernel, it may still be refit."""
        X, Y = self._stream(seed, n=n)
        model = SplittingGP(10, spec=self.SPEC, train_schedule=schedule or TrainSchedule.never())
        for t in range(X.shape[0]):
            if t:
                model.predict(X[t])
            model.update(X[t], Y[t])
        # A child with room for two more rows, and the point at its center,
        # which routes to it.
        child = next(c for c in model.children if c.n <= model.m - 2)
        assert (child.prior is not None) == (n > model.m)
        return model, child, child.center.copy()

    @staticmethod
    def _assert_matches_fresh_posterior(model, child):
        post = child._posterior
        assert post is not None and post.n == child.n  # extended, not cleared
        chain = 0.0 if child.prior is None else child.prior.evaluate(
            child.X, Query.of(child.X, model.spec))
        fresh = GpPosterior(child.X, child.Y - chain, model.spec)
        assert _relative_gap(post.chol, fresh.chol) <= 1e-9
        assert _relative_gap(post.alpha, fresh.alpha) <= 1e-9

    def test_update_after_predict_of_same_row_builds_no_kernel_row(self, monkeypatch):
        model, child, x = self._streamed(53)
        n = child.n
        counts = self._count_query_work(monkeypatch)
        model.predict(x)
        assert counts["model_kernel"] > 0 and counts["solve"] > 0
        counts.update(dict.fromkeys(counts, 0))
        model.update(x, 0.25)
        assert child.n == n + 1 and child.X[-1].tobytes() == x.tobytes()
        assert counts == {"model_kernel": 0, "gp_kernel": 0, "solve": 0}
        self._assert_matches_fresh_posterior(model, child)

    @pytest.mark.parametrize("before", ["other_row", "refit"])
    def test_update_without_memo_computes_its_own_solve(self, monkeypatch, before):
        schedule = TrainSchedule(fit_once=False, fit=FitSchedule(max_iters=3))
        model, child, x = self._streamed(54, schedule, n=8 if before == "refit" else 150)
        model.predict(x)
        if before == "refit":
            spec = model.spec
            model.refit()
            assert model.spec != spec
        model.predict(x + 0.5)  # caches every posterior, at another row
        counts = self._count_query_work(monkeypatch)
        model.update(x, 0.25)
        assert counts["gp_kernel"] == 1 and counts["solve"] == 1
        self._assert_matches_fresh_posterior(model, child)

    @pytest.mark.parametrize("between", ["refit", "children", "invalidate", "other_row"])
    def test_update_after_a_change_takes_no_stale_handoff(self, monkeypatch, between):
        # Predict x, then change what that read solved against, then update
        # x: no append takes the read's solve, and the result is bitwise an
        # update-only twin's, which makes the same change.  A rebuilt child
        # list, like an invalidated child, holds posteriors the read never
        # solved against.
        schedule = TrainSchedule(fit_once=False, fit=FitSchedule(max_iters=3))
        n = 8 if between == "refit" else 150
        reuse, _, x = self._streamed(55, schedule, n)
        twin = self._streamed(55, schedule, n)[0]
        probe = np.array([[0.3, -0.4], [-1.2, 0.8]])
        for model in (reuse, twin):
            model.predict_mean_batch(probe)  # caches every posterior
        reuse.predict(x)
        for model in (reuse, twin):
            if between == "refit":
                model.refit()
            elif between == "children":
                model.children = [model._new_child(c.X, c.Y, c.prior) for c in model.children]
            elif between == "invalidate":
                for child in model.children:
                    child.invalidate()
            else:
                model.predict(x + 0.5)
            for child in model.children:
                child.posterior(model.spec)
        taken, append = [], GpPosterior.append
        monkeypatch.setattr(GpPosterior, "append", lambda post, *args: (
            taken.append(args[4:]) or append(post, *args)))
        for model in (reuse, twin):
            model.update(x, 0.25)
        assert taken == [(None,), (None,)]
        for a, b in zip(reuse.children, twin.children, strict=True):
            assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()
            assert a._posterior.chol.tobytes() == b._posterior.chol.tobytes()
            assert a._posterior.alpha.tobytes() == b._posterior.alpha.tobytes()
        grid = np.random.default_rng(55).uniform(-2.5, 2.5, size=(25, 2))
        assert self._batch(reuse, grid).tobytes() == self._batch(twin, grid).tobytes()


class TestChildStorage:
    def test_views_survive_buffer_growth(self):
        rng = np.random.default_rng(61)
        X, Y = rng.uniform(-1, 1, size=(40, 2)), rng.normal(size=40)
        child = ChildModel(X[:2], Y[:2])
        views = []
        for t in range(2, X.shape[0]):
            views.append((child.X, child.Y, t))
            child.append(_row(X[t]), Y[t])
        assert child.n == X.shape[0]
        assert np.array_equal(child.X, X) and np.array_equal(child.Y, Y)
        for Xv, Yv, n in views:
            assert np.array_equal(Xv, X[:n]) and np.array_equal(Yv, Y[:n])

    def test_bounded_child_reserves_its_limit_once(self):
        rng = np.random.default_rng(62)
        X = rng.uniform(-1, 1, size=(11, 3))
        child = ChildModel(X[:4], np.zeros(4), max_rows=11)
        base = child.X.base
        for t in range(4, 11):
            child.append(_row(X[t]), 0.0)
            assert child.X.base is base
        assert np.array_equal(child.X, X)

    def test_center_of_one_row_is_the_row(self):
        assert np.array_equal(ChildModel(np.array([[3.0, -1.0]]), [0.0]).center, [3.0, -1.0])

    def test_center_of_two_rows(self):
        child = ChildModel(np.array([[0.0, 0.0], [2.0, 2.0]]), np.zeros(2))
        assert np.allclose(child.center, [1.0, 1.0])

    def test_center_against_exact_summation(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3)) * 10.0
        exact = np.array([math.fsum(X[:, d]) / 100.0 for d in range(3)])
        assert np.abs(ChildModel(X, np.zeros(100)).center - exact).max() < 1e-12

    def test_empty_child_rejected(self):
        # A child is founded by rows; there is no empty one to center.
        with pytest.raises(ContractViolationError):
            ChildModel(np.empty((0, 2)), np.empty(0))

    def test_negative_zero_rows_center_like_the_row_mean(self):
        # NumPy's column sums start at +0, so a column of -0 averages to +0.
        X = np.array([[-0.0, -0.0], [-0.0, 1.0], [0.0, -0.0]])
        for n in (1, 2, 3):
            child = ChildModel(X[:1], np.zeros(1))
            for x in X[1:n]:
                child.append(_row(x), 0.0)
            assert child.center.tobytes() == X[:n].mean(axis=0).tobytes()
            assert ChildModel(X[:n], np.zeros(n)).center.tobytes() == child.center.tobytes()

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_center_is_bitwise_row_mean(self, ndim):
        rng = np.random.default_rng(63)
        X = rng.standard_normal((300, ndim)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        child = ChildModel(X[:5], np.zeros(5))
        for t in range(5, X.shape[0]):
            child.append(_row(X[t]), 0.0)
            assert child.center.tobytes() == X[:t + 1].mean(axis=0).tobytes()


class TestRefitAdoption:
    """A refit drops every cached posterior.  A `SplittingGP` batch ends by
    factorizing, in a slot apart, each child that holds no posterior, so the
    first read after it rebuilds nothing; that factor is bitwise the one a
    rebuild makes, and an append drops it."""

    BATCH_FIT = TrainSchedule(fit=FitSchedule(max_iters=5))

    @staticmethod
    def _data(seed, n=60):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 2))
        return X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n)

    @pytest.mark.parametrize("kind", ["splitting"])
    def test_adopted_factor_is_bitwise_the_rebuilt_one(self, monkeypatch, kind):
        # The batch ends at the row the fit is due at, the m-th, before the
        # first split, so the model holds one child.
        model = SplittingGP(12, train_schedule=self.BATCH_FIT)
        model.update_batch(*self._data(71, model._fit_rows))
        live = [c for c in model.children if c.n > 0]
        assert len(live) == 1 and model.last_fit is not None
        for c in live:
            post = c._adopted
            assert post is not None and c._posterior is None
            assert post.spec == model.spec
            fresh = GpPosterior(c.X, c.residuals(model.spec), model.spec)
            assert post.chol.tobytes() == fresh.chol.tobytes()
            assert post.alpha.tobytes() == fresh.alpha.tobytes()
        init, built = GpPosterior.__init__, []

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GpPosterior, "__init__", counted)
        model.predict_mean_batch(self._data(72, 5)[0])
        assert not built
        assert all(c._posterior is not None and c._adopted is None for c in live)

    @staticmethod
    def _assert_rebuilt(model):
        """Every child holds, apart, bitwise the posterior a read would build."""
        for c in model.children:
            fresh = GpPosterior(c.X, c.residuals(model.spec), model.spec)
            assert c._adopted is not None and c._adopted.chol.tobytes() == fresh.chol.tobytes()

    def test_child_cut_by_fit_subsample_adopts_nothing(self):
        # The fit sees only some of the rows of a child cut by the
        # subsample; the batch's end, at the fit's row, factorizes the child
        # over all of them.  A FullGp batch ends with no factor.
        cap = 8
        schedule = TrainSchedule(fit=FitSchedule(max_iters=5), fit_subsample=cap)
        model = SplittingGP(12, train_schedule=schedule)
        model.update_batch(*self._data(73, 12))
        assert model.last_fit is not None and [c.n for c in model.children] == [12]
        self._assert_rebuilt(model)
        full = FullGp(train_schedule=schedule)
        full.update_batch(*self._data(73, FIT_ROWS))
        assert full.last_fit is not None and full.children[0]._adopted is None

    def test_nothing_adopted_when_the_last_evaluation_failed(self, monkeypatch):
        # From the third on, every evaluation fails once it has rewritten the
        # arrays of the one before.  L-BFGS-B returns an iterate it accepted
        # before that, whose factors the fit's arrays no longer hold: the
        # batch's end factorizes each child at the returned spec.
        shard_lml, calls = gp_module._shard_lml, []

        def failing(*args):
            out = shard_lml(*args)
            calls.append(1)
            if len(calls) >= 3:
                raise NumericalError("injected")
            return out

        monkeypatch.setattr(gp_module, "_shard_lml", failing)
        model = SplittingGP(12, train_schedule=self.BATCH_FIT)
        model.update_batch(*self._data(74, 12))  # fits after its last row
        assert len(calls) > 3 and model.last_fit.warning and model.last_fit.iterations > 0
        monkeypatch.undo()
        self._assert_rebuilt(model)

    def test_update_only_stream_extends_no_factor(self, monkeypatch):
        # Without a read or a batch end, no child caches a posterior for
        # an append to grow, the fit's included.
        post_append, calls = GpPosterior.append, []

        def counted(self, *args):
            calls.append(1)
            return post_append(self, *args)

        monkeypatch.setattr(GpPosterior, "append", counted)
        schedule = TrainSchedule(fit=FitSchedule(max_iters=3))
        model = SplittingGP(10, train_schedule=schedule)
        for x, y in zip(*self._data(75, 80)):
            model.update(x, y)
        assert not calls
        assert model.n_children >= 4 and model.last_fit is not None

    def test_adopted_factor_grows_within_max_rows(self):
        model = SplittingGP(12, train_schedule=self.BATCH_FIT)
        model.update_batch(*self._data(76))
        # A child past half its limit, whose storage at twice its rows
        # would pass its buffer of m + 1 = 13 rows, and the row at its center.
        child = next(c for c in model.children if 7 <= c.n <= 11)
        x = child.center.copy()
        model.predict(x)  # takes the adopted posterior as the cache
        model.update(x, 0.25)
        post = child._posterior
        assert post is not None and post.n == child.n and post._store is not None
        assert post._store.Y.size <= child._Xbuf.shape[0]
