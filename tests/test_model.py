import tracemalloc
import warnings

import numpy as np
import pytest

from splitgp import gp as gp_module
from splitgp import model as model_module
from splitgp.baselines import LocalGpWgen, Rbcm
from splitgp.data import SeedPlan, synth_dataset
from splitgp.exceptions import ContractViolationError, EmptyModelError
from splitgp.gp import FitSchedule, GpPosterior, posterior_mean, posterior_variance
from splitgp.kernels import KernelSpec, gram, kernel_eval
from splitgp.model import ChildModel, PriorMeanNode, SplittingGP, TrainSchedule


def make_spec(ls, sf2=1.0, sn2=0.1):
    return KernelSpec(np.asarray(ls, dtype=float), sf2, sn2)


def quiet_model(m, spec=None, **kwargs):
    return SplittingGP(m, spec=spec, train_schedule=TrainSchedule.never(), **kwargs)


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
            assert summary.mean == pytest.approx(posterior_mean(post, x, spec), abs=1e-12)
            assert summary.weights.shape == (1,)
            assert summary.weights[0] == pytest.approx(1.0, abs=1e-15)
            assert model.predict(x)[1] == pytest.approx(
                posterior_variance(post, x, spec), abs=1e-12
            )

    def test_identical_children_reproduce_common_mean(self):
        spec = make_spec([1.0, 1.0], sn2=0.1)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        Y = rng.normal(size=8)
        model = quiet_model(50, spec=spec)
        model.children = [
            ChildModel(X.copy(), Y.copy(), center=np.array([0.0, 0.0])),
            ChildModel(X.copy(), Y.copy(), center=np.array([2.0, 1.0])),
            ChildModel(X.copy(), Y.copy(), center=np.array([-1.0, 3.0])),
        ]
        post = GpPosterior(X, Y, spec)
        for x in rng.normal(size=(20, 2)):
            expected = posterior_mean(post, x, spec)
            assert model.predict_mean(x).mean == pytest.approx(expected, abs=1e-12)

    def test_equidistant_children_average(self):
        spec = make_spec([1.0], sf2=1.0, sn2=0.0)
        k = kernel_eval([0.7], [0.0], spec)
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
        v = posterior_variance(model.children[0].posterior(spec), np.array([0.0]), spec)
        assert model.predict(np.array([0.0]))[1] == pytest.approx(v / 2, abs=1e-12)

    def test_three_child_variance_formula_oracle(self):
        spec = make_spec([1.0, 1.0], sf2=1.4, sn2=0.2)
        rng = np.random.default_rng(2)
        model = quiet_model(50, spec=spec)
        for _ in range(3):
            X = rng.normal(size=(5, 2))
            model.children.append(ChildModel(X, rng.normal(size=5)))
        x = np.array([0.25, -0.4])
        sims = np.array([kernel_eval(c.center, x, spec) for c in model.children])
        weights = sims / sims.sum()
        variances = np.array([
            posterior_variance(c.posterior(spec), x, spec) for c in model.children
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
        sched = TrainSchedule(on_split=False, on_batch=True, fit=FitSchedule(max_iters=30))
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
                offset = child.prior.evaluate(child.X)
                assert np.allclose(child.residuals(), child.Y - offset, atol=1e-12)


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
        assert model.gram_footprint() <= 8 * m * n
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
        sched = TrainSchedule(on_split=False, on_batch=True, fit=FitSchedule(max_iters=10))
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
        sched = (TrainSchedule(on_split=True, on_batch=False, fit=FitSchedule(max_iters=3))
                 if refit else TrainSchedule.never())
        model = SplittingGP(m, train_schedule=sched)
        for t in range(100):
            if warm and model.children:
                model.predict(X[t])
            model.update(X[t], Y[t])
        if warm:
            # A refit clears every cache, so the warm model ends on a read.
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
        sched = TrainSchedule(on_split=False, on_batch=True,
                              fit=FitSchedule(max_iters=4),
                              fit_subsample=20, subsample_seed=2**70 + 3)
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


def test_update_refits_on_split_per_schedule():
    rng = np.random.default_rng(13)
    sched = TrainSchedule(on_split=True, on_batch=False, fit=FitSchedule(max_iters=3))
    model = SplittingGP(10, train_schedule=sched)
    for i in range(11):
        model.update(rng.uniform(-1, 1, size=2), rng.normal())
    assert model.n_children == 2
    assert model.last_fit is not None


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
        taken = {"cold": 0, "extended": 0, "jitter": 0, "pivot": 0}
        append, extended = ChildModel.append, GpPosterior.extended

        def traced_append(self, *args):
            taken["cold"] += self._posterior is None
            append(self, *args)

        def traced_extended(self, *args):
            out = extended(self, *args)
            key = "extended" if out is not None else "jitter" if self.jitter else "pivot"
            taken[key] += 1
            return out

        monkeypatch.setattr(ChildModel, "append", traced_append)
        monkeypatch.setattr(GpPosterior, "extended", traced_extended)
        return taken

    @staticmethod
    def _relative_gap(a, b):
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))

    @pytest.mark.parametrize("kind, sn2, seed, branches", [
        ("smooth", 0.05, 21, {"cold", "extended"}),
        ("smooth", 0.05, 22, {"cold", "extended"}),
        ("duplicates", 1e-12, 23, {"extended", "pivot"}),
        ("duplicates", 0.0, 24, {"extended", "jitter"}),
    ])
    def test_matches_fresh_factorization(self, monkeypatch, kind, sn2, seed, branches):
        rng = np.random.default_rng(seed)
        X, Y = self._stream(kind, rng, 160)
        model = SplittingGP(25, spec=make_spec([0.8, 1.2], sn2=sn2),
                            train_schedule=TrainSchedule(on_split=False, on_batch=False,
                                                         fit=FitSchedule(max_iters=3)))
        taken = self._record_branches(monkeypatch)
        for t in range(X.shape[0]):
            if t == 80 and kind == "smooth":
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
                prior = c.prior.evaluate(c.X) if c.prior is not None else 0.0
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
        assert taken["extended"] > 0 and taken["pivot"] == taken["jitter"] == 0


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
    def _count_evaluations(monkeypatch):
        counts = {}
        evaluate = PriorMeanNode.evaluate

        def counted(node, *args, **kwargs):
            counts[id(node)] = counts.get(id(node), 0) + 1
            return evaluate(node, *args, **kwargs)

        monkeypatch.setattr(PriorMeanNode, "evaluate", counted)
        return counts

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
        once = {id(node): 1 for node in model.prior_nodes()}
        assert len(once) >= 3
        counts = self._count_evaluations(monkeypatch)
        for call, rows in ((model.predict, queries[0]), (model.predict_mean, queries[-3]),
                           (model.predict_mean_batch, queries)):
            counts.clear()
            call(rows)
            assert counts == once
        counts.clear()
        model.predict_variance_batch(queries)  # needs no prior mean
        assert counts == {}


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
            model.ingest(X[t], Y[t])
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
    predict's prior-chain value and its solve l = L^-1 k; the result is
    bitwise what computing them afresh gives."""

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
        # leaves no single-row memo, so its updates build every kernel row
        # and solve themselves.
        X, Y = self._stream(seed)
        probe = np.array([[0.3, -0.4], [-1.2, 0.8]])
        reuse, fresh = self.FACTORIES[kind](self.SPEC), self.FACTORIES[kind](self.SPEC)
        for t in range(X.shape[0]):
            if t:
                reuse.predict(X[t])
                fresh.predict_mean_batch(probe)
            reuse.ingest(X[t], Y[t])
            fresh.ingest(X[t], Y[t])
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

        def flagged_reserve(self):
            reserving.append(1)
            try:
                return reserve(self)
            finally:
                reserving.pop()

        monkeypatch.setattr(model_module, "scaled_cross_gram",
                            counted("model_kernel", model_kernel))
        monkeypatch.setattr(gp_module, "scaled_cross_gram",
                            counted("gp_kernel", gp_kernel))
        monkeypatch.setattr(GpPosterior, "_solve_lower", counted_solve)
        monkeypatch.setattr(GpPosterior, "_reserve", flagged_reserve)
        return counts

    def _streamed(self, seed, schedule=None):
        X, Y = self._stream(seed, n=150)
        model = SplittingGP(10, spec=self.SPEC, train_schedule=schedule or TrainSchedule.never())
        for t in range(X.shape[0]):
            if t:
                model.predict(X[t])
            model.update(X[t], Y[t])
        # A child with room for two more rows, and the point at its center,
        # which routes to it.
        child = next(c for c in model.children if c.n <= model.m - 2)
        assert child.prior is not None
        return model, child, child.center.copy()

    @staticmethod
    def _assert_matches_fresh_posterior(model, child):
        post = child._posterior
        assert post is not None and post.n == child.n  # extended, not cleared
        fresh = GpPosterior(child.X, child.Y - child.prior.evaluate(child.X), model.spec)
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
        schedule = TrainSchedule(on_split=False, on_batch=False, fit=FitSchedule(max_iters=3))
        model, child, x = self._streamed(54, schedule)
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


class TestChildStorage:
    def test_views_survive_buffer_growth(self):
        rng = np.random.default_rng(61)
        X, Y = rng.uniform(-1, 1, size=(40, 2)), rng.normal(size=40)
        child = ChildModel(X[:2], Y[:2])
        views = []
        for t in range(2, X.shape[0]):
            views.append((child.X, child.Y, t))
            child.append(X[t], Y[t])
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
            child.append(X[t], 0.0)
            assert child.X.base is base
        assert np.array_equal(child.X, X)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_center_is_bitwise_row_mean(self, ndim):
        rng = np.random.default_rng(63)
        X = rng.standard_normal((300, ndim)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        child = ChildModel(X[:5], np.zeros(5))
        for t in range(5, X.shape[0]):
            child.append(X[t], 0.0)
            assert child.center.tobytes() == X[:t + 1].mean(axis=0).tobytes()
