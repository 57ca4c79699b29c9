import math
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"

from splitgp.data import (
    Dataset,
    SeedPlan,
    center_y,
    dedup_exact,
    kfold,
    load_csv,
    standardize_inputs,
    synth_dataset,
    synth_grid,
    synth_latent,
    train_test_split,
    write_csv,
)
from splitgp.exceptions import ContractViolationError


class TestSynthLatent:
    def test_origin(self):
        assert synth_latent(0.0, 0.0) == 0.0

    def test_unit_point(self):
        assert synth_latent(1.0, 0.0) == pytest.approx(5 * math.sin(1.0) + 3.0, rel=1e-15)

    def test_asymmetry_from_linear_term(self):
        assert synth_latent(-1.0, 0.0) == pytest.approx(5 * math.sin(1.0) - 3.0, rel=1e-15)
        assert synth_latent(1.0, 0.0) - synth_latent(-1.0, 0.0) == pytest.approx(6.0)


class TestSynthDataset:
    def test_noise_scale_from_grid_max(self):
        # Exhaustive oracle: the latent maximum over the realized grid.
        grid_X, grid_f = synth_grid()
        assert grid_X.shape == (10000, 2)
        max_f = max(synth_latent(x1, x2) for x1, x2 in grid_X)
        assert grid_f.max() == pytest.approx(max_f, rel=1e-15)
        assert 0.35 < 0.05 * max_f < 0.45

    def test_rows_distinct_and_on_grid(self):
        ds = synth_dataset(500, SeedPlan(0))
        assert ds.n == 500
        assert len({tuple(row) for row in ds.X}) == 500
        assert np.all(np.abs(ds.X) <= 1.0)

    def test_seeded_determinism(self):
        a = synth_dataset(300, SeedPlan(42), replicate=3)
        b = synth_dataset(300, SeedPlan(42), replicate=3)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        c = synth_dataset(300, SeedPlan(42), replicate=4)
        assert not np.array_equal(a.Y, c.Y)

    def test_oversampling_rejected(self):
        with pytest.raises(ContractViolationError):
            synth_dataset(10001, SeedPlan(0))


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        ds = Dataset(np.array([[1.0, 2.0], [3.5, -4.0], [0.1, 0.2]]), [1.0, 2.0, 3.0])
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,target\n1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.n == 2
        assert np.array_equal(ds.Y, [3.0, 6.0])

    def test_whitespace_delimiter(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
        ds = load_csv(path)
        assert np.array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])

    def test_column_roles(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        ds = load_csv(path, x_cols=(0, 2), y_col=1)
        assert np.array_equal(ds.X, [[1.0, 3.0], [5.0, 7.0]])
        assert np.array_equal(ds.Y, [2.0, 6.0])

    @pytest.mark.parametrize("cols", [dict(y_col=-1), dict(x_cols=[-1]),
                                      dict(x_cols=(0, 2), y_col=2), dict(x_cols=(-3, 1))])
    def test_response_never_among_the_predictors(self, tmp_path, cols):
        # A negative index would count from the end, and so name the response.
        path = tmp_path / "t.csv"
        path.write_text("1,2,10\n3,4,20\n")
        with pytest.raises(ContractViolationError, match="columns must be >= 0"):
            load_csv(path, **cols)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ContractViolationError, match="line 2"):
            load_csv(path)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n5,6,7\n")
        with pytest.raises(ContractViolationError, match="line 3"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(ContractViolationError, match="line 2"):
            load_csv(path)

    def test_powergen_shaped_fixture_with_duplicates(self, tmp_path):
        # Four predictors plus response, duplicated rows removed exactly.
        rng = np.random.default_rng(1)
        base = rng.normal(size=(8, 5))
        table = np.vstack([base, base[2:5]])  # three exact duplicates
        path = tmp_path / "powerish.csv"
        lines = ["p1,p2,p3,p4,output"]
        lines += [",".join(repr(float(v)) for v in row) for row in table]
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path, x_cols=(0, 1, 2, 3), y_col=4)
        assert ds.n == 11
        assert dedup_exact(ds).n == 8

    def test_bundled_powergen_fixture(self):
        ds = load_csv(FIXTURES / "powergen_like.csv")
        assert ds.ndim == 4
        assert ds.n == 40
        assert dedup_exact(ds).n == 36

    def test_bundled_kin40k_fixture(self):
        ds = load_csv(FIXTURES / "kin40k_like.csv")
        assert ds.ndim == 8
        assert ds.n == 60
        assert dedup_exact(ds).n == 60


class TestDedup:
    def test_empty(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0))
        assert dedup_exact(ds).n == 0

    def test_no_duplicates_unchanged(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        back = dedup_exact(ds)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)

    def test_crafted_duplicates_removed_stably(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 2))
        Y = rng.normal(size=7)
        Xd = np.vstack([X, X[[0, 3, 5]]])
        Yd = np.concatenate([Y, Y[[0, 3, 5]]])
        ds = dedup_exact(Dataset(Xd, Yd))
        assert ds.n == 7
        assert np.array_equal(ds.X, X)

    def test_same_x_different_y_kept(self):
        ds = Dataset(np.array([[1.0], [1.0]]), [2.0, 3.0])
        assert dedup_exact(ds).n == 2


class TestKfold:
    def test_leave_one_out(self):
        ds = Dataset(np.arange(6, dtype=float)[:, None], np.arange(6, dtype=float))
        pairs = kfold(ds, 6, SeedPlan(0))
        assert len(pairs) == 6
        assert all(test.n == 1 and train.n == 5 for train, test in pairs)

    def test_fold_sizes_2500_by_5(self):
        ds = Dataset(np.arange(2500, dtype=float)[:, None], np.zeros(2500))
        pairs = kfold(ds, 5, SeedPlan(1))
        assert all(test.n == 500 for _, test in pairs)
        assert all(train.n == 2000 for train, _ in pairs)

    def test_union_of_tests_is_dataset(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(53, 2)), rng.normal(size=53))
        pairs = kfold(ds, 5, SeedPlan(2))
        sizes = [test.n for _, test in pairs]
        assert max(sizes) - min(sizes) <= 1
        gathered = np.vstack([test.X for _, test in pairs])
        assert np.array_equal(
            gathered[np.lexsort(gathered.T)], ds.X[np.lexsort(ds.X.T)]
        )

    def test_train_test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(size=(20, 1)), rng.normal(size=20))
        for train, test in kfold(ds, 4, SeedPlan(3)):
            assert train.n + test.n == 20
            both = np.concatenate([train.Y, test.Y])
            assert np.array_equal(np.sort(both), np.sort(ds.Y))

    def test_invalid_k(self):
        ds = Dataset(np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ContractViolationError):
            kfold(ds, 1, SeedPlan(0))
        with pytest.raises(ContractViolationError):
            kfold(ds, 4, SeedPlan(0))


class TestTrainTestSplit:
    def test_full_fraction_empty_test(self):
        ds = Dataset(np.arange(9, dtype=float)[:, None], np.zeros(9))
        train, test = train_test_split(ds, train_fraction=1.0, seeds=SeedPlan(0))
        assert train.n == 9
        assert test.n == 0

    def test_exact_counts(self):
        ds = Dataset(np.arange(40000, dtype=float)[:, None], np.zeros(40000))
        train, test = train_test_split(ds, train_count=10000, test_count=30000,
                                       seeds=SeedPlan(1))
        assert train.n == 10000
        assert test.n == 30000

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        a = train_test_split(ds, train_fraction=0.8, seeds=SeedPlan(9), replicate=2)
        b = train_test_split(ds, train_fraction=0.8, seeds=SeedPlan(9), replicate=2)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)

    def test_overdraw_rejected(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(ContractViolationError):
            train_test_split(ds, train_count=4, test_count=2, seeds=SeedPlan(0))


class TestSeedPlan:
    def test_purpose_streams_differ(self):
        plan = SeedPlan(7)
        a = plan.generator("sampling").normal(size=5)
        b = plan.generator("noise").normal(size=5)
        assert not np.array_equal(a, b)

    def test_master_seed_reproduces(self):
        x = SeedPlan(11).generator("folds", replicate=4).normal(size=8)
        y = SeedPlan(11).generator("folds", replicate=4).normal(size=8)
        assert np.array_equal(x, y)

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ContractViolationError):
            SeedPlan(0).generator("lottery")


class TestDatasetHandling:
    def test_center_y_round_trip(self):
        ds = Dataset(np.zeros((4, 1)), [1.0, 2.0, 3.0, 6.0])
        centered = center_y(ds)
        assert centered.Y.mean() == pytest.approx(0.0, abs=1e-15)
        assert centered.y_center == pytest.approx(3.0)
        assert np.allclose(centered.Y + centered.y_center, ds.Y)

    def test_standardize_inputs_uses_train_stats(self):
        rng = np.random.default_rng(7)
        train = Dataset(rng.normal(5.0, 2.0, size=(50, 2)), rng.normal(size=50))
        test = Dataset(rng.normal(5.0, 2.0, size=(10, 2)), rng.normal(size=10))
        strain, stest = standardize_inputs(train, test)
        assert np.abs(strain.X.mean(axis=0)).max() < 1e-12
        assert np.allclose(strain.X.std(axis=0), 1.0)
        mu, sd = train.X.mean(axis=0), train.X.std(axis=0)
        assert np.allclose(stest.X, (test.X - mu) / sd)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            Dataset(np.array([[np.inf, 0.0]]), [1.0])
        with pytest.raises(ContractViolationError):
            Dataset(np.array([[1.0, 0.0]]), [np.nan])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractViolationError):
            Dataset(np.zeros((3, 2)), np.zeros(2))
