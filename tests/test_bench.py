import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitgp import cli
from splitgp.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    MetricRecord,
    emit_csv,
    emit_summary_csv,
    grid_search,
    make_model,
    read_metrics,
    replicate_dataset,
    run_experiment,
    summarize,
)
from splitgp.data import SeedPlan
from splitgp.exceptions import ContractViolationError, NumericalError
from splitgp.model import SplittingGP


def tiny_cfg(**overrides):
    base = dict(
        model="splitting", m=500, dataset="synthetic", synthetic_n=120,
        kfold=2, replicates=2, seed=7, batch_size=60,
        train_schedule="never", fit_iters=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_kv_round_trip(self):
        cfg = tiny_cfg(sweep=(50, 100, 25), w_gen=0.05, standardize_x=True)
        back = ExperimentConfig.from_kv_text(cfg.to_kv_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolationError):
            ExperimentConfig.from_kv_text("model=splitting\nturbo=1\n")

    def test_invalid_model_rejected(self):
        with pytest.raises(ContractViolationError):
            ExperimentConfig(model="oracle")

    def test_sweep_parse(self):
        cfg = ExperimentConfig.from_kv_text("sweep=100:500:200\n")
        assert cfg.sweep == (100, 500, 200)

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("True", True), ("YES", True), (" yes ", True),
        ("0", False), ("false", False), ("FALSE", False), ("No", False),
    ])
    def test_bool_words(self, text, value):
        cfg = ExperimentConfig.from_kv_text(f"standardize_x={text}\n")
        assert cfg.standardize_x is value

    @pytest.mark.parametrize("text", ["ture", "on", "2", "", "y"])
    def test_unknown_bool_text_rejected(self, text):
        with pytest.raises(ContractViolationError, match="standardize_x"):
            ExperimentConfig.from_kv_text(f"standardize_x={text}\n")

    def test_every_schedule_is_gone(self):
        with pytest.raises(ContractViolationError, match="unknown schedule"):
            ExperimentConfig.from_kv_text("train_schedule=every\n")

    def test_negative_fit_subsample_rejected(self):
        with pytest.raises(ContractViolationError, match="fit_subsample"):
            ExperimentConfig(model="fullgp", fit_subsample=-5)
        # 0 stays the "off" value.
        cfg = ExperimentConfig(model="fullgp", fit_subsample=0)
        assert make_model(cfg, SeedPlan(0), 0).schedule.fit_subsample is None


class TestRunExperiment:
    def test_record_shape_and_rmse(self):
        records = run_experiment(tiny_cfg())
        assert len(records) == 2 * 2  # replicates x folds, single checkpoint
        for rec in records:
            assert rec.model == "splitting"
            assert rec.n_obs == 60
            assert not rec.failed
            assert rec.rmse ** 2 == pytest.approx(rec.mse, abs=1e-12)
            assert rec.memory_kb > 0

    def test_no_split_below_limit_memory_accounting(self):
        records = run_experiment(tiny_cfg(replicates=1))
        # 60 training rows with m=500: exactly one child and no priors.
        n, dim = 60, 2
        expected_kb = 8 * (n * n + n * dim + n + dim) / 1024.0
        assert records[0].memory_kb == pytest.approx(expected_kb, rel=1e-12)

    def test_crn_same_seed_same_mse(self):
        a = run_experiment(tiny_cfg())
        b = run_experiment(tiny_cfg())
        assert [r.mse for r in a] == [r.mse for r in b]

    def test_crn_data_identical_across_models(self):
        seeds = SeedPlan(7)
        def digest(cfg):
            ds = replicate_dataset(cfg, seeds, replicate=1)
            return hashlib.sha256(ds.X.tobytes() + ds.Y.tobytes()).hexdigest()
        assert digest(tiny_cfg(model="splitting")) == digest(tiny_cfg(model="fullgp"))

    def test_sweep_checkpoints_monotone_memory(self):
        records = run_experiment(tiny_cfg(
            synthetic_n=200, kfold=2, replicates=1, m=40,
            sweep=(25, 100, 25), batch_size=25,
        ))
        ns = [r.n_obs for r in records[:4]]
        assert ns == [25, 50, 75, 100]
        mems = [r.memory_kb for r in records[:4]]
        assert all(b >= a for a, b in zip(mems, mems[1:]))

    def test_rbcm_and_localgp_run(self):
        for model in ("rbcm", "localgp", "fullgp"):
            records = run_experiment(tiny_cfg(model=model, replicates=1))
            assert records and not records[0].failed

    def test_numerical_failure_flags_record(self, monkeypatch):
        def boom(self, X):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr(SplittingGP, "predict_mean_batch", boom)
        records = run_experiment(tiny_cfg(replicates=1))
        assert all(r.failed for r in records)
        assert all(math.isnan(r.mse) for r in records)

    def test_train_test_split_mode(self):
        records = run_experiment(tiny_cfg(kfold=0, train_fraction=0.75, replicates=1))
        assert len(records) == 1
        assert records[0].n_obs == 90

    def test_real_data_shaped_protocol_on_fixture(self):
        # Batched ingestion with a train/test split, as used for CSV datasets.
        from pathlib import Path
        fixture = Path(__file__).parent / "fixtures" / "kin40k_like.csv"
        records = run_experiment(tiny_cfg(
            dataset=f"csv:{fixture}", kfold=0, train_fraction=0.8,
            replicates=2, m=20, batch_size=10, train_schedule="batch",
            fit_iters=3, standardize_x=True,
        ))
        assert len(records) == 2
        assert all(not r.failed for r in records)
        assert records[0].n_obs == 48
        # CRN: the split is replicate-keyed, so both replicates see the
        # same base table but different fold shuffles.
        assert records[0].mse != records[1].mse

    def test_make_model_dispatch(self):
        seeds = SeedPlan(0)
        assert isinstance(make_model(tiny_cfg(model="splitting"), seeds, 0), SplittingGP)
        assert make_model(tiny_cfg(model="rbcm", experts=4), seeds, 0).n_experts == 4
        assert make_model(tiny_cfg(model="localgp", w_gen=0.2), seeds, 0).w_gen == 0.2


class TestCsv:
    def fake_records(self, n):
        return [
            MetricRecord(
                model="splitting", n_obs=100 + i, mse=0.5 + i, rmse=math.sqrt(0.5 + i),
                memory_kb=12.0, train_time_s=1.0, predict_time_s=0.1,
                replicate=i % 3, fold=i % 2, m=500,
            )
            for i in range(n)
        ]

    def test_empty_stream_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        records = self.fake_records(7)
        emit_csv(records, path)
        back = read_metrics(path)
        assert back == records

    def test_thousand_records_thousand_and_one_lines(self, tmp_path):
        path = tmp_path / "big.csv"
        emit_csv(self.fake_records(1000), path)
        assert len(path.read_text().splitlines()) == 1001


class TestSummarize:
    def rec(self, mse, replicate, fold=0, n=100):
        return MetricRecord(
            model="fullgp", n_obs=n, mse=mse, rmse=math.sqrt(mse), memory_kb=1.0,
            train_time_s=0.0, predict_time_s=0.0, replicate=replicate, fold=fold,
        )

    def test_identical_replicates_zero_width(self):
        rows = summarize([self.rec(2.0, r) for r in range(5)])
        assert len(rows) == 1
        assert rows[0].mean == pytest.approx(2.0)
        assert rows[0].lo == pytest.approx(2.0)
        assert rows[0].hi == pytest.approx(2.0)

    def test_two_replicates_mean(self):
        rows = summarize([self.rec(1.0, 0), self.rec(3.0, 1)])
        assert rows[0].mean == pytest.approx(2.0)

    def test_t_interval_matches_table_value(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 1.0, size=10)
        rows = summarize([self.rec(v, r) for r, v in enumerate(values)])
        t_975_9 = 2.2621571628  # two-sided 95%, 9 degrees of freedom
        half = t_975_9 * values.std(ddof=1) / math.sqrt(10)
        assert rows[0].hi - rows[0].mean == pytest.approx(half, rel=1e-9)

    def test_single_replicate_no_interval(self):
        rows = summarize([self.rec(1.5, 0)])
        assert rows[0].lo is None and rows[0].hi is None

    def test_folds_averaged_within_replicate(self):
        rows = summarize([
            self.rec(1.0, 0, fold=0), self.rec(3.0, 0, fold=1),
            self.rec(2.0, 1, fold=0), self.rec(2.0, 1, fold=1),
        ])
        assert rows[0].mean == pytest.approx(2.0)
        assert rows[0].replicates == 2

    def test_failed_records_excluded(self):
        good = self.rec(1.0, 0)
        bad = self.rec(float("nan"), 1)
        bad.failed = True
        rows = summarize([good, bad])
        assert rows[0].replicates == 1

    def test_summary_csv(self, tmp_path):
        rows = summarize([self.rec(1.0, 0), self.rec(3.0, 1)])
        path = tmp_path / "s.csv"
        emit_summary_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 2


class TestGridSearch:
    def test_single_point_equals_run(self):
        cfg = tiny_cfg(replicates=1)
        records, summary = grid_search(cfg, {"m": [500]})
        direct = run_experiment(cfg)
        assert [r.mse for r in records] == [r.mse for r in direct]
        assert summary.best == {"m": 500}

    def test_two_point_grid_doubles_records(self):
        cfg = tiny_cfg(replicates=1, synthetic_n=150, batch_size=75)
        records, summary = grid_search(cfg, {"m": [40, 500]})
        assert len(records) == 2 * len(run_experiment(cfg))
        assert len(summary.table) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolationError):
            grid_search(tiny_cfg(), {})

    def test_wgen_trend_reported(self):
        cfg = tiny_cfg(model="localgp", replicates=1)
        _, summary = grid_search(cfg, {"w_gen": [0.5, 1e-3]})
        assert summary.wgen_trend is not None
        assert [w for w, _ in summary.wgen_trend] == [0.5, 1e-3]
        assert summary.wgen_monotone is not None


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        rc = cli.main([
            "run", "--dataset", "synthetic", "--synthetic-n", "120",
            "--model", "splitting", "--m", "500", "--kfold", "2",
            "--replicates", "1", "--seed", "3", "--batch-size", "60",
            "--train-schedule", "never", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert len(read_metrics(out)) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(tiny_cfg(replicates=1).to_kv_text())
        out = tmp_path / "m.csv"
        rc = cli.main([
            "run", "--config", str(cfg_path), "--kfold", "3", "--out", str(out),
        ])
        assert rc == 0
        assert len(read_metrics(out)) == 3  # flag overrode kfold=2

    def test_grid_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = cli.main([
            "grid", "--dataset", "synthetic", "--synthetic-n", "120",
            "--model", "localgp", "--kfold", "2", "--replicates", "1",
            "--seed", "3", "--batch-size", "60", "--train-schedule", "never",
            "--grid", "w_gen=0.5,0.001", "--out", str(out),
        ])
        assert rc == 0
        assert "best:" in capsys.readouterr().out
        summary_out = tmp_path / "summary.csv"
        rc = cli.main(["summarize", str(out), "--out", str(summary_out)])
        assert rc == 0
        assert summary_out.exists()

    def test_csv_dataset_flow(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "table.csv"
        rows = ["x1,x2,y"]
        for _ in range(40):
            x = rng.uniform(-1, 1, 2)
            rows.append(f"{float(x[0])!r},{float(x[1])!r},{float(rng.normal())!r}")
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "m.csv"
        rc = cli.main([
            "run", "--dataset", f"csv:{data}", "--model", "fullgp",
            "--kfold", "2", "--replicates", "1", "--seed", "1",
            "--batch-size", "20", "--train-schedule", "never", "--out", str(out),
        ])
        assert rc == 0
        assert len(read_metrics(out)) == 2

    def test_grid_values_take_their_field_types(self):
        grid = cli._parse_grid(["model=splitting, fullgp", "standardize_x=1,0", "w_gen=0.5"])
        assert grid == {"model": ["splitting", "fullgp"], "standardize_x": [True, False],
                        "w_gen": [0.5]}
        assert all(type(v) is bool for v in grid["standardize_x"])

    def test_grid_over_models(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = cli.main([
            "grid", "--dataset", "synthetic", "--synthetic-n", "120", "--kfold", "2",
            "--replicates", "1", "--seed", "3", "--batch-size", "60",
            "--train-schedule", "never", "--grid", "model=splitting,fullgp", "--out", str(out),
        ])
        assert rc == 0
        assert sorted({r.model for r in read_metrics(out)}) == ["fullgp", "splitting"]

    @pytest.mark.parametrize("grid", ["m=ten", "turbo=1,2", "model=oracle",
                                      "standardize_x=1,ture"])
    def test_bad_grid_returns_error(self, tmp_path, capsys, grid):
        rc = cli.main(["grid", "--synthetic-n", "120", "--grid", grid,
                       "--out", str(tmp_path / "grid.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_every_schedule_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--train-schedule", "every"])
        assert exc.value.code == 2
        assert "invalid choice: 'every'" in capsys.readouterr().err

    def test_negative_fit_subsample_returns_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--model", "fullgp", "--synthetic-n", "60", "--fit-subsample", "-5",
                       "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "fit_subsample" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_bad_config_returns_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("model=timetravel\n")
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_module_unloaded(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys, splitgp; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
