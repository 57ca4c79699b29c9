"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps the functions and methods it names by replacing them where
they are defined, a method in its class's own `__dict__`.  A method that
moves to a base class would break the traced benchmark run; these tests
catch that without running the benchmark.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import splitgp  # noqa: F401  (loads every submodule)
from splitgp.baselines import FullGp
from splitgp.gp import FitSchedule
from splitgp.model import FIT_ROWS, SplittingGP, TrainSchedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _bindings(tracing) -> dict[tuple[int, str], object]:
    """Every binding the tracer may replace, keyed by (owner id, name)."""
    modules = [m for k, m in sys.modules.items() if k == "splitgp" or k.startswith("splitgp.")]
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            if callable(value):
                out[(id(mod), key)] = value
    for target in tracing.METHODS:
        mod_name, cls_name, attr = target.split(".")
        cls = getattr(sys.modules[f"splitgp.{mod_name}"], cls_name)
        assert attr in cls.__dict__, f"{target} is not in its class's own __dict__"
        out[(id(cls), attr)] = cls.__dict__[attr]
    return out


def test_install_wraps_and_uninstall_restores(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in _bindings(tracing).items() if before[key] is not value}
        assert len(wrapped) >= len(tracing.FUNCTIONS) + len(tracing.METHODS)
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_model_calls_are_recorded(tracing):
    rng = np.random.default_rng(0)
    X, Y = rng.uniform(-1, 1, size=(30, 2)), rng.normal(size=30)
    tracer = tracing.Tracer()
    try:  # uninstalls also what a failed install wrapped
        tracer.install()
        model = SplittingGP(8, train_schedule=TrainSchedule.never())
        model.ingest_batch(X[:20], Y[:20])
        for x, y in zip(X[20:], Y[20:]):
            model.predict(x)
            model.update(x, y)
        model.predict_mean_batch(X[:5])
        model.predict_variance_batch(X[:5])
        # The fit comes right after the FIT_ROWS-th row.
        full = FullGp(train_schedule=TrainSchedule(fit=FitSchedule(max_iters=2)))
        full.ingest_batch(rng.uniform(-1, 1, size=(FIT_ROWS, 2)), rng.normal(size=FIT_ROWS))
        full.predict_mean_batch(X[:5])
    finally:
        tracer.uninstall()
    counts = tracer.layer_metrics(wall_s=1.0, steps=10)
    assert counts["model.SplittingGP.update.calls"] == 10
    assert counts["model.SplittingGP.predict.calls"] == 10
    assert counts["model.SplittingGP.predict_mean_batch.calls"] == 1
    assert counts["model.SplittingGP.predict_variance_batch.calls"] == 1
    assert counts["model.ChildModel.posterior.calls"] > 0
    # The full GP's calls reach the tracer through its own rebinds.
    for name in ("ingest_batch", "refit", "predict_mean_batch"):
        assert counts[f"baselines.FullGp.{name}.calls"] == 1
    assert tracer.last_model is model
