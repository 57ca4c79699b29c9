"""Property tests over the four local-GP pools: SplittingGP, FullGp,
LocalGpWgen and Rbcm.

Streams mix free rows with duplicates of earlier rows and rows on one line,
and the queries include far-field rows, where every similarity underflows.
The kernel is fixed and never refit, so each example stays cheap.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitgp.baselines import FullGp, LocalGpWgen, Rbcm
from splitgp.kernels import KernelSpec
from splitgp.model import SplittingGP, TrainSchedule

SPEC = KernelSpec(np.array([0.4, 0.9]), 1.0, 0.05)
FAR = np.array([[40.0, -40.0], [1e3, 1e3]])

coordinate = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def streams(draw):
    """(X, Y) with n rows: each row is free, a copy of an earlier row, or a
    point on the line through (0, 0) along (1, 0.5)."""
    n = draw(st.integers(1, 30))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(("free", "duplicate", "line")) if i else st.just("free"))
        if kind == "free":
            rows.append([draw(coordinate), draw(coordinate)])
        elif kind == "duplicate":
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        else:
            t = draw(coordinate)
            rows.append([t, 0.5 * t])
    Y = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n))
    return np.array(rows), np.array(Y)


@st.composite
def pools(draw):
    """(kind, factory) for a pool under the fixed kernel and no refits."""
    kind = draw(st.sampled_from(("splitting", "fullgp", "local", "rbcm")))
    never = TrainSchedule.never()
    if kind == "splitting":
        m = draw(st.integers(2, 8))
        return kind, lambda: SplittingGP(m, spec=SPEC, train_schedule=never)
    if kind == "fullgp":
        return kind, lambda: FullGp(spec=SPEC, train_schedule=never)
    if kind == "local":
        w_gen = draw(st.sampled_from((0.05, 0.4, 0.9)))
        return kind, lambda: LocalGpWgen(w_gen, spec=SPEC, train_schedule=never)
    k, seed = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return kind, lambda: Rbcm(k, seed=seed, spec=SPEC, train_schedule=never)


queries = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=4).map(
    lambda rows: np.vstack([np.array(rows), FAR]))

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), Xq=queries)
def test_stream_invariants(pool, stream, Xq):
    kind, build = pool
    X, Y = stream
    rowwise, batched = build(), build()
    for x, y in zip(X, Y):
        rowwise.update(x, y)
    batched.update_batch(X, Y)
    for model in (rowwise, batched):
        assert model.n_observations == X.shape[0]
        if kind == "splitting":
            assert max(c.n for c in model.children) <= model.m
        if kind == "fullgp":
            assert model.n_children == 1
        if kind == "rbcm":
            assert model.n_children == model.n_experts
    assert rowwise.predict_mean_batch(Xq).tobytes() == batched.predict_mean_batch(Xq).tobytes()


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), Xq=queries)
def test_single_row_predict_matches_batch(pool, stream, Xq):
    _, build = pool
    model = build()
    model.update_batch(*stream)
    for q in Xq:
        mean, var = model.predict(q)
        assert mean == model.predict_mean_batch(q[None, :])[0]
        assert var == model.predict_variance_batch(q[None, :])[0]
        assert np.isfinite(var) and var >= 0.0
    variances = model.predict_variance_batch(Xq)
    assert np.all(np.isfinite(variances)) and np.all(variances >= 0.0)


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), Xq=queries)
def test_weights_are_a_partition_of_unity(pool, stream, Xq):
    _, build = pool
    model = build()
    model.update_batch(*stream)
    weights = model._weights(model._query(Xq))
    assert weights.shape == (Xq.shape[0], model.n_children)
    assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
