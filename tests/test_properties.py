"""Property tests over the four local-GP pools: SplittingGP, FullGp,
LocalGpWgen and Rbcm.

Streams mix free rows with duplicates of earlier rows and rows on one line,
and the queries include far-field rows, where every similarity underflows;
the routing properties stream rows farther still.  Inputs have two columns,
except in the stream invariants, which also draw 1, 3 and 9, in the
splitting model's gate properties, which draw 1 to 4 and 9, and in its
batch-routing property, which draws 1, 2 and 9 over 61 to 125 rows.
The kernel is fixed and never fit, so each example stays cheap, except in
the fit-trigger property, whose fit takes a budget of two iterations.
"""

import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from splitgp import model as model_module
from splitgp.baselines import FullGp, LocalGpWgen, Rbcm
from splitgp.exceptions import ContractViolationError
from splitgp.gp import FitSchedule, GpPosterior
from splitgp.kernels import KernelSpec, Query, cross_gram
from splitgp.model import (FIT_ROWS, GATE_RIDGE, SplittingGP, TrainSchedule, _gate_entry,
                           _gate_rows)

SPEC = KernelSpec(np.array([0.4, 0.9]), 1.0, 0.05)
FAR = np.array([[40.0, -40.0], [1e3, 1e3]])


def spec_of(ndim):
    """SPEC's lengthscales repeated to ndim columns; SPEC itself at 2."""
    return KernelSpec(np.resize(SPEC.lengthscales, ndim), 1.0, 0.05)

coordinate = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def streams(draw, min_size=1, ndim=2, max_size=30):
    """(X, Y) with n rows of ndim columns: each row is free, a copy of an
    earlier row, or a point on the line through 0 along (1, 0.5, ..., 0.5)."""
    n = draw(st.integers(min_size, max_size))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(("free", "duplicate", "line")) if i else st.just("free"))
        if kind == "free":
            rows.append([draw(coordinate) for _ in range(ndim)])
        elif kind == "duplicate":
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        else:
            t = draw(coordinate)
            rows.append([t] + [0.5 * t] * (ndim - 1))
    Y = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=n, max_size=n))
    return np.array(rows), np.array(Y)


@st.composite
def far_streams(draw, ndim=2, **sizes):
    """A stream of `streams` with one to four far rows put in anywhere: one
    coordinate is +-1e20, +-1e150 or +-1.5e153, where a row's own |x / l|^2
    dwarfs its product with any center; at 1.5e153 it is within a factor 4
    of `kernels.FAR_NORM`, past what the gate's precision can multiply."""
    X, Y = draw(streams(ndim=ndim, **sizes))
    rows, ys = list(X), list(Y)
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(coordinate) for _ in range(ndim)]
        row[draw(st.integers(0, ndim - 1))] = draw(st.sampled_from((1e20, -1e20, 1e150, -1e150,
                                                                    1.5e153, -1.5e153)))
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, row)
        ys.insert(at, draw(coordinate))
    return np.array(rows), np.array(ys)


@st.composite
def pools(draw, kinds=("splitting", "fullgp", "local", "rbcm"), spec=SPEC):
    """(kind, factory) for a pool under the fixed kernel and no refits."""
    kind = draw(st.sampled_from(kinds))
    never = TrainSchedule.never()
    if kind == "splitting":
        m = draw(st.integers(2, 8))
        return kind, lambda: SplittingGP(m, spec=spec, train_schedule=never)
    if kind == "fullgp":
        return kind, lambda: FullGp(spec=spec, train_schedule=never)
    if kind == "local":
        w_gen = draw(st.sampled_from((0.05, 0.4, 0.9)))
        return kind, lambda: LocalGpWgen(w_gen, spec=spec, train_schedule=never)
    k, seed = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return kind, lambda: Rbcm(k, seed=seed, spec=spec, train_schedule=never)


def query_rows(ndim):
    """One to four query rows of ndim columns, then FAR's rows cut or
    repeated to ndim columns."""
    return st.lists(st.lists(coordinate, min_size=ndim, max_size=ndim),
                    min_size=1, max_size=4).map(
        lambda rows: np.vstack([np.array(rows), np.resize(FAR, (2, ndim))]))


queries = query_rows(2)

# Input widths of the stream invariants.  A batch's rows are scaled as one
# `Query`, a single update's as one row; NumPy may sum rows of 8 or more
# entries in another order than shorter ones.
WIDTHS = st.sampled_from((1, 2, 3, 9))

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(case=WIDTHS.flatmap(lambda ndim: st.tuples(
    pools(spec=spec_of(ndim)), streams(ndim=ndim), query_rows(ndim))))
def test_stream_invariants(case):
    (kind, build), (X, Y), Xq = case
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
        assert min(c.n for c in model.children) >= 1
        if kind == "rbcm":
            assert model.n_children <= model.n_experts
    # A FullGp batch goes in as one extension: its running sums, and so the
    # center and the gate's spread, are bitwise the row-by-row ones.
    for a, b in zip(rowwise.children, batched.children):
        assert (a._sum.tobytes(), a.center.tobytes(), a._m2) == (
            b._sum.tobytes(), b.center.tobytes(), b._m2)
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


@PROPERTY_SETTINGS
@given(pool=pools(kinds=("splitting", "local")), stream=far_streams())
def test_a_row_joins_the_child_of_its_lowest_score(pool, stream):
    # The routers that pick the nearest center, the lowest of `_scores`,
    # which the gate's weights need not favour most; a LocalGpWgen row that
    # spawns a child joins none.
    _, build = pool
    model = build()
    for x, y in zip(*stream):
        before, sizes = list(model.children), [c.n for c in model.children]
        scores = model._scores(model._query(x[None, :]))[0] if before else None
        model.update(x, y)
        joined = [j for j, c in enumerate(before)
                  if model.children[j] is not c or c.n != sizes[j]]
        assert len(joined) <= 1
        if joined:
            assert scores[joined[0]] == scores.min()


@PROPERTY_SETTINGS
@given(case=st.sampled_from((1, 2, 9)).flatmap(lambda ndim: st.tuples(
    st.integers(3, 20), far_streams(ndim, min_size=60, max_size=120), query_rows(ndim),
    st.integers(1, 59))))
def test_a_batch_routes_each_row_where_an_update_would(case):
    # A splitting batch routes in runs, re-scored as the run moves the
    # centers; each row must land where the one-row router puts it.  The
    # second batch opens with a row midway between two centers, where
    # rounding decides, and follows a read, so its children grow the
    # posteriors the read cached, row by row.
    m, (X, Y), Xq, cut = case
    rowwise, batched = (SplittingGP(m, spec=spec_of(X.shape[1]),
                                    train_schedule=TrainSchedule.never()) for _ in range(2))
    for x, y in zip(X[:cut], Y[:cut]):
        rowwise.update(x, y)
    batched.update_batch(X[:cut], Y[:cut])
    if rowwise.n_children >= 2:
        mid = 0.5 * (rowwise.children[0].center + rowwise.children[1].center)
        X, Y = np.insert(X, cut, mid, axis=0), np.insert(Y, cut, 0.0)
    for model in (rowwise, batched):
        model.predict(Xq[0])
    for x, y in zip(X[cut:], Y[cut:]):
        rowwise.update(x, y)
    batched.update_batch(X[cut:], Y[cut:])
    states = [([(c.X.tobytes(), c.Y.tobytes(), c._sum.tobytes(), c.center.tobytes(), c._m2)
                for c in model.children], [a.tobytes() for a in model._scaled_centers()])
              for model in (rowwise, batched)]
    assert states[0] == states[1]
    for read in ("predict_mean_batch", "predict_variance_batch"):
        assert getattr(rowwise, read)(Xq).tobytes() == getattr(batched, read)(Xq).tobytes()


@st.composite
def bad_rows(draw):
    """An observation (x, y) that every pool rejects: a non-finite entry, a
    row of the wrong width, a y of two entries, or a row whose squared norm
    scaled by SPEC's lengthscales overflows."""
    kind = draw(st.sampled_from(("non-finite x", "non-finite y", "width", "two-entry y",
                                 "overflow")))
    x, y = [draw(coordinate), draw(coordinate)], draw(coordinate)
    if kind == "non-finite x":
        x[draw(st.integers(0, 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    elif kind == "non-finite y":
        y = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    elif kind == "width":
        x = x[:1] if draw(st.booleans()) else x + [draw(coordinate)]
    elif kind == "two-entry y":
        y = np.array([y, draw(coordinate)])
    else:
        x[draw(st.integers(0, 1))] = draw(st.sampled_from((1.0, -1.0))) * draw(
            st.floats(1e155, 1e308))
    return np.array(x), y


def _readout(model, Xq):
    return (model.n_observations, model.predict_mean_batch(Xq).tobytes(),
            model.predict_variance_batch(Xq).tobytes())


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), Xq=queries,
       reads=st.lists(st.booleans(), min_size=30, max_size=30))
def test_reruns_are_byte_identical(pool, stream, Xq, reads):
    # Common random numbers: two fresh models fed one stream, with the same
    # predicts between updates, so both grow their cached factors at the
    # same rows, end in the same state.
    _, build = pool
    runs = []
    for model in (build(), build()):
        for x, y, read in zip(*stream, reads):
            if read and model.n_children:
                model.predict(x)
            model.update(x, y)
        runs.append(([c.n for c in model.children], model.footprint(), _readout(model, Xq)))
    assert runs[0] == runs[1]


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), bad=bad_rows(), at=st.integers(0, 3), Xq=queries)
def test_bad_rows_are_rejected_and_change_nothing(pool, stream, bad, at, Xq):
    _, build = pool
    model = build()
    model.update_batch(*stream)
    before = _readout(model, Xq)
    x, y = bad
    with pytest.raises(ContractViolationError):
        model.update(x, y)
    assert _readout(model, Xq) == before
    # In a batch, the bad row sits among good rows, or every row has its width.
    X, Y = stream[0][:3], stream[1][:3]
    at = min(at, X.shape[0])
    if x.size == X.shape[1]:
        Xb, Yb = np.insert(X, at, x, axis=0), np.insert(Y, at, y)
    else:
        Xb, Yb = np.tile(x, (at + 1, 1)), np.full(at + 1, y)
    with pytest.raises(ContractViolationError):
        model.update_batch(Xb, Yb)
    assert _readout(model, Xq) == before


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams())
def test_grown_factors_match_a_full_refactorization(pool, stream):
    # A predict before each update caches the posteriors, so the update
    # grows the routed child's factor instead of dropping it.
    _, build = pool
    model = build()
    for x, y in zip(*stream):
        if model.n_children:
            model.predict(x)
        model.update(x, y)
        for c in model.children:
            post = c._posterior
            if post is None or post._store is None:  # not grown
                continue
            prior = 0.0 if c.prior is None else c.prior.evaluate(c.X, Query.of(c.X, SPEC))
            fresh = GpPosterior(c.X, c.Y - prior, model.spec)
            for got, want in ((post.chol, fresh.chol), (post.alpha, fresh.alpha)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
            assert np.shares_memory(post.X, c.X)


def _deep(m, stream):
    """A splitting pool with m = 2 or 3 fed the stream in one batch; its prior
    chains run three or more nodes deep."""
    model = SplittingGP(m, spec=SPEC, train_schedule=TrainSchedule.never())
    model.update_batch(*stream)
    assume(max((len(c.prior.chain()) for c in model.children if c.prior), default=0) >= 3)
    return model


@PROPERTY_SETTINGS
@given(m=st.integers(2, 3), stream=streams(min_size=16), Xq=queries)
def test_chain_values_match_the_summed_expansions(m, stream, Xq):
    # The batch walks every child's chain, siblings reading shared ancestors
    # from their memos; each child's chain value is then that walk's.
    model = _deep(m, stream)
    model.predict_mean_batch(Xq)
    for child in model.children:
        terms = [cross_gram(Xq, node.X, model.spec) * node.alpha
                 for node in reversed(child.prior.chain())]
        want = sum(t.sum(axis=1) for t in terms)
        scale = sum(np.abs(t).sum(axis=1) for t in terms)
        got = child.prior.evaluate(Xq, Query.of(Xq, SPEC))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@PROPERTY_SETTINGS
@given(m=st.integers(2, 3), stream=streams(min_size=16), Xq=queries)
def test_repeated_batch_reads_are_bitwise(m, stream, Xq):
    # A second read is bitwise the first after a single-row predict between
    # them, and after a predict plus update it is bitwise a twin's read that
    # never made the first: no memo serves a stale value.
    X, Y = stream
    model, twin = _deep(m, (X[:-1], Y[:-1])), _deep(m, (X[:-1], Y[:-1]))
    first = model.predict_mean_batch(Xq)
    assert model.predict_mean_batch(Xq).tobytes() == first.tobytes()
    model.predict(X[-1])
    assert model.predict_mean_batch(Xq).tobytes() == first.tobytes()
    for pool in (model, twin):
        pool.predict(X[-1])
        pool.update(X[-1], Y[-1])
    assert model.predict_mean_batch(Xq).tobytes() == twin.predict_mean_batch(Xq).tobytes()


def _assert_centers_are_row_means(model):
    for c in model.children:
        assert c.center.tobytes() == c.X.mean(axis=0).tobytes()


@PROPERTY_SETTINGS
@given(pool=pools(), stream=streams(), more=streams())
def test_centers_are_bitwise_row_means(pool, stream, more):
    # Every child derives its center from its rows: after splits, after a
    # save and load, and after the loaded model goes on.
    kind, build = pool
    model = build()
    model.update_batch(*stream)
    models = [model]
    if kind == "splitting":
        snapshot = io.BytesIO()
        model.save(snapshot)
        snapshot.seek(0)
        models.append(SplittingGP.load(snapshot))
    for model in models:
        _assert_centers_are_row_means(model)
        for x, y in zip(*more):
            model.update(x, y)
        _assert_centers_are_row_means(model)


@PROPERTY_SETTINGS
@given(case=WIDTHS.flatmap(lambda ndim: st.tuples(
    pools(spec=spec_of(ndim)), streams(ndim=ndim), query_rows(ndim))))
def test_pooled_scores_are_the_gathered_ones(case):
    # The pool keeps its scaled centers in one array, rewriting a row per
    # update and adding rows as children are added; after every step its
    # scores are bitwise those of the centers gathered afresh.  Every other
    # update follows a read of the same row, whose scores route it.
    (_, build), (X, Y), Xq = case
    model = build()
    for t, (x, y) in enumerate(zip(X, Y)):
        if t % 2:
            model.predict(x)
        model.update(x, y)
        query = Query.of(Xq, model.spec)
        Cs = np.array([c.center for c in model.children]) / model.spec.lengthscales
        gathered = np.sum(Cs * Cs, axis=1) - 2.0 * (query.Xs @ Cs.T)
        assert model._scores(query).tobytes() == gathered.tobytes()
        a, p = np.reshape([_gate_entry(c, model.spec.lengthscales.tolist())
                           for c in model.children], (-1, 2)).T
        G = _gate_rows(Cs, np.sum(Cs * Cs, axis=1), a, p)
        assert model._scaled_centers()[2].tobytes() == G.tobytes()


# The gate's widths, and factors on their lengthscales: at 1e-6 the scaled
# rows lie millions of units apart and every similarity underflows.
GATE_WIDTHS = st.sampled_from((1, 2, 3, 4, 9))
SCALES = st.sampled_from((1.0, 1e-3, 1e-6))


def _gated(m, spec, X, Y):
    model = SplittingGP(m, spec=spec, train_schedule=TrainSchedule.never())
    for x, y in zip(X, Y):
        model.update(x, y)
    return model


@PROPERTY_SETTINGS
@given(case=GATE_WIDTHS.flatmap(lambda ndim: st.tuples(
    st.integers(2, 8), SCALES, streams(ndim=ndim), query_rows(ndim))))
def test_gate_is_a_partition_of_unity_that_reruns_bitwise(case):
    # Common random numbers: a second model fed the same stream gives the
    # same weights and means, byte for byte.
    m, scale, (X, Y), Xq = case
    spec = KernelSpec(spec_of(X.shape[1]).lengthscales * scale, 1.0, 0.05)
    runs = []
    for model in (_gated(m, spec, X, Y), _gated(m, spec, X, Y)):
        weights = model._weights(model._query(Xq))
        runs.append((weights.tobytes(), model.predict_mean_batch(Xq).tobytes()))
    assert weights.shape == (Xq.shape[0], model.n_children)
    assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12
    assert runs[0] == runs[1]
    # Rows near the origin take the product with the pooled gate rows; the
    # score-based form that rows past _GATE_NEAR take agrees with it.
    near = model_module._GATE_NEAR
    try:
        model_module._GATE_NEAR = 0.0
        scored = model._weights(model._query(Xq))
    finally:
        model_module._GATE_NEAR = near
    assert np.abs(scored - weights).max() <= 1e-9


@PROPERTY_SETTINGS
@given(case=GATE_WIDTHS.flatmap(lambda ndim: st.tuples(
    st.integers(2, 8), SCALES, streams(ndim=ndim), st.booleans())))
def test_gate_spread_is_the_scaled_rows_mean_squared_deviation(case):
    # The children's Welford sums, split, streamed or taken as a batch,
    # against a two-pass oracle in scaled coordinates; a child of one row
    # has s^2 = GATE_RIDGE exactly.
    m, scale, (X, Y), batch = case
    ndim = X.shape[1]
    spec = KernelSpec(spec_of(ndim).lengthscales * scale, 1.0, 0.05)
    model = SplittingGP(m, spec=spec, train_schedule=TrainSchedule.never())
    if batch:
        model.update_batch(X, Y)
    else:
        model = _gated(m, spec, X, Y)
    for child in model.children:
        a, p = _gate_entry(child, spec.lengthscales.tolist())
        S = child.X / spec.lengthscales
        s2 = float(np.mean((S - S.mean(axis=0)) ** 2)) + GATE_RIDGE
        if child.n == 1:
            assert p == 0.5 / GATE_RIDGE and child._m2 == [0.0] * ndim
        assert p == pytest.approx(0.5 / s2, rel=1e-9)
        assert a == pytest.approx(np.log(child.n) - 0.5 * ndim * np.log(s2), rel=1e-9, abs=1e-9)


@PROPERTY_SETTINGS
@given(case=GATE_WIDTHS.flatmap(lambda ndim: st.tuples(
    st.integers(2, 8), streams(ndim=ndim),
    st.lists(coordinate, min_size=ndim, max_size=ndim),
    st.lists(st.floats(-1.0, 1.0), min_size=ndim, max_size=ndim))))
def test_gate_mean_is_continuous(case):
    # Along a segment the largest jump between successive means shrinks with
    # the step, as for a continuous mean; a jump, as a nearest-child mean
    # makes where the nearest center changes, does not shrink.
    m, (X, Y), x, v = case
    v = np.array(v)
    assume(np.abs(v).max() > 0.1)
    model = SplittingGP(m, spec=spec_of(X.shape[1]), train_schedule=TrainSchedule.never())
    model.update_batch(X, Y)

    def largest_jump(start, length):
        t = np.linspace(0.0, length, 1001)
        means = model.predict_mean_batch(start + t[:, None] * v)
        at = int(np.abs(np.diff(means)).argmax())
        return float(np.abs(np.diff(means)).max()), start + t[at] * v

    coarse, at = largest_jump(np.array(x), 1e-2)
    fine, _ = largest_jump(at - 5e-4 * v, 1e-3)
    assert fine <= 0.3 * coarse + 1e-12


# Lengthscales of the far-read property: SPEC's, and ones so short that a
# row's scaled cross term with a center overflows far below |x| = 1e300.
FAR_SPECS = (SPEC, KernelSpec(np.full(2, 1e-6), 1.0, 0.01))


@st.composite
def far_reads(draw, spec):
    """One to four query rows whose entries x / l reach 1e308 in size, of
    either sign and often past 1e300, each scaled back by spec's
    lengthscales."""
    exponent = st.floats(-3.0, 308.0) | st.floats(300.0, 308.0)
    size = st.tuples(st.sampled_from((1.0, -1.0)), exponent).map(lambda t: t[0] * 10.0 ** t[1])
    rows = draw(st.lists(st.lists(st.one_of(size, coordinate), min_size=2, max_size=2),
                         min_size=1, max_size=4))
    return np.array(rows) * spec.lengthscales


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(data=st.data(), spec=st.sampled_from(FAR_SPECS), stream=streams(),
       rowwise=st.booleans())
def test_far_reads_are_finite(data, spec, stream, rowwise):
    # |x / l| up to 1e308: a row's own |x / l|^2 and its products with the
    # centers may overflow.  Such a row gets exact zero kernel rows, and its
    # weights go to the centers nearest along its direction; no read warns.
    _, build = data.draw(pools(spec=spec))
    model = build()
    if rowwise:
        for x, y in zip(*stream):
            model.update(x, y)
    else:
        model.update_batch(*stream)
    Xq = data.draw(far_reads(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = np.array([model.predict(x) for x in Xq])
        means = model.predict_mean_batch(Xq)
        variances = model.predict_variance_batch(Xq)
        weights = None if isinstance(model, Rbcm) else model._weights(model._query(Xq))
    assert np.isfinite(single).all() and np.isfinite(means).all()
    assert np.isfinite(variances).all() and (variances >= 0.0).all()
    assert (single[:, 1] >= 0.0).all()
    if weights is not None:
        assert np.isfinite(weights).all() and np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12


def _fit_stream(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    return X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n)


def _spec_bytes(spec):
    return spec.lengthscales.tobytes(), spec.signal_variance, spec.noise_variance


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(kind=st.sampled_from(("splitting", "fullgp", "local", "rbcm")),
       m=st.integers(2, 40), seed=st.integers(0, 2**16),
       cuts=st.lists(st.integers(1, 2**16), max_size=6))
def test_every_pool_fits_after_the_same_row_whatever_the_batch_cuts(kind, m, seed, cuts):
    # One stream, ingested row by row and in batches cut anywhere: both fit
    # right after the same row, the pool's `_fit_rows`-th, to the same spec.
    schedule = TrainSchedule(fit=FitSchedule(max_iters=2))
    build = {"splitting": lambda: SplittingGP(m, train_schedule=schedule),
             "fullgp": lambda: FullGp(train_schedule=schedule),
             "local": lambda: LocalGpWgen(0.4, train_schedule=schedule),
             "rbcm": lambda: Rbcm(3, seed=seed, train_schedule=schedule)}[kind]
    rowwise, batched = build(), build()
    due = rowwise._fit_rows
    assert due == (min(FIT_ROWS, m) if kind == "splitting" else FIT_ROWS)
    X, Y = _fit_stream(seed, due + 30)
    for t, (x, y) in enumerate(zip(X, Y)):
        rowwise.update(x, y)
        assert (rowwise.last_fit is not None) == (t + 1 >= due)
    bounds = [0, *sorted({c % len(Y) for c in cuts} - {0}), len(Y)]
    for lo, hi in zip(bounds, bounds[1:]):
        batched.update_batch(X[lo:hi], Y[lo:hi])
        assert (batched.last_fit is not None) == (hi >= due)
    assert _spec_bytes(rowwise.spec) == _spec_bytes(batched.spec)
    assert _spec_bytes(rowwise.last_fit.spec) == _spec_bytes(batched.last_fit.spec)
    assert rowwise.last_fit == batched.last_fit
    assert [c.X.tobytes() for c in rowwise.children] == [c.X.tobytes() for c in batched.children]
