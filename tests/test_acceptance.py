"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values as they complete.
"""

import math
import time

import numpy as np
import pytest

from splitgp.baselines import FullGp, LocalGpWgen, Rbcm
from splitgp.bench import ExperimentConfig, emit_csv, grid_search, run_experiment
from splitgp.data import SeedPlan, synth_dataset
from splitgp.gp import (
    FitSchedule,
    GpPosterior,
    lml_gradient,
    log_marginal_likelihood,
    posterior_mean,
    posterior_variance,
)
from splitgp.kernels import KernelSpec, Query, cross_gram, gram
from splitgp.model import ChildModel, SplittingGP, TrainSchedule
from splitgp.partition import split

MASTER_SEED = 20250809


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def random_spec(rng, ndim):
    return KernelSpec(
        rng.uniform(0.4, 2.0, size=ndim),
        float(rng.uniform(0.5, 3.0)),
        float(rng.uniform(0.05, 0.5)),
    )


# ---------------------------------------------------------------------------
# Criterion 1: dense direct-solve oracle equivalence for the GP core.
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 65))
        ndim = int(rng.integers(1, 5))
        spec = random_spec(rng, ndim)
        X = rng.uniform(-2, 2, size=(n, ndim))
        Y = rng.normal(size=n)
        post = GpPosterior(X, Y, spec)
        K = gram(X, spec, add_noise=True)
        solve = np.linalg.solve
        for _ in range(3):
            x = rng.uniform(-2, 2, size=ndim)
            ks = cross_gram(x[None, :], X, spec)[0]
            mean_oracle = ks @ solve(K, Y)
            var_oracle = spec.signal_variance - ks @ solve(K, ks)
            worst = max(worst, abs(posterior_mean(post, x) - mean_oracle))
            worst = max(worst, abs(posterior_variance(post, x) - max(var_oracle, 0.0)))
        sign, logdet = np.linalg.slogdet(K)
        lml_oracle = -0.5 * Y @ solve(K, Y) - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)
        rel = abs(log_marginal_likelihood(post) - lml_oracle) / max(1.0, abs(lml_oracle))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(1, "gp core matches dense direct-solve oracle",
           worst < 1e-8 and elapsed < 10.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: gradient of the log marginal likelihood vs finite differences.
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_check():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 12))
        ndim = int(rng.integers(1, 4))
        spec = random_spec(rng, ndim)
        X = rng.uniform(-2, 2, size=(n, ndim))
        Y = rng.normal(size=n)
        grad = lml_gradient(GpPosterior(X, Y, spec))
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
            worst = max(worst, abs(fd - grad[j]) / max(abs(fd), 1e-8))
    report(2, "lml gradient matches central finite differences",
           worst < 1e-4, f"max relative error {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: aggregation identity and partition-of-unity weights.
# ---------------------------------------------------------------------------

def test_criterion_3_aggregation_identity_and_weights():
    rng = np.random.default_rng(303)
    identity_worst = 0.0
    # Identical child means: the aggregate must reproduce them exactly.
    for _ in range(10):
        ndim = int(rng.integers(1, 4))
        spec = random_spec(rng, ndim)
        X = rng.normal(size=(int(rng.integers(3, 9)), ndim))
        Y = rng.normal(size=X.shape[0])
        model = SplittingGP(50, spec=spec, train_schedule=TrainSchedule.never())
        model.children = [ChildModel(X.copy(), Y.copy()) for _ in range(int(rng.integers(2, 6)))]
        for child in model.children:
            child.center = rng.normal(size=ndim)
        post = GpPosterior(X, Y, spec)
        for _ in range(5):
            x = rng.normal(size=ndim)
            p = posterior_mean(post, x)
            identity_worst = max(identity_worst, abs(model.predict_mean(x).mean - p))

    sum_worst = 0.0
    pairs = 0
    seeds = SeedPlan(33)
    for k in range(20):
        ds = synth_dataset(int(rng.integers(60, 240)), seeds, replicate=k)
        model = SplittingGP(int(rng.integers(20, 70)), train_schedule=TrainSchedule.never())
        model.update_batch(ds.X, ds.Y)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            summary = model.predict_mean(x)
            sum_worst = max(sum_worst, abs(summary.weights.sum() - 1.0))
            pairs += 1
    report(3, "aggregation identity and weight normalization",
           identity_worst < 1e-12 and sum_worst <= 1e-12 and pairs >= 1000,
           f"identity dev {identity_worst:.2e}, weight-sum dev {sum_worst:.2e}, {pairs} pairs")


# ---------------------------------------------------------------------------
# Criterion 4: mean continuity across a split, vs nearest-child fixture.
# ---------------------------------------------------------------------------

def _two_child_model():
    rng = np.random.default_rng(404)
    xs = rng.uniform(-1, 1, 101)
    ys = 2.0 * np.tanh(8.0 * xs) + 0.3 * xs + rng.normal(0, 0.05, 101)
    # The kernel is fit at row 60, before the split at row 61 freezes a node.
    model = SplittingGP(60, train_schedule=TrainSchedule(fit=FitSchedule(max_iters=40)))
    for x, y in zip(xs, ys):
        model.update(np.array([x]), y)
    assert model.n_children == 2 and model.last_fit is not None
    return model


def _max_successive_jump(predict, step):
    grid = np.arange(-0.5, 0.5 + step / 2, step)[:, None]
    out = np.empty(grid.shape[0])
    for lo in range(0, grid.shape[0], 65536):
        out[lo:lo + 65536] = predict(grid[lo:lo + 65536])
    return float(np.max(np.abs(np.diff(out))))


def test_criterion_4_continuity_contrast():
    model = _two_child_model()

    def smooth(G):
        return model.predict_mean_batch(G)

    def child_mean(child, G):  # inherited prior plus the residual layer
        prior = 0.0 if child.prior is None else child.prior.evaluate(
            G, Query.of(G, model.spec))
        return prior + posterior_mean(child.posterior(model.spec), G)

    def nearest_only(G):
        centers = np.array([c.center for c in model.children])
        sims = cross_gram(G, centers, model.spec)
        pick = np.argmax(sims, axis=1)
        means = np.column_stack([child_mean(c, G) for c in model.children])
        return means[np.arange(G.shape[0]), pick]

    steps = [10.0 ** (-k) for k in range(1, 7)]
    jumps = [_max_successive_jump(smooth, s) for s in steps]
    proportional = all(
        fine <= 1.25 * (s_fine / s_coarse) * coarse
        for (s_coarse, coarse), (s_fine, fine) in zip(
            zip(steps, jumps), zip(steps[1:], jumps[1:])
        )
    )
    fixture_jump = _max_successive_jump(nearest_only, steps[-1])
    contrast = fixture_jump > 10.0 * jumps[-1]
    report(4, "aggregate mean is numerically continuous, nearest-child is not",
           proportional and contrast,
           f"jump@1e-6 smooth {jumps[-1]:.2e} vs fixture {fixture_jump:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: streaming invariants at n=2500, m=500.
# ---------------------------------------------------------------------------

def test_criterion_5_streaming_invariants():
    seeds = SeedPlan(MASTER_SEED)
    ds = synth_dataset(2500, seeds)
    model = SplittingGP(500, train_schedule=TrainSchedule.never())
    start = time.perf_counter()
    for i in range(ds.n):
        model.update(ds.X[i], ds.Y[i])
    elapsed = time.perf_counter() - start
    sizes_ok = all(c.n <= 500 for c in model.children)
    count_ok = 5 <= model.n_children <= 11
    stored = np.vstack([np.column_stack([c.X, c.Y]) for c in model.children])
    stream = np.column_stack([ds.X, ds.Y])
    conserved = np.array_equal(
        stored[np.lexsort(stored.T)], stream[np.lexsort(stream.T)]
    )
    report(5, "splitting invariants on a 2500-point stream",
           sizes_ok and count_ok and conserved and elapsed < 300.0,
           f"C={model.n_children}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: linear memory in n; full GP grows past the splitting model.
# ---------------------------------------------------------------------------

def test_criterion_6_memory_linearity():
    seeds = SeedPlan(MASTER_SEED)
    ds = synth_dataset(2500, seeds)
    m = 500
    model = SplittingGP(m, train_schedule=TrainSchedule.never())
    full = FullGp(train_schedule=TrainSchedule.never())
    gram_ok = True
    ptr = 0
    for n in (500, 1000, 1500, 2000, 2500):
        model.update_batch(ds.X[ptr:n], ds.Y[ptr:n])
        full.ingest_batch(ds.X[ptr:n], ds.Y[ptr:n])
        ptr = n
        gram_ok = gram_ok and 8 * sum(c.n * c.n for c in model.children) <= 8 * m * n * 1.5
    cheaper = full.footprint() > model.memory_footprint()
    report(6, "splitting memory stays linear and below the full GP",
           gram_ok and cheaper,
           f"splitting {model.memory_footprint()/1024:.0f} kB vs full {full.footprint()/1024:.0f} kB at n=2500")


# ---------------------------------------------------------------------------
# Criteria 7 and 12: desk-scale synthetic reproduction under CRN, twice.
# ---------------------------------------------------------------------------

def c7_config(model):
    extra = dict(fit_iters=15)
    if model == "fullgp":
        extra = dict(fit_iters=20, fit_subsample=400)
    return ExperimentConfig(
        model=model, m=500, dataset="synthetic", synthetic_n=2500,
        kfold=5, replicates=10, seed=MASTER_SEED, batch_size=500,
        train_schedule="batch", **extra,
    )


@pytest.fixture(scope="module")
def desk_scale_runs():
    runs = {}
    start = time.perf_counter()
    for model in ("splitting", "fullgp"):
        runs[(model, 0)] = run_experiment(c7_config(model))
    runs["elapsed"] = time.perf_counter() - start
    for model in ("splitting", "fullgp"):
        runs[(model, 1)] = run_experiment(c7_config(model))
    return runs


def test_criterion_7_desk_scale_reproduction(desk_scale_runs):
    split_recs = desk_scale_runs[("splitting", 0)]
    full_recs = desk_scale_runs[("fullgp", 0)]
    assert not any(r.failed for r in split_recs + full_recs)
    split_mse = float(np.mean([r.mse for r in split_recs]))
    full_mse = float(np.mean([r.mse for r in full_recs]))
    seeds = SeedPlan(MASTER_SEED)
    var_y = float(np.mean([
        np.var(synth_dataset(2500, seeds, rep).Y) for rep in range(10)
    ]))
    r2 = 1.0 - split_mse / var_y
    ok = (
        split_mse <= 2.0 * full_mse
        and split_mse < var_y
        and r2 > 0.9
        and desk_scale_runs["elapsed"] < 1800.0
    )
    report(7, "splitting GP tracks the full GP on the synthetic task",
           ok,
           f"mse {split_mse:.4f} vs full {full_mse:.4f} (ratio {split_mse/full_mse:.2f}), "
           f"R2 {r2:.3f}, {desk_scale_runs['elapsed']:.0f}s")


def test_criterion_12_crn_determinism(desk_scale_runs, tmp_path):
    def non_timing_bytes(records, path):
        emit_csv(records, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, col in enumerate(header)
                if col not in ("train_time_s", "predict_time_s")]
        return "\n".join(
            ",".join(line.split(",")[i] for i in keep) for line in lines
        ).encode()

    same = True
    for model in ("splitting", "fullgp"):
        a = non_timing_bytes(desk_scale_runs[(model, 0)], tmp_path / f"{model}_a.csv")
        b = non_timing_bytes(desk_scale_runs[(model, 1)], tmp_path / f"{model}_b.csv")
        same = same and a == b
    report(12, "repeated runs are byte-identical outside timing columns", same)


# ---------------------------------------------------------------------------
# Criterion 8: update cost depends on the splitting limit, not history.
# ---------------------------------------------------------------------------

def test_criterion_8_update_time_bounded():
    seeds = SeedPlan(MASTER_SEED + 1)
    ds = synth_dataset(2100, seeds)
    model = SplittingGP(200, train_schedule=TrainSchedule.never())
    times = np.empty(ds.n)
    for i in range(ds.n):
        t0 = time.perf_counter_ns()
        model.update(ds.X[i], ds.Y[i])
        times[i] = time.perf_counter_ns() - t0
    early = float(np.median(times[100:300]))
    late = float(np.median(times[1900:2100]))
    report(8, "median update time at n=2000 within 3x of n=200",
           late <= 3.0 * early,
           f"{early/1e3:.1f}us -> {late/1e3:.1f}us")


# ---------------------------------------------------------------------------
# Criterion 9: baseline degeneracies collapse to the full GP.
# ---------------------------------------------------------------------------

def test_criterion_9_baseline_degeneracies():
    seeds = SeedPlan(MASTER_SEED + 2)
    ds = synth_dataset(200, seeds)
    queries = synth_dataset(50, seeds, replicate=1).X
    schedule = lambda: TrainSchedule(fit=FitSchedule(max_iters=15))
    full = FullGp(train_schedule=schedule())
    local = LocalGpWgen(1e-15, train_schedule=schedule())
    committee = Rbcm(1, seed=0, train_schedule=schedule())
    for m in (full, local, committee):
        m.ingest_batch(ds.X, ds.Y)
    ref = full.predict_mean_batch(queries)
    local_gap = float(np.abs(local.predict_mean_batch(queries) - ref).max())
    rbcm_gap = float(np.abs(committee.predict_mean_batch(queries) - ref).max())
    report(9, "w_gen->0 local GP and single-expert rBCM equal the full GP",
           local.n_children == 1 and local_gap < 1e-10 and rbcm_gap < 1e-10,
           f"local gap {local_gap:.1e}, rbcm gap {rbcm_gap:.1e}")


# ---------------------------------------------------------------------------
# Criterion 10: local-GP error decreases as w_gen decreases.
# ---------------------------------------------------------------------------

def test_criterion_10_wgen_monotone_trend():
    cfg = ExperimentConfig(
        model="localgp", dataset="synthetic", synthetic_n=500, kfold=2,
        replicates=3, seed=MASTER_SEED, batch_size=250,
        train_schedule="batch", fit_iters=10,
    )
    _, summary = grid_search(cfg, {"w_gen": [0.5, 0.1, 1e-3]})
    by_wgen = {w: mse for w, mse in summary.wgen_trend}
    ok = by_wgen[1e-3] <= by_wgen[0.1] <= by_wgen[0.5]
    report(10, "mean MSE is monotone non-increasing as w_gen decreases",
           ok,
           " >= ".join(f"mse({w:g})={by_wgen[w]:.4f}" for w in (0.5, 0.1, 1e-3)))


# ---------------------------------------------------------------------------
# Criterion 11: principal-direction bisection dominates random hyperplanes.
# ---------------------------------------------------------------------------

def test_criterion_11_pddp_dominance():
    ok = True
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        ndim = int(rng.integers(2, 5))
        n = int(rng.integers(120, 320))
        direction = rng.standard_normal(ndim)
        direction /= np.linalg.norm(direction)
        gap = rng.uniform(6.0, 10.0)
        labels = rng.random(n) < 0.5
        X = rng.standard_normal((n, ndim)) + np.where(labels, gap / 2, -gap / 2)[:, None] * direction
        c = X.mean(axis=0)
        res = split(X, np.zeros(n), c)
        pddp_wcv = sum(
            float(np.sum((S - S.mean(axis=0)) ** 2)) for S in (res.left[0], res.right[0])
        )
        for _ in range(50):
            v = rng.standard_normal(ndim)
            v /= np.linalg.norm(v)
            mask = (X - c) @ v > 0
            if mask.all() or not mask.any():
                rand_wcv = float(np.sum((X - c) ** 2))
            else:
                rand_wcv = sum(
                    float(np.sum((S - S.mean(axis=0)) ** 2)) for S in (X[mask], X[~mask])
                )
            ok = ok and pddp_wcv <= rand_wcv
    report(11, "PDDP split dominates 50 random hyperplanes on 20 datasets", ok)
