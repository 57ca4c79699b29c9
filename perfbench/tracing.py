"""Span tracing for the benchmark's traced run.

The package is not modified: `Tracer.install` replaces the public callables of
each `splitgp` module from outside.  A module-level function is rebound in
every `splitgp` module that imported it by name, so calls between modules are
traced as well; a method is replaced on its class.  Each call records one span
(name, start, end, parent span) in memory.  Spans nest through a stack, which
keeps parentage right for the recursion in `PriorMeanNode.evaluate`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# Module-level functions, as "<module>.<function>".
FUNCTIONS = (
    "kernels.cross_gram",
    "kernels.gram",
    "kernels.gram_gradients",
    "gp.fit",
    "gp.lml_gradient",
    "gp.posterior_mean",
    "gp.posterior_variance",
    "partition.split",
    "data.synth_dataset",
    "data.kfold",
    "bench.run_experiment",
)

# Methods, as "<module>.<class>.<method>".  A constructor is traced under the
# class name: one `GpPosterior` is one Cholesky factorization.
METHODS = (
    "gp.GpPosterior.__init__",
    "model.PriorMeanNode.evaluate",
    "model.ChildModel.posterior",
    "model.ChildModel.residuals",
    "model.SplittingGP.update",
    "model.SplittingGP.refit",
    "model.SplittingGP.predict",
    "model.SplittingGP.predict_mean_batch",
    "model.SplittingGP.predict_variance_batch",
    "baselines.FullGp.ingest_batch",
    "baselines.FullGp.refit",
    "baselines.FullGp.predict_mean_batch",
)


def span_name(target: str) -> str:
    return target.removesuffix(".__init__")


SPAN_NAMES = tuple(span_name(t) for t in FUNCTIONS + METHODS)

# Prediction calls on the model.  A prior node evaluated twice on the same
# query rows within one of these did redundant work.
PREDICT_CALLS = ("model.SplittingGP.predict", "model.SplittingGP.predict_mean_batch",
                 "model.SplittingGP.predict_variance_batch")


def _evaluation_key(args) -> int:
    """Identifies a prior-node evaluation by the node and the rows it is asked for."""
    node, rows = args[0], np.asarray(args[1])
    return hash((id(node), rows.shape, rows.tobytes()))


class Tracer:
    """Records spans for every traced call between `install` and `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_key: list[int] = []
        self.counts: Counter = Counter()
        self.last_model = None
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import splitgp  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items()
                   if k == "splitgp" or k.startswith("splitgp.")]
        for target in FUNCTIONS:
            mod_name, attr = target.split(".")
            original = getattr(sys.modules[f"splitgp.{mod_name}"], attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for target in METHODS:
            mod_name, cls_name, attr = target.split(".")
            cls = getattr(sys.modules[f"splitgp.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span_name(target), original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _observer(self, name: str):
        """What a span records besides its times, from arguments and result."""
        counts = self.counts
        if name == "gp.GpPosterior":
            def observe(args, result):
                counts["gp.GpPosterior.jittered"] += args[0].jitter > 0.0
        elif name == "gp.fit":
            def observe(args, result):
                counts["gp.fit.iterations"] += result.iterations
                counts["gp.fit.nonconverged"] += not result.converged
                counts["gp.fit.warnings"] += bool(result.warning)
        elif name == "kernels.gram_gradients":
            def observe(args, result):
                # Computed, not measured: the (d+2) x n x n float64 tensor.
                n, d = np.atleast_2d(args[0]).shape
                counts["kernels.gram_gradients.bytes_computed"] += 8 * (d + 2) * n * n
        elif name.startswith("model.SplittingGP."):
            def observe(args, result):
                self.last_model = args[0]
        else:
            observe = None
        return observe

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        key = _evaluation_key if name == "model.PriorMeanNode.evaluate" else None
        span_name_, span_parent, span_key = self.span_name, self.span_parent, self.span_key
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name_)
            span_name_.append(nid)
            span_parent.append(stack[-1])
            span_key.append(key(args) if key is not None else 0)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[sid] = t0
                span_end[sid] = t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int64),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
            "key": np.asarray(self.span_key, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def layer_metrics(self, wall_s: float, steps: int) -> dict[str, float]:
        """Per-layer counts and self times, keyed by span-derived metric name.

        Self time is a span's duration minus the durations of its direct
        children.  `trace.remainder_s` is the part of `wall_s` that no traced
        call covers: benchmark glue and package code outside any traced call.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=name.size)
        self_time = dur - child_time
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        ids = {n: i for i, n in enumerate(self.names)}

        out: dict[str, float] = {}
        for n in SPAN_NAMES:
            out[f"{n}.calls"] = int(calls[ids[n]])
            out[f"{n}.self_s"] = float(self_s[ids[n]])

        # A ChildModel.posterior call rebuilds when it constructs a GpPosterior.
        post_id, gp_id, fit_id = (ids["model.ChildModel.posterior"], ids["gp.GpPosterior"],
                                  ids["gp.fit"])
        built = parent[(name == gp_id) & nested]
        rebuilds = int(np.unique(built[name[built] == post_id]).size)
        out["model.ChildModel.posterior.rebuilds"] = rebuilds
        out["model.ChildModel.posterior.rebuilds_per_step"] = rebuilds / max(steps, 1)
        out["workload.steps"] = steps

        # Factorizations made anywhere below a gp.fit call, per fit iteration.
        in_fit = name == fit_id
        while True:
            grown = in_fit | (nested & in_fit[np.where(nested, parent, 0)])
            if np.array_equal(grown, in_fit):
                break
            in_fit = grown
        factorizations = int(np.count_nonzero(in_fit & (name == gp_id)))
        for key in ("gp.GpPosterior.jittered", "gp.fit.iterations", "gp.fit.nonconverged",
                    "gp.fit.warnings", "kernels.gram_gradients.bytes_computed"):
            out[key] = int(self.counts[key])
        out["gp.fit.factorizations"] = factorizations
        out["gp.fit.factorizations_per_iter"] = (
            factorizations / out["gp.fit.iterations"] if out["gp.fit.iterations"] else 0.0)

        # Prior-node evaluations inside prediction calls, per distinct
        # (call, node, query rows).  The outermost prediction call is the group.
        predict_ids = {ids[n] for n in PREDICT_CALLS}
        name_l, parent_l = self.span_name, self.span_parent
        group = [-1] * name.size
        for i in range(name.size):
            p = parent_l[i]
            group[i] = group[p] if p >= 0 and group[p] >= 0 else (
                i if name_l[i] in predict_ids else -1)
        ev = [i for i in np.flatnonzero(name == ids["model.PriorMeanNode.evaluate"])
              if group[i] >= 0]
        unique = len({(group[i], self.span_key[i]) for i in ev})
        out["model.PriorMeanNode.evaluate.unique_per_call"] = unique
        out["model.prior_evals_per_unique_node"] = len(ev) / unique if unique else 0.0

        covered = float(dur[~nested].sum())
        out["trace.spans"] = int(name.size)
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = float(self_time.sum())
        out["trace.remainder_s"] = wall_s - covered
        return out
