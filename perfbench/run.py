"""Fixed-seed benchmark of splitgp: one workload per invocation.

    python3 perfbench/run.py --workload prequential --seed 1 --seconds 50 --trace 0

Workloads: prequential, stream_refit, desk_protocol (see perfbench/README.md).
With --trace 0 the run starts a fixed number of fresh worker processes, one
after another, each running the workload once: as many as fit in --seconds at
the workload's nominal worker time, and at least two.  The last line of stdout
is one JSON object with every end-to-end metric.  With --trace 1 it runs
the workload once untraced and once traced, in this process, and reports the
per-layer metrics instead.  Exit status 1 means an output check or a worker
failed, 2 that the package could not be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# One caller drives one closed loop, so BLAS gets one thread.  With two (nproc
# is 2 on the reference machine) 1500 prequential steps took 11 s, not 8-9 s.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_WORKERS = 2  # the output digest is compared across the workers of a run

# The workloads BENCHMARK.json lists.  stream_refit runs on demand but is not
# gated: its mse and refit tail spread by 20-30% from seed to seed.
GATED_WORKLOADS = ("prequential", "desk_protocol")

# name: (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p99": ("ms", "lower"),
    "ingest_obs_per_s": ("obs/s", "higher"),
    "query_rows_per_s": ("rows/s", "higher"),
    "protocol_s": ("s", "lower"),
    "mse": ("y_sq", "lower"),
    "memory_kb": ("kB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def pin_blas() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package() -> None:
    """Import splitgp from this checkout's src/, or exit with status 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import splitgp
    except ImportError as err:
        print(f"error: cannot import splitgp from {src}: {err}", file=sys.stderr)
        sys.exit(2)
    if not Path(splitgp.__file__).resolve().is_relative_to(src):
        print(f"error: splitgp imported from {splitgp.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracing import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "gp.GpPosterior.jittered": "count",
        "gp.fit.iterations": "count",
        "gp.fit.nonconverged": "count",
        "gp.fit.warnings": "count",
        "gp.fit.factorizations": "count",
        "gp.fit.factorizations_per_iter": "count/iter",
        "kernels.gram_gradients.bytes_computed": "bytes",
        "model.ChildModel.posterior.rebuilds": "count",
        "model.ChildModel.posterior.rebuilds_per_step": "count/step",
        "model.PriorMeanNode.evaluate.unique_per_call": "count",
        "model.prior_evals_per_unique_node": "ratio",
        "model.children": "count",
        "model.prior_nodes": "count",
        "model.splits": "count",
        "model.max_depth": "count",
        "workload.steps": "count",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.remainder_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# -- environment ----------------------------------------------------------------

def _blas_vendor(module) -> str:
    deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_vendor(numpy),
        "blas_scipy": _blas_vendor(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# -- measurement ----------------------------------------------------------------

class WorkerFailed(Exception):
    """A worker process ended without a result."""


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(wl) -> dict:
    """One repeat in this process: set-up, then the timed calls."""
    prepared = wl.prepare()
    ready = time.time()
    return {"ready": ready, **asdict(wl.run(prepared)), "peak_rss_mb": _peak_rss_mb()}


def worker_count(wl, seconds: float) -> int:
    """How many workers a run of `seconds` starts.  The count depends only on
    the arguments, never on how fast the workers ran, so that a fast host and
    a slow one summarize the same number of samples per step."""
    return max(MIN_WORKERS, round(seconds / wl.worker_s))


def spawn_workers(workload: str, seed: int, count: int) -> list[dict]:
    """`count` fresh worker processes, one after another.  A worker's setup_s
    runs from its process start to its first timed call: imports, data, folds
    and model construction."""
    results = []
    for _ in range(count):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--worker"],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise WorkerFailed(proc.stderr.strip())
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result.pop("ready") - t0
        results.append(result)
    return results


def _check_digests(results: list[dict], expected_digest: str | None = None) -> list[str]:
    failures = [f for r in results for f in r["failures"]]
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        failures.append(f"output digest differs across repeats: {sorted(digests)}")
    if expected_digest is not None and digests != {expected_digest}:
        failures.append(f"output digest {sorted(digests)} differs from the expected "
                        f"{expected_digest}")
    return failures


def summarize(results: list[dict], expected_digest: str | None = None) -> dict:
    """End-to-end metrics from the workers of one run.

    On the reference host the same work runs faster or slower from one
    process to the next, and within a process from one second to the next, by
    10-30%.  So every figure is the median over the run's workers, and with an
    even count the better of the two middle ones: a slow stretch of the host
    only ever adds time, and with two workers the plain median would carry
    half of one worker's slow stretch.  Every worker replays the same steps, so
    each step's time is its median over the workers, and the step percentiles
    are taken over those per-step medians.  Of the statistics tried (best
    worker, per-step minimum, per-step median), the medians moved least from
    seed to seed.
    """
    import numpy as np

    step_s = np.array([r["step_s"] for r in results])
    per_step = np.sort(step_s, axis=0)[(len(results) - 1) // 2]
    steps = per_step[~np.isnan(step_s).any(axis=0)]
    # With no successful step the failures are reported and the percentiles are NaN.
    p50, p99 = np.percentile(steps, [50, 99]) if steps.size else (np.nan, np.nan)

    def lower(key: str) -> float:
        return statistics.median_low(r[key] for r in results)

    def higher(key: str) -> float:
        return statistics.median_high(r[key] for r in results)

    metrics = {
        "setup_s": lower("setup_s"),
        "step_ms_p50": 1e3 * float(p50),
        "step_ms_p99": 1e3 * float(p99),
        "ingest_obs_per_s": higher("ingest_obs_per_s"),
        "query_rows_per_s": higher("query_rows_per_s"),
        "protocol_s": lower("wall_s"),
        "mse": results[0]["mse"],
        "memory_kb": results[0]["memory_kb"],
        "peak_rss_mb": lower("peak_rss_mb"),
    }
    return {
        "metrics": metrics,
        "repeats": len(results),
        "step_samples": int(steps.size),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "digest": results[0]["digest"],
        "failures": _check_digests(results, expected_digest),
        "per_worker": [{k: r[k] for k in ("setup_s", "wall_s", "ingest_obs_per_s",
                                          "query_rows_per_s", "peak_rss_mb")}
                       for r in results],
    }


def _gauges(model) -> dict[str, int]:
    return {
        "model.children": model.n_children,
        "model.prior_nodes": len(model.prior_nodes()),
        # Every split replaces one child by two.
        "model.splits": model.n_children - 1,
        "model.max_depth": max(len(c.prior.chain()) if c.prior else 0 for c in model.children),
    }


def measure_traced(wl, spans_path=None) -> dict:
    """One untraced and one traced repeat, set-up included: per-layer metrics
    and the tracing overhead between the two."""
    from tracing import Tracer

    t0 = time.perf_counter()
    plain = wl.run(wl.prepare())
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        traced = wl.run(wl.prepare())
        traced_wall = time.perf_counter() - t0
    metrics = tracer.layer_metrics(traced_wall, len(traced.step_s))
    metrics.update(_gauges(tracer.last_model))
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    if spans_path is not None:
        tracer.save(spans_path)
    return {
        "metrics": metrics,
        "repeats": 2,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "digest": plain.digest,
        # Tracing must not change what the program computes.
        "failures": _check_digests([asdict(plain), asdict(traced)]),
    }


# -- reporting ------------------------------------------------------------------

def result_line(correct: bool, outcome: dict, units: dict[str, str]) -> str:
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": outcome["attempted"],
                       "failed": outcome["failed"], "metrics": metrics})


def report_lines(args, env: dict, outcome: dict, units: dict[str, str]) -> list[str]:
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"repeats={outcome['repeats']}",
        "environment: " + json.dumps(env),
    ]
    if "step_samples" in outcome:
        lines.append(f"step samples: {outcome['step_samples']} steps, each the median over "
                     f"{outcome['repeats']} worker processes")
    for name, unit in units.items():
        lines.append(f"  {name:<48} {outcome['metrics'][name]:.6g} {unit}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    lines.append(f"  {'error_rate':<48} {failed / attempted:.6g} "
                 f"({failed} failed of {attempted} attempted calls)")
    if outcome["failures"]:
        lines += [f"CHECK FAILED: {f}" for f in outcome["failures"]]
    else:
        lines.append(f"checks: passed; output digest {outcome['digest']}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("prequential", "stream_refit", "desk_protocol"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    import_package()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = cls.default_seed
    wl = cls(args.seed)
    if args.worker:
        print(json.dumps(worker(wl)))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            units = per_layer_units()
            outcome = measure_traced(wl, spans_path=OUT_DIR / f"{stem}-spans.npz")
        else:
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
            outcome = summarize(spawn_workers(args.workload, args.seed,
                                                worker_count(wl, args.seconds)))
    except WorkerFailed as err:
        print(f"error: worker process failed: {err}", file=sys.stderr)
        return 1
    env = environment(args.workload, args.seed)
    correct = not outcome["failures"]
    for line in report_lines(args, env, outcome, units):
        print(line)
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"environment": env, **outcome}, indent=1, default=float))
    print(result_line(correct, outcome, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
