"""Fast self-test of the benchmark itself (about 20 seconds).

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks that:
- the metric names and units match BENCHMARK.json, and every metric is
  printed with its unit, in the report and in the JSON result line;
- per-layer self times plus the untraced remainder add up to the traced wall
  time;
- the output checks trip on a deliberately wrong expected digest;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def check_printed(args, outcome: dict, units: dict[str, str]) -> None:
    printed = {tuple(line.split()[::2]) for line in run.report_lines(args, {}, outcome, units)}
    missing = [name for name, unit in units.items() if (name, unit) not in printed]
    check(not missing, f"{args.workload} trace={args.trace}: all {len(units)} metrics "
                       f"printed with their units (missing: {missing})")
    result = json.loads(run.result_line(True, outcome, units))
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and {k: v["unit"] for k, v in result["metrics"].items()} == units,
          f"{args.workload} trace={args.trace}: result line carries every metric and unit")


def main() -> int:
    run.pin_blas()
    run.import_package()
    from tracing import SPAN_NAMES
    from workloads import DeskProtocol, Prequential, StreamRefit

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics match BENCHMARK.json")
    per_layer = run.per_layer_units()
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer,
          "per-layer metrics match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(run.GATED_WORKLOADS),
          "gated workloads match BENCHMARK.json")

    small = (Prequential(1, warm=200, steps=200, m=60),
             StreamRefit(2, warm=200, rows=200, queries=100, passes=2, m=30),
             DeskProtocol(20250809, synthetic_n=500, m=100))
    end_to_end = {name: unit for name, (unit, _) in run.END_TO_END.items()}
    for wl in small:
        plain = run.summarize([dict(run.worker(wl), setup_s=0.5) for _ in range(2)])
        check(not plain["failures"] and plain["failed"] == 0,
              f"{wl.name}: output checks pass untraced")
        check_printed(argparse.Namespace(workload=wl.name, seed=wl.seed, trace=0),
                      plain, end_to_end)

        traced = run.measure_traced(wl)
        m = traced["metrics"]
        check(not traced["failures"], f"{wl.name}: traced outputs equal untraced outputs")
        check_printed(argparse.Namespace(workload=wl.name, seed=wl.seed, trace=1),
                      traced, per_layer)
        self_sum = sum(m[f"{n}.self_s"] for n in SPAN_NAMES)
        check(abs(self_sum + m["trace.remainder_s"] - m["trace.wall_s"]) < 1e-6
              and m["trace.remainder_s"] >= 0.0,
              f"{wl.name}: self times {self_sum:.4f} s + untraced remainder "
              f"{m['trace.remainder_s']:.4f} s = traced wall {m['trace.wall_s']:.4f} s")

    wrong = run.summarize([dict(run.worker(small[0]), setup_s=0.5)], expected_digest="0" * 64)
    check(any("differs from the expected" in f for f in wrong["failures"]),
          "output checks trip on a wrong expected digest")

    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "perfbench").glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prequential",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/ the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
