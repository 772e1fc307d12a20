"""Smoke test of the benchmark's own code, at tiny input sizes.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and twice traced, and checks that:

* the last line is a result with exactly the keys a result must have;
* every metric named in BENCHMARK.json is emitted with its unit, as a finite
  number, and end-to-end metrics are positive;
* every output check passed;
* the exact counts of the two traced runs are identical.

Last, it copies only BENCHMARK.json and this directory into an empty one and
checks that the benchmark exits non-zero there without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str):
    print(f"FAIL {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, label: str, metric_specs) -> dict:
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in metric_specs}:
        fail(f"{label}: metric names differ from BENCHMARK.json: {sorted(metrics)}")
    for spec in metric_specs:
        got = metrics[spec["name"]]
        if got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            fail(f"{label}: {spec['name']} = {got}")
        if "bound" in spec and not got["value"] > 0:
            fail(f"{label}: end-to-end metric {spec['name']} is {got['value']}")
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        result_of(bench(workload, 0), f"{workload} untraced", spec["end_to_end"])
        counts = [
            {k: m[k]["value"] for k in COUNT_METRICS}
            for m in (result_of(bench(workload, 1), f"{workload} traced", spec["per_layer"])
                      for _ in range(2))
        ]
        if counts[0] != counts[1]:
            fail(f"{workload}: exact counts differ between traced runs: {counts}")
        print(f"ok {workload}: every metric emitted; counts repeat {counts[0]}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        fail(f"bare directory: exit {proc.returncode}, last line {last!r}")
    print("ok bare directory: exit", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
