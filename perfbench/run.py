"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in child processes with BLAS pinned to one thread:
``SETUP_SAMPLES - 1`` children that only set up, then one that sets up,
measures for ``--seconds`` and checks every output.  With ``--trace 0`` the
result holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate, traced run gives the per-layer metrics.  Exits 1
after printing the result when any output check failed, and non-zero without
a result when the run itself could not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child(args, role: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--role", role]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {role} child timed out after {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise SystemExit(f"error: {role} child exited {proc.returncode}")
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The commit, when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's reduced inputs")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "simplexcast").is_dir() or not spec_path.is_file():
        raise SystemExit(f"error: {ROOT} holds no simplexcast checkout with BENCHMARK.json")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")

    setup = [] if args.trace else [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = child(args, "run")
    setup.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setup))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.pop(m["name"]), "unit": m["unit"]} for m in wanted}
    env = dict(result["env"], blas_threads_pinned=BLAS_THREADS, **source_identity())
    print("env " + json.dumps(env, sort_keys=True))
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_share {result['failed'] / result['attempted']:.4f}")
    for key, value in sorted(measured.items()):
        print(f"info {key} {value}")
    for line in result["flags"]:
        print(f"flag {line}")
    for line in result["errors"]:
        print(f"FAILED {line}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
