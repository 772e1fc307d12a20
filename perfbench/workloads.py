"""One workload in one process: set up, run timed units, check, report.

``run.py`` starts this script once per measured run (``--role run``) and a
few more times to sample set-up alone (``--role setup``).  The last line of
standard output is a JSON object that ``run.py`` reads.

Set-up (``setup_s``) is everything from just before ``numpy`` and the
package are imported until the workload's inputs are generated.  A unit is
one complete operation a user waits for: one in-process CLI invocation, or
one pass of the strict predict/update loop.  Units repeat until the
``--seconds`` window is used up; each unit's outputs are checked outside
its timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SLACK_GATE = -1e-6          # the package's own negative-slack gate
KAAR_DOT_ATOL = 1e-8        # tests/test_kaar.py: KAAR-dot vs MAAR forecasts
KAAR_DOT_PREFIX = 100       # online-wide trials compared against KAAR-dot
REF_RTOL = 1e-7             # report.csv against references.json
REF_ATOL = 1e-9
PROBE_TRIALS = 200          # predict calls per forecaster in one latency pass
PROBE_SHARE = 0.1           # latency passes after a unit take at least this share of it,
                            # spreading the predict calls timed over the whole window

# Sizes of each workload; "tiny" is for the smoke test only.
SIZES = {
    "cli-bench-small": {"full": {"length": 1000}, "tiny": {"length": 300}},
    "cli-bench-kernel": {"full": {"length": 400}, "tiny": {"length": 90}},
    "online-wide": {"full": {"n": 200, "t_len": 500}, "tiny": {"n": 20, "t_len": 60}},
}
MIN_UNITS = {"full": 3, "tiny": 1}


def load_package(with_cli: bool):
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "simplexcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no simplexcast package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of the package's import cost)
    import simplexcast
    from simplexcast import harness
    if with_cli:
        from simplexcast import cli  # noqa: F401
    if Path(simplexcast.__file__).resolve().parent != (src / "simplexcast").resolve():
        raise SystemExit(f"error: simplexcast imported from {simplexcast.__file__}")
    return simplexcast, harness


def call_cli(argv: list[str]) -> int:
    """Invoke the CLI in-process, its output discarded; returns the exit code."""
    from simplexcast import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=argv, prog_name="simplexcast", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Shared parts: output checks run once, and the latency probe."""

    uses_cli = True
    first = None
    probe_streams: list = []

    def final_checks(self) -> list[str]:
        return []

    def latency_samples(self, pkg, budget_s: float) -> tuple[dict[str, list[float]], list[str]]:
        """Predict latency of MAAR and CAAR (a=1) on this workload's own streams.

        Each pass times about PROBE_TRIALS predict calls per forecaster, the
        same trials every pass, spread evenly over the streams so that every
        stream's shape is represented; passes repeat until ``budget_s`` is
        spent, at least one.
        """
        clock = time.perf_counter
        latency, errors = {"maar": [], "caar": []}, []
        per_stream = max(1, PROBE_TRIALS // len(self.probe_streams))
        start = clock()
        while not errors and (not latency["maar"] or clock() - start < budget_s):
            for name, cls in (("maar", pkg.MaarForecaster), ("caar", pkg.CaarForecaster)):
                lat = latency[name]
                for data in self.probe_streams:
                    data = data[:per_stream]
                    model = cls(len(data[0][0]), len(data[0][1]))
                    gammas = []
                    for x, y in data:
                        t0 = clock()
                        gamma = model.predict(x)
                        lat.append(clock() - t0)
                        gammas.append(gamma)
                        model.update(x, y)
                    errors += [f"probe {name}: {e}" for e in check_forecasts(pkg, gammas)]
        return latency, errors


class CliBench(Workload):
    """``simplexcast bench`` on a seeded synthetic series, run in-process."""

    def __init__(self, name, synth, extra, length, seed):
        self.name, self.synth, self.length, self.seed = name, synth, length, seed
        self.argv = ["bench", "--synth", synth, "--length", str(length), "--window", "10",
                     "--seed", str(seed), *extra]

    def prepare(self, pkg, harness):
        stream = harness.prepare_stream(harness.synth_series(self.synth, self.length, self.seed),
                                        10, "auto")
        self.probe_streams = [stream.pairs()]

    def unit(self, out_dir: Path, cli_call):
        return cli_call(self.argv + ["--out", str(out_dir)])

    def check(self, code, out_dir: Path) -> list[str]:
        if code != 0:
            return [f"bench exited {code}"]
        with (out_dir / "report.csv").open(newline="") as fh:
            rows = {r["algorithm"]: r for r in csv.DictReader(fh)}
        errors = []
        for algo, row in rows.items():
            if algo != "simple" and float(row["bound_slack"]) < SLACK_GATE:
                errors.append(f"{algo} bound slack {row['bound_slack']} below {SLACK_GATE}")
        values = {a: [r[k] for k in ("mse", "amse", "ridge", "bound_slack")] for a, r in rows.items()}
        if self.first is None:
            self.first = values
        elif values != self.first:
            errors.append("report.csv differs from the first unit's")
        return errors

    def final_checks(self) -> list[str]:
        """report.csv against the seed commit's, where a reference was recorded."""
        values = self.first
        refs = json.loads((HERE / "references.json").read_text())["bench"]
        ref = refs.get(f"{self.name}:length={self.length}:seed={self.seed}")
        if ref is None:
            return []
        if sorted(ref) != sorted(values):
            return [f"report.csv algorithms {sorted(values)} != reference {sorted(ref)}"]
        errors = []
        for algo, expect in ref.items():
            got = dict(zip(("mse", "amse", "ridge", "bound_slack"), values[algo]))
            for key, want in expect.items():
                if want is None or key == "ridge":
                    same = (got[key] or None) == (None if want is None else repr(want))
                else:
                    same = math.isclose(float(got[key]), want, rel_tol=REF_RTOL, abs_tol=REF_ATOL)
                if not same:
                    errors.append(f"{algo} {key} {got[key]} != reference {want!r}")
        return errors


class OnlineWide(Workload):
    """The strict predict/update loop of MAAR and CAAR at n=200, d=3, a=1."""

    uses_cli = False

    def __init__(self, n, t_len, seed):
        self.n, self.t_len, self.seed, self.d = n, t_len, seed, 3

    def prepare(self, pkg, harness):
        self.pkg = pkg
        self.data = harness.random_stream(self.n, self.d, self.t_len, self.seed)

    def unit(self, out_dir: Path, cli_call):
        clock = time.perf_counter
        forecasts, self.latency = {}, {}
        for name, cls in (("maar", self.pkg.MaarForecaster), ("caar", self.pkg.CaarForecaster)):
            model = cls(self.n, self.d)
            lat = self.latency[name] = []
            out = forecasts[name] = []
            for x, y in self.data:
                t0 = clock()
                gamma = model.predict(x)
                lat.append(clock() - t0)
                out.append(gamma)
                model.update(x, y)
        return forecasts

    def latency_samples(self, pkg, budget_s: float):
        """The latencies of the unit just run: here the loop is the workload."""
        return self.latency, []

    def check(self, forecasts, out_dir: Path) -> list[str]:
        import numpy as np
        errors = []
        for name, gammas in forecasts.items():
            errors += [f"{name}: {e}" for e in check_forecasts(self.pkg, gammas)]
        stacked = {name: np.array([g.p for g in gs]) for name, gs in forecasts.items()}
        if self.first is None:
            self.first = stacked
        elif any(not np.array_equal(stacked[k], self.first[k]) for k in stacked):
            errors.append("forecasts differ from the first unit's")
        return errors

    def final_checks(self) -> list[str]:
        """Hindsight bounds of both runs, and MAAR against KAAR with the dot kernel."""
        import numpy as np
        from simplexcast import bounds
        errors = []
        xs = np.array([x for x, _ in self.data])
        ys = np.array([y for _, y in self.data])
        loss = {k: float(np.sum((v - ys) ** 2)) for k, v in self.first.items()}
        t_len, n, d, a = self.t_len, self.n, self.d, 1.0
        x_max = float(np.max(np.abs(xs)))
        expert, _ = bounds.best_linear_expert(self.data, a)
        base = bounds.expert_loss(expert, self.data)
        slacks = {
            "maar joint": base + bounds.joint_bound_rhs(t_len, x_max, n, d, a / 2.0, expert.norm_sq)
            - loss["maar"],
            "maar joint_split": base + bounds.joint_split_bound_rhs(t_len, x_max, n, d, a, expert.norm_sq)
            - loss["maar"],
        }
        expert, _ = bounds.best_linear_expert(self.data, d * a)
        slacks["caar componentwise"] = (bounds.expert_loss(expert, self.data)
                                        + bounds.componentwise_bound_rhs(t_len, x_max, n, d, a, expert.norm_sq)
                                        - loss["caar"])
        errors += [f"{k} bound slack {v!r} below {SLACK_GATE}" for k, v in slacks.items() if v < SLACK_GATE]
        kaar = self.pkg.KaarForecaster(d, self.pkg.Kernel("dot"), a)
        prefix = min(KAAR_DOT_PREFIX, t_len)
        dot = []
        for x, y in self.data[:prefix]:
            dot.append(kaar.predict(x).p)
            kaar.update(x, y)
        gap = float(np.max(np.abs(np.array(dot) - self.first["maar"][:prefix])))
        if gap > KAAR_DOT_ATOL:
            errors.append(f"MAAR vs KAAR-dot forecasts differ by {gap:.3e} > {KAAR_DOT_ATOL}")
        return errors


def make_workload(name: str, size: str, seed: int):
    s = SIZES[name][size]
    if name == "cli-bench-small":
        return CliBench(name, "ar1", ["--algos", "caar,maar,simple", "--ridge", "grid"],
                        s["length"], seed)
    if name == "cli-bench-kernel":
        return CliBench(name, "sine", ["--algos", "kaar,simple", "--kernel", "rbf", "--sigma", "0.8",
                                       "--ridge", "grid"], s["length"], seed)
    return OnlineWide(s["n"], s["t_len"], seed)


def check_forecasts(pkg, gammas) -> list[str]:
    """Every forecast must be, and must construct again as, a ProbabilityVector."""
    errors = []
    for t, gamma in enumerate(gammas):
        try:
            if not isinstance(gamma, pkg.ProbabilityVector):
                raise TypeError(f"got {type(gamma).__name__}")
            pkg.ProbabilityVector(gamma.p)
        except (TypeError, ValueError) as exc:
            errors.append(f"trial {t}: not a probability vector ({exc})")
            if len(errors) >= 3:
                break
    return errors


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced unit

TRIAL_SPANS = ("caar.CaarForecaster.predict", "maar.MaarForecaster.predict",
               "kaar.KaarForecaster.predict", "harness.SimpleBaseline.predict")

# Exact counts that must repeat from unit to unit and run to run.
COUNT_METRICS = ("harness.trials", "core.validate_calls_per_trial", "core.prob_vectors_per_trial",
                 "maar.solve_structured_calls_per_trial", "kaar.factorizations_per_trial",
                 "substitution.calls", "projection.calls", "trace.spans")


def layer_metrics(s) -> dict[str, float]:
    def ratio(num, den):
        return num / den if den else 0.0

    trials = sum(s.count(name) for name in TRIAL_SPANS)
    out = {
        "harness.grid_search_s": s.incl("harness.grid_search_ridge"),
        "harness.run_online_s": s.incl_under("harness.run_online", "harness.run_benchmark"),
        "harness.trials": trials,
        "core.validate_calls_per_trial": ratio(s.count("core.as_float_vector"), trials),
        "core.validate_s": s.incl("core.as_float_vector"),
        "core.prob_vectors_per_trial": ratio(s.count("core.ProbabilityVector.__post_init__"), trials),
        "core.brier_s": s.incl("core.brier_loss"),
        "substitution.calls": s.count("substitution.solve_substitution"),
        "substitution.us_per_call": s.per_call_us("substitution.solve_substitution"),
        "projection.calls": s.count("projection.project_to_simplex"),
        "projection.us_per_call": s.per_call_us("projection.project_to_simplex"),
        "maar.generalized_us": s.per_call_us("maar.MaarForecaster.generalized"),
        "maar.solve_structured_calls_per_trial": ratio(s.count("maar.solve_structured"),
                                                       s.count("maar.MaarForecaster.predict")),
        "maar.update_us": s.per_call_us("maar.MaarForecaster.update"),
        "caar.update_us": s.per_call_us("caar.CaarForecaster.update"),
        "caar.predict_raw_us": s.per_call_us("caar.caar_predict_raw"),
        "kaar.generalized_us": s.per_call_us("kaar.KaarForecaster.generalized"),
        "kaar.update_us": s.per_call_us("kaar.KaarForecaster.update"),
        "kaar.factorizations_per_trial": ratio(s.count("kaar.cholesky"),
                                               s.count("kaar.KaarForecaster.predict")),
        "kaar.gram_s": s.incl("kaar.KaarForecaster._extended_gram") + s.incl("kaar.Kernel.gram"),
        "bounds.best_linear_expert_s": s.incl("bounds.best_linear_expert"),
        "bounds.best_kernel_expert_s": s.incl("bounds.best_kernel_expert"),
        "bounds.logdet_s": s.incl("bounds.gram_logdet_regret"),
        "trace.spans": s.spans,
    }
    from tracer import LAYERS
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s.layer_self(layer)
    return out


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    import numpy
    import scipy
    from importlib.metadata import version
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# Driver


def run(args, setup_s: float, workload, pkg) -> dict:
    """Repeat units until the window closes, check each, derive the metrics.

    Untraced, each unit is followed by latency passes; times are medians over
    the run's units, latencies percentiles over every predict call timed.
    Traced, untraced and traced units alternate, so the tracing overhead is
    measured in the same window.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer  # imported late: it imports numpy, part of setup_s
        tracer = Tracer()
    unit_dir = OUT / f"units-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    min_units = MIN_UNITS[args.size] + args.trace  # traced: at least one unit each way
    walls, cpus, iteration = {False: [], True: []}, [], []
    latency: dict[str, list[float]] = {"maar": [], "caar": []}
    layer_runs: list[dict] = []
    errors: list[str] = []
    failed = 0
    try:
        while len(iteration) < min_units or time.perf_counter() + statistics.median(iteration) <= deadline:
            k = len(iteration)
            traced = bool(args.trace) and len(walls[True]) < len(walls[False])
            out_dir = unit_dir / f"u{k}"
            out_dir.mkdir(parents=True)
            cli_call = call_cli
            if traced:
                tracer.reset()
                tracer.install()
                cli_call = lambda argv: tracer.call("cli.main", call_cli, argv)  # noqa: E731
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = workload.unit(out_dir, cli_call)
            except Exception as exc:  # a crash inside the package fails the unit
                result, unit_errors = None, [f"{type(exc).__name__}: {exc}"]
            finally:
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                if traced:
                    tracer.uninstall()
            if result is not None:
                unit_errors = workload.check(result, out_dir)
            shutil.rmtree(out_dir)
            walls[traced].append(wall)
            cpus.append(cpu)
            if traced:
                layer_runs.append(layer_metrics(tracer.summary()))
            if not args.trace:
                samples, probe_errors = workload.latency_samples(pkg, PROBE_SHARE * wall)
                unit_errors += probe_errors
                for name, values in samples.items():
                    latency[name] += values
            failed += bool(unit_errors)
            errors += [f"unit {k}: {e}" for e in unit_errors]
            iteration.append(time.perf_counter() - t0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_errors = workload.final_checks() if workload.first is not None else []
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)
    attempted = len(iteration)
    if final_errors:
        errors += final_errors
        failed = attempted
    flags: list[str] = []
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}.npz")  # spans of the last traced unit
        metrics = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        for key in COUNT_METRICS:
            metrics[key] = layer_runs[0][key]
            seen = sorted({r[key] for r in layer_runs})
            if len(seen) > 1:
                flags.append(f"{key} differs between traced units: {seen}")
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    else:
        metrics = {"wall_s": statistics.median(walls[False]), "cpu_s": statistics.median(cpus),
                   "peak_rss_mb": peak_rss_mb, "wall_s_min": min(walls[False]),
                   "units": len(walls[False])}
        for name, values in latency.items():
            metrics[f"{name}.predict_p50_us"] = 1e6 * percentile(values, 50)
            metrics[f"{name}.predict_p90_us"] = 1e6 * percentile(values, 90)
            metrics[f"{name}.predict_samples"] = len(values)
    return {
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "flags": flags,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--role", choices=("run", "setup"), default="run")
    args = parser.parse_args(argv)
    workload = make_workload(args.workload, args.size, args.seed)

    t0 = time.perf_counter()
    pkg, harness = load_package(workload.uses_cli or bool(args.trace))
    workload.prepare(pkg, harness)
    setup_s = time.perf_counter() - t0

    if args.role == "setup":
        result = {"setup_s": setup_s}
    else:
        OUT.mkdir(exist_ok=True)
        result = run(args, setup_s, workload, pkg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
