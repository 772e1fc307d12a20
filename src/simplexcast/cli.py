"""Command-line interface.

Verbs:
  forecast       run one algorithm over one series, write a report
  bench          run several algorithms plus the baseline, write a report
  verify-bounds  stress the worst-case guarantees on generated streams
  label          emit the labeled stream for inspection

Exit codes: 0 success, 2 input or format error, 3 internal invariant
violation (for example a negative bound slack).
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import harness
from .bounds import SLACK_GATE
from .core import InvariantViolation, stack_trials

_EXIT_INPUT = 2
_EXIT_INVARIANT = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InvariantViolation as exc:
        _fail(_EXIT_INVARIANT, str(exc))
    except (harness.InputError, OSError, ValueError) as exc:
        _fail(_EXIT_INPUT, str(exc))


def _series_from(input_path, synth, length, seed):
    if input_path and synth:
        raise harness.InputError("pass either --input or --synth, not both")
    if input_path:
        return harness.load_series(input_path)
    if synth:
        return harness.synth_series(synth, length, seed)
    raise harness.InputError("need a series: pass --input FILE or --synth KIND")


def _parse_ridge(spec: str):
    if spec == "grid":
        return harness.DEFAULT_RIDGE_GRID
    try:
        return tuple(float(v) for v in spec.split(",")) if "," in spec else float(spec)
    except ValueError:
        raise harness.InputError(f"ridge must be a number, a comma list, or 'grid', got {spec!r}") from None


def _report(names, kernel_name, sigma, degree, ridge, input_path, synth, length, seed, window, epsilon,
            out_dir) -> None:
    """Run the algorithms ``names`` over one series through the benchmark protocol and write
    the report."""
    series = _series_from(input_path, synth, length, seed)
    stream = harness.prepare_stream(series, window, epsilon)
    kernel = None
    if "kaar" in names:
        from .kaar import Kernel  # scipy loads only when a kernel run needs it
        kernel = Kernel(kernel_name, sigma=sigma, degree=degree)
    reports, log = harness.run_benchmark(stream, names, _parse_ridge(ridge), kernel)
    log.update({"seed": seed, "synth": synth, "input": input_path, "algorithms": names})
    paths = harness.emit_report(reports, out_dir, log)
    click.echo(paths["table"].read_text().rstrip())
    click.echo(f"report written to {paths['csv']}")


_series_options = [
    click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="CSV series, one observation per line."),
    click.option("--synth", type=click.Choice(["ar1", "sine", "walk"]), default=None,
                 help="Generate a synthetic series instead of reading a file."),
    click.option("--length", type=int, default=1000, show_default=True,
                 help="Length of the synthetic series."),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--window", type=int, default=harness.DEFAULT_WINDOW, show_default=True,
                 help="Signal length: number of previous observations."),
    click.option("--epsilon", default="auto", show_default=True,
                 help="Tube half-width, or 'auto' for the median absolute change."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default="simplexcast-out",
                 show_default=True, help="Directory for report files."),
]


_model_options = [
    click.option("--kernel", "kernel_name", type=click.Choice(["dot", "rbf", "poly"]), default="dot",
                 show_default=True, help="Kernel for kaar."),
    click.option("--sigma", type=float, default=1.0, show_default=True),
    click.option("--degree", type=int, default=2, show_default=True),
    click.option("--ridge", default="grid", show_default=True),
]


def _with_options(*options):
    """Apply click ``options`` to a command as a stack of decorators in this order would."""
    def apply(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return apply


@click.group()
def main():
    """Online multi-class probability forecasting with loss guarantees."""


@main.command()
@click.option("--algo", type=click.Choice(["caar", "maar", "kaar"]), required=True)
@_with_options(*_model_options, *_series_options)
def forecast(algo, **options):
    """Run one algorithm over one series and write the report."""
    _guard(_report, [algo], **options)


@main.command()
@click.option("--algos", default="caar,maar,simple", show_default=True,
              help="Comma list of caar,maar,kaar,simple, or 'all'. "
                   "kaar is opt-in: its per-trial cost grows with the stream.")
@_with_options(*_model_options, *_series_options)
def bench(algos, **options):
    """Benchmark several algorithms plus the baseline on one series."""
    def work():
        names = ["caar", "maar", "kaar", "simple"] if algos == "all" else [
            a.strip() for a in algos.split(",") if a.strip()]
        for name in names:
            if name not in ("caar", "maar", "kaar", "simple"):
                raise harness.InputError(f"unknown algorithm {name!r}")
        if not names or len(set(names)) < len(names):
            raise harness.InputError(f"--algos must name at least one algorithm, each once, got {algos!r}")
        _report(names, **options)
    _guard(work)


@main.command("verify-bounds")
@click.option("--streams", type=int, default=50, show_default=True,
              help="Number of random streams.")
@click.option("--adversarial", type=int, default=10, show_default=True,
              help="Number of greedily adversarial streams.")
@click.option("--max-steps", type=int, default=120, show_default=True,
              help="Longest stream; stream lengths are drawn from 10 to this.")
@click.option("--ridge", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="simplexcast-out",
              show_default=True)
def verify_bounds(streams, adversarial, max_steps, ridge, seed, out_dir):
    """Check every guarantee on random and adversarial streams."""
    def work():
        if streams < 0 or adversarial < 0:
            raise harness.InputError(
                f"--streams and --adversarial must be >= 0, got {streams} and {adversarial}")
        if streams + adversarial == 0:
            raise harness.InputError("--streams and --adversarial are both 0: there is nothing to check")
        if max_steps < 10:
            raise harness.InputError(f"--max-steps must be at least 10, got {max_steps}")
        from .kaar import Kernel
        rng = np.random.default_rng(seed)
        rows = []
        worst = np.inf
        checks = (("caar", None), ("maar", None), ("kaar", Kernel("dot")),
                  ("kaar", Kernel("rbf", sigma=1.0)))
        for idx in range(streams + adversarial):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(2, 5))
            t_len = int(rng.integers(10, max_steps + 1))
            stream_seed = int(rng.integers(2**31))
            origin = "random" if idx < streams else "adversarial"
            if origin == "random":   # one random stream serves every check; adversarial ones answer each model
                data = stack_trials(harness.random_stream(n, d, t_len, stream_seed))
            for kind, kernel in checks:
                if origin == "adversarial":
                    data = harness.adversarial_stream(kind, n, d, t_len, ridge, stream_seed, kernel)
                for report in harness.verify_run(data, kind, ridge, kernel):
                    tag = kind if kernel is None else f"{kind}-{kernel.kind}"
                    rows.append((idx, origin, tag, report.bound, report.algorithm_loss,
                                 report.expert_loss, report.bound_value, report.slack))
                    worst = min(worst, report.slack)
        path = harness.write_outputs(out_dir, "bound_reports.csv", [
            "stream", "origin", "algorithm", "bound", "algorithm_loss", "expert_loss", "bound_value", "slack"],
            rows, "bound_log.json", {"streams": streams, "adversarial": adversarial, "max_steps": max_steps,
                                     "ridge": ridge, "seed": seed, "worst_slack": worst, "checks": len(rows)})
        click.echo(f"{len(rows)} checks, worst slack {worst:.3e}, report in {path}")
        if worst < SLACK_GATE:
            raise InvariantViolation(f"negative bound slack {worst!r}")
    _guard(work)


@main.command()
@_with_options(*_series_options)
def label(input_path, synth, length, seed, window, epsilon, out_dir):
    """Write the labeled stream (signals and classes) for inspection."""
    def work():
        series = _series_from(input_path, synth, length, seed)
        stream = harness.prepare_stream(series, window, epsilon)
        path = harness.write_outputs(
            out_dir, "labeled_stream.csv", [f"x{i + 1}" for i in range(stream.n)] + ["label"],
            ([repr(v) for v in x] + [int(np.argmax(y)) + 1] for x, y in stream.pairs()),
            "label_log.json", {"window": stream.window, "epsilon": stream.epsilon,
                               "normalization": {"mean": stream.mean, "scale": stream.scale},
                               "length": len(stream), "seed": seed, "synth": synth, "input": input_path})
        click.echo(f"{len(stream)} labeled steps written to {path}")
    _guard(work)


if __name__ == "__main__":
    main()
