import os
import subprocess
import sys
import warnings
from pathlib import Path

from click.testing import CliRunner

import simplexcast
from simplexcast.cli import main

from oracle import parse_report


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_label_on_synthetic(tmp_path):
    out = tmp_path / "out"
    result = run_cli("label", "--synth", "sine", "--length", "120", "--seed", "3",
                     "--out", str(out))
    assert result.exit_code == 0
    lines = (out / "labeled_stream.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "label"
    assert len(lines) == 1 + 120 - 10
    labels = {line.split(",")[-1] for line in lines[1:]}
    assert labels <= {"1", "2", "3"}
    assert (out / "label_log.json").exists()


def test_forecast_single_algorithm(tmp_path):
    out = tmp_path / "out"
    result = run_cli("forecast", "--algo", "maar", "--synth", "sine", "--length", "200",
                     "--seed", "1", "--ridge", "1.0", "--out", str(out))
    assert result.exit_code == 0
    rows = parse_report(out / "report.csv")
    assert [r.algorithm for r in rows] == ["maar"]
    assert rows[0].ridge == 1.0


def test_bench_writes_report_and_log(tmp_path):
    out = tmp_path / "out"
    result = run_cli("bench", "--synth", "sine", "--length", "300", "--seed", "2",
                     "--ridge", "0.1,1.0", "--out", str(out))
    assert result.exit_code == 0
    rows = parse_report(out / "report.csv")
    assert [r.algorithm for r in rows] == ["caar", "maar", "simple"]
    assert (out / "run_log.json").exists()
    assert "algorithm" in (out / "report.txt").read_text()


def test_bench_kaar_opt_in(tmp_path):
    out = tmp_path / "out"
    result = run_cli("bench", "--algos", "kaar,simple", "--kernel", "rbf", "--synth", "sine",
                     "--length", "120", "--seed", "2", "--ridge", "1.0", "--out", str(out))
    assert result.exit_code == 0
    rows = parse_report(out / "report.csv")
    assert [r.algorithm for r in rows] == ["kaar", "simple"]


def test_bench_without_kaar_does_not_load_scipy(tmp_path):
    # scipy serves only the kernel forecaster; a run without it must not pay for the import
    script = (
        "import sys\n"
        "from simplexcast.cli import main\n"
        "try:\n"
        f"    main(['bench', '--algos', 'caar,maar,simple', '--synth', 'sine', '--length', '120',"
        f" '--ridge', '1.0', '--out', {str(tmp_path / 'out')!r}])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simplexcast.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "report.csv").exists()


def test_kaar_and_the_kernel_guarantee_do_not_load_scipy_linalg(tmp_path):
    # KAAR takes its BLAS and LAPACK routines from scipy's compiled modules, loaded from their
    # files; importing scipy.linalg itself costs about 23 MB and a quarter of a second
    script = (
        "import sys\n"
        "from simplexcast.cli import main\n"
        "def check(after):\n"
        "    assert 'scipy.linalg' not in sys.modules, after\n"
        "def run(*args):\n"
        "    try:\n"
        "        main(list(args))\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        "import simplexcast.kaar\n"
        "check('import simplexcast.kaar')\n"
        f"run('bench', '--algos', 'kaar,simple', '--kernel', 'rbf', '--synth', 'sine', '--length', '120',"
        f" '--ridge', '1.0', '--out', {str(tmp_path / 'bench')!r})\n"
        "check('bench')\n"
        f"run('verify-bounds', '--streams', '2', '--adversarial', '1', '--max-steps', '20',"
        f" '--out', {str(tmp_path / 'vb')!r})\n"
        "check('verify-bounds')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simplexcast.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "bench" / "report.csv").exists() and (tmp_path / "vb" / "bound_reports.csv").exists()


def test_verify_bounds_small_run(tmp_path):
    out = tmp_path / "out"
    result = run_cli("verify-bounds", "--streams", "2", "--adversarial", "1",
                     "--max-steps", "25", "--seed", "4", "--out", str(out))
    assert result.exit_code == 0
    text = (out / "bound_reports.csv").read_text()
    assert "slack" in text.splitlines()[0]
    assert "worst slack" in result.output


def test_verify_bounds_without_streams_is_input_error(tmp_path):
    for streams, adversarial in (("0", "0"), ("-1", "3"), ("2", "-1")):
        out = tmp_path / f"out{streams}{adversarial}"
        result = run_cli("verify-bounds", "--streams", streams, "--adversarial", adversarial,
                         "--out", str(out))
        assert result.exit_code == 2
        assert "--streams" in result.output and "--adversarial" in result.output
        assert not (out / "bound_log.json").exists()


def test_verify_bounds_max_steps_below_ten_is_input_error(tmp_path):
    result = run_cli("verify-bounds", "--streams", "1", "--adversarial", "0", "--max-steps", "5",
                     "--out", str(tmp_path / "out"))
    assert result.exit_code == 2
    assert "--max-steps must be at least 10" in result.output
    result = run_cli("verify-bounds", "--streams", "1", "--adversarial", "0", "--max-steps", "10",
                     "--out", str(tmp_path / "out"))
    assert result.exit_code == 0


def test_missing_series_is_input_error():
    result = CliRunner().invoke(main, ["forecast", "--algo", "caar"])
    assert result.exit_code == 2


def test_bad_input_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnot-a-number\n")
    result = CliRunner().invoke(main, ["forecast", "--algo", "caar", "--input", str(bad)])
    assert result.exit_code == 2


def test_constant_series_is_input_error(tmp_path):
    const = tmp_path / "const.csv"
    const.write_text("\n".join(["5.0"] * 50) + "\n")
    result = CliRunner().invoke(main, ["forecast", "--algo", "caar", "--input", str(const)])
    assert result.exit_code == 2


def test_unknown_algos_rejected(tmp_path):
    result = CliRunner().invoke(main, ["bench", "--algos", "caar,mystery", "--synth", "sine"])
    assert result.exit_code == 2


def test_empty_or_repeated_algos_rejected(tmp_path):
    for algos in (",", " , ", "maar,maar", "caar,simple,caar"):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["bench", "--algos", algos, "--synth", "sine", "--length", "120",
                                           "--out", str(out)])
        assert result.exit_code == 2, (algos, result.output)
        assert f"--algos must name at least one algorithm, each once, got {algos!r}" in result.output
        assert not out.exists()


def test_bad_ridge_rejected():
    result = CliRunner().invoke(
        main, ["forecast", "--algo", "caar", "--synth", "sine", "--ridge", "-1"])
    assert result.exit_code == 2


def test_conflicting_series_sources(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1\n2\n3\n")
    result = CliRunner().invoke(
        main, ["label", "--input", str(f), "--synth", "sine"])
    assert result.exit_code == 2


def test_deterministic_reports_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = run_cli("bench", "--synth", "ar1", "--length", "250", "--seed", "9",
                         "--ridge", "1.0", "--out", str(out))
        assert result.exit_code == 0
    rows1 = parse_report(out1 / "report.csv")
    rows2 = parse_report(out2 / "report.csv")
    for a, b in zip(rows1, rows2):
        assert (a.algorithm, a.mse, a.amse, a.ridge, a.bound_slack) == \
               (b.algorithm, b.mse, b.amse, b.ridge, b.bound_slack)


def test_an_infinite_ridge_is_input_error_naming_the_ridge(tmp_path):
    series = ["--synth", "sine", "--length", "120", "--out", str(tmp_path / "out")]
    for argv in (["bench", "--ridge", "inf"], ["forecast", "--algo", "kaar", "--ridge", "inf"],
                 ["bench", "--ridge", "1,inf"], ["forecast", "--algo", "maar", "--ridge", "1,nan"]):
        result = CliRunner().invoke(main, argv + series)
        assert result.exit_code == 2, (argv, result.output)
        assert "positive and finite" in result.output and ("inf" in result.output or "nan" in result.output)
    assert not (tmp_path / "out").exists()


def test_a_bad_grid_value_is_input_error_for_a_baseline_only_run(tmp_path):
    for spec, shown in (("1,-1", "-1.0"), ("1,nan", "nan"), ("-1", "-1.0")):
        result = CliRunner().invoke(main, ["bench", "--algos", "simple", "--ridge", spec, "--synth", "sine",
                                           "--length", "120", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (spec, result.output)
        assert "positive and finite" in result.output and shown in result.output
    assert not (tmp_path / "out").exists()


def test_a_non_finite_epsilon_is_input_error(tmp_path):
    for eps in ("nan", "inf", "-0.5"):
        result = CliRunner().invoke(main, ["bench", "--synth", "sine", "--length", "120", "--epsilon", eps,
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (eps, result.output)
        assert "epsilon must be finite and nonnegative" in result.output
    assert not (tmp_path / "out").exists()


def test_a_non_numeric_epsilon_is_input_error(tmp_path):
    for verb in (["bench"], ["forecast", "--algo", "maar"], ["label"]):
        result = CliRunner().invoke(main, verb + ["--synth", "sine", "--length", "120", "--epsilon", "wide",
                                                  "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (verb, result.output)
        assert "epsilon must be a number or 'auto', got 'wide'" in result.output
    assert not (tmp_path / "out").exists()


def test_a_ridge_near_the_float_limit_runs_or_is_input_error_naming_the_ridge(tmp_path):
    # the refresh measures inverse drift at unit scale, so entries near 1e-300 do not underflow
    series = ["bench", "--synth", "ar1", "--length", "600", "--seed", "0"]
    for ridge in ("1e200", "1e300"):
        result = CliRunner().invoke(main, series + ["--ridge", ridge, "--out", str(tmp_path / ridge)])
        assert result.exit_code == 0, (ridge, result.output)
    # CAAR's guarantee compares against ridge d * a, which overflows here
    result = CliRunner().invoke(main, series + ["--ridge", "1e308", "--out", str(tmp_path / "max")])
    assert result.exit_code == 2, result.output
    assert "ridge 1e+308 is too large" in result.output


def test_an_rbf_width_whose_square_underflows_or_overflows_is_input_error(tmp_path):
    # 2 sigma^2 divides every squared distance, so a width that makes it 0 or inf is bad input
    for sigma in ("1e-170", "inf"):
        out = tmp_path / sigma
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["bench", "--algos", "kaar,simple", "--kernel", "rbf", "--sigma", sigma,
                                               "--synth", "sine", "--length", "120", "--out", str(out)])
        assert result.exit_code == 2, (sigma, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: rbf width must make 2 sigma^2" in result.output and "Traceback" not in result.output
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not out.exists()
