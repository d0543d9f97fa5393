"""End-to-end checks of the command-line harness.

Runs go through bornlab.cli.main with real files in tmp_path; nothing here
monkeypatches the computation layers, so these double as integration tests
for the deterministic seeding contract.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from bornlab import __version__, lab
from bornlab.cli import (
    CSV_HEADER,
    DESK_TRIALS,
    PAPER_TRIALS,
    CliError,
    ExperimentConfig,
    ExperimentRow,
    build_parser,
    figure_configs,
    main,
    parse_family,
    read_sample_file,
    rows_to_csv,
    run_config,
)
from bornlab.lab import wilson_interval


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def write_samples(path, n, outcomes):
    with open(path, "w") as f:
        for x in outcomes:
            f.write(format(x, f"0{n}b") + "\n")


def test_csv_header_is_exact(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
                    "--pairs", "100", "--seed", "1", "--out", out]) == 0
    first = out.read_text().splitlines()[0]
    assert first == "experiment,family,n,metric,sigma,statistic,value,stderr,trials,seed"
    assert first == CSV_HEADER


def test_float_cells_survive_text_round_trip(tmp_path):
    # %.17g is lossless for doubles: reformatting the parsed cell must give
    # back the identical token
    out = tmp_path / "r.csv"
    run_cli(["pairwise", "--family", "dirichlet", "--n-min", "4", "--n-max", "6",
             "--pairs", "150", "--seed", "9", "--out", out])
    for row in read_rows(out):
        for key in ("value", "stderr"):
            token = row[key]
            assert "%.17g" % float(token) == token


def test_rerun_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["pairwise", "--family", "product,peaked", "--metric", "sd,l1",
            "--n-min", "3", "--n-max", "5", "--pairs", "200", "--seed", "42"]
    run_cli(args + ["--out", a])
    run_cli(args + ["--out", b])
    assert a.read_bytes() == b.read_bytes()


# one small config per experiment kind, each with several (family, n) cells
WORKER_CONFIGS = {
    "tails": dict(families=["dirichlet", "product"], n_min=5, n_max=7, trials=500),
    "pairwise": dict(families=["dirichlet", "iqp"], n_min=3, n_max=5, trials=150,
                     metrics=["sd", "mmd2", "l1", "tvd"], sigmas=["1", "n"]),
    "mmdtest": dict(families=["dirichlet", "iqp"], n_min=3, n_max=4, trials=3, samples=30,
                    sigmas=["1", "n"]),
    "observable": dict(families=["product", "dirichlet"], n_min=3, n_max=5, trials=200,
                       subset=[1, 2]),
    "uniform_distance": dict(families=["dirichlet", "peaked"], n_min=3, n_max=5, trials=200),
    "anticoncentration": dict(families=["dirichlet", "pareto:alpha=2"], n_min=4, n_max=6,
                              trials=500),
}


@pytest.mark.parametrize("experiment", list(WORKER_CONFIGS))
def test_worker_count_does_not_change_bytes(tmp_path, experiment):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(WORKER_CONFIGS[experiment], experiment=experiment, seed=11)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", "--config", cfg_path, "--workers", "1", "--out", a]) == 0
    assert run_cli(["run", "--config", cfg_path, "--workers", "2", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_config_opens_one_pool(tmp_path, monkeypatch):
    # six cells of two chunks each: one Pool serves them all
    opened = []
    pool = lab.multiprocessing.Pool

    def counting_pool(processes=None, *args, **kwargs):
        opened.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(lab.multiprocessing, "Pool", counting_pool)
    out = tmp_path / "t.csv"
    assert run_cli(["tails", "--family", "product,dirichlet", "--n-min", "4", "--n-max", "6",
                    "--trials", "131072", "--workers", "2", "--out", out]) == 0
    assert opened == [2]
    assert len(read_rows(out)) == 2 * 3 * 10


def test_manifest_round_trip_reproduces_run(tmp_path):
    first = tmp_path / "first.csv"
    run_cli(["pairwise", "--family", "dirichlet,product", "--metric", "sd,mmd2",
             "--sigma", "1,n", "--n-min", "3", "--n-max", "5",
             "--pairs", "150", "--seed", "23", "--out", first])
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert manifest["configs"][0]["seed"] == 23
    second = tmp_path / "second.csv"
    run_cli(["run", "--config", tmp_path / "first.csv.manifest.json", "--out", second])
    assert first.read_bytes() == second.read_bytes()


def test_born_seed_env_is_default(tmp_path, monkeypatch):
    a, b, c = (tmp_path / f"{k}.csv" for k in "abc")
    monkeypatch.setenv("BORN_SEED", "77")
    run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
             "--pairs", "100", "--out", a])
    run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
             "--pairs", "100", "--seed", "77", "--out", b])
    # explicit flag wins over the environment
    run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
             "--pairs", "100", "--seed", "5", "--out", c])
    assert a.read_bytes() == b.read_bytes()
    assert read_rows(c)[0]["seed"] == "5"


def test_bad_born_seed_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BORN_SEED", "not-a-number")
    rc = run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
                  "--pairs", "100", "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert "BORN_SEED" in capsys.readouterr().err


def test_negative_seed_is_rejected_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    monkeypatch.setenv("BORN_SEED", "-2")
    rc = run_cli(["pairwise", "--family", "uniform", "--n-min", "3", "--n-max", "3",
                  "--pairs", "100", "--out", out])
    assert rc == 2
    assert "BORN_SEED must be a non-negative integer, got '-2'" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.delenv("BORN_SEED")
    run_cli(["tails", "--family", "uniform", "--n-min", "3", "--n-max", "3",
             "--trials", "100", "--out", out])
    rc = run_cli(["run", "--config", f"{out}.manifest.json", "--seed=-1",
                  "--out", tmp_path / "again.csv"])
    assert rc == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "again.csv").exists()


def test_product_sd_means_track_closed_form(tmp_path):
    # pairwise, product, SD, n=2..6, 10^4 pairs: means follow 2((2/3)^n - 2^-n)
    out = tmp_path / "prod.csv"
    run_cli(["pairwise", "--family", "product", "--metric", "sd", "--n-min", "2",
             "--n-max", "6", "--pairs", "10000", "--seed", "7", "--out", out])
    means = {int(r["n"]): (float(r["value"]), float(r["stderr"]))
             for r in read_rows(out) if r["statistic"] == "mean"}
    for n in range(2, 7):
        expected = 2 * ((2 / 3) ** n - 2.0 ** -n)
        value, se = means[n]
        assert abs(value - expected) < 4 * se


def test_dirichlet_tail_curve_matches_beta_survival(tmp_path):
    # flat Dirichlet reference mass is Beta(1, N-1): Prob(N p >= y) = (1 - y/N)^(N-1)
    out = tmp_path / "tails.csv"
    run_cli(["tails", "--family", "dirichlet", "--n-min", "8", "--n-max", "8",
             "--trials", "100000", "--seed", "13", "--out", out])
    rows = read_rows(out)
    assert len(rows) == 10
    N = 2 ** 8
    for row in rows:
        y = float(row["statistic"].split("=")[1])
        trials = int(row["trials"])
        successes = round(float(row["value"]) * trials)
        # 99.5% per point so the 10-point joint check stays above 95%
        lo, hi = wilson_interval(successes, trials, z=2.807033768343811)
        exact = (1 - y / N) ** (N - 1)
        assert lo <= exact <= hi, (y, exact, lo, hi)


def test_tail_estimates_fall_as_y_grows(tmp_path):
    out = tmp_path / "t.csv"
    run_cli(["tails", "--family", "product", "--n-min", "6", "--n-max", "6",
             "--trials", "2000", "--seed", "3", "--out", out])
    rows = read_rows(out)
    ys = [float(r["statistic"].split("=")[1]) for r in rows]
    estimates = [float(r["value"]) for r in rows]
    assert ys == sorted(ys)
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))
    assert all(r["statistic"].startswith("tail@y=") for r in rows)


def test_mmdtest_identical_file_accepts(tmp_path, capsys):
    path = tmp_path / "x.txt"
    rng = np.random.default_rng(4)
    write_samples(path, 6, rng.integers(0, 64, size=50))
    assert run_cli(["mmdtest", path, path, "--sigma", "1"]) == 0
    out = capsys.readouterr().out
    # the diagonal-excluding estimator lands at or slightly below zero here,
    # never anywhere near the threshold
    assert "verdict: ACCEPT" in out
    estimate = float(out.split("estimate: ")[1].split()[0])
    assert abs(estimate) < 0.1


def test_mmdtest_far_apart_point_masses_reject(tmp_path, capsys):
    n = 8
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    write_samples(x, n, [0] * 100)
    write_samples(y, n, [2 ** n - 1] * 100)
    assert run_cli(["mmdtest", x, y, "--sigma", "1", "--alpha", "0.05"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    # all within-sample Hamming distances are 0 and cross distances are n,
    # so the estimate is exactly 2(1 - e^(-n/2))
    assert abs(float(lines["estimate"]) - 2 * (1 - math.exp(-4))) < 1e-12
    assert abs(float(lines["threshold"]) - math.sqrt(8 * math.log(20) / 200)) < 1e-12
    assert lines["verdict"] == "REJECT"


def test_mmdtest_alpha_one_threshold_zero(tmp_path, capsys):
    path = tmp_path / "x.txt"
    write_samples(path, 4, [1, 2, 3, 4, 5])
    assert run_cli(["mmdtest", path, path, "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "threshold: 0" in out
    # five distinct outcomes on both sides: the estimate is (S - 25)/50 with
    # S the kernel sum over all 25 ordered pairs, so it is at most 0
    assert "verdict: ACCEPT" in out


def test_mmdtest_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n01x1\n0000\n")
    rc = run_cli(["mmdtest", bad, bad])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:2" in err and "parse error" in err


def test_mmdtest_ragged_lines_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0101\n011\n")
    assert run_cli(["mmdtest", bad, bad]) == 2
    assert ":2" in capsys.readouterr().err


def test_mmdtest_width_mismatch_between_files(tmp_path, capsys):
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    write_samples(x, 4, [0, 1, 2])
    write_samples(y, 5, [0, 1, 2])
    assert run_cli(["mmdtest", x, y]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_mmdtest_needs_two_samples_per_side(tmp_path, capsys):
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    write_samples(x, 4, [3])
    write_samples(y, 4, [0, 1, 2])
    assert run_cli(["mmdtest", x, y]) == 2


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "1e8", "1e300"])
def test_mmdtest_rejects_bad_sigma(tmp_path, capsys, sigma):
    # sigma = 0 stands for rho = 0; a negative or non-finite sigma is no
    # bandwidth, and neither is one so wide that rho rounds to 1 or sigma^2
    # overflows
    path = tmp_path / "x.txt"
    write_samples(path, 4, [1, 2, 3, 4, 5])
    assert run_cli(["mmdtest", path, path, f"--sigma={sigma}"]) == 2
    captured = capsys.readouterr()
    assert "sigma must be positive and finite" in captured.err
    assert "estimate" not in captured.out


def test_mmdtest_sigma_whose_square_underflows_runs_as_sigma_zero(tmp_path, capsys):
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    rng = np.random.default_rng(5)
    write_samples(x, 6, rng.integers(0, 64, size=40))
    write_samples(y, 6, rng.integers(0, 16, size=40))
    estimates = []
    for sigma in ("0", "1e-300"):
        assert run_cli(["mmdtest", x, y, "--sigma", sigma]) == 0
        estimates.append(capsys.readouterr().out.split("estimate: ")[1].split()[0])
    assert estimates[0] == estimates[1]
    assert float(estimates[0]) > 0


@pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
def test_mmdtest_checks_alpha_before_reading_files(tmp_path, capsys, alpha):
    # the files do not exist: a bad alpha is refused before they are opened
    rc = run_cli(["mmdtest", tmp_path / "x.txt", tmp_path / "y.txt", f"--alpha={alpha}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "alpha must be in (0, 1]" in err and "x.txt" not in err


def test_sample_files_read_msb_first(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("100\n001\n\n")
    samples = read_sample_file(path)
    assert samples.n == 3
    assert list(samples.outcomes) == [4, 1]  # blank line skipped


def test_nan_rows_abort_csv_emission():
    row = ExperimentRow("pairwise", "product", 4, "sd", None, "mean",
                        float("nan"), 0.0, 100, 0)
    with pytest.raises(CliError, match="non-finite"):
        rows_to_csv([row])


def test_family_parser_round_trips_parameters():
    assert parse_family("mps:chi=4").chi == 4
    assert parse_family("pareto:alpha=2.5").alpha == 2.5
    assert parse_family("peaked:k=32,alpha=2").k == 32
    with pytest.raises(CliError):
        parse_family("nope")
    with pytest.raises(CliError):
        parse_family("dirichlet:width=3")


def test_config_validation():
    ok = dict(families=("uniform",), n_min=2, n_max=4, trials=100, seed=0)
    with pytest.raises(CliError, match="unknown experiment"):
        ExperimentConfig("walk", **ok)
    with pytest.raises(CliError, match="n range"):
        ExperimentConfig("tails", ("uniform",), n_min=5, n_max=4, trials=100, seed=0)
    with pytest.raises(CliError, match="cap"):
        ExperimentConfig("tails", ("mps",), n_min=2, n_max=20, trials=100, seed=0)
    # dense-only families get the larger cap
    ExperimentConfig("tails", ("product",), n_min=2, n_max=20, trials=100, seed=0)
    with pytest.raises(CliError, match="trials"):
        ExperimentConfig("tails", ("uniform",), n_min=2, n_max=4, trials=0, seed=0)
    # the trial minimums, metric names and sigma tokens lab would refuse mid-run
    with pytest.raises(CliError, match="tails needs at least 100 trials"):
        ExperimentConfig("tails", **dict(ok, trials=99))
    with pytest.raises(CliError, match="observable needs at least 2 trials"):
        ExperimentConfig("observable", **dict(ok, trials=1))
    ExperimentConfig("mmdtest", **dict(ok, trials=1))
    with pytest.raises(CliError, match="unknown metric"):
        ExperimentConfig("pairwise", metrics=("sd", "hellinger"), **ok)
    with pytest.raises(CliError, match="bad sigma"):
        ExperimentConfig("pairwise", metrics=("mmd2",), sigmas=("1", "wide"), **ok)
    ExperimentConfig("pairwise", metrics=("mmd2",), sigmas=("0", "1.5", "n"), **ok)
    # family parameters are checked when the config is built, not mid-run
    with pytest.raises(CliError, match="alpha"):
        ExperimentConfig("tails", ("product", "pareto"), n_min=2, n_max=4, trials=100, seed=0)
    with pytest.raises(CliError, match="support k=8"):
        ExperimentConfig("tails", ("peaked:k=8",), n_min=2, n_max=4, trials=100, seed=0)
    # so are the worker count, the y grid and the observable's qubit positions
    for workers in (0, -1):
        with pytest.raises(CliError, match="workers must be at least 1"):
            ExperimentConfig("tails", **dict(ok, workers=workers))
    for grid in ((), ("abc",), (0.5, math.inf), (math.nan,), (None,)):
        with pytest.raises(CliError, match="y_grid must be a non-empty list of finite numbers"):
            ExperimentConfig("tails", **dict(ok, y_grid=grid))
    for subset in ((), (0,), (3,), (1, 5), (1.0,)):
        with pytest.raises(CliError, match=r"subset must hold qubit positions in 1\.\.2"):
            ExperimentConfig("observable", **dict(ok, subset=subset))
    ExperimentConfig("observable", **dict(ok, subset=(1, 2), y_grid=(0.5, 2)))


@pytest.mark.parametrize(
    "family, message",
    [
        ("peaked_iqp:k=6", "power of two"),
        ("peaked:k=64", "k=64 exceeds the 2^4 outcomes"),
        ("mps:chi=0", "chi must be at least 1"),
        ("peaked:k=0", "k must be at least 1"),
        ("product,pareto", "alpha must exceed 1"),  # pareto's alpha defaults to 1
        # a parameter the kind does not read is refused, not ignored
        ("iqp:chi=3", "family iqp does not take chi (it takes no parameters)"),
        ("mps:k=2", "family mps does not take k (it takes chi)"),
        ("iqp:alpha=5", "family iqp does not take alpha (it takes no parameters)"),
        ("peaked_iqp:alpha=0.5", "family peaked_iqp does not take alpha (it takes k)"),
        # a law parameter must be finite
        ("pareto:alpha=inf", "Pareto alpha must exceed 1 and be finite, got inf"),
        ("dirichlet:alpha=inf", "Gamma shape must be positive and finite, got inf"),
        # every draw of these laws underflows to 0: the first chunk gives up
        # after a bounded number of redraws instead of redrawing forever
        ("dirichlet:alpha=1e-320", "draws from GammaLaw(shape=1e-320) held no positive value"),
        ("peaked:alpha=1e-300", "draws from GammaLaw(shape=1e-300) held no positive value"),
        ("peaked:k=4,alpha=1e-200", "draws from GammaLaw(shape=1e-200) held no positive value"),
    ],
)
def test_bad_family_parameters_rejected_before_running(tmp_path, capsys, family, message):
    out = tmp_path / "t.csv"
    rc = run_cli(["pairwise", "--family", family, "--n-min", "4", "--n-max", "6",
                  "--pairs", "200", "--workers", "1", "--out", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["pairwise", "--metric", "sd,hellinger"], "unknown metric 'hellinger'"),
        (["pairwise", "--metric", "mmd2", "--sigma", "1,abc"], "bad sigma 'abc'"),
        (["pairwise", "--metric", "mmd2", "--sigma=-1"], "bad sigma '-1'"),
        (["pairwise", "--pairs", "99"], "pairwise needs at least 100 trials, got 99"),
        (["tails", "--trials", "50"], "tails needs at least 100 trials, got 50"),
        (["tails", "--workers", "0"], "workers must be at least 1, got 0"),
        (["tails", "--workers=-1"], "workers must be at least 1, got -1"),
        (["tails", "--seed=-1"], "--seed must be a non-negative integer, got -1"),
        (["pairwise", "--seed=-1"], "--seed must be a non-negative integer, got -1"),
        # so wide that rho rounds to 1, or that sigma^2 overflows
        (["pairwise", "--metric", "mmd2", "--sigma", "1e8"], "bad sigma '1e8'"),
        (["pairwise", "--metric", "mmd2", "--sigma", "1,1e300"], "bad sigma '1e300'"),
    ],
)
def test_bad_config_rejected_before_any_cell_runs(tmp_path, capsys, args, message):
    # lab would refuse these too, but only when the run reached the cell
    out = tmp_path / "t.csv"
    rc = run_cli(args + ["--family", "product", "--n-min", "2", "--n-max", "3", "--out", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["anticoncentration", "uniform_distance"])
def test_config_file_trial_minimum_names_file(tmp_path, capsys, experiment):
    cfg = {"experiment": experiment, "families": ["dirichlet"], "n_min": 2, "n_max": 3,
           "trials": 50, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and f"{experiment} needs at least 100 trials" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("y_grid", ["abc"], "y_grid must be a non-empty list of finite numbers"),
        ("y_grid", [], "y_grid must be a non-empty list of finite numbers"),
        ("y_grid", 5, "not iterable"),
        ("subset", [5], "subset must hold qubit positions in 1..2"),
        ("workers", 0, "workers must be at least 1"),
        # a float, a bool or a string where an integer belongs is refused up
        # front, not left to raise a TypeError mid-run
        ("trials", 150.5, "trials must be an integer, got 150.5"),
        ("n_min", 4.5, "n_min must be an integer, got 4.5"),
        ("n_step", 1.5, "n_step must be an integer, got 1.5"),
        ("n_max", True, "n_max must be an integer, got True"),
        ("samples", 20.5, "samples must be an integer, got 20.5"),
        ("workers", 1.5, "workers must be an integer, got 1.5"),
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("seed", -1, "seed must be non-negative, got -1"),
        # a string is iterable, but it is not the list of tokens it looks like
        ("families", "dirichlet", "families must be a list, got 'dirichlet'"),
        ("metrics", "sd", "metrics must be a list, got 'sd'"),
        ("families", [1], "families must be family tokens, got [1]"),
        # a JSON type that Python's own message would not tie to the field
        ("alpha", "x", "alpha must be in (0, 1], got 'x'"),
        ("metrics", None, "metrics must be a list, got None, which is not iterable"),
        ("y_grid", 5, "y_grid must be a list, got 5, which is not iterable"),
        ("sigmas", [None], "bad sigma None"),
        ("sigmas", ["1e300"], "bad sigma '1e300'"),
        ("out", 2, "out must be a non-empty file path, got 2"),
        ("out", "", "out must be a non-empty file path, got ''"),
        ("configs", 3, "configs must be a non-empty list, got 3"),
        ("configs", [], "configs must be a non-empty list, got []"),
    ],
)
def test_config_file_bad_field_names_file_and_field(tmp_path, capsys, field, value, message):
    cfg = {"experiment": "observable", "families": ["dirichlet"], "n_min": 2, "n_max": 3,
           "trials": 50, "seed": 0, field: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/r.csv", "."])
def test_unwritable_out_names_the_path(tmp_path, capsys, target):
    # a directory that does not exist, and a directory in place of a file
    out = tmp_path / target
    rc = run_cli(["tails", "--family", "product", "--n-min", "2", "--n-max", "3",
                  "--trials", "100", "--workers", "1", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(out) in err and ("No such file or directory" in err or "Is a directory" in err)


def test_config_top_level_list_names_file(tmp_path, capsys):
    cfg = {"experiment": "tails", "families": ["product"], "n_min": 2, "n_max": 3,
           "trials": 200, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([cfg]))
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "token, message",
    [
        ("peaked:k=abc", "family 'peaked:k=abc': k must be an integer, got 'abc'"),
        ("mps:chi=2.5", "family 'mps:chi=2.5': chi must be an integer, got '2.5'"),
        ("pareto:alpha=x", "family 'pareto:alpha=x': alpha must be a number, got 'x'"),
    ],
)
def test_family_parameter_values_name_parameter_and_family(tmp_path, capsys, token, message):
    with pytest.raises(CliError, match=message):
        parse_family(token)
    out = tmp_path / "t.csv"
    rc = run_cli(["tails", "--family", token, "--n-min", "4", "--n-max", "5", "--out", out])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_names_file(tmp_path, capsys):
    cfg = {"experiment": "tails", "families": ["product"], "n_min": 2, "n_max": 3,
           "trials": 200, "seed": 0, "pairs": 100}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"configs": [cfg]}))
    assert run_cli(["run", "--config", cfg_path, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "pairs" in err


def test_missing_config_file_names_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli(["run", "--config", missing]) == 2
    assert str(missing) in capsys.readouterr().err


def test_malformed_config_names_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"configs":\n  [1,]}\n')
    assert run_cli(["run", "--config", cfg_path]) == 2
    assert f"{cfg_path}:2" in capsys.readouterr().err


def test_mmdtest_rejects_samples_wider_than_64_bits(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("1" * 70 + "\n" + "0" * 70 + "\n")
    assert run_cli(["mmdtest", wide, wide]) == 2
    err = capsys.readouterr().err
    assert f"{wide}:1" in err and "64" in err


def test_statevector_cap_reported_at_cli(tmp_path, capsys):
    rc = run_cli(["pairwise", "--family", "iqp", "--n-min", "2", "--n-max", "18",
                  "--pairs", "100", "--out", tmp_path / "x.csv"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_figure_presets_cover_the_five_model_families():
    for kind in ("fig5", "fig7", "fig8", "fig9"):
        (config,) = figure_configs(kind, 200, 0, 1)
        kinds = {parse_family(t).kind for t in config.families}
        assert kinds == {"iqp_product", "mps", "iqp", "pareto", "peaked_iqp"}
        assert (config.n_min, config.n_max) == (2, 13)


def test_fig8_uses_bandwidth_scaling_with_n(tmp_path):
    out = tmp_path / "fig8.csv"
    # trim the preset grid through run --config to keep this test quick
    configs = figure_configs("fig8", 120, 3, 1)
    trimmed = {"configs": [dict(experiment=c.experiment, families=list(c.families),
                                n_min=4, n_max=6, trials=c.trials, seed=c.seed,
                                metrics=list(c.metrics), sigmas=list(c.sigmas),
                                workers=1, out=str(out)) for c in configs]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(trimmed))
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 0
    for row in read_rows(out):
        assert float(row["sigma"]) == float(row["n"])


def test_fig9_reports_both_l1_and_tvd(tmp_path):
    out = tmp_path / "fig9.csv"
    configs = figure_configs("fig9", 400, 1, 1)
    payload = {"configs": [dict(experiment=c.experiment, families=["pareto:alpha=2"],
                                n_min=5, n_max=8, trials=c.trials, seed=c.seed,
                                metrics=list(c.metrics), workers=1, out=str(out))
                           for c in configs]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 0
    rows = read_rows(out)
    metrics = {r["metric"] for r in rows}
    assert metrics == {"l1", "tvd"}
    # normalized-heavy-tail families keep a roughly n-independent L1 mean
    l1 = {int(r["n"]): (float(r["value"]), float(r["stderr"]))
          for r in rows if r["metric"] == "l1" and r["statistic"] == "mean"}
    tvd = {int(r["n"]): (float(r["value"]), float(r["stderr"]))
           for r in rows if r["metric"] == "tvd" and r["statistic"] == "mean"}
    means = [v for v, _ in l1.values()]
    assert max(means) - min(means) < 0.15 * max(means)
    # tvd is half of l1 on the same pairs, and halving is exact in floating point
    variances = {(r["metric"], int(r["n"])): float(r["value"])
                 for r in rows if r["statistic"] == "variance"}
    for n in l1:
        assert tvd[n][0] == l1[n][0] / 2
        assert variances["tvd", n] == variances["l1", n] / 4


@pytest.mark.slow
def test_fig5_families_decay_exponentially(tmp_path):
    # every preset family except the peaked one fits ln(mean) vs n with
    # R^2 >= 0.99 and negative slope over the n >= 4 window
    out = tmp_path / "fig5.csv"
    run_cli(["figures", "fig5", "--pairs", "2000", "--seed", "19", "--out", out])
    rows = [r for r in read_rows(out) if r["statistic"] == "mean"]
    by_family = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append((int(row["n"]), float(row["value"])))
    assert len(by_family) == 5
    for family, points in by_family.items():
        if family == "peaked_iqp":
            continue
        ns = np.array([n for n, _ in points if n >= 4], dtype=float)
        lny = np.log([v for n, v in points if n >= 4])
        slope, intercept = np.polyfit(ns, lny, 1)
        pred = slope * ns + intercept
        r2 = 1 - np.sum((lny - pred) ** 2) / np.sum((lny - lny.mean()) ** 2)
        assert slope < 0, family
        assert r2 >= 0.99, (family, r2)


# every family kind; pareto needs alpha > 1
ALL_KINDS = ("product", "iqp_product", "dirichlet", "pareto:alpha=2", "peaked", "iqp",
             "peaked_iqp", "mps", "uniform", "point")


def _one_combo_rows(config, **fields):
    return run_config(dataclasses.replace(config, **fields))


def test_multi_combo_pairwise_rows_equal_one_combo_rows():
    config = ExperimentConfig("pairwise", ALL_KINDS, n_min=2, n_max=4, trials=300, seed=31,
                              metrics=("sd", "mmd2", "l1", "tvd"), sigmas=("0", "1", "n"),
                              workers=1)
    rows = run_config(config)
    expected = [row for metric in ("sd", "l1", "tvd") for row in
                _one_combo_rows(config, metrics=(metric,), sigmas=())]
    expected += [row for sigma in ("0", "1", "n") for row in
                 _one_combo_rows(config, metrics=("mmd2",), sigmas=(sigma,))]
    assert len(rows) == len(expected) == 10 * 3 * 6 * 2
    assert sorted(rows, key=repr) == sorted(expected, key=repr)


def test_multi_sigma_mmdtest_rows_equal_one_sigma_rows():
    config = ExperimentConfig("mmdtest", ALL_KINDS, n_min=2, n_max=4, trials=3, seed=32,
                              sigmas=("0", "1", "n"), samples=30, workers=1)
    rows = run_config(config)
    expected = [row for sigma in ("0", "1", "n") for row in _one_combo_rows(config, sigmas=(sigma,))]
    assert len(rows) == len(expected) == 10 * 3 * 3 * 2
    assert sorted(rows, key=repr) == sorted(expected, key=repr)


def test_metric_order_does_not_change_rows(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["pairwise", "--family", "dirichlet", "--n-min", "3", "--n-max", "5",
            "--pairs", "200", "--seed", "33"]
    run_cli(args + ["--metric", "l1,sd", "--out", a])
    run_cli(args + ["--metric", "sd,l1", "--out", b])
    assert sorted(a.read_text().splitlines()) == sorted(b.read_text().splitlines())


@pytest.mark.parametrize("version", ["0.1.0", "0.2.0", "0.3.0"])
def test_manifest_of_another_version_is_refused(tmp_path, capsys, version):
    first = tmp_path / "first.csv"
    run_cli(["pairwise", "--family", "dirichlet", "--n-min", "3", "--n-max", "3",
             "--pairs", "100", "--out", first])
    manifest = tmp_path / "first.csv.manifest.json"
    record = json.loads(manifest.read_text())
    assert record["version"] == __version__ != version
    record["version"] = version
    manifest.write_text(json.dumps(record))
    again = tmp_path / "again.csv"
    assert run_cli(["run", "--config", manifest, "--out", again]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and version in err and __version__ in err
    assert not again.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["tails", "--trials", "200", "--paper-scale"],
        ["pairwise", "--paper-scale", "--pairs", "200"],
        ["figures", "fig2", "--pairs", "200", "--paper-scale"],
        ["figures", "fig2", "--paper-scale", "--trials", "300"],
    ],
)
def test_count_flag_and_paper_scale_are_exclusive(tmp_path, capsys, args):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args + ["--out", out])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_paper_scale_sets_the_count():
    parser = build_parser()
    for args in (["tails"], ["pairwise"], ["figures", "fig5"]):
        assert parser.parse_args(args).count == DESK_TRIALS
        assert parser.parse_args(args + ["--paper-scale"]).count == PAPER_TRIALS


def test_figure_count_has_two_spellings(tmp_path):
    # --pairs and --trials are one option: the later one wins, as for any
    # repeated flag
    out = tmp_path / "fig2.csv"
    assert run_cli(["figures", "fig2", "--pairs", "200", "--trials", "300", "--workers", "1",
                    "--out", out]) == 0
    assert {r["trials"] for r in read_rows(out)} == {"300"}


def test_figures_writes_one_csv_and_manifest_per_kind(tmp_path, monkeypatch, capsys):
    # several kinds write the files that one run per kind writes, byte for byte
    args = ["--pairs", "200", "--seed", "3", "--workers", "1"]
    for kinds, where in ((["fig2", "fig9"], "bundle"), (["fig2"], "fig2"), (["fig9"], "fig9")):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        assert run_cli(["figures", *kinds, *args]) == 0
    for kind in ("fig2", "fig9"):
        for name in (f"{kind}.csv", f"{kind}.csv.manifest.json"):
            assert (tmp_path / "bundle" / name).read_bytes() == (tmp_path / kind / name).read_bytes()
    rows = read_rows(tmp_path / "bundle" / "fig2.csv")
    assert len(rows) == 3 * 10  # n = 4, 8, 12 over the default y grid
    assert {r["experiment"] for r in rows} == {"tails"} and {r["trials"] for r in rows} == {"200"}
    # --out names one file, so it takes one kind; nothing runs otherwise
    out = tmp_path / "x.csv"
    assert run_cli(["figures", "fig2", "fig9", *args, "--out", out]) == 2
    assert "--out names one file, but 2 kinds were given" in capsys.readouterr().err
    assert not out.exists()


def test_family_flag_takes_tokens_with_several_parameters(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli(["pairwise", "--family", "peaked:k=4,alpha=0.5,dirichlet", "--n-min", "3",
                    "--n-max", "3", "--pairs", "100", "--out", out]) == 0
    # the two-parameter label holds a comma, so the writer quotes it
    rows = read_rows(out)
    assert [r["family"] for r in rows] == ["peaked(0.5,K=4)"] * 2 + ["dirichlet"] * 2
    assert all(r["n"] == "3" and r["metric"] == "sd" for r in rows)
    assert out.read_text().splitlines()[1].startswith('pairwise,"peaked(0.5,K=4)",3,sd,,')


def test_mmdtest_experiment_kind_runs_from_config(tmp_path):
    out = tmp_path / "mt.csv"
    cfg = {"experiment": "mmdtest", "families": ["dirichlet"], "n_min": 6,
           "n_max": 6, "trials": 40, "seed": 5, "sigmas": ["1"],
           "samples": 100, "out": str(out)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"configs": [cfg]}))
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 0
    rows = read_rows(out)
    stats = {r["statistic"]: float(r["value"]) for r in rows}
    # the threshold is conservative: equal distributions essentially never
    # reject, and concentrated families leave the test powerless as well
    assert stats["reject_rate_equal"] <= 0.05
    assert set(stats) == {"reject_rate_equal", "reject_rate_distinct"}


def test_observable_experiment_kind(tmp_path):
    out = tmp_path / "obs.csv"
    cfg = {"experiment": "observable", "families": ["product"], "n_min": 4,
           "n_max": 4, "trials": 3000, "seed": 2, "subset": [1], "out": str(out)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 0
    rows = {r["statistic"]: r for r in read_rows(out)}
    assert rows["mean"]["metric"] == "z1"
    variance = float(rows["variance"]["value"])
    se = float(rows["variance"]["stderr"])
    assert abs(variance - 1 / 3) < 4 * se
