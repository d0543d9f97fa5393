"""End-to-end checks of the command-line harness.

Runs go through bornlab.cli.main with real files in tmp_path; a monkeypatch
here only counts calls and passes them on, never replaces the computation,
so these double as integration tests for the deterministic seeding contract.
"""

import csv
import dataclasses
import json
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from bornlab import __version__, cli, lab, metrics
from bornlab.bitmath import RandomStream
from bornlab.cli import (
    CSV_HEADER,
    DESK_TRIALS,
    EXPERIMENTS,
    CliError,
    ExperimentConfig,
    ExperimentRow,
    _mmdtest_rejection_rates,
    build_parser,
    figure_configs,
    main,
    parse_family,
    read_sample_file,
    rows_to_csv,
    run_config,
)
from bornlab.lab import FAMILIES, FamilySpec, wilson_interval


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
    # peaked_iqp at n = 4 and point at every n score their pairs on supports
    "pairwise": dict(families=["dirichlet", "iqp", "peaked_iqp", "point"], n_min=3, n_max=5,
                     trials=150, metrics=["sd", "mmd2", "l1", "tvd"], sigmas=["1", "n"]),
    "mmdtest": dict(families=["dirichlet", "iqp"], n_min=3, n_max=4, trials=3, samples=30,
                    sigmas=["1", "n"]),
    "observable": dict(families=["product", "dirichlet"], n_min=3, n_max=5, trials=200,
                       subset=[1, 2]),
    "uniform_distance": dict(families=["dirichlet", "peaked"], n_min=3, n_max=5, trials=200),
    "anticoncentration": dict(families=["dirichlet", "pareto:alpha=2"], n_min=4, n_max=6,
                              trials=500),
}


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a two-worker run opens a two-thread pool on any machine."""
    monkeypatch.setattr(lab, "usable_cpus", lambda: 2)


@pytest.mark.parametrize("experiment", list(WORKER_CONFIGS))
def test_worker_count_does_not_change_bytes(tmp_path, monkeypatch, experiment):
    # the cells share one process: with more threads than cores, switching
    # between them as often as the interpreter allows, every row still comes
    # from its own cell's stream and lands in its cell's place; the pool is
    # capped at the usable CPUs, so two more are reported than there are
    cpus = lab.usable_cpus() + 2
    monkeypatch.setattr(lab, "usable_cpus", lambda: cpus)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(WORKER_CONFIGS[experiment], experiment=experiment, seed=11)))
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(["run", "--config", cfg_path, "--workers", "1", "--out", a]) == 0
    assert run_cli(["run", "--config", cfg_path, "--workers", "2", "--out", b]) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_cli(["run", "--config", cfg_path, "--workers", cpus, "--out", c]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def _count_pools(monkeypatch) -> list:
    """The worker counts of the thread pools opened from here on, one entry a pool."""
    opened = []
    pool = lab.ThreadPoolExecutor

    def counting_pool(max_workers=None, *args, **kwargs):
        opened.append(max_workers)
        return pool(max_workers, *args, **kwargs)

    monkeypatch.setattr(lab, "ThreadPoolExecutor", counting_pool)
    return opened


def test_one_config_opens_one_pool(tmp_path, monkeypatch, two_cpus):
    # six cells of two chunks each: one Pool serves them all
    opened = _count_pools(monkeypatch)
    out = tmp_path / "t.csv"
    assert run_cli(["tails", "--family", "product,dirichlet", "--n-min", "4", "--n-max", "6",
                    "--trials", "131072", "--workers", "2", "--out", out]) == 0
    assert opened == [2]
    assert len(read_rows(out)) == 2 * 3 * 10


def test_one_invocation_opens_one_pool(tmp_path, monkeypatch, two_cpus):
    # every config of a run --config file and every kind of a figures call
    # share one Pool, and still write the bytes of a one-worker run
    record = {"configs": [
        dict(WORKER_CONFIGS["tails"], experiment="tails", seed=5),
        dict(WORKER_CONFIGS["anticoncentration"], experiment="anticoncentration", seed=6),
    ]}
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(record))
    opened = _count_pools(monkeypatch)
    for workers in (1, 2):
        (tmp_path / str(workers)).mkdir()
        monkeypatch.chdir(tmp_path / str(workers))
        assert run_cli(["run", "--config", cfg, "--workers", workers, "--out", "run.csv"]) == 0
        assert opened == [2] * (workers - 1)
        assert run_cli(["figures", "fig2", "fig4", "--trials", "200", "--workers", workers]) == 0
        assert opened == [2] * (2 * workers - 2)
    for name in ("run.csv", "fig2.csv", "fig4.csv"):
        for path in (name, name + ".manifest.json"):
            one, two = (tmp_path / str(w) / path for w in (1, 2))
            assert two.read_bytes() == one.read_bytes().replace(b'"workers": 1', b'"workers": 2'), path


def test_default_workers_are_the_usable_cpus(tmp_path, monkeypatch):
    # a process pinned to one CPU runs its cells in process, however many
    # CPUs the machine has
    opened = _count_pools(monkeypatch)
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(lab.os, "cpu_count", lambda: 3)
    args = ["tails", "--family", "product,dirichlet", "--n-min", "4", "--n-max", "5",
            "--trials", "200", "--out", tmp_path / "t.csv"]
    assert run_cli(args) == 0
    assert opened == []
    # where the OS keeps no affinity mask, every CPU of the machine counts
    monkeypatch.delattr(lab.os, "sched_getaffinity", raising=False)
    assert lab.usable_cpus() == 3
    assert run_cli(args) == 0
    assert opened == [3]


def test_the_pool_is_capped_at_the_usable_cpus(tmp_path, monkeypatch, two_cpus):
    # workers: 64 over 8 cells on two usable CPUs opens a pool of two threads
    asked, opened = [], _count_pools(monkeypatch)
    parallel_map = lab._parallel_map

    def asking_map(fn, tasks, workers):
        asked.append(workers)
        return parallel_map(fn, tasks, workers)

    monkeypatch.setattr(lab, "_parallel_map", asking_map)
    config = ExperimentConfig("tails", ("product", "dirichlet"), n_min=3, n_max=6, trials=200,
                              seed=1, workers=64)
    assert len(run_config(config)) == 8 * 10
    assert asked == [2] and opened == [2]


def test_a_stopped_fan_out_ends_an_mmdtest_cell_between_chunks(monkeypatch):
    stop = threading.Event()
    stop.set()
    monkeypatch.setattr(lab._pool_thread, "stop", stop, raising=False)
    drawn = []
    draw = lab.instance_prob_values
    monkeypatch.setattr(lab, "instance_prob_values", lambda *a: drawn.append(a[2]) or draw(*a))
    with pytest.raises(lab.FanOutStopped):
        _mmdtest_rejection_rates(FamilySpec("dirichlet"), 3, [1.0], 0.05, 30, 3, RandomStream(0))
    assert drawn == []  # stopped before its first chunk drew anything


# every family kind; pareto needs alpha > 1
ALL_KINDS = ("product", "iqp_product", "dirichlet", "pareto:alpha=2", "peaked", "iqp",
             "peaked_iqp", "mps", "uniform", "point")


@pytest.mark.parametrize("n, samples, counts", [(4, 40, True), (16, 150, False)])
@pytest.mark.parametrize("trials, chunk", [(1, None), (7, 3)])
def test_blocked_mmdtest_rates_equal_the_repetition_loop(monkeypatch, n, samples, counts, trials, chunk):
    # each kind at sigma tokens 0, 1 and n, in one chunk of one repetition
    # and in chunks of three with a remainder of one; alpha = 1 puts the
    # threshold at 0, where about half the null estimates reject
    assert metrics.counts_route(n, samples, samples) == counts
    sigmas = [cli._resolve_sigma(token, n) for token in ("0", "1", "n")]
    for index, token in enumerate(ALL_KINDS):
        family = parse_family(token)
        if chunk is not None:
            rep_bytes = lab._mmdtest_rep_bytes(family, n, samples)
            monkeypatch.setattr(lab, "CHUNK_BYTES", chunk * rep_bytes + rep_bytes // 2)
        stream = RandomStream(40 + n).child(index)
        got = _mmdtest_rejection_rates(family, n, sigmas, 1.0, samples, trials, stream)
        want = oracles.mmdtest_rejection_rates(family, n, sigmas, 1.0, samples, trials, stream, chunk or 1)
        assert got.tobytes() == want.tobytes(), token


@pytest.mark.parametrize("token, n, samples, trials", [
    ("dirichlet", 6, 500, 300),  # the counts route, in chunks of 293 and 7
    ("iqp", 16, 200, 3),  # the distance route, a repetition a chunk
    # sets that repeat outcomes, from CDF rows with mass-zero tails
    ("point", 6, 500, 300), ("peaked:k=4", 6, 500, 300),
    ("point", 16, 200, 3), ("peaked:k=4", 16, 200, 3),
])
def test_sorted_sample_sets_score_as_the_unsorted_draw(monkeypatch, token, n, samples, trials):
    # a cell samples each set's uniforms sorted; its estimates are bit for bit
    # those of the same uniforms unsorted, and so are its rates. alpha = 1
    # puts the threshold at 0, where about half the null estimates reject
    family, stream = parse_family(token), RandomStream(61).child(n)
    sigmas = [cli._resolve_sigma(t, n) for t in ("0", "1", "n")]
    assert metrics.counts_route(n, samples, samples) == (n == 6)
    assert lab._chunk(lab._mmdtest_rep_bytes(family, n, samples)) < trials
    scored = []
    scorer = lab.mmd2_unbiased_pairs

    def recording(*args):
        score = scorer(*args)
        return lambda sets, pairs: scored.append(score(sets, pairs)) or scored[-1]

    monkeypatch.setattr(lab, "mmd2_unbiased_pairs", recording)
    rates = _mmdtest_rejection_rates(family, n, sigmas, 1.0, samples, trials, stream)
    got = np.concatenate([s.reshape(len(sigmas), -1, 2) for s in scored], axis=1)
    want = oracles.mmdtest_unsorted_estimates(family, n, sigmas, samples, trials, stream)
    assert got.tobytes() == want.tobytes()
    assert rates.tobytes() == (want > 0.0).mean(axis=1).tobytes()


@pytest.mark.parametrize("token", ["iqp", "dirichlet", "peaked_iqp"])
def test_a_sigmas_mmdtest_rows_do_not_depend_on_the_other_sigmas_across_chunks(monkeypatch, token):
    # two repetitions a chunk, so seven span four chunks; were the kernels'
    # weights counted in every repetition, the second bandwidth would shrink
    # the chunk to one repetition and move the sigma = 1 rows. alpha = 1 puts
    # the threshold at 0, where about half the null estimates reject; moved
    # streams still give one seed's two rates out of 7 about one time in
    # five, so three seeds run
    n, samples = 5, 40
    rep_bytes = lab._mmdtest_rep_bytes(parse_family(token), n, samples)
    monkeypatch.setattr(lab, "CHUNK_BYTES", 2 * rep_bytes)
    configs = [ExperimentConfig("mmdtest", (token,), n_min=n, n_max=n, trials=7, seed=seed,
                                alpha=1.0, samples=samples, sigmas=("1", "n"), workers=1)
               for seed in (35, 36, 37)]
    rows = [row for row in run_config(*configs) if row.sigma == 1.0]
    assert rows == run_config(*(dataclasses.replace(c, sigmas=("1",)) for c in configs))
    assert len(rows) == 6 and all(0 < row.value < 1 for row in rows[::2])


def test_an_mmdtest_cell_is_bounded_before_allocation():
    # cells of two or more chunks, each chunk drawing its 2R instances in one
    # call: a counts-route cell at n = 16 one repetition a chunk, and cells
    # whose first chunk holds 199 and 26 repetitions; the kernel's weights
    # are held once a cell
    for token, n, samples, trials, chunk in [("dirichlet", 16, 1000, 4, 1), ("iqp", 8, 200, 200, 199),
                                             ("peaked_iqp", 12, 500, 27, 26)]:
        family = parse_family(token)
        rep_bytes = lab._mmdtest_rep_bytes(family, n, samples)
        assert lab.CHUNK_BYTES // rep_bytes == chunk < trials
        assert metrics.counts_route(n, samples, samples)
        tracemalloc.start()
        try:
            _mmdtest_rejection_rates(family, n, [1.0], 0.05, samples, trials, RandomStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = chunk * rep_bytes + (8 << n)
        assert peak < 1.1 * bound, (token, peak, bound)
    # a one-chunk cell where the samples, not the 2^n outcomes, fill a
    # repetition (48 x 500 bytes against 56 x 2^6), run once first so that
    # the process's one-time caches are not in its peak
    family, n, samples, trials = parse_family("dirichlet"), 6, 500, 40
    rep_bytes = lab._mmdtest_rep_bytes(family, n, samples)
    assert lab.CHUNK_BYTES // rep_bytes > trials and metrics.counts_route(n, samples, samples)
    _mmdtest_rejection_rates(family, n, [1.0], 0.05, samples, trials, RandomStream(1))
    tracemalloc.start()
    try:
        _mmdtest_rejection_rates(family, n, [1.0], 0.05, samples, trials, RandomStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = trials * rep_bytes + (8 << n)
    assert peak < 1.1 * bound, ("dirichlet", peak, bound)


def _traced_peak(*configs: ExperimentConfig) -> int:
    """The tracemalloc peak of run_config(*configs), over every thread."""
    tracemalloc.start()
    try:
        run_config(*configs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a Pareto mass cell at n = 12: 8 chunks of 256 instances, each of 2^12 draws
PARETO_CELL = ExperimentConfig(experiment="anticoncentration", families=("pareto:alpha=2",),
                               n_min=12, n_max=12, trials=2048, seed=3)


def test_fan_out_memory_is_bounded_before_allocation_across_threads(two_cpus):
    # both workers' chunks live in this process, and tracemalloc traces every
    # thread: the Pareto mass cell beside a product tail cell (two
    # 2^16-instance chunks) stays within the bound of two chunks
    configs = [
        dataclasses.replace(PARETO_CELL, workers=2),
        ExperimentConfig(experiment="tails", families=("product",),
                         n_min=12, n_max=12, trials=1 << 17, seed=3, workers=2),
    ]
    routes = [(FAMILIES[spec.kind].mass, spec) for spec in map(parse_family, ("pareto:alpha=2", "product"))]
    bound = max(lab._chunk(route.bytes_per_instance(spec, 12)) * route.bytes_per_instance(spec, 12)
                for route, spec in routes)
    peak = _traced_peak(*configs)
    assert peak < 1.1 * 2 * bound, (peak, bound)


def test_a_pareto_mass_chunk_holds_one_row_block():
    # the route's bound is 8 bytes for each of an instance's 2^12 draws, 8 MiB
    # a chunk, but the draws are summed in row blocks of at most MAX_CHUNK
    # draws (16 rows of 4095 here): one block and half a block of slack
    # bound the cell, where the one-array sum would hold the whole 8 MiB
    peak = _traced_peak(PARETO_CELL)
    assert peak < 1.5 * 8 * lab.MAX_CHUNK, peak


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


def _assert_born_seed_changes_no_byte(tmp_path, monkeypatch, values):
    args = ["tails", "--family", "dirichlet", "--n-min", "3", "--n-max", "4", "--trials", "200",
            "--workers", "1"]
    assert run_cli(args + ["--out", tmp_path / "plain.csv"]) == 0
    for value in values:
        monkeypatch.setenv("BORN_SEED", value)
        out = tmp_path / f"env{value}.csv"
        assert run_cli(args + ["--out", out]) == 0
        assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert {r["seed"] for r in read_rows(out)} == {"0"}


def test_born_seed_is_not_read(tmp_path, monkeypatch):
    # the seed is --seed, else the config's, else 0: BORN_SEED in the
    # environment changes no byte
    _assert_born_seed_changes_no_byte(tmp_path, monkeypatch, ["5"])


def test_a_bad_born_seed_is_not_refused(tmp_path, monkeypatch):
    # BORN_SEED is not read, so a value that is no seed runs as if unset
    _assert_born_seed_changes_no_byte(tmp_path, monkeypatch, ["not-a-number", "-2"])


def test_src_reads_no_environment_variable(tmp_path, monkeypatch):
    # every subcommand runs with os.environ replaced by a mapping that notes
    # each key read from a frame of src/bornlab (os.getenv reads through it)
    package = Path(cli.__file__).parent
    read = []

    class Noting(dict):
        def note(self, key):
            frame = sys._getframe(2)
            while frame.f_code.co_filename == os.__file__:
                frame = frame.f_back
            if Path(frame.f_code.co_filename).parent == package:
                read.append(key)

        def __getitem__(self, key):
            self.note(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.note(key)
            return super().get(key, default)

        def __contains__(self, key):
            self.note(key)
            return super().__contains__(key)

    monkeypatch.setattr(os, "environ", Noting(os.environ))
    out = tmp_path / "t.csv"
    write_samples(tmp_path / "x.txt", 4, [1, 2, 3, 4, 5])
    for args in (["tails", "--family", "product", "--n-min", "3", "--n-max", "3", "--trials", "100"],
                 ["pairwise", "--family", "iqp", "--n-min", "3", "--n-max", "3", "--pairs", "100"],
                 ["figures", "fig2", "--trials", "100"],
                 ["run", "--config", f"{out}.manifest.json"]):
        assert run_cli(args + ["--workers", "2", "--out", out]) == 0, args
    assert run_cli(["mmdtest", tmp_path / "x.txt", tmp_path / "x.txt"]) == 0
    assert read == []


def test_scripts_are_gone():
    # bornlab is the one driver: the concentration table's numbers are rows
    # of its second_moment and tail@y=0.5 statistics
    assert not (Path(cli.__file__).parents[2] / "scripts").exists()


def test_negative_seed_is_rejected_before_any_cell_runs(tmp_path, capsys):
    out = tmp_path / "x.csv"
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
    # bytes that are no text are refused by the same check, at their line
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe0101\n")
    assert run_cli(["mmdtest", binary, binary]) == 2
    assert f"{binary}:1: parse error: not a 0/1 bitstring" in capsys.readouterr().err


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
    one, three = tmp_path / "one.txt", tmp_path / "three.txt"
    write_samples(one, 4, [3])
    write_samples(three, 4, [0, 1, 2])
    for x, y in ((one, three), (three, one)):
        assert run_cli(["mmdtest", x, y]) == 2
        captured = capsys.readouterr()
        assert "need at least 2 samples on each side" in captured.err
        assert "estimate" not in captured.out


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


@pytest.mark.parametrize("n", [1, 16, 64])
def test_bulk_parser_equals_the_line_loop(tmp_path, monkeypatch, n):
    # the canonical file is parsed in bulk, without opening it as text; every
    # variant goes through the line loop, and all read the same outcomes
    opened = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: opened.append(a) or open(*a, **k), raising=False)
    rng = np.random.default_rng(n)
    ends = np.array([0, (1 << n) - 1], dtype=np.uint64)
    outcomes = np.concatenate([ends, rng.integers(0, 1 << n, size=300, dtype=np.uint64)])
    lines = [format(int(x), f"0{n}b") for x in outcomes]
    variants = {
        "canonical": "".join(line + "\n" for line in lines),
        "no final newline": "\n".join(lines),
        "crlf": "".join(line + "\r\n" for line in lines),
        "blank lines": "\n" + "\n\n".join(lines) + "\n\n",
        "padded": "".join(f" {line}\t\n" for line in lines),
    }
    for name, text in variants.items():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode())
        opened.clear()
        samples = read_sample_file(path)
        assert samples.n == n, name
        assert samples.outcomes.dtype == np.uint64 and samples.outcomes.tobytes() == outcomes.tobytes(), name
        assert (opened == []) == (name == "canonical"), name


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
    # the trial minimums, metric names and sigma tokens that lab takes unchecked
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
        # whatever its value: a key at the parameter's default is refused too
        ("iqp:alpha=1", "family iqp does not take alpha (it takes no parameters)"),
        ("mps:alpha=1", "family mps does not take alpha (it takes chi)"),
        ("point:alpha=1", "family point does not take alpha (it takes no parameters)"),
        ("uniform:alpha=1", "family uniform does not take alpha (it takes no parameters)"),
        ("peaked_iqp:alpha=1", "family peaked_iqp does not take alpha (it takes k)"),
        # a law parameter must be finite
        ("pareto:alpha=inf", "Pareto alpha must exceed 1 and be finite, got inf"),
        ("dirichlet:alpha=inf", "Gamma shape must be positive and finite, got inf"),
        # at least half the draws of these laws are 0.0 in float64: the law
        # refuses them, so the dense and the mass routes read the token alike
        ("dirichlet:alpha=1e-320", "Gamma shape must be at least 1/1074 (most draws 0.0), got 1e-320"),
        ("peaked:alpha=1e-300", "Gamma shape must be at least 1/1074 (most draws 0.0), got 1e-300"),
        ("peaked:k=4,alpha=1e-200", "Gamma shape must be at least 1/1074 (most draws 0.0), got 1e-200"),
        ("pareto:alpha=1e18", "Pareto alpha must be at most 6.2e15 (most draws 0.0), got 1e+18"),
    ],
)
def test_bad_family_parameters_rejected_before_running(tmp_path, capsys, family, message):
    # tails draws from the mass route, pairwise from the dense one
    for experiment, count in (("pairwise", "--pairs"), ("tails", "--trials")):
        out = tmp_path / f"{experiment}.csv"
        rc = run_cli([experiment, "--family", family, "--n-min", "4", "--n-max", "6",
                      count, "200", "--workers", "1", "--out", out])
        assert rc == 2, experiment
        assert message in capsys.readouterr().err, experiment
        assert not out.exists(), experiment


def test_a_family_key_given_twice_exits_2(tmp_path, capsys):
    # the second value would win without a word; the token is refused and
    # names the key, from --family and from a config file alike
    out = tmp_path / "tails.csv"
    rc = run_cli(["tails", "--family", "peaked:k=4,k=8", "--n-min", "4", "--n-max", "4",
                  "--trials", "100", "--out", out])
    assert rc == 2
    assert "family 'peaked:k=4,k=8' gives k twice" in capsys.readouterr().err
    assert not out.exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "tails", "families": ["dirichlet:alpha=2,alpha=2"],
                                  "n_min": 4, "n_max": 4, "trials": 100, "seed": 0}))
    assert run_cli(["run", "--config", config, "--out", out]) == 2
    assert "gives alpha twice" in capsys.readouterr().err
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
    # cli is the one place these are checked: lab takes the values unchecked
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


def test_config_file_without_metrics_exits_2(tmp_path, capsys, monkeypatch):
    # an empty metrics list would score nothing: refused when the config is
    # built, before any pair is drawn, not run into a header-only CSV
    cfg = {"experiment": "pairwise", "families": ["product"], "n_min": 4, "n_max": 4,
           "trials": 100, "seed": 0, "metrics": []}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    drawn, collect = [], lab._collect
    monkeypatch.setattr(lab, "_collect", lambda *a: drawn.append(a) or collect(*a))
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "at least one metric is required" in err
    assert not out.exists() and drawn == []


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
        # a JSON true is no number in a list field either; float(True) is 1.0
        ("y_grid", [True, 0.5], "y_grid must be a non-empty list of finite numbers"),
        ("subset", [True], "subset must hold qubit positions in 1..2"),
        ("sigmas", [True], "bad sigma True"),
        # a JSON integer too large for a float64
        ("y_grid", [10**400], "y_grid must be a non-empty list of finite numbers"),
        ("sigmas", [10**400], "bad sigma 1" + "0" * 400 + " (a non-negative number or 'n')"),
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


def test_config_integer_past_the_digit_limit_names_file(tmp_path, capsys):
    # json reads no integer of more than 4300 digits; its error names no file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"experiment": "tails", "families": ["product"], "n_min": 2, "n_max": 3, '
                        '"trials": 100, "seed": 0, "y_grid": [1' + "0" * 5000 + "]}")
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: parse error: Exceeds the limit" in err
    assert not out.exists()


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


def test_rows_take_their_identity_from_the_cell():
    # reports carry statistics only; every row's experiment, family label, n,
    # metric, sigma, trials and seed come from the config and cell that produced it
    for report in (lab.TailCurve, lab.MomentReport, lab.AnticoncentrationReport):
        assert not {"family", "n", "metric", "sigma"} & {f.name for f in dataclasses.fields(report)}
    for experiment in EXPERIMENTS:
        config = ExperimentConfig(experiment, ("uniform", "peaked:k=4"), n_min=3, n_max=4,
                                  trials=100, seed=5, samples=20, workers=1)
        rows = run_config(config)
        assert {(r.experiment, r.family, r.n, r.trials, r.seed) for r in rows} == {
            (experiment, label, n, 100, 5) for label in ("uniform", "peaked(K=4)") for n in (3, 4)
        }


def test_moment_rows_take_their_metric_and_sigma_from_the_config():
    # an observable's metric names its subset's sorted distinct positions, a
    # distance to uniform is sd_to_uniform, and pairwise rows follow the
    # config's (metric, sigma) combos in order, a mean and a variance row each
    common = dict(families=("dirichlet",), n_min=3, n_max=4, trials=100, seed=5, workers=1)
    observable = run_config(ExperimentConfig("observable", subset=(2, 1, 1), **common))
    assert [(r.metric, r.sigma) for r in observable] == [("z12", None)] * 4
    uniform = run_config(ExperimentConfig("uniform_distance", **common))
    assert [(r.metric, r.sigma) for r in uniform] == [("sd_to_uniform", None)] * 4
    pairwise = run_config(ExperimentConfig("pairwise", metrics=("tvd", "mmd2", "sd"), sigmas=("n", "0"),
                                           **common))
    for n in (3, 4):
        combos = [("tvd", None), ("mmd2", float(n)), ("mmd2", 0.0), ("sd", None)]
        rows = [(r.metric, r.sigma, r.statistic) for r in pairwise if r.n == n]
        assert rows == [(*combo, stat) for combo in combos for stat in ("mean", "variance")]


def test_config_key_document_is_an_unknown_key(tmp_path, capsys):
    # {"config": {...}} is no document shape: "config" is refused like any other unknown key
    cfg = {"experiment": "tails", "families": ["product"], "n_min": 2, "n_max": 3,
           "trials": 200, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"config": cfg}))
    out = tmp_path / "x.csv"
    assert run_cli(["run", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(cfg_path) in err and "'config'" in err
    assert not out.exists()


def test_trials_and_samples_bounded_by_one_dense_vector():
    # configs only: a cell at the bound would hold 2^26 float64 values per combo
    ok = dict(families=("product",), n_min=4, n_max=4, seed=0)
    bound = 1 << 26
    ExperimentConfig("tails", trials=bound, **ok)
    ExperimentConfig("mmdtest", trials=1, samples=bound, **ok)
    with pytest.raises(CliError, match=r"trials must be at most 2\^26, got 67108865"):
        ExperimentConfig("tails", trials=bound + 1, **ok)
    with pytest.raises(CliError, match=r"samples must be at most 2\^26, got 67108865"):
        ExperimentConfig("mmdtest", trials=1, samples=bound + 1, **ok)


def test_huge_trial_count_exits_2_without_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run_cli(["tails", "--family", "product", "--n-min", "4", "--n-max", "4",
                  "--trials", 10**30, "--out", out])
    assert rc == 2
    assert f"trials must be at most 2^26, got {10**30}" in capsys.readouterr().err
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


@pytest.mark.parametrize("version", ["0.1.0", "0.2.0", "0.3.0", "0.5.0", "0.7.0", "0.8.0", "0.9.0",
                                     "0.10.0", "0.11.0"])
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


def test_bare_config_may_name_the_current_version(tmp_path, capsys):
    record = {"experiment": "tails", "families": ["dirichlet"], "n_min": 1, "n_max": 3,
              "trials": 100, "seed": 0}
    outs = []
    for name, extra in (("plain", {}), ("current", {"version": __version__})):
        cfg, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cfg.write_text(json.dumps({**record, **extra}))
        assert run_cli(["run", "--config", cfg, "--workers", "1", "--out", out]) == 0
        outs.append(out)
    plain, current = outs
    assert current.read_bytes() == plain.read_bytes()
    assert (tmp_path / "current.csv.manifest.json").read_bytes() == (
        tmp_path / "plain.csv.manifest.json").read_bytes()
    old, out = tmp_path / "old.json", tmp_path / "old.csv"
    old.write_text(json.dumps({**record, "version": "0.9.0"}))
    capsys.readouterr()
    assert run_cli(["run", "--config", old, "--workers", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(old) in err and "0.9.0" in err and __version__ in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["tails", "--trials", "200", "--paper-scale"],
        ["pairwise", "--paper-scale", "--pairs", "200"],
        ["figures", "fig2", "--pairs", "200", "--paper-scale"],
        ["figures", "fig2", "--paper-scale", "--trials", "300"],
    ],
)
def test_paper_scale_is_refused(tmp_path, capsys, args):
    # a count has one flag (figures: --pairs or --trials); tails, pairwise
    # and figures refuse --paper-scale alike
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args + ["--out", out])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err
    assert not out.exists()


def test_count_flags_default_to_desk_trials():
    parser = build_parser()
    for args in (["tails"], ["pairwise"], ["figures", "fig5"]):
        assert parser.parse_args(args).count == DESK_TRIALS


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


# ---------------------------------------------------------------------------
# the route table: each experiment draws from one route, whose cap bounds n


def _token(kind):
    return "pareto:alpha=2" if kind == "pareto" else kind


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_each_experiment_reaches_the_cap_of_its_route(experiment):
    route = EXPERIMENTS[experiment].route
    for kind, family in FAMILIES.items():
        cap = getattr(family, route).max_n
        ExperimentConfig(experiment, (_token(kind),), n_min=cap, n_max=cap, trials=100, seed=0)
        with pytest.raises(CliError, match=f"exceeds the {route} route cap {cap} of {kind}$"):
            ExperimentConfig(experiment, (_token(kind),), n_min=cap, n_max=cap + 1,
                             trials=100, seed=0)


def test_mixed_families_are_bounded_by_the_most_limited_route():
    for families in (("dirichlet", "product"), ("product", "dirichlet")):
        with pytest.raises(CliError, match="n_max 27 exceeds the mass route cap 26 of product"):
            ExperimentConfig("tails", families, n_min=2, n_max=27, trials=100, seed=0)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_cells_draw_only_from_the_route_their_experiment_names(experiment, monkeypatch):
    calls = []
    for route, name in (("dense", "instance_prob_values"), ("mass", "reference_mass_values")):
        def record(*args, _route=route, _draw=getattr(lab, name)):
            calls.append(_route)
            return _draw(*args)

        monkeypatch.setattr(lab, name, record)
    trials = 2 if experiment == "mmdtest" else 100
    config = ExperimentConfig(experiment, ("dirichlet",), n_min=3, n_max=3, trials=trials,
                              seed=0, samples=20, workers=1)
    assert run_config(config)
    assert calls and set(calls) == {EXPERIMENTS[experiment].route}


def test_dirichlet_anticoncentration_at_its_cap_matches_beta_moments():
    # the reference mass of a symmetric Dirichlet(a) is Beta(a, a(N-1)), so
    # N^2 E[p^2] = N(a+1)/(Na+1), and at a = 1 Prob(p >= 1/(2N)) = (1 - 1/(2N))^(N-1)
    config = ExperimentConfig("anticoncentration", ("dirichlet", "dirichlet:alpha=0.5"),
                              n_min=32, n_max=64, n_step=32, trials=100_000, seed=3, workers=1)
    rows = {(r.family, r.n, r.statistic): r for r in run_config(config)}
    assert len(rows) == 8
    for alpha, label in ((1.0, "dirichlet"), (0.5, "dirichlet(0.5)")):
        for n in (32, 64):
            N = 2**n
            row = rows[(label, n, "second_moment")]
            exact = N * (alpha + 1) / (N * alpha + 1)
            assert abs(row.value - exact) < 3 * row.stderr, (alpha, n, row.value, row.stderr)
            if alpha == 1.0:
                row = rows[(label, n, "tail@y=0.5")]
                # 99.5% per point, as in the Beta survival check above, so the
                # joint check over both n stays above 99%
                lo, hi = wilson_interval(round(row.value * row.trials), row.trials,
                                         z=2.807033768343811)
                assert lo <= math.exp((N - 1) * math.log1p(-0.5 / N)) <= hi, (n, lo, hi)
