"""Command-line harness: deterministic experiment runs and CSV emission.

Subcommands
  run        execute an experiment config (JSON manifest) and write CSV
  tails      survival curves of the reference-outcome mass
  pairwise   Monte Carlo moments of a loss over instance pairs
  figures    preset bundles reproducing the standard figure layouts, one
             CSV per kind named; fig6 repeats fig5's config
  mmdtest    two-sample MMD^2 test on bitstring sample files

Every run writes two artifacts: a CSV with the fixed header

  experiment,family,n,metric,sigma,statistic,value,stderr,trials,seed

(floats at 17 significant digits; a NaN anywhere aborts the run) and a JSON
manifest holding the exact config; `run --config manifest.json` reproduces
the CSV byte for byte. The master seed comes from --seed, else the config's,
else 0. The command line and the config and sample files are the only
inputs: no environment variable is read. Each input is checked here, where it enters: a
bad one exits with status 2 before any cell runs, and lab and metrics take
only checked values.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# lab is reached through its module at call time, so timing wrappers installed
# on its attributes (perfbench/spans.py) see every call
from . import __version__, lab
from .bitmath import MAX_DENSE_QUBITS, MAX_OUTCOME_BITS, RandomStream, SampleSet, SubsetMask
from .lab import (
    FAMILIES,
    MIN_TRIALS,
    MIN_VARIANCE_TRIALS,
    PAIR_METRICS,
    FamilySpec,
    anticoncentration_statistic,
    family_reading,
    diagonal_observable_variance,
    distance_to_uniform_moments,
    estimate_tail_curve,
    pairwise_loss_moments,
)
# bound in cli and called through its globals, where a timing wrapper (perfbench/spans.py) replaces it
from .lab import mmdtest_rejection_rates as _mmdtest_rejection_rates
from .metrics import bandwidth_kernel, mmd2_unbiased, mmd_test_threshold

CSV_HEADER = "experiment,family,n,metric,sigma,statistic,value,stderr,trials,seed"

DESK_TRIALS = 10_000

FIGURE_FAMILIES = ("iqp_product", "mps", "iqp", "pareto:alpha=2", "peaked_iqp")

DEFAULT_Y_GRID = tuple(float(y) for y in np.geomspace(1e-4, 2.0, 10))

_FIG4 = dict(families=("dirichlet", "pareto:alpha=2"), n_min=8, n_max=12, n_step=2)
_FIG_PAIRWISE = dict(experiment="pairwise", families=FIGURE_FAMILIES, n_min=2, n_max=13)

# each figure kind and the fields of its configs, beside their count, seed and workers
FIGURES = {
    "fig2": [dict(experiment="tails", families=("product",), n_min=4, n_max=12, n_step=4)],
    "fig4": [
        dict(_FIG4, experiment="tails", y_grid=tuple(float(y) for y in np.geomspace(0.01, 4.0, 12))),
        dict(_FIG4, experiment="anticoncentration"),
    ],
    "fig5": [dict(_FIG_PAIRWISE, metrics=("sd",))],
    "fig6": [dict(_FIG_PAIRWISE, metrics=("sd",))],
    "fig7": [dict(_FIG_PAIRWISE, metrics=("mmd2",), sigmas=("1",))],
    "fig8": [dict(_FIG_PAIRWISE, metrics=("mmd2",), sigmas=("n",))],
    "fig9": [dict(_FIG_PAIRWISE, metrics=("l1", "tvd"))],
}


class CliError(Exception):
    """User-facing error; printed to stderr with exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    families: tuple[str, ...]
    n_min: int
    n_max: int
    trials: int
    seed: int
    metrics: tuple[str, ...] = ("sd",)
    sigmas: tuple[str, ...] = ()
    n_step: int = 1
    y_grid: tuple[float, ...] = DEFAULT_Y_GRID
    subset: tuple[int, ...] = (1,)
    alpha: float = 0.05
    samples: int = 200
    workers: int | None = None
    out: str = "results.csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise CliError(f"unknown experiment {self.experiment!r}; known: {tuple(EXPERIMENTS)}")
        integers = ["n_min", "n_max", "n_step", "trials", "seed", "samples"]
        if self.workers is not None:
            integers.append("workers")
        for name in integers:
            value = getattr(self, name)
            if not _is_int(value):
                raise CliError(f"{name} must be an integer, got {value!r}")
            # a cell holds one float64 per trial and combo: at most one dense vector at the cap
            if name in ("trials", "samples") and value > 1 << MAX_DENSE_QUBITS:
                raise CliError(f"{name} must be at most 2^{MAX_DENSE_QUBITS}, got {value}")
        if self.seed < 0:
            raise CliError(f"seed must be non-negative, got {self.seed}")
        if not self.families:
            raise CliError("at least one family is required")
        if not all(isinstance(token, str) for token in self.families):
            raise CliError(f"families must be family tokens, got {list(self.families)}")
        specs = [parse_family(token) for token in self.families]  # raises on bad syntax
        if not 1 <= self.n_min <= self.n_max:
            raise CliError(f"bad n range [{self.n_min}, {self.n_max}]")
        route = EXPERIMENTS[self.experiment].route
        for spec in specs:
            cap = getattr(FAMILIES[spec.kind], route).max_n
            if self.n_max > cap:
                raise CliError(f"n_max {self.n_max} exceeds the {route} route cap {cap} of {spec.kind}")
            if spec.k is not None:
                try:
                    spec.support_size(self.n_min)  # a given k fits at n_min or nowhere
                except ValueError as e:
                    raise CliError(str(e)) from None
        min_trials = EXPERIMENTS[self.experiment].min_trials
        if self.trials < min_trials:
            raise CliError(
                f"{self.experiment} needs at least {min_trials} trials, got {self.trials}"
            )
        for metric in self.metrics:
            if metric not in PAIR_METRICS:
                raise CliError(f"unknown metric {metric!r}; known: {PAIR_METRICS}")
        self.sigma_values(self.n_min)  # raises on a token bandwidth_kernel refuses
        if self.n_step < 1:
            raise CliError("n_step must be at least 1")
        if not (_is_number(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise CliError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if self.samples < 2:
            raise CliError("samples must be at least 2")
        if self.workers is not None and self.workers < 1:
            raise CliError(f"workers must be at least 1, got {self.workers}")
        if not self.y_grid or not all(_is_finite_number(y) for y in self.y_grid):
            raise CliError(f"y_grid must be a non-empty list of finite numbers, got {self.y_grid}")
        if not self.subset or not all(_is_int(i) and 1 <= i <= self.n_min for i in self.subset):
            raise CliError(f"subset must hold qubit positions in 1..{self.n_min}, got {self.subset}")
        if not isinstance(self.out, str) or not self.out:
            raise CliError(f"out must be a non-empty file path, got {self.out!r}")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(range(self.n_min, self.n_max + 1, self.n_step))

    def sigma_values(self, n: int) -> list[float]:
        """The bandwidths the config's sigma tokens name at n; 1 if it names none."""
        return [_resolve_sigma(token, n) for token in self.sigmas or ("1",)]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # a JSON true is no number


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _is_finite_number(x) -> bool:
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:  # a JSON integer past the float64 range
        return False


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    family: str
    n: int
    metric: str
    sigma: float | None
    statistic: str
    value: float
    stderr: float
    trials: int
    seed: int


def parse_family(token: str) -> FamilySpec:
    """Parse 'kind' or 'kind:key=value,...'. A key must name a parameter the
    kind reads (lab.family_reading), whatever its value: `iqp:alpha=1` is
    refused as `iqp:alpha=5` is. A key given twice is refused too."""
    kind, _, params = token.partition(":")
    kind, kwargs = kind.strip(), {}
    try:
        for item in params.split(",") if params else ():
            key, eq, value = item.partition("=")
            if not eq:
                raise CliError(f"bad family parameter {item!r} in {token!r}")
            key = key.strip()
            if key in kwargs:
                raise CliError(f"family {token!r} gives {key} twice")
            family_reading(kind, [key])
            parse, expected = (float, "a number") if key == "alpha" else (int, "an integer")
            try:
                kwargs[key] = parse(value)
            except ValueError:
                raise CliError(
                    f"family {token!r}: {key} must be {expected}, got {value.strip()!r}"
                ) from None
        return FamilySpec(kind, **kwargs)
    except ValueError as e:
        raise CliError(str(e)) from e


def _format_value(x: float | None) -> str:
    return "" if x is None else "%.17g" % float(x)


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    """CSV text; only a field holding a comma (a two-parameter family label) is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        for name in ("value", "stderr"):
            v = getattr(r, name)
            if not math.isfinite(v):
                raise CliError(
                    f"refusing to write non-finite {name}={v!r} "
                    f"({r.experiment}/{r.family}/n={r.n}/{r.statistic})"
                )
        writer.writerow([
            r.experiment, r.family, r.n, r.metric, _format_value(r.sigma), r.statistic,
            _format_value(r.value), _format_value(r.stderr), r.trials, r.seed,
        ])
    return text.getvalue()


def _resolve_sigma(token: str, n: int) -> float:
    """The bandwidth a sigma token names at n: a number, or 'n' for n itself.
    A bandwidth that bandwidth_kernel would refuse is refused here."""
    try:
        if isinstance(token, bool):  # float() would read a JSON true as 1.0
            raise TypeError
        sigma = float(n) if token == "n" else float(token)
    # a JSON true, null, list or object, a bad string, or an integer past the float64 range
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"bad sigma {token!r} (a non-negative number or 'n')") from None
    try:
        bandwidth_kernel(sigma)
    except ValueError as e:
        raise CliError(f"bad sigma {token!r}: {e}") from None
    return sigma


def _metric_sigma_combos(config: ExperimentConfig, n: int) -> list[tuple[str, float | None]]:
    combos: list[tuple[str, float | None]] = []
    for metric in config.metrics:
        if metric == "mmd2":
            combos.extend(("mmd2", sigma) for sigma in config.sigma_values(n))
        else:
            combos.append((metric, None))
    return combos


def _moment_rows(metric: str, sigma: float | None, report) -> list[tuple]:
    """The mean and variance rows of one MomentReport, under metric and sigma."""
    return [
        (metric, sigma, "mean", report.mean, report.se_mean),
        (metric, sigma, "variance", report.variance, report.se_variance),
    ]


def _tails_rows(config, family, n, stream) -> list[tuple]:
    curve = estimate_tail_curve(family, n, config.y_grid, config.trials, stream)
    return [
        ("mass", None, f"tail@y={y:.12g}", est, (hi - lo) / 2)
        for y, est, lo, hi in zip(curve.y_grid, curve.estimates, curve.ci_low, curve.ci_high)
    ]


def _pairwise_rows(config, family, n, stream) -> list[tuple]:
    combos = _metric_sigma_combos(config, n)
    reports = pairwise_loss_moments(family, n, combos, config.trials, stream)
    return [row for combo, report in zip(combos, reports) for row in _moment_rows(*combo, report)]


def _anticoncentration_rows(config, family, n, stream) -> list[tuple]:
    rep = anticoncentration_statistic(family, n, config.trials, stream)
    return [
        ("mass", None, "second_moment", rep.second_moment_statistic, rep.second_moment_se),
        ("mass", None, "tail@y=0.5", rep.tail_at_half, (rep.tail_ci_high - rep.tail_ci_low) / 2),
    ]


def _observable_rows(config, family, n, stream) -> list[tuple]:
    S = SubsetMask.from_positions(config.subset, n)
    metric = "z" + "".join(map(str, sorted(set(config.subset))))
    return _moment_rows(metric, None, diagonal_observable_variance(family, n, S, config.trials, stream))


def _mmdtest_rows(config, family, n, stream) -> list[tuple]:
    sigmas = config.sigma_values(n)
    all_rates = _mmdtest_rejection_rates(
        family, n, sigmas, config.alpha, config.samples, config.trials, stream,
    )
    return [
        ("mmd2", sigma, stat, rate, math.sqrt(rate * (1 - rate) / config.trials))
        for sigma, rates in zip(sigmas, all_rates)
        for stat, rate in zip(("reject_rate_equal", "reject_rate_distinct"), rates.tolist())
    ]


def _uniform_distance_rows(config, family, n, stream) -> list[tuple]:
    report = distance_to_uniform_moments(family, n, config.trials, stream)
    return _moment_rows("sd_to_uniform", None, report)


@dataclass(frozen=True)
class Experiment:
    """rows(config, family, n, stream) scores one (family, n) cell from the
    cell's stream and returns its rows as (metric, sigma, statistic, value,
    stderr) tuples; _cell_rows adds the experiment, family label, n, trials
    and seed that every row of the cell shares."""

    rows: Callable
    min_trials: int
    route: str  # the lab.Family route its cells draw from, whose cap bounds n


EXPERIMENTS = {
    "tails": Experiment(_tails_rows, MIN_TRIALS, "mass"),
    "pairwise": Experiment(_pairwise_rows, MIN_TRIALS, "dense"),
    "anticoncentration": Experiment(_anticoncentration_rows, MIN_TRIALS, "mass"),
    "observable": Experiment(_observable_rows, MIN_VARIANCE_TRIALS, "dense"),
    "mmdtest": Experiment(_mmdtest_rows, 1, "dense"),
    "uniform_distance": Experiment(_uniform_distance_rows, MIN_TRIALS, "dense"),
}


def _cell_rows(cell) -> list[ExperimentRow]:
    """Rows of one (config, family index, n) cell.

    The one place a cell's stream is derived and a row is built; the row
    builders draw from the stream they are given.
    """
    config, fam_idx, n = cell
    stream = RandomStream(config.seed).child(fam_idx).child(n).child(0)
    family = parse_family(config.families[fam_idx])
    label = family.label()
    return [
        ExperimentRow(config.experiment, label, n, *row, config.trials, config.seed)
        for row in EXPERIMENTS[config.experiment].rows(config, family, n, stream)
    ]


def _config_rows(configs: list[ExperimentConfig]) -> list[list[ExperimentRow]]:
    """Execute every config's family x n grid; the rows of each config.

    Every (family, n) cell of every config is one task of a single
    lab._parallel_map call, so one worker pool serves the whole invocation,
    with the largest worker count that any config asks for (a config that
    names none asks for every usable CPU), capped at the usable CPUs. A cell
    runs its chunks one after another on one worker. Rows come back in cell
    order: config by config, family-major. Streams fan out as seed -> family
    index -> n -> child(0) -> chunk, and every metric and bandwidth of a cell
    scores that one draw, so a row depends only on its (seed, family index,
    n, metric, sigma), never on the worker count or the other configs.
    """
    grids = [[(c, f, n) for f in range(len(c.families)) for n in c.n_values] for c in configs]
    workers = min(lab.usable_cpus(), max(c.workers or lab.usable_cpus() for c in configs))
    results = iter(lab._parallel_map(_cell_rows, [cell for grid in grids for cell in grid], workers))
    return [[row for _ in grid for row in next(results)] for grid in grids]


def run_config(config: ExperimentConfig, *more: ExperimentConfig) -> list[ExperimentRow]:
    """The rows of config and then of each of `more`, from one worker pool."""
    return [row for rows in _config_rows([config, *more]) for row in rows]


def write_outputs(configs: list[ExperimentConfig], rows: list[ExperimentRow], out: str):
    csv_text = rows_to_csv(rows)
    manifest = {
        "version": __version__,
        "configs": [dataclasses.asdict(c) for c in configs],
    }
    try:
        with open(out, "w", newline="") as f:
            f.write(csv_text)
        with open(out + ".manifest.json", "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:  # a missing directory, a directory, no permission
        raise CliError(f"{e.filename}: {e.strerror}") from e


def load_configs(path: str) -> list[ExperimentConfig]:
    try:
        with open(path) as f:
            record = json.load(f)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"{path}:{e.lineno}: parse error: {e.msg}") from e
    except ValueError as e:  # an integer past Python's digit limit for str -> int
        raise CliError(f"{path}: parse error: {e}") from e
    if not isinstance(record, dict):
        raise CliError(f"{path}: the top level must be a JSON object, not {type(record).__name__}")
    version = record.pop("version", __version__)  # popped: a bare config is passed on whole
    if version != __version__:
        raise CliError(f"{path}: written by bornlab {version}, not {__version__}; rows would differ")
    raw = record["configs"] if "configs" in record else [record]
    if not isinstance(raw, list) or not raw:
        raise CliError(f"{path}: configs must be a non-empty list, got {raw!r}")
    configs = []
    for item in raw:
        if not isinstance(item, dict):
            raise CliError(f"{path}: each config must be a JSON object, not {type(item).__name__}")
        item = dict(item)
        try:
            for key in ("families", "metrics", "sigmas", "y_grid", "subset"):
                if key not in item:
                    continue
                if not isinstance(item[key], list):  # a string or an object is iterable
                    scalar = not isinstance(item[key], (str, dict))
                    raise CliError(
                        f"{key} must be a list, got {item[key]!r}"
                        + (", which is not iterable" if scalar else "")
                    )
                item[key] = tuple(item[key])
            configs.append(ExperimentConfig(**item))
        except (TypeError, CliError) as e:  # an unknown or missing key, a bad value
            raise CliError(f"{path}: {e}") from e
    return configs


def read_sample_file(path: str) -> SampleSet:
    """Sample file: one bitstring per line, most-significant qubit first.

    The common file, lines of n 0/1 bytes each ending in a newline, is
    parsed in bulk: one read, one check of the whole array, and the bits'
    weights summed in uint64 a column at a time, most significant first.
    Any other input, and every error, goes through the line loop, which
    strips each line and skips blank ones.
    """
    try:
        data = np.fromfile(path, dtype=np.uint8)
    except OSError:
        data = np.zeros(0, dtype=np.uint8)  # the line loop reports the error
    first = data[: MAX_OUTCOME_BITS + 1] == ord("\n")
    n = int(np.argmax(first)) if first.any() else 0  # 0: no line of 1..64 bits leads the file
    if n and data.size % (n + 1) == 0:
        lines = data.reshape(-1, n + 1)
        bits = lines[:, :n]
        bits -= ord("0")  # in place, so the file's bytes are held once; below "0" wraps past 1
        if (lines[:, n] == ord("\n")).all() and bits.max() <= 1:
            values = np.zeros(len(lines), dtype=np.uint64)
            for column in bits.T:
                values <<= 1
                values |= column
            return SampleSet(n, values)
    outcomes: list[int] = []
    n = None
    try:
        # undecodable bytes become U+FFFD, which the 0/1 check below refuses by line
        handle = open(path, errors="replace")
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}") from e
    with handle:
        for lineno, line in enumerate(handle, 1):
            s = line.strip()
            if not s:
                continue
            if set(s) - {"0", "1"}:
                raise CliError(f"{path}:{lineno}: parse error: not a 0/1 bitstring: {s!r}")
            if n is None:
                n = len(s)
                if n > MAX_OUTCOME_BITS:
                    raise CliError(
                        f"{path}:{lineno}: parse error: {n}-bit outcomes exceed the "
                        f"{MAX_OUTCOME_BITS}-bit limit"
                    )
            elif len(s) != n:
                raise CliError(
                    f"{path}:{lineno}: parse error: length {len(s)} != {n} of first line"
                )
            outcomes.append(int(s, 2))
    if n is None:
        raise CliError(f"{path}:1: parse error: no samples in file")
    return SampleSet(n, np.asarray(outcomes, dtype=np.uint64))


def _resolve_seed(value: int | None) -> int:
    """--seed, else 0; a seed is a non-negative integer."""
    if value is not None and value < 0:
        raise CliError(f"--seed must be a non-negative integer, got {value}")
    return value or 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: the config's, else 0)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers (default: every usable CPU; results do not depend on this)",
    )
    parser.add_argument("--out", default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Concentration experiments for quantum generative model distributions.",
    )
    parser.add_argument("--version", action="version", version=f"bornlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a JSON config/manifest")
    p_run.add_argument("--config", required=True, help="config or manifest JSON path")
    _add_common(p_run)

    p_tails = sub.add_parser("tails", help="reference-mass survival curves")
    p_tails.add_argument("--family", default="product", help="comma list, e.g. product,dirichlet")
    p_tails.add_argument("--n-min", type=int, default=4)
    p_tails.add_argument("--n-max", type=int, default=12)
    p_tails.add_argument("--trials", dest="count", type=int, default=DESK_TRIALS, help="trials per cell")
    _add_common(p_tails)

    p_pair = sub.add_parser("pairwise", help="pairwise loss moments")
    p_pair.add_argument("--family", default="dirichlet")
    p_pair.add_argument("--metric", default="sd", help="comma list from sd,mmd2,l1,tvd")
    p_pair.add_argument("--sigma", default="1", help="comma list of bandwidths; 'n' scales with n")
    p_pair.add_argument("--n-min", type=int, default=2)
    p_pair.add_argument("--n-max", type=int, default=12)
    p_pair.add_argument("--pairs", dest="count", type=int, default=DESK_TRIALS, help="pairs per cell")
    _add_common(p_pair)

    p_fig = sub.add_parser("figures", help="preset experiment bundles, one <kind>.csv each")
    p_fig.add_argument("kinds", nargs="+", choices=FIGURES, metavar="kind",
                       help=f"one or more of {', '.join(FIGURES)}")
    p_fig.add_argument("--pairs", "--trials", dest="count", type=int, default=DESK_TRIALS,
                       help="pairs or trials per cell")
    _add_common(p_fig)

    p_test = sub.add_parser("mmdtest", help="two-sample MMD^2 test on bitstring files")
    p_test.add_argument("xfile")
    p_test.add_argument("yfile")
    p_test.add_argument("--sigma", type=float, default=1.0)
    p_test.add_argument("--alpha", type=float, default=0.05)
    return parser


def figure_configs(kind: str, trials: int, seed: int, workers) -> list[ExperimentConfig]:
    return [ExperimentConfig(**fields, trials=trials, seed=seed, workers=workers)
            for fields in FIGURES[kind]]


def _write(configs: list[ExperimentConfig], rows: list[ExperimentRow], out: str):
    write_outputs(configs, rows, out)
    print(f"wrote {len(rows)} rows to {out}")


def _run_and_write(configs: list[ExperimentConfig], out: str) -> int:
    _write(configs, run_config(*configs), out)
    return 0


def cmd_run(args) -> int:
    configs = load_configs(args.config)
    if args.seed is not None:
        configs = [dataclasses.replace(c, seed=_resolve_seed(args.seed)) for c in configs]
    if args.workers is not None:
        configs = [dataclasses.replace(c, workers=args.workers) for c in configs]
    # worker count never changes the output bytes, so manifest reruns are
    # reproducible on machines with different core counts
    return _run_and_write(configs, args.out or configs[0].out)


def _run_grid(args, experiment: str, **fields) -> int:
    """Run the one config that the grid flags of `tails` or `pairwise` describe."""
    out = args.out or f"{experiment}.csv"
    config = ExperimentConfig(
        experiment,
        # a comma starts a new family unless the item is another key=value
        tuple(t.strip() for t in re.split(r",(?![^,:]*=)", args.family)),
        n_min=args.n_min,
        n_max=args.n_max,
        trials=args.count,
        seed=_resolve_seed(args.seed),
        workers=args.workers,
        out=out,
        **fields,
    )
    return _run_and_write([config], out)


def cmd_tails(args) -> int:
    return _run_grid(args, "tails")


def cmd_pairwise(args) -> int:
    return _run_grid(
        args, "pairwise",
        metrics=tuple(t.strip() for t in args.metric.split(",")),
        sigmas=tuple(t.strip() for t in args.sigma.split(",")),
    )


def cmd_figures(args) -> int:
    if args.out is not None and len(args.kinds) > 1:
        raise CliError(f"--out names one file, but {len(args.kinds)} kinds were given")
    seed = _resolve_seed(args.seed)
    runs = [
        [dataclasses.replace(c, out=args.out or f"{kind}.csv")
         for c in figure_configs(kind, args.count, seed, args.workers)]
        for kind in args.kinds
    ]
    # every kind's cells share one pool; each kind's rows go to its own file
    rows = iter(_config_rows([c for configs in runs for c in configs]))
    for configs in runs:
        _write(configs, [row for _ in configs for row in next(rows)], configs[0].out)
    return 0


def cmd_mmdtest(args) -> int:
    spec = bandwidth_kernel(args.sigma)  # refuses a sigma that names no kernel
    if not 0.0 < args.alpha <= 1.0:
        raise CliError(f"alpha must be in (0, 1], got {args.alpha:g}")
    X = read_sample_file(args.xfile)
    Y = read_sample_file(args.yfile)
    if X.n != Y.n:
        raise CliError(f"sample width mismatch: {args.xfile} has n={X.n}, {args.yfile} has n={Y.n}")
    if len(X) < 2 or len(Y) < 2:
        raise CliError("need at least 2 samples on each side")
    estimate = float(mmd2_unbiased(X, Y, (spec,))[0])
    threshold = mmd_test_threshold(len(X), len(Y), args.alpha)
    verdict = "ACCEPT" if estimate <= threshold else "REJECT"
    print(f"m: {len(X)}  l: {len(Y)}  n: {X.n}  sigma: {args.sigma:g}  alpha: {args.alpha:g}")
    print(f"estimate: {estimate:.17g}")
    print(f"threshold: {threshold:.17g}")
    print(f"verdict: {verdict}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "tails": cmd_tails,
        "pairwise": cmd_pairwise,
        "figures": cmd_figures,
        "mmdtest": cmd_mmdtest,
    }[args.command]
    try:
        return handler(args)
    except (CliError, ValueError) as e:
        print(f"bornlab: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
