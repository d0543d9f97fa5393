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
the CSV byte for byte. The master seed comes from --seed, else the BORN_SEED
environment variable, else 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# circuits and lab are reached through their modules at call time, so timing
# wrappers installed on their attributes (perfbench/spans.py) see every call
from . import __version__, circuits, lab
from .bitmath import RandomStream, SampleSet, SubsetMask, validate_prob_vector
from .lab import (
    FAMILIES,
    MIN_TRIALS,
    MIN_VARIANCE_TRIALS,
    PAIR_METRICS,
    FamilySpec,
    anticoncentration_statistic,
    diagonal_observable_variance,
    distance_to_uniform_moments,
    estimate_tail_curve,
    pairwise_loss_moments,
)
from .metrics import bandwidth_kernel, mmd2_unbiased, mmd_test_threshold

CSV_HEADER = "experiment,family,n,metric,sigma,statistic,value,stderr,trials,seed"

DESK_TRIALS = 10_000
PAPER_TRIALS = 100_000

FIGURE_FAMILIES = ("iqp_product", "mps", "iqp", "pareto:alpha=2", "peaked_iqp")

DEFAULT_Y_GRID = tuple(float(y) for y in np.geomspace(1e-4, 2.0, 10))

FIGURE_KINDS = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")


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
            if isinstance(value, bool) or not isinstance(value, int):
                raise CliError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise CliError(f"seed must be non-negative, got {self.seed}")
        if not self.families:
            raise CliError("at least one family is required")
        if not all(isinstance(token, str) for token in self.families):
            raise CliError(f"families must be family tokens, got {list(self.families)}")
        specs = [parse_family(token) for token in self.families]  # raises on bad syntax
        if not 1 <= self.n_min <= self.n_max:
            raise CliError(f"bad n range [{self.n_min}, {self.n_max}]")
        cap = min(FAMILIES[spec.kind].max_n for spec in specs)
        if self.n_max > cap:
            raise CliError(f"n_max {self.n_max} exceeds the n <= {cap} cap for these families")
        for spec in specs:
            if spec.k is not None and spec.k > 1 << self.n_min:
                raise CliError(
                    f"{spec.kind} support k={spec.k} exceeds the 2^{self.n_min} outcomes at n_min"
                )
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
        if not (isinstance(self.alpha, (int, float)) and not isinstance(self.alpha, bool)
                and 0.0 < self.alpha <= 1.0):
            raise CliError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if self.samples < 2:
            raise CliError("samples must be at least 2")
        if self.workers is not None and self.workers < 1:
            raise CliError(f"workers must be at least 1, got {self.workers}")
        if not self.y_grid or not all(
            isinstance(y, (int, float)) and math.isfinite(y) for y in self.y_grid
        ):
            raise CliError(f"y_grid must be a non-empty list of finite numbers, got {self.y_grid}")
        if not self.subset or not all(
            isinstance(i, int) and 1 <= i <= self.n_min for i in self.subset
        ):
            raise CliError(f"subset must hold qubit positions in 1..{self.n_min}, got {self.subset}")
        if not isinstance(self.out, str) or not self.out:
            raise CliError(f"out must be a non-empty file path, got {self.out!r}")

    @property
    def n_values(self) -> tuple[int, ...]:
        return tuple(range(self.n_min, self.n_max + 1, self.n_step))

    def sigma_values(self, n: int) -> list[float]:
        """The bandwidths the config's sigma tokens name at n; 1 if it names none."""
        return [_resolve_sigma(token, n) for token in self.sigmas or ("1",)]


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
    """Parse 'kind' or 'kind:key=value,...' (keys alpha, k, chi)."""
    kind, _, params = token.partition(":")
    kwargs = {}
    if params:
        for item in params.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in ("alpha", "k", "chi"):
                raise CliError(f"bad family parameter {item!r} in {token!r}")
            parse, expected = (float, "a number") if key == "alpha" else (int, "an integer")
            try:
                kwargs[key] = parse(value)
            except ValueError:
                raise CliError(
                    f"family {token!r}: {key} must be {expected}, got {value.strip()!r}"
                ) from None
    try:
        return FamilySpec(kind.strip(), **kwargs)
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
        sigma = float(n) if token == "n" else float(token)
    except (TypeError, ValueError):  # a JSON null, list or object, or a bad string
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


def _mmdtest_rejection_rates(family, n, sigmas, alpha, samples, trials, stream) -> np.ndarray:
    """Monte Carlo rejection rates of the two-sample test within one family,
    shape (len(sigmas), 2): the null's rate, then the alternative's.

    Per repetition draws two fresh instances p, q and three sample sets, and
    at every bandwidth runs the test twice on them: once with both sample
    sets from p (the null) and once with one set from each (family-typical
    alternative). Concentrated families are expected to show near-zero power
    here; that is the behavior being measured.
    """
    specs = tuple(bandwidth_kernel(sigma) for sigma in sigmas)
    threshold = mmd_test_threshold(samples, samples, alpha)
    counts = np.zeros((len(specs), 2), dtype=np.int64)  # per kernel: equal, distinct
    for rep in range(trials):
        rep_stream = stream.child(rep)
        masses = lab.instance_prob_values(family, n, 2, rep_stream.child(0).generator)
        p = validate_prob_vector(masses[0], n)
        q = validate_prob_vector(masses[1], n)
        draws = [
            circuits.sample_prob_vector(p, rep_stream.child(1), samples),
            circuits.sample_prob_vector(p, rep_stream.child(2), samples),
            circuits.sample_prob_vector(q, rep_stream.child(3), samples),
        ]
        counts[:, 0] += mmd2_unbiased(draws[0], draws[1], specs) > threshold
        counts[:, 1] += mmd2_unbiased(draws[0], draws[2], specs) > threshold
    return counts / trials


def _moment_rows(config: ExperimentConfig, report) -> list[ExperimentRow]:
    """The mean and variance rows of one MomentReport."""
    return [
        ExperimentRow(
            config.experiment, report.family, report.n, report.metric, report.sigma,
            stat, value, err, report.trials, config.seed,
        )
        for stat, value, err in (
            ("mean", report.mean, report.se_mean),
            ("variance", report.variance, report.se_variance),
        )
    ]


def _tails_rows(config, family, n, stream) -> list[ExperimentRow]:
    curve = estimate_tail_curve(family, n, config.y_grid, config.trials, stream)
    return [
        ExperimentRow(
            "tails", curve.family, n, "mass", None,
            f"tail@y={y:.12g}", est, (hi - lo) / 2, curve.trials, config.seed,
        )
        for y, est, lo, hi in zip(curve.y_grid, curve.estimates, curve.ci_low, curve.ci_high)
    ]


def _pairwise_rows(config, family, n, stream) -> list[ExperimentRow]:
    reports = pairwise_loss_moments(
        family, n, _metric_sigma_combos(config, n), config.trials, stream
    )
    return [row for report in reports for row in _moment_rows(config, report)]


def _anticoncentration_rows(config, family, n, stream) -> list[ExperimentRow]:
    rep = anticoncentration_statistic(family, n, config.trials, stream)
    return [
        ExperimentRow(
            "anticoncentration", rep.family, n, "mass", None, "second_moment",
            rep.second_moment_statistic, rep.second_moment_se, rep.trials, config.seed,
        ),
        ExperimentRow(
            "anticoncentration", rep.family, n, "mass", None, "tail@y=0.5", rep.tail_at_half,
            (rep.tail_ci_high - rep.tail_ci_low) / 2, rep.trials, config.seed,
        ),
    ]


def _observable_rows(config, family, n, stream) -> list[ExperimentRow]:
    S = SubsetMask.from_positions(config.subset, n)
    return _moment_rows(config, diagonal_observable_variance(family, n, S, config.trials, stream))


def _mmdtest_rows(config, family, n, stream) -> list[ExperimentRow]:
    rows = []
    sigmas = config.sigma_values(n)
    all_rates = _mmdtest_rejection_rates(
        family, n, sigmas, config.alpha, config.samples, config.trials, stream,
    )
    for sigma, rates in zip(sigmas, all_rates):
        for stat, rate in zip(("reject_rate_equal", "reject_rate_distinct"), rates.tolist()):
            se = math.sqrt(rate * (1 - rate) / config.trials)
            rows.append(ExperimentRow(
                "mmdtest", family.label(), n, "mmd2", sigma,
                stat, rate, se, config.trials, config.seed,
            ))
    return rows


def _uniform_distance_rows(config, family, n, stream) -> list[ExperimentRow]:
    return _moment_rows(config, distance_to_uniform_moments(family, n, config.trials, stream))


@dataclass(frozen=True)
class Experiment:
    rows: Callable  # rows of one (family, n) cell, given the cell's stream
    min_trials: int


EXPERIMENTS = {
    "tails": Experiment(_tails_rows, MIN_TRIALS),
    "pairwise": Experiment(_pairwise_rows, MIN_TRIALS),
    "anticoncentration": Experiment(_anticoncentration_rows, MIN_TRIALS),
    "observable": Experiment(_observable_rows, MIN_VARIANCE_TRIALS),
    "mmdtest": Experiment(_mmdtest_rows, 1),
    "uniform_distance": Experiment(_uniform_distance_rows, MIN_TRIALS),
}


def _cell_rows(cell) -> list[ExperimentRow]:
    """Rows of one (config, family index, n) cell; module level so it pickles.

    The one place a cell's stream is derived; the row builders draw from the
    stream they are given.
    """
    config, fam_idx, n = cell
    stream = RandomStream(config.seed).child(fam_idx).child(n).child(0)
    family = parse_family(config.families[fam_idx])
    return EXPERIMENTS[config.experiment].rows(config, family, n, stream)


def run_config(config: ExperimentConfig) -> list[ExperimentRow]:
    """Execute one experiment across the family x n grid.

    Every (family, n) cell is one task of a single lab._parallel_map call, so
    one worker pool serves the whole grid; a cell runs its chunks one after
    another on one worker. Rows come back in cell order, family-major.
    Streams fan out as seed -> family index -> n -> child(0) -> chunk (or
    mmdtest repetition), and every metric and bandwidth of a cell scores that
    one draw, so a row depends only on its (seed, family index, n, metric,
    sigma), never on the worker count.
    """
    cells = [(config, f, n) for f in range(len(config.families)) for n in config.n_values]
    return [row for rows in lab._parallel_map(_cell_rows, cells, config.workers) for row in rows]


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
    if not isinstance(record, dict):
        raise CliError(f"{path}: the top level must be a JSON object, not {type(record).__name__}")
    version = record.get("version", __version__)
    if version != __version__:
        raise CliError(f"{path}: written by bornlab {version}, not {__version__}; rows would differ")
    raw = record["configs"] if "configs" in record else [record["config"] if "config" in record else record]
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
    """Sample file: one bitstring per line, most-significant qubit first."""
    outcomes: list[int] = []
    n = None
    try:
        handle = open(path)
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
                if n > 64:
                    raise CliError(
                        f"{path}:{lineno}: parse error: {n}-bit outcomes exceed the 64-bit limit"
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
    """--seed, else $BORN_SEED, else 0; a seed is a non-negative integer."""
    if value is not None:
        if value < 0:
            raise CliError(f"--seed must be a non-negative integer, got {value}")
        return value
    env = os.environ.get("BORN_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        seed = -1
    if seed < 0:
        raise CliError(f"BORN_SEED must be a non-negative integer, got {env!r}")
    return seed


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: $BORN_SEED or 0)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers (default: all cores; results do not depend on this)",
    )
    parser.add_argument("--out", default=None, help="output CSV path")


def _add_count(parser: argparse.ArgumentParser, *flags: str, noun: str):
    """args.count, from flags or --paper-scale (10^5); giving both is a usage error."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(*flags, dest="count", type=int, default=DESK_TRIALS, help=f"{noun} per cell")
    group.add_argument("--paper-scale", dest="count", action="store_const", const=PAPER_TRIALS,
                       help=f"use 10^5 {noun}")


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
    _add_count(p_tails, "--trials", noun="trials")
    _add_common(p_tails)

    p_pair = sub.add_parser("pairwise", help="pairwise loss moments")
    p_pair.add_argument("--family", default="dirichlet")
    p_pair.add_argument("--metric", default="sd", help="comma list from sd,mmd2,l1,tvd")
    p_pair.add_argument("--sigma", default="1", help="comma list of bandwidths; 'n' scales with n")
    p_pair.add_argument("--n-min", type=int, default=2)
    p_pair.add_argument("--n-max", type=int, default=12)
    _add_count(p_pair, "--pairs", noun="pairs")
    _add_common(p_pair)

    p_fig = sub.add_parser("figures", help="preset experiment bundles, one <kind>.csv each")
    p_fig.add_argument("kinds", nargs="+", choices=FIGURE_KINDS, metavar="kind",
                       help=f"one or more of {', '.join(FIGURE_KINDS)}")
    _add_count(p_fig, "--pairs", "--trials", noun="pairs or trials")
    _add_common(p_fig)

    p_test = sub.add_parser("mmdtest", help="two-sample MMD^2 test on bitstring files")
    p_test.add_argument("xfile")
    p_test.add_argument("yfile")
    p_test.add_argument("--sigma", type=float, default=1.0)
    p_test.add_argument("--alpha", type=float, default=0.05)
    return parser


def figure_configs(kind: str, trials: int, seed: int, workers) -> list[ExperimentConfig]:
    common = dict(trials=trials, seed=seed, workers=workers)
    if kind == "fig2":
        return [
            ExperimentConfig(
                "tails", ("product",), n_min=4, n_max=12, n_step=4,
                y_grid=DEFAULT_Y_GRID, **common,
            )
        ]
    if kind == "fig4":
        families = ("dirichlet", "pareto:alpha=2")
        grid = tuple(float(y) for y in np.geomspace(0.01, 4.0, 12))
        return [
            ExperimentConfig("tails", families, n_min=8, n_max=12, n_step=2, y_grid=grid, **common),
            ExperimentConfig("anticoncentration", families, n_min=8, n_max=12, n_step=2, **common),
        ]
    pairwise = dict(families=FIGURE_FAMILIES, n_min=2, n_max=13, **common)
    if kind in ("fig5", "fig6"):
        return [ExperimentConfig("pairwise", metrics=("sd",), **pairwise)]
    if kind == "fig7":
        return [ExperimentConfig("pairwise", metrics=("mmd2",), sigmas=("1",), **pairwise)]
    if kind == "fig8":
        return [ExperimentConfig("pairwise", metrics=("mmd2",), sigmas=("n",), **pairwise)]
    if kind == "fig9":
        return [ExperimentConfig("pairwise", metrics=("l1", "tvd"), **pairwise)]
    raise CliError(f"unknown figure {kind!r}")


def _run_and_write(configs: list[ExperimentConfig], out: str) -> int:
    rows = [row for c in configs for row in run_config(c)]
    write_outputs(configs, rows, out)
    print(f"wrote {len(rows)} rows to {out}")
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
    for kind in args.kinds:
        out = args.out or f"{kind}.csv"
        configs = figure_configs(kind, args.count, seed, args.workers)
        _run_and_write([dataclasses.replace(c, out=out) for c in configs], out)
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
