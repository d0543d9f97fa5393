"""The benchmark's workloads, each shaped like one of the paper's figure runs.

A workload is a list of `bornlab run` config records plus, for `sample_mmd`,
a two-sample file test through `bornlab mmdtest`. The seed and the worker
count are filled in by `configs()`; everything else is fixed here, so the
program under test never sees a benchmark-specific setting. The reasons for
each choice are recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# cli.FIGURE_FAMILIES at the commit that defined the benchmark, spelled out so
# that a later change to the preset does not silently change the workload
FIGURE_FAMILIES = ("iqp_product", "mps", "iqp", "pareto:alpha=2", "peaked_iqp")


@dataclass(frozen=True)
class FileTest:
    """`bornlab mmdtest` on two bitstring files drawn from IQP instances."""

    n: int = 16
    samples: int = 4000
    sigma: float = 1.0
    alpha: float = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    experiments: tuple[dict, ...]
    file_test: FileTest | None = None

    def configs(self, seed: int, tiny: bool = False, trials_scale: int = 1) -> list[dict]:
        """Config records for `bornlab run --config`.

        tiny keeps the first two n values of each experiment (smoke tests);
        trials_scale multiplies the trial counts (reference capture).
        """
        out = []
        for record in self.experiments:
            config = dict(record, seed=seed, workers=self.workers)
            config["trials"] = record["trials"] * trials_scale
            if tiny:
                step = record.get("n_step", 1)
                config["n_max"] = min(record["n_max"], record["n_min"] + step)
            out.append(config)
        return out


def _experiment(kind, families, n_min, n_max, trials, n_step=1, **extra) -> dict:
    return dict(
        experiment=kind,
        families=list(families),
        n_min=n_min,
        n_max=n_max,
        n_step=n_step,
        trials=trials,
        **extra,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_figure",
            workers=1,
            experiments=(
                _experiment("pairwise", FIGURE_FAMILIES, 2, 12, 100, metrics=["sd"]),
            ),
        ),
        Workload(
            "metric_bundle",
            workers=1,
            experiments=(
                _experiment(
                    "pairwise",
                    ("iqp_product", "pareto:alpha=2", "peaked_iqp", "dirichlet"),
                    6, 14, 100, n_step=2,
                    metrics=["sd", "mmd2", "l1", "tvd"],
                    sigmas=["1", "n"],
                ),
            ),
        ),
        Workload(
            "tails_fanout",
            workers=2,
            experiments=(
                # 2^17 trials = two 2^16-instance chunks per cell, so every
                # closed-form cell goes through a two-worker Pool
                _experiment(
                    "tails", ("product", "iqp_product", "dirichlet", "peaked"),
                    4, 24, 1 << 17, n_step=2,
                ),
                _experiment(
                    "anticoncentration", ("dirichlet", "pareto:alpha=2", "peaked_iqp"),
                    6, 12, 2048,
                ),
            ),
        ),
        Workload(
            "sample_mmd",
            workers=1,
            experiments=(
                _experiment(
                    "mmdtest", ("iqp", "dirichlet", "peaked_iqp"), 6, 12, 4, n_step=3,
                    sigmas=["1", "n"], samples=500,
                ),
            ),
            file_test=FileTest(),
        ),
    )
}
