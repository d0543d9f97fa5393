#!/usr/bin/env python3
"""Concentration classification table.

For each model family, fits ln(mean SD) vs n over a window and reports the
decay rate together with the anticoncentration statistics at the largest n:
the normalized second moment 2^{2n} E[p(x)^2] and Prob(p(x) >= 1/(2N)).
Families whose mean loss decays like 2^{-cn} while the second moment stays
O(1) are the concentrated-but-anticoncentrated cases.

The table runs two configs through bornlab.cli.run_config, a `pairwise` SD
config over n_min..n_max and an `anticoncentration` config at n_max, over
the same families and seed, so every number in it comes from the rows that
`bornlab run` writes for those configs.
"""

import argparse
import sys

import numpy as np

from bornlab.cli import ExperimentConfig, run_config

DEFAULT_FAMILIES = (
    "product",
    "iqp_product",
    "dirichlet",
    "pareto:alpha=2",
    "peaked:k=16",
    "iqp",
    "mps",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="*", default=list(DEFAULT_FAMILIES))
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    families = tuple(args.families)
    pairwise = ExperimentConfig("pairwise", families, n_min=args.n_min, n_max=args.n_max,
                                trials=args.pairs, seed=args.seed, metrics=("sd",))
    anti = ExperimentConfig("anticoncentration", families, n_min=args.n_max, n_max=args.n_max,
                            trials=args.trials, seed=args.seed)
    # rows come back family-major, so each family's means are one row of this
    means = np.array([r.value for r in run_config(pairwise) if r.statistic == "mean"])
    means = means.reshape(len(families), len(pairwise.n_values))
    anti_rows = run_config(anti)
    second = [r for r in anti_rows if r.statistic == "second_moment"]
    tail = [r for r in anti_rows if r.statistic == "tail@y=0.5"]

    header = f"{'family':<14} {'SD slope':>9} {'halving/n':>10} {'2^2n E[p^2]':>12} {'P[p>=1/2N]':>11}"
    print(header)
    print("-" * len(header))
    for family_means, m2, t in zip(means, second, tail):
        slope = np.polyfit(pairwise.n_values, np.log(family_means), 1)[0]
        print(f"{m2.family:<14} {slope:>9.3f} {slope / np.log(2):>10.3f} "
              f"{m2.value:>12.3f} {t.value:>11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
