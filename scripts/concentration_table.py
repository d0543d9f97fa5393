#!/usr/bin/env python3
"""Concentration classification table.

For each model family, fits ln(mean SD) vs n over a window and reports the
decay rate together with the anticoncentration statistics at the largest n:
the normalized second moment 2^{2n} E[p(x)^2] and Prob(p(x) >= 1/(2N)).
Families whose mean loss decays like 2^{-cn} while the second moment stays
O(1) are the concentrated-but-anticoncentrated cases.
"""

import argparse
import sys

import numpy as np

from bornlab.bitmath import RandomStream
from bornlab.cli import parse_family
from bornlab.lab import anticoncentration_statistic, pairwise_loss_moments

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

    ns = np.arange(args.n_min, args.n_max + 1)
    root = RandomStream(args.seed)
    header = f"{'family':<14} {'SD slope':>9} {'halving/n':>10} {'2^2n E[p^2]':>12} {'P[p>=1/2N]':>11}"
    print(header)
    print("-" * len(header))
    for idx, token in enumerate(args.families):
        family = parse_family(token)
        means = []
        for n in ns:
            report = pairwise_loss_moments(
                family, int(n), [("sd", None)], args.pairs, root.child(idx).child(int(n))
            )[0]
            means.append(report.mean)
        slope = np.polyfit(ns, np.log(means), 1)[0]
        anti = anticoncentration_statistic(
            family, int(args.n_max), args.trials, root.child(idx).child(0),
        )
        print(f"{family.label():<14} {slope:>9.3f} {slope / np.log(2):>10.3f} "
              f"{anti.second_moment_statistic:>12.3f} {anti.tail_at_half:>11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
