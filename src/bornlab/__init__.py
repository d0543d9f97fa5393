"""bornlab: output-distribution statistics of quantum generative models.

Batched generators for product, pseudo-independent (Dirichlet/Pareto),
peaked, IQP and MPS distribution families; batched loss metrics (squared
distance, MMD^2, 1-norm, total variation) and the two-sample MMD^2 test; and
the Monte Carlo machinery for tail curves, pairwise-loss moments and
anticoncentration statistics, run from the `bornlab` command line (cli).
"""

__version__ = "0.12.0"
