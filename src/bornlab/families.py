"""Distribution families: the product vectors and the underlying laws.

Three analytic families over n-bit outcomes:

* product: p_a(x) = prod_i (a_i if x_i = 0 else 1 - a_i) with a in [0,1]^n,
  instances drawn with a uniform;
* pseudo-independent: p(x) = Y_x / sum_j Y_j for N iid positive draws Y_j.
  With Gamma(alpha, 1) draws the vector is symmetric Dirichlet(alpha) and
  the alpha = 1 marginal is Beta(1, N-1); a shifted Pareto underlying law
  (density alpha/(1+y)^(alpha+1) on [0, inf)) gives the heavy-tailed
  variant. The laws refuse a Gamma shape below 1/1074 and a Pareto alpha
  above 2^53 ln 2 = 6.2e15, past which half the float64 draws are 0.0 (a
  Gamma(a) draw is below 2^-1074 with probability about 2^(-1074 a), and
  (1 - u)^(-1/alpha) rounds to 1 when -ln(1 - u) < alpha 2^-53);
* peaked: a pseudo-independent K-vector of masses scattered onto a uniformly
  random K-subset of the 2^n outcomes, zero elsewhere.

This module keeps the batched product-family vectors and the underlying laws
of the pseudo-independent and peaked constructions.
The batched generator of every family kind is in lab.FAMILIES, whose entry
also names the law a kind draws from and the parameters it reads. The
closed-form tails and moment bounds these families satisfy are test oracles
(tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# underlying positive laws for the pseudo-independent construction


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape, rate 1), shape finite and at least 1/1074. shape = 1 is
    the exponential / Dirichlet-1 case."""

    shape: float

    def __post_init__(self):
        if not 0.0 < self.shape < math.inf:
            raise ValueError(f"Gamma shape must be positive and finite, got {self.shape}")
        if self.shape < 1 / 1074:
            raise ValueError(f"Gamma shape must be at least 1/1074 (most draws 0.0), got {self.shape}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # at shape 1 numpy's standard_gamma returns its exponential ziggurat
        # draw, which standard_exponential makes without the shape dispatch
        # (about 8 % faster): the same values, bit for bit
        if self.shape == 1.0:
            return rng.standard_exponential(size)
        return rng.standard_gamma(self.shape, size)


@dataclass(frozen=True)
class ParetoLaw:
    """Shifted Pareto with density alpha / (1 + y)^(alpha + 1) on [0, inf),
    alpha above 1 and at most 2^53 ln 2.

    Mean exists for alpha > 1, variance only for alpha > 2; at alpha = 2 the
    variance is infinite, which is exactly the regime used to break the
    approximate-independence assumption.
    """

    alpha: float

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError(f"Pareto alpha must exceed 1 and be finite, got {self.alpha}")
        if self.alpha > 2.0**53 * math.log(2):
            raise ValueError(f"Pareto alpha must be at most 6.2e15 (most draws 0.0), got {self.alpha}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # inverse CDF of the survival (1 + y)^(-alpha), in place on the draw
        u = rng.random(size)
        np.subtract(1.0, u, out=u)
        if self.alpha == 2.0:  # the figures' law: sqrt and reciprocal cost about 60 % of pow
            np.sqrt(u, out=u)
            np.reciprocal(u, out=u)
        else:
            u **= -1.0 / self.alpha
        u -= 1.0
        return u


# ---------------------------------------------------------------------------
# generators


def product_prob_values(a: np.ndarray) -> np.ndarray:
    """Batched product vectors: (B, n) weights -> (B, 2^n) masses."""
    a = np.asarray(a, dtype=float)
    B, n = a.shape
    p = np.empty((B, 1 << n))
    p[:, 0] = 1.0
    for i in range(n):
        h, ai = 1 << i, a[:, i : i + 1]
        # columns [h, 2h) have bit i set (weight 1 - a_i), [0, h) clear (a_i): qubit 1 is the LSB
        np.multiply(p[:, :h], 1.0 - ai, out=p[:, h : 2 * h])
        p[:, :h] *= ai
    return p
