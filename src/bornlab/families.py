"""Distribution families: the product vectors and the underlying laws.

Three analytic families over n-bit outcomes:

* product: p_a(x) = prod_i (a_i if x_i = 0 else 1 - a_i) with a in [0,1]^n,
  instances drawn with a uniform;
* pseudo-independent: p(x) = Y_x / sum_j Y_j for N iid positive draws Y_j.
  With Gamma(alpha, 1) draws the vector is symmetric Dirichlet(alpha) and
  the alpha = 1 marginal is Beta(1, N-1); a shifted Pareto underlying law
  (density alpha/(1+y)^(alpha+1) on [0, inf)) gives the heavy-tailed
  variant. The Gamma shape is positive and the Pareto alpha above 1, both
  finite; a parameter whose draws all underflow to 0 fails in lab with a
  domain error after lab.MAX_REDRAW_ROUNDS redraws;
* peaked: a pseudo-independent K-vector of masses scattered onto a uniformly
  random K-subset of the 2^n outcomes, zero elsewhere.

This module keeps the batched product-family vectors, the product sampler
and the underlying laws of the pseudo-independent and peaked constructions.
The batched generator of every family kind is in lab.FAMILIES, whose entry
also names the law a kind draws from and the parameters it reads. The
closed-form tails and moment bounds these families satisfy are test oracles
(tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmath import SampleSet, as_generator


# ---------------------------------------------------------------------------
# underlying positive laws for the pseudo-independent construction


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape, rate 1), shape positive and finite. shape = 1 is the
    exponential / Dirichlet-1 case."""

    shape: float

    def __post_init__(self):
        if not 0.0 < self.shape < math.inf:
            raise ValueError(f"Gamma shape must be positive and finite, got {self.shape}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.gamma(self.shape, 1.0, size)


@dataclass(frozen=True)
class ParetoLaw:
    """Shifted Pareto with density alpha / (1 + y)^(alpha + 1) on [0, inf),
    alpha finite and above 1.

    Mean exists for alpha > 1, variance only for alpha > 2; at alpha = 2 the
    variance is infinite, which is exactly the regime used to break the
    approximate-independence assumption.
    """

    alpha: float

    def __post_init__(self):
        if not 1.0 < self.alpha < math.inf:
            raise ValueError(f"Pareto alpha must exceed 1 and be finite, got {self.alpha}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # inverse CDF of the survival (1 + y)^(-alpha)
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.alpha) - 1.0


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class ProductParams:
    """Bias vector a of a product distribution; p(x_i = 0) = a_i."""

    a: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(v) for v in np.atleast_1d(np.asarray(self.a, dtype=float)))
        if not a:
            raise ValueError("a must be non-empty")
        if any(not 0.0 <= v <= 1.0 for v in a):
            raise ValueError("product weights must lie in [0, 1]")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.a)


# ---------------------------------------------------------------------------
# generators


def product_prob_values(a: np.ndarray) -> np.ndarray:
    """Batched product vectors: (B, n) weights -> (B, 2^n) masses."""
    a = np.asarray(a, dtype=float)
    B, n = a.shape
    p = np.ones((B, 1))
    for i in range(n):
        ai = a[:, i : i + 1]
        # appending qubit i as the new high bit keeps qubit 1 at the LSB
        p = np.concatenate([p * ai, p * (1.0 - ai)], axis=1)
    return p


def sample_product(params: ProductParams, stream, count: int) -> SampleSet:
    """Draw outcomes bit by bit; bit i is Bernoulli(1 - a_i)."""
    rng = as_generator(stream)
    a = np.asarray(params.a, dtype=float)
    bits = rng.random((count, params.n)) >= a  # True -> x_i = 1
    weights = (1 << np.arange(params.n, dtype=np.uint64))
    outcomes = (bits.astype(np.uint64) * weights).sum(axis=1)
    return SampleSet(params.n, outcomes)
