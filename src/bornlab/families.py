"""Distribution families and their closed-form statistics.

Three analytic families over n-bit outcomes:

* product: p_a(x) = prod_i (a_i if x_i = 0 else 1 - a_i) with a in [0,1]^n,
  instances drawn with a uniform;
* pseudo-independent: p(x) = Y_x / sum_j Y_j for N iid positive draws Y_j.
  With Gamma(alpha, 1) draws the vector is symmetric Dirichlet(alpha) and
  the alpha = 1 marginal is Beta(1, N-1); a shifted Pareto underlying law
  (density alpha/(1+y)^(alpha+1) on [0, inf)) gives the heavy-tailed
  variant;
* peaked: a pseudo-independent K-vector of masses scattered onto a uniformly
  random K-subset of the 2^n outcomes, zero elsewhere.

This module keeps the product-family vectors and sampler and the
underlying laws of the pseudo-independent and peaked constructions. The
batched generator of every family kind is in lab.FAMILIES, whose entry also
names the law a kind draws from and the parameters it reads. Alongside them
live the tail formulas and moment bounds these families satisfy: product
marginal density and its incomplete-gamma tail, the Chernoff-style tail
bound, the anticoncentration lower bound for normalized iid vectors,
Beta/Porter-Thomas survival, the peaked tail bound, the Gini coefficient
estimator, and the hypergeometric support-overlap moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bitmath import ProbVector, SampleSet, as_generator, validate_prob_vector


# ---------------------------------------------------------------------------
# underlying positive laws for the pseudo-independent construction


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape, rate 1). shape = 1 is the exponential / Dirichlet-1 case."""

    shape: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"Gamma shape must be positive, got {self.shape}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.gamma(self.shape, 1.0, size)

    @property
    def mean(self) -> float:
        return self.shape

    @property
    def variance(self) -> float:
        return self.shape

    @property
    def second_moment(self) -> float:
        return self.shape * (self.shape + 1.0)


@dataclass(frozen=True)
class ParetoLaw:
    """Shifted Pareto with density alpha / (1 + y)^(alpha + 1) on [0, inf).

    Mean exists for alpha > 1, variance only for alpha > 2; at alpha = 2 the
    variance is infinite, which is exactly the regime used to break the
    approximate-independence assumption.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 1:
            raise ValueError(f"Pareto alpha must exceed 1, got {self.alpha}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        # inverse CDF of the survival (1 + y)^(-alpha)
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / self.alpha) - 1.0

    @property
    def mean(self) -> float:
        return 1.0 / (self.alpha - 1.0)

    @property
    def variance(self) -> float:
        if self.alpha <= 2.0:
            return math.inf
        return self.alpha / ((self.alpha - 1.0) ** 2 * (self.alpha - 2.0))

    @property
    def second_moment(self) -> float:
        if self.alpha <= 2.0:
            return math.inf
        return 2.0 / ((self.alpha - 1.0) * (self.alpha - 2.0))


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


def product_prob_vector(params: ProductParams) -> ProbVector:
    """Dense vector of the product distribution, qubit 1 = LSB of the index."""
    values = product_prob_values(np.asarray(params.a, dtype=float)[None, :])[0]
    return validate_prob_vector(values, params.n)


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


def random_product_instance(n: int, stream) -> ProductParams:
    """a_i iid uniform on [0, 1]."""
    rng = as_generator(stream)
    return ProductParams(tuple(rng.random(n)))


def sample_product(params: ProductParams, stream, count: int) -> SampleSet:
    """Draw outcomes bit by bit; bit i is Bernoulli(1 - a_i)."""
    rng = as_generator(stream)
    a = np.asarray(params.a, dtype=float)
    bits = rng.random((count, params.n)) >= a  # True -> x_i = 1
    weights = (1 << np.arange(params.n, dtype=np.uint64))
    outcomes = (bits.astype(np.uint64) * weights).sum(axis=1)
    return SampleSet(params.n, outcomes)


# ---------------------------------------------------------------------------
# closed forms


def product_marginal_density(n: int, y: float) -> float:
    """Density of p(x) at a fixed outcome under random product weights.

    For a uniform weight vector the single-outcome mass is a product of n
    uniforms, whose density is ln(1/y)^(n-1) / (n-1)! on (0, 1].
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < y <= 1.0:
        raise ValueError(f"domain error: y must be in (0, 1], got {y}")
    # log-space to survive n ln ln(1/y) overflow territory
    if y == 1.0:
        return 1.0 if n == 1 else 0.0
    t = math.log(1.0 / y)
    return math.exp((n - 1) * math.log(t) - math.lgamma(n))


def product_tail_exact(n: int, y: float) -> float:
    """Prob(p(x) >= y 2^-n) for the product family, exactly.

    The mass at a fixed outcome is a product of n uniforms, so minus its log
    is Gamma(n, 1) and the tail is the regularized lower incomplete gamma
    gamma(n, n ln 2 - ln y) / Gamma(n). Decreases from 1 to 0 as y runs from
    0 to 2^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < y <= float(2**n):
        raise ValueError(f"domain error: y must be in (0, 2^{n}], got {y}")
    lam = n * math.log(2.0) - math.log(y)
    return float(special.gammainc(n, lam))


def product_tail_chernoff_bound(n: int, y: float) -> float:
    """Chernoff upper bound on product_tail_exact.

    The exact expression ((n ln 2 - ln y)/n)^n exp(n - n ln 2 + ln y) bounds
    the lower Gamma tail only below the mean (lam <= n); past that point the
    expression dips under the true tail, so the trivial bound 1 is returned
    to keep bound >= exact everywhere on the domain.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < y <= float(2**n):
        raise ValueError(f"domain error: y must be in (0, 2^{n}], got {y}")
    lam = n * math.log(2.0) - math.log(y)
    if lam <= 0.0:
        return 0.0
    if lam >= n:
        return 1.0
    return math.exp(n * math.log(lam / n) + n - lam)


def pseudo_indep_anticoncentration_bound(
    alpha: float, k: float, mu: float, sigma: float, N: float
) -> float:
    """Lower bound on Prob(p(x) >= alpha/N) for normalized iid vectors.

    Returns (1 - alpha(1 + 1/k))^2 (1 - sigma^2 k^2 / (N mu^2)) mu^2/sigma^2.
    Informative only while alpha(1 + 1/k) <= 1 and the deviation factor stays
    positive; the value is returned as-is so callers can see it go vacuous.
    N may be math.inf to read off the dimension-free limit.
    """
    if sigma <= 0:
        raise ValueError("domain error: sigma must be positive")
    if k <= 0:
        raise ValueError("domain error: k must be positive")
    prefactor = 1.0 - alpha * (1.0 + 1.0 / k)
    deviation = 1.0 - (sigma**2 * k**2) / (N * mu**2)
    return prefactor**2 * deviation * mu**2 / sigma**2


def porter_thomas_survival(N: int, y: float, form: str = "exact") -> float:
    """Survival Prob(p(x) >= y) of a Dirichlet(1) marginal.

    form selects the expression:
      "exact"        Beta(1, N-1) survival (1 - y)^(N-1)
      "exponential"  the N -> inf Porter-Thomas approximation exp(-N y)
      "power"        the cruder power-form approximation (1 - y)^N
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"domain error: y must be in [0, 1], got {y}")
    if N < 1:
        raise ValueError("N must be at least 1")
    if form == "exact":
        return (1.0 - y) ** (N - 1)
    if form == "exponential":
        return math.exp(-N * y)
    if form == "power":
        return (1.0 - y) ** N
    raise ValueError(f"unknown form {form!r}")


def peaked_tail_bound(n: int, k: int) -> float:
    """Prob(p(x) >= y 2^-n) <= K/2^n for any y: mass misses the support."""
    if k > (1 << n):
        raise ValueError(f"domain error: support {k} exceeds 2^{n}")
    return k / float(1 << n)


def gini_coefficient(underlying, stream, trials: int) -> tuple[float, float]:
    """Monte Carlo estimate of E|Y - Y'| / (2 E[Y]) with its standard error.

    Draws `trials` independent pairs; the ratio-of-means estimator gets a
    delta-method standard error from the per-pair (|Y-Y'|, (Y+Y')/2)
    covariance.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    rng = as_generator(stream)
    y1 = underlying.sample(rng, trials)
    y2 = underlying.sample(rng, trials)
    absdiff = np.abs(y1 - y2)
    pairmean = 0.5 * (y1 + y2)
    A = float(absdiff.mean())
    M = float(pairmean.mean())
    if M == 0.0:
        return 0.0, 0.0
    g = A / (2.0 * M)
    cov = np.cov(absdiff, pairmean)
    var_g = (
        cov[0, 0] / (2.0 * M) ** 2
        - 2.0 * cov[0, 1] * A / (4.0 * M**3)
        + cov[1, 1] * A**2 / (4.0 * M**4)
    ) / trials
    return g, math.sqrt(max(var_g, 0.0))


def hypergeometric_overlap_moments(N: int, K: int) -> tuple[float, float]:
    """Mean and variance of |S ∩ T| for independent uniform K-subsets of [N].

    Mean K^2/N; variance (K^2/N) ((N-K)/N) ((N-K)/(N-1)).
    """
    if K > N:
        raise ValueError(f"domain error: K={K} exceeds N={N}")
    mean = K * K / N
    if K == N or N == 1:
        return mean, 0.0
    var = mean * ((N - K) / N) * ((N - K) / (N - 1))
    return mean, var
