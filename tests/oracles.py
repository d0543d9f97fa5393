"""Reference routes the tests check the production code against.

None of these is on a path that `bornlab.cli.main` takes: single-instance
state vectors and probabilities, pairwise metrics of two distributions, the
kernel double sum, the closed-form tails and moment bounds that the
families satisfy, the perfect samplers of single product and MPS
instances, the two-sample test's repetitions one at a time and its
estimates from unsorted sample sets, and the out-of-place dense draws. They
sit beside the tests so that src/bornlab holds only the production path,
and so the command line never imports scipy.

The samplers draw exactly from |psi|^2 without forming it (Ferris & Vidal,
PRB 85, 165146, 2012). A product instance draws its bits independently. A
random MPS is brought to left-canonical form by a QR sweep; dropping the
final 1x1 factor normalizes it exactly. With left-canonical tensors the
accumulated left environment is the identity, so suffix marginals are exact
inner products and sampling walks site n -> 1 drawing each bit from its
exact conditional given the bits already fixed. One sample costs
O(n chi^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from bornlab.bitmath import (
    MAX_DENSE_QUBITS,
    ProbVector,
    RandomStream,
    SampleSet,
    SubsetMask,
    check_statevector_cap,
    fwht,
    validate_prob_vector,
)
from bornlab.circuits import _phase_planes, all_weight_le2_masks, sample_prob_vector
from bornlab.families import product_prob_values
from bornlab.lab import _chunk, _mmdtest_rep_bytes, instance_prob_values
from bornlab.metrics import (KernelSpec, bandwidth_kernel, fourier_weights, mmd2_unbiased, mmd2_unbiased_pairs,
                             mmd_test_threshold)
from bornlab.mps import _amplitudes, _gaussian_tensors, bond_dims


# ---------------------------------------------------------------------------
# bit strings, raw generators, and the kernel double sum's cap (from bitmath)


def as_generator(stream) -> np.random.Generator:
    """Accept either a RandomStream or a raw numpy Generator."""
    if isinstance(stream, RandomStream):
        return stream.generator
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(stream)!r}")


# the MMD^2 kernel double sum is O(4^n); past this, use the Fourier form
MAX_KERNEL_SUM_QUBITS = 13


@dataclass(frozen=True)
class BitString:
    """An n-bit outcome stored as an unsigned integer.

    bits is the outcome index; bit (i-1) of it is the value of qubit i.
    """

    bits: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_QUBITS:
            raise ValueError(f"n must be in [1, {MAX_DENSE_QUBITS}], got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits} out of range for n={self.n}")

    def bit(self, i: int) -> int:
        """Value of qubit i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"qubit index {i} out of range for n={self.n}")
        return (self.bits >> (i - 1)) & 1


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where x and y differ."""
    if x.n != y.n:
        raise ValueError(f"dimension error: n mismatch {x.n} != {y.n}")
    return (x.bits ^ y.bits).bit_count()


def fourier_character(S: SubsetMask, x: BitString) -> int:
    """chi_S(x) = (-1)^(sum of x_i over i in S), either +1 or -1."""
    if S.n != x.n:
        raise ValueError(f"dimension error: n mismatch {S.n} != {x.n}")
    return -1 if (S.mask & x.bits).bit_count() & 1 else 1


def bitstrings(samples: SampleSet) -> list[str]:
    """Render a sample set's outcomes as 0/1 lines, most significant qubit first,
    as `bornlab mmdtest` reads them."""
    return [format(int(x), f"0{samples.n}b") for x in samples.outcomes]


# ---------------------------------------------------------------------------
# product instances, their sampler, and the closed forms the families satisfy
# (from families)


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


def sample_product(params: ProductParams, stream, count: int) -> SampleSet:
    """Draw outcomes bit by bit; bit i is Bernoulli(1 - a_i)."""
    rng = as_generator(stream)
    a = np.asarray(params.a, dtype=float)
    bits = rng.random((count, params.n)) >= a  # True -> x_i = 1
    weights = (1 << np.arange(params.n, dtype=np.uint64))
    outcomes = (bits.astype(np.uint64) * weights).sum(axis=1)
    return SampleSet(params.n, outcomes)


def product_prob_vector(params: ProductParams) -> ProbVector:
    """Dense vector of the product distribution, qubit 1 = LSB of the index."""
    values = product_prob_values(np.asarray(params.a, dtype=float)[None, :])[0]
    return validate_prob_vector(values, params.n)


def random_product_instance(n: int, stream) -> ProductParams:
    """a_i iid uniform on [0, 1]."""
    rng = as_generator(stream)
    return ProductParams(tuple(rng.random(n)))


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


# Exact moments of the weight-<=2 IQP ensemble (Bremner, Montanaro and
# Shepherd, Quantum 1, 8, 2017), with N = 2^n. Averaged over the uniform gate
# angles, a quadruple (z1, z2, z3, z4) survives only where every gate sees
# chi(z1) + chi(z3) = chi(z2) + chi(z4): the weight-1 gates force
# {z2_i, z4_i} = {z1_i, z3_i} on every qubit, and the weight-2 gates make the
# same choice on every qubit where z1 and z3 differ. So (z2, z4) is (z1, z3)
# or (z3, z1), and E[p(x) p(y)] = (N - 1)/N^3 + [x = y]/N^2. The weight-2
# gates turn the product law's 2^{2n} E[p(x)^2] = (4/3)^n into 2 - 1/N.


def iqp_second_moment(n: int) -> float:
    """2^{2n} E[p(x)^2] of an iqp instance: 2 - 1/N (Porter-Thomas: 2)."""
    return 2.0 - 2.0**-n


def iqp_sd_mean(n: int) -> float:
    """Mean squared distance between two iqp instances: 2(N - 1)/N^2."""
    N = 2.0**n
    return 2.0 * (N - 1.0) / N**2


def iqp_mmd2_mean(n: int, rho: float) -> float:
    """Mean MMD^2 between two iqp instances under the kernel rho^{d_H}:
    (2/N)(1 - ((1 + rho)/2)^n), since the kernel sums to N (1 + rho)^n."""
    return 2.0 * 2.0**-n * (1.0 - ((1.0 + rho) / 2.0) ** n)


def iqp_uniform_distance_mean(n: int) -> float:
    """Mean squared distance of an iqp instance to the uniform law: (N - 1)/N^2."""
    N = 2.0**n
    return (N - 1.0) / N**2


def iqp_observable_variance(n: int) -> float:
    """Across-instance variance of <Z_S> for every S != {}: 1/N."""
    return 2.0**-n


def peaked_iqp_sd_mean(n: int, K: int) -> float:
    """Mean squared distance between two peaked_iqp instances: 2e - 2/N,
    where e = (2K - 1)/K^2 is E||p||^2 of a log2(K)-qubit iqp instance."""
    return 2.0 * (2 * K - 1) / K**2 - 2.0 * 2.0**-n


def peaked_iqp_mmd2_mean(n: int, K: int, rho: float) -> float:
    """Mean MMD^2 between two peaked_iqp instances under the kernel rho^{d_H}:
    2(e + (1 - e)c) - 2(1 + rho)^n/N. An instance's K positions are distinct
    and uniform, so <p, p> is ||p||^2, of mean e, plus 1 - ||p||^2 of mass on
    pairs of distinct outcomes, whose mean kernel is c = ((1 + rho)^n - 1)/(N - 1);
    two instances are independent with E p(x) = 1/N, so E<p, q> = (1 + rho)^n/N."""
    N = 2.0**n
    e = (2 * K - 1) / K**2
    c = ((1.0 + rho) ** n - 1.0) / (N - 1.0)
    return 2.0 * (e + (1.0 - e) * c) - 2.0 * (1.0 + rho) ** n / N


def peaked_iqp_second_moment(n: int, K: int) -> float:
    """2^{2n} E[p(x)^2] of a peaked_iqp instance: x lies in the support with
    probability K/N, and there E[p^2] = (2K - 1)/K^3, so N(2K - 1)/K^2."""
    return 2.0**n * (2 * K - 1) / K**2


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


# ---------------------------------------------------------------------------
# the earlier draws that lab, families, circuits and mps now compute in
# place or in O(K)


def scatter_rows_by_ranked_keys(values: np.ndarray, N: int, rng: np.random.Generator) -> np.ndarray:
    """Each row of masses on the K smallest of N iid uniform keys (every shape)."""
    B, K = values.shape
    out = np.zeros((B, N))
    if K == N:
        return values.copy()
    keys = rng.random((B, N))
    idx = np.argpartition(keys, K, axis=1)[:, :K]
    np.put_along_axis(out, idx, values, axis=1)
    return out


def iqp_product_weights(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """cos^2(theta/2) at theta = 2 arccos(sqrt(u)), one temporary a step."""
    theta = 2.0 * np.arccos(np.sqrt(rng.random((count, n))))
    return np.cos(theta / 2.0) ** 2


def iqp_prob_values_out_of_place(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """circuits.iqp_prob_values with the planes transformed into a copy and
    each squared into a temporary of its own, p = re * re + im * im."""
    masks = all_weight_le2_masks(n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, (batch, masks.size))
    re, im = fwht(_phase_planes(masks, thetas, n))
    p = re * re + im * im
    return p / p.sum(axis=1, keepdims=True)


def mps_prob_values_out_of_place(n: int, chi: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """mps.mps_prob_values with |psi|^2 taken into a temporary of its own."""
    p = np.abs(_amplitudes(_gaussian_tensors(n, chi, batch, rng))) ** 2
    return p / p.sum(axis=1, keepdims=True)


def pareto_sample(alpha: float, rng: np.random.Generator, size) -> np.ndarray:
    """Shifted Pareto draws by the inverse survival, one temporary a step;
    at alpha = 2, (1 - u)^(-1/2) is 1/sqrt(1 - u)."""
    u = rng.random(size)
    if alpha == 2.0:
        return 1.0 / np.sqrt(1.0 - u) - 1.0
    return (1.0 - u) ** (-1.0 / alpha) - 1.0


def pareto_mass_one_array(law, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """p(x*) of `count` Pareto instances, the other 2^n - 1 draws of each
    taken as one (count, 2^n - 1) array and summed by rows."""
    N = 1 << n
    first = law.sample(rng, count)
    rest = law.sample(rng, (count, N - 1)).sum(axis=1) if N > 1 else 0.0
    return first / (first + rest)


def normalized_rows(draws: np.ndarray) -> np.ndarray:
    """Rows divided by their totals into a new array."""
    return draws / draws.sum(axis=1)[:, None]


def gaussian_tensors_by_site(n: int, chi: int, batch: tuple, rng: np.random.Generator) -> list[np.ndarray]:
    """The 0.7.0 MPS site tensors: a real and an imaginary draw a site, joined as a + 1j b."""
    dims = bond_dims(n, chi)
    shapes = [batch + (dims[i], 2, dims[i + 1]) for i in range(n)]
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


# ---------------------------------------------------------------------------
# single IQP circuits and their state vectors (from circuits)


def _phases(masks: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """phi(z) = sum_g thetas[..., g] chi_{S_g}(z) for all 2^n basis states z.

    Built in blocks of 2^12 outcomes, so the (G, 2^n) character table and
    its uint64 temporary never exist whole.
    """
    N, block = 1 << n, 1 << 12
    phase = np.empty(thetas.shape[:-1] + (N,))
    for start in range(0, N, block):
        z = np.arange(start, min(N, start + block), dtype=np.uint64)
        chi = 1.0 - 2.0 * (np.bitwise_count(masks[:, None] & z[None, :]) % 2)
        phase[..., start : start + z.size] = thetas @ chi
    return phase


@dataclass(frozen=True)
class IqpCircuit:
    """Diagonal-gate list over n qubits; each gate is (subset mask, angle)."""

    n: int
    gates: tuple[tuple[int, float], ...]

    def __post_init__(self):
        gates = []
        for mask, theta in self.gates:
            mask = int(mask)
            if mask == 0:
                raise ValueError("gate mask must be non-empty")
            if mask >= (1 << self.n):
                raise ValueError(f"gate mask {mask} out of range for n={self.n}")
            if mask.bit_count() > 2:
                raise ValueError("gate weight above 2 is not supported")
            gates.append((mask, float(theta)))
        object.__setattr__(self, "gates", tuple(gates))


def random_iqp_circuit(n: int, stream) -> IqpCircuit:
    """All-to-all weight-<=2 gate set with iid uniform angles on [0, 2pi)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = as_generator(stream)
    masks = all_weight_le2_masks(n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, masks.size)
    return IqpCircuit(n, tuple((int(m), float(t)) for m, t in zip(masks, thetas)))


def iqp_state_vector(circuit: IqpCircuit) -> np.ndarray:
    """Amplitudes of H^n D(theta) H^n |0>, computed as FWHT(e^{i phi}) / 2^n."""
    check_statevector_cap(circuit.n)
    masks = np.asarray([m for m, _ in circuit.gates], dtype=np.uint64)
    thetas = np.asarray([t for _, t in circuit.gates], dtype=float)
    phase = _phases(masks, thetas, circuit.n)  # zeros when there are no gates
    return fwht(np.exp(1j * phase)) / (1 << circuit.n)


def iqp_prob_vector(circuit: IqpCircuit) -> ProbVector:
    """Output distribution of an IQP circuit (statevector route, n <= 16)."""
    p = np.abs(iqp_state_vector(circuit)) ** 2
    return validate_prob_vector(p / p.sum(), circuit.n)


def diagonal_pauli_expectation(p: ProbVector, S: SubsetMask) -> float:
    """<Z_S> = sum_x chi_S(x) p(x), the S-th Fourier character of p."""
    if S.n != p.n:
        raise ValueError(f"dimension error: n mismatch {S.n} != {p.n}")
    x = np.arange(1 << p.n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(S.mask)) % 2)
    return float(signs @ p.values)


# ---------------------------------------------------------------------------
# single MPS states: canonical form and perfect sampling, and contraction
# outcome by outcome or by one left-to-right sweep (from mps)


@dataclass(frozen=True, eq=False)
class MpsState:
    """Left-canonical matrix product state."""

    n: int
    chi: int
    tensors: tuple[np.ndarray, ...]
    canonical: bool = False

    def __post_init__(self):
        if len(self.tensors) != self.n:
            raise ValueError(f"expected {self.n} site tensors")
        left = 1
        for i, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise ValueError(f"site {i + 1} tensor must be (left, 2, right)")
            if t.shape[0] != left:
                raise ValueError(f"site {i + 1} left dimension mismatch")
            left = t.shape[2]
        if left != 1:
            raise ValueError("right boundary dimension must be 1")

    @property
    def bond_dimensions(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tensors[:-1])


def random_mps(n: int, chi: int, stream) -> MpsState:
    """Random state: iid complex Gaussian tensors, left-canonicalized."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if chi < 1:
        raise ValueError("bond dimension must be at least 1")
    drawn = _gaussian_tensors(n, chi, 1, as_generator(stream))  # batch 1: the same normals
    tensors = _left_canonicalize([t[0] for t in drawn])
    return MpsState(n=n, chi=chi, tensors=tuple(tensors), canonical=True)


def _left_canonicalize(tensors: list[np.ndarray]) -> list[np.ndarray]:
    """QR sweep absorbing the upper factor rightward; drops the final scalar.

    The capped dimensions guarantee right <= 2 * left at every site, so the
    reduced QR never shrinks a bond and all shapes are preserved.
    """
    out = list(tensors)
    carry = None
    for i, t in enumerate(out):
        if carry is not None:
            t = np.einsum("kd,dse->kse", carry, t)
        dl, _, dr = t.shape
        q, r = np.linalg.qr(t.reshape(dl * 2, dr))
        out[i] = q.reshape(dl, 2, dr)
        carry = r
    return out


def mps_sample(state: MpsState, stream, count: int) -> SampleSet:
    """Perfect sampling: exact conditionals, site n down to 1.

    Left-canonical form makes the suffix marginal of bits i..n equal to
    |A_i[x_i] ... A_n[x_n]|^2, so each bit is drawn from its exact
    conditional and the joint law is exactly |psi|^2.
    """
    if not state.canonical:
        raise ValueError("perfect sampling requires a canonical state")
    rng = as_generator(stream)
    outcomes = np.zeros(count, dtype=np.uint64)
    w = np.ones((count, 1), dtype=np.complex128)  # suffix vectors, unit norm
    for i in range(state.n - 1, -1, -1):
        t = state.tensors[i]
        t0 = w @ t[:, 0, :].T
        t1 = w @ t[:, 1, :].T
        p1 = np.sum(np.abs(t1) ** 2, axis=1)
        p0 = np.sum(np.abs(t0) ** 2, axis=1)
        # p0 + p1 == |w|^2 == 1 up to rounding; normalize the coin explicitly
        take1 = rng.random(count) < p1 / (p0 + p1)
        outcomes |= take1.astype(np.uint64) << np.uint64(i)
        w = np.where(take1[:, None], t1, t0)
        w /= np.sqrt(np.where(take1, p1, p0))[:, None]
    return SampleSet(state.n, outcomes)


def mps_probability(state: MpsState, x: BitString) -> float:
    """|psi(x)|^2 by left-to-right contraction, O(n chi^2)."""
    if x.n != state.n:
        raise ValueError(f"dimension error: n mismatch {x.n} != {state.n}")
    v = np.ones(1, dtype=np.complex128)
    for i, t in enumerate(state.tensors):
        v = v @ t[:, (x.bits >> i) & 1, :]
    return float(abs(v[0]) ** 2)


def _sweep_amplitudes(tensors: list[np.ndarray]) -> np.ndarray:
    """Amplitudes (B, 2^n) of chains of site tensors (B, D, 2, D'), one matmul a site."""
    batch, n = tensors[0].shape[0], len(tensors)
    T = np.ones((batch, 1, 1), dtype=np.complex128)
    for t in tensors:
        _, dl, _, dr = t.shape
        T = np.matmul(T, t.reshape(batch, dl, 2 * dr)).reshape(batch, -1, dr)
    # rows run over (x_1, ..., x_n) with x_1 slowest; reverse for LSB-first
    psi = T.reshape((batch,) + (2,) * n).transpose((0,) + tuple(range(n, 0, -1)))
    return psi.reshape(batch, -1)


def mps_state_vector(state: MpsState) -> np.ndarray:
    """Dense amplitudes, index bit (i-1) = qubit i. Capped at n = 16."""
    check_statevector_cap(state.n)
    return _sweep_amplitudes([t[None] for t in state.tensors])[0]


def mps_prob_vector(state: MpsState) -> ProbVector:
    p = np.abs(mps_state_vector(state)) ** 2
    return validate_prob_vector(p / p.sum(), state.n)


# ---------------------------------------------------------------------------
# pairwise metrics of two distributions (from metrics)


def _check_same_n(p: ProbVector, q: ProbVector):
    if p.n != q.n:
        raise ValueError(f"dimension error: n mismatch {p.n} != {q.n}")


def squared_distance(p: ProbVector, q: ProbVector) -> float:
    """sum_x (p(x) - q(x))^2."""
    _check_same_n(p, q)
    d = p.values - q.values
    return float(d @ d)


def mmd2_fourier(p: ProbVector, q: ProbVector, spec: KernelSpec) -> float:
    """MMD^2 via two Walsh-Hadamard transforms, O(N log N)."""
    _check_same_n(p, q)
    ghat = fwht(p.values - q.values)
    return float(fourier_weights(p.n, spec) @ ghat**2) / (1 << p.n)


def mmd2_population(p: ProbVector, q: ProbVector, spec: KernelSpec) -> float:
    """Kernel double sum sum_{x,y} k(x,y) g(x) g(y), g = p - q.

    Kept as the independent cross-check of mmd2_fourier; blocked so the
    full N x N kernel matrix is never materialized.
    """
    _check_same_n(p, q)
    if p.n > MAX_KERNEL_SUM_QUBITS:
        raise ValueError(
            f"resource error: n={p.n} exceeds the kernel double-sum cap "
            f"{MAX_KERNEL_SUM_QUBITS}; use mmd2_fourier"
        )
    g = p.values - q.values
    x = np.arange(1 << p.n, dtype=np.uint64)
    total = 0.0
    block = 1 << 9
    for start in range(0, x.size, block):
        d = np.bitwise_count(x[start : start + block, None] ^ x[None, :])
        total += g[start : start + block] @ (spec.rho**d.astype(float)) @ g
    return float(total)


def mmd2_unbiased_exact(X: SampleSet, Y: SampleSet, rho: float) -> Fraction:
    """The two-sample U-statistic under rho^{d_H} as an exact rational: the
    float rho read exactly, and each kernel sum the sum of rho^d times the
    integer count of ordered pairs at Hamming distance d, counted over every
    pair of outcomes (m x l cells, so for small sets)."""
    r = Fraction(rho)

    def kernel_sum(a, b):
        counts = sum(np.bincount(np.bitwise_count(a[i : i + 256, None] ^ b[None, :]).ravel(), minlength=X.n + 1)
                     for i in range(0, a.size, 256))
        return sum(int(c) * r**d for d, c in enumerate(counts))

    m, l = len(X), len(Y)
    xx, xy, yy = (kernel_sum(a, b) for a, b in ((X.outcomes, X.outcomes), (X.outcomes, Y.outcomes),
                                                 (Y.outcomes, Y.outcomes)))
    return (xx - m) / (m * (m - 1)) + (yy - l) / (l * (l - 1)) - 2 * xy / (m * l)


def l1_distance(p: ProbVector, q: ProbVector) -> float:
    """sum_x |p(x) - q(x)|, in [0, 2]."""
    _check_same_n(p, q)
    return float(np.abs(p.values - q.values).sum())


def total_variation_distance(p: ProbVector, q: ProbVector) -> float:
    """Half the 1-norm; the other common TVD convention.

    Both values are reported downstream because the literature uses the
    names interchangeably.
    """
    return 0.5 * l1_distance(p, q)


# ---------------------------------------------------------------------------
# the two-sample test's rejection rates one repetition at a time (from cli)


def sample_dense(p: ProbVector, uniforms: np.ndarray) -> SampleSet:
    """The outcomes of one dense distribution that the uniforms draw by
    inverse CDF; the CDF reads 1 from the last positive mass on."""
    cdf = np.cumsum(p.values)
    cdf[int(np.flatnonzero(p.values > 0.0)[-1]) :] = 1.0
    outcomes = np.searchsorted(cdf, uniforms, side="right")
    return SampleSet(p.n, outcomes.astype(np.uint64))


def mmdtest_rejection_rates(family, n, sigmas, alpha, samples, trials, stream, chunk) -> np.ndarray:
    """lab.mmdtest_rejection_rates one repetition at a time: chunk k of
    `chunk` repetitions (the last may be shorter) draws from stream.child(k)
    its 2R instances, then its 3R rows of uniforms; each repetition then
    validates its own two instances and samples and scores its own sets,
    one mmd2_unbiased pair at a time."""
    specs = tuple(bandwidth_kernel(sigma) for sigma in sigmas)
    threshold = mmd_test_threshold(samples, samples, alpha)
    counts = np.zeros((len(specs), 2), dtype=np.int64)  # per kernel: equal, distinct
    for k, start in enumerate(range(0, trials, chunk)):
        size = min(chunk, trials - start)
        rng = stream.child(k).generator
        masses = instance_prob_values(family, n, 2 * size, rng)
        uniforms = rng.random((3 * size, samples))
        for i in range(size):
            p = validate_prob_vector(masses[2 * i], n)
            q = validate_prob_vector(masses[2 * i + 1], n)
            draws = [sample_dense(p, uniforms[3 * i]), sample_dense(p, uniforms[3 * i + 1]),
                     sample_dense(q, uniforms[3 * i + 2])]
            counts[:, 0] += mmd2_unbiased(draws[0], draws[1], specs) > threshold
            counts[:, 1] += mmd2_unbiased(draws[0], draws[2], specs) > threshold
    return counts / trials


def mmdtest_unsorted_estimates(family, n, sigmas, samples, trials, stream) -> np.ndarray:
    """The estimates of a lab.mmdtest_rejection_rates cell, shape
    (len(sigmas), trials, 2): each repetition's equal pair, then its distinct
    pair. Drawn in lab's chunks, with each set sampled from its uniforms
    unsorted: chunk k draws its 2R instances and then its 3R rows of
    uniforms from stream.child(k), samples the uniforms in draw order and
    scores the sets through metrics.mmd2_unbiased_pairs."""
    specs = tuple(bandwidth_kernel(sigma) for sigma in sigmas)
    score = mmd2_unbiased_pairs(n, samples, samples, specs)
    chunk = _chunk(_mmdtest_rep_bytes(family, n, samples))
    parts = []
    for k, start in enumerate(range(0, trials, chunk)):
        size = min(chunk, trials - start)
        rng = stream.child(k).generator
        p = validate_prob_vector(instance_prob_values(family, n, 2 * size, rng), n)
        index = np.arange(size)[:, None]
        sets = sample_prob_vector(p, rng.random((3 * size, samples)), (2 * index + [0, 0, 1]).ravel())
        pairs = (3 * index[:, None] + [[0, 1], [0, 2]]).reshape(-1, 2)
        parts.append(score(sets.reshape(-1, samples), pairs).reshape(len(specs), size, 2))
    return np.concatenate(parts, axis=1)
