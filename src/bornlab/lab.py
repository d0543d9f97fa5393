"""Monte Carlo concentration experiments over distribution families.

Four experiment kinds, all built on the same deterministic chunking: work is
split into fixed-size chunks run one after another, chunk k draws from
stream.child(k), and chunk results are concatenated in index order. The
chunk size is a function of the family kind and n only. Parallelism lives one
level up: cli.run_config hands the (family, n) cells of a config to one
_parallel_map call, and each cell draws from its own stream, so results are
bit-identical for a fixed (config, seed) regardless of the worker count. A
pairwise chunk draws its pairs once and scores every requested (metric,
sigma) combo on them, so a combo's values never depend on which other combos
were asked for.

FAMILIES is the one table of family kinds. Each entry draws a chunk of B
instances as a (B, 2^n) array, and, where a closed-form marginal exists,
draws the length-B vector of reference-outcome masses that the tail
statistics need without building the dense vectors. It also names the
FamilySpec parameters its kind reads and its underlying law, from which
FamilySpec builds its CSV label and refuses parameters the kind ignores.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bitmath import MAX_DENSE_QUBITS, MAX_STATEVECTOR_QUBITS, RandomStream, SubsetMask
from .circuits import iqp_prob_values
from .families import GammaLaw, ParetoLaw, product_prob_values
from .metrics import KernelSpec, bandwidth_kernel, mmd2_fourier_batch
from .mps import mps_prob_values

PAIR_METRICS = ("sd", "mmd2", "l1", "tvd")

# fewest trials (instances or pairs) an experiment accepts: the moment and
# tail statistics need MIN_TRIALS, a bare variance needs MIN_VARIANCE_TRIALS
MIN_TRIALS = 100
MIN_VARIANCE_TRIALS = 2

# 95% two-sided
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class TailCurve:
    """Empirical survival Prob(p(x*) >= y/2^n) over a y grid."""

    family: str
    n: int
    y_grid: tuple[float, ...]
    estimates: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    trials: int


@dataclass(frozen=True)
class MomentReport:
    """Mean/variance of a per-instance (or per-pair) statistic."""

    family: str
    n: int
    metric: str
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    trials: int
    sigma: float | None = None


@dataclass(frozen=True)
class AnticoncentrationReport:
    family: str
    n: int
    second_moment_statistic: float  # 2^{2n} E[p(x*)^2]
    second_moment_se: float
    tail_at_half: float  # Prob(p(x*) >= 1/(2N))
    tail_ci_low: float
    tail_ci_high: float
    trials: int


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid near 0 and 1."""
    if trials < 1:
        raise ValueError("domain error: trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("domain error: successes out of range")
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _dense_chunk(n: int) -> int:
    # ~1M float64 cells per chunk, never more than 2^14 instances
    return max(1, min(1 << 14, (1 << 20) >> n))


def _scatter_rows(values: np.ndarray, N: int, rng: np.random.Generator) -> np.ndarray:
    """Place each row of masses on an independent uniform K-subset of [N].

    Ranking iid uniform keys gives an exactly uniform subset per row.
    """
    B, K = values.shape
    out = np.zeros((B, N))
    if K == N:
        return values.copy()
    keys = rng.random((B, N))
    idx = np.argpartition(keys, K, axis=1)[:, :K]
    np.put_along_axis(out, idx, values, axis=1)
    return out


# how many times _normalized_rows redraws a row whose draws all underflowed to
# 0 before it gives up. A Gamma(alpha) draw underflows with probability about
# exp(-744 alpha), so at alpha >= 1e-3 even a one-draw row outlives 50 rounds
# with probability below 1e-16. A law whose every draw is 0 (a Gamma alpha
# near 1e-300, or a Pareto alpha above about 4e17, where (1 - u)^(-1/alpha)
# rounds to 1) would otherwise redraw forever; the bound costs it 50 redraws
# of a chunk, about 6 s on a chunk of 2^20 draws.
MAX_REDRAW_ROUNDS = 50


def _normalized_rows(law, rng, shape) -> np.ndarray:
    """Rows of iid draws from law, each divided by its total; a row whose
    total is not positive is drawn again, at most MAX_REDRAW_ROUNDS times."""
    y = law.sample(rng, shape)
    totals = y.sum(axis=1)
    for _ in range(MAX_REDRAW_ROUNDS):
        bad = np.flatnonzero(totals <= 0)
        if bad.size == 0:
            break
        y[bad] = law.sample(rng, (bad.size, shape[1]))
        totals[bad] = y[bad].sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError(
            f"domain error: a row of {shape[1]} draws from {law} held no positive "
            f"value in {MAX_REDRAW_ROUNDS} redraws; the parameter is too extreme for float64"
        )
    return y / totals[:, None]


# ---------------------------------------------------------------------------
# family specs and the family table


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a distribution family.

    kind selects the FAMILIES entry; a parameter other than the kind may
    leave its default only if the entry lists it as read. k=None and
    chi=None mean "use the size-dependent default" (2^ceil(log2 n) support
    and chi = n respectively). Parameters are checked here, so a bad spec
    fails before any run starts.
    """

    kind: str
    alpha: float = 1.0
    k: int | None = None
    chi: int | None = None

    def __post_init__(self):
        family = FAMILIES.get(self.kind)
        if family is None:
            raise ValueError(f"unknown family {self.kind!r}; known: {tuple(FAMILIES)}")
        for name in self._set_parameters():
            if name not in family.params:
                takes = ", ".join(family.params) or "no parameters"
                raise ValueError(f"family {self.kind} does not take {name} (it takes {takes})")
        if self.k is not None and self.k < 1:
            raise ValueError(f"support size k must be at least 1, got {self.k}")
        if self.kind == "peaked_iqp" and self.k is not None and self.k & (self.k - 1):
            raise ValueError(f"peaked_iqp support k must be a power of two, got {self.k}")
        if self.chi is not None and self.chi < 1:
            raise ValueError(f"bond dimension chi must be at least 1, got {self.chi}")
        if family.law is not None:
            self.underlying()  # raises when alpha is outside the law's domain

    def _set_parameters(self) -> list[str]:
        """Names of the parameters given a value other than their default."""
        fields = dataclasses.fields(self)[1:]  # all but kind
        return [f.name for f in fields if getattr(self, f.name) != f.default]

    def underlying(self) -> GammaLaw | ParetoLaw:
        return FAMILIES[self.kind].law(self.alpha)

    def support_size(self, n: int) -> int:
        """Peaked-family support: k, by default the smallest power of two >= n."""
        K = self.k if self.k is not None else 1 << max(1, math.ceil(math.log2(n)))
        if K > 1 << n:
            raise ValueError(f"domain error: support {K} exceeds 2^{n}")
        return K

    def bond_dimension(self, n: int) -> int:
        return self.chi if self.chi is not None else n

    def label(self) -> str:
        """Stable CSV label: kind(...) over the parameters not at their default."""
        parts = [_LABEL_FORMATS[p].format(getattr(self, p)) for p in self._set_parameters()]
        return f"{self.kind}({','.join(parts)})" if parts else self.kind


# how label() writes each parameter, e.g. peaked(0.5,K=4) and mps(chi=3)
_LABEL_FORMATS = {"alpha": "{:g}", "k": "K={}", "chi": "chi={}"}


@dataclass(frozen=True)
class Family:
    """How the experiments draw the instances of one family kind.

    dense(spec, n, count, rng) returns `count` output distributions, shape
    (count, 2^n). mass(spec, n, count, rng), where the family has a
    closed-form marginal, returns p(x*) of `count` instances without the
    dense vectors; mass_chunk is that route's chunk size (None: the dense
    chunk of n), which decides the substream each instance draws from.
    max_n is the largest n the generator accepts. params names the
    FamilySpec parameters the kind reads, and law, for the kinds built on
    iid positive draws, the underlying law that alpha parameterizes.
    """

    dense: Callable
    mass: Callable | None = None
    mass_chunk: int | None = None
    max_n: int = MAX_DENSE_QUBITS
    params: tuple[str, ...] = ()
    law: type | None = None


def _iqp_product_weights(n: int, count: int, rng) -> np.ndarray:
    # theta = 2 arccos(sqrt(u)) makes the weight cos^2(theta/2) uniform on [0, 1]
    theta = 2.0 * np.arccos(np.sqrt(rng.random((count, n))))
    return np.cos(theta / 2.0) ** 2


def _law_rows(spec: FamilySpec, K: int, count: int, rng) -> np.ndarray:
    """`count` normalized K-vectors of iid draws from the family's law."""
    return _normalized_rows(spec.underlying(), rng, (count, K))


def _pareto_mass(spec, n, count, rng) -> np.ndarray:
    law, N = spec.underlying(), 1 << n
    first = law.sample(rng, count)
    rest = law.sample(rng, (count, N - 1)).sum(axis=1) if N > 1 else 0.0
    return first / (first + rest)


def _peaked_mass(spec, n, count, rng) -> np.ndarray:
    # Bernoulli(K/N) thinning of the Beta(a, a(K-1)) marginal of the K masses
    K = spec.support_size(n)
    hit = rng.random(count) < K / (1 << n)
    if K == 1:
        return hit.astype(float)
    return np.where(hit, rng.beta(spec.alpha, spec.alpha * (K - 1), count), 0.0)


def _peaked_iqp_masses(spec, n, count, rng) -> np.ndarray:
    """The log2(K)-qubit IQP masses that a peaked-IQP instance scatters."""
    return iqp_prob_values(spec.support_size(n).bit_length() - 1, count, rng)


def _peaked_iqp_mass(spec, n, count, rng) -> np.ndarray:
    masses = _peaked_iqp_masses(spec, n, count, rng)
    K = masses.shape[1]
    hit = rng.random(count) < K / (1 << n)
    pick = masses[np.arange(count), rng.integers(0, K, count)]
    return np.where(hit, pick, 0.0)


def _point_dense(spec, n, count, rng) -> np.ndarray:
    out = np.zeros((count, 1 << n))
    out[np.arange(count), rng.integers(0, 1 << n, count)] = 1.0
    return out


# Every family is exchangeable over outcomes, so the tail law of p(x*) does
# not depend on the choice of x* = 0...0. The entries call the generators
# through this module's globals, never through stored function objects.
FAMILIES = {
    "product": Family(
        lambda spec, n, count, rng: product_prob_values(rng.random((count, n))),
        # a product of n uniforms
        lambda spec, n, count, rng: np.prod(rng.random((count, n)), axis=1),
        mass_chunk=1 << 16,
    ),
    "iqp_product": Family(
        lambda spec, n, count, rng: product_prob_values(_iqp_product_weights(n, count, rng)),
        lambda spec, n, count, rng: np.prod(_iqp_product_weights(n, count, rng), axis=1),
        mass_chunk=1 << 16,
    ),
    "dirichlet": Family(
        lambda spec, n, count, rng: _law_rows(spec, 1 << n, count, rng),
        # Beta(a, a(N-1)) by gamma additivity
        lambda spec, n, count, rng: rng.beta(spec.alpha, spec.alpha * ((1 << n) - 1), count),
        mass_chunk=1 << 16,
        params=("alpha",), law=GammaLaw,
    ),
    "pareto": Family(
        lambda spec, n, count, rng: _law_rows(spec, 1 << n, count, rng),
        _pareto_mass,
        params=("alpha",), law=ParetoLaw,
    ),
    "peaked": Family(
        lambda spec, n, count, rng: _scatter_rows(
            _law_rows(spec, spec.support_size(n), count, rng), 1 << n, rng
        ),
        _peaked_mass,
        mass_chunk=1 << 16,
        params=("alpha", "k"), law=GammaLaw,
    ),
    "iqp": Family(
        lambda spec, n, count, rng: iqp_prob_values(n, count, rng),
        max_n=MAX_STATEVECTOR_QUBITS,
    ),
    "peaked_iqp": Family(
        lambda spec, n, count, rng: _scatter_rows(
            _peaked_iqp_masses(spec, n, count, rng), 1 << n, rng
        ),
        _peaked_iqp_mass,
        mass_chunk=1 << 14,
        max_n=MAX_STATEVECTOR_QUBITS,
        params=("k",),
    ),
    "mps": Family(
        lambda spec, n, count, rng: mps_prob_values(n, spec.bond_dimension(n), count, rng),
        max_n=MAX_STATEVECTOR_QUBITS,
        params=("chi",),
    ),
    # degenerate reference families, mainly for calibration runs
    "uniform": Family(
        lambda spec, n, count, rng: np.full((count, 1 << n), 1.0 / (1 << n)),
        lambda spec, n, count, rng: np.full(count, 1.0 / (1 << n)),
        mass_chunk=1 << 16,
    ),
    "point": Family(
        _point_dense,
        lambda spec, n, count, rng: (rng.integers(0, 1 << n, count) == 0).astype(float),
        mass_chunk=1 << 16,
    ),
}


def instance_prob_values(
    family: FamilySpec, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Dense output distributions of `count` fresh instances, shape (count, 2^n)."""
    return FAMILIES[family.kind].dense(family, n, count, rng)


def reference_mass_values(
    family: FamilySpec, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """p(x*) at the reference outcome x* = 0...0 for `count` fresh instances.

    Uses the family's closed-form marginal where it has one and falls back
    to dense generation otherwise.
    """
    mass = FAMILIES[family.kind].mass
    if mass is None:
        return instance_prob_values(family, n, count, rng)[:, 0]
    return mass(family, n, count, rng)


def _parallel_map(fn, tasks: list, workers: int | None) -> list:
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
        # cells are few, coarse and unequal in cost: hand them out one at a time
        return pool.map(fn, tasks, chunksize=1)


def _collect(draw, total: int, chunk: int, stream: RandomStream) -> np.ndarray:
    """draw(rng, count) over `total` items in chunks, concatenated in draw order."""
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return np.concatenate(
        [draw(stream.child(k).generator, size) for k, size in enumerate(sizes)], axis=-1
    )


def _moment_report(
    family: FamilySpec, n: int, metric: str, values: np.ndarray, sigma: float | None
) -> MomentReport:
    T = values.size
    mean = float(values.mean())
    variance = float(values.var(ddof=1)) if T > 1 else 0.0
    se_mean = math.sqrt(variance / T)
    centered = values - mean
    m4 = float((centered**4).mean())
    var_of_s2 = (m4 - variance**2 * (T - 3) / (T - 1)) / T if T > 1 else 0.0
    return MomentReport(
        family=family.label(),
        n=n,
        metric=metric,
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=math.sqrt(max(var_of_s2, 0.0)),
        trials=T,
        sigma=sigma,
    )


def _reference_masses(family: FamilySpec, n: int, trials: int, stream) -> np.ndarray:
    """p(x*) of `trials` instances in draw order, for the tail statistics."""
    if trials < MIN_TRIALS:
        raise ValueError(f"domain error: need at least {MIN_TRIALS} trials")
    chunk = FAMILIES[family.kind].mass_chunk or _dense_chunk(n)
    return _collect(
        lambda rng, count: reference_mass_values(family, n, count, rng), trials, chunk, stream
    )


def estimate_tail_curve(
    family: FamilySpec, n: int, y_grid, trials: int, stream: RandomStream
) -> TailCurve:
    """Empirical Prob(p(x*) >= y/2^n) across the grid, with 95% Wilson CIs.

    One pooled sample of reference masses serves the whole grid, which also
    makes the point estimates exactly non-increasing in y.
    """
    grid = sorted(float(y) for y in y_grid)
    if not grid:
        raise ValueError("domain error: empty y grid")
    masses = _reference_masses(family, n, trials, stream)
    hits = [int(np.count_nonzero(masses >= y / (1 << n))) for y in grid]
    lows, highs = zip(*(wilson_interval(h, trials) for h in hits))
    return TailCurve(
        family=family.label(),
        n=n,
        y_grid=tuple(grid),
        estimates=tuple(h / trials for h in hits),
        ci_low=lows,
        ci_high=highs,
        trials=trials,
    )


def _kernel_for(sigma: float | None, metric: str) -> KernelSpec | None:
    if metric not in PAIR_METRICS:
        raise ValueError(f"domain error: unknown metric {metric!r}; known: {PAIR_METRICS}")
    if metric != "mmd2":
        return None
    if sigma is None:
        raise ValueError("domain error: mmd2 requires a bandwidth (sigma; 0 means rho=0)")
    return bandwidth_kernel(sigma)


def pairwise_loss_values(
    family: FamilySpec,
    n: int,
    combos: list[tuple[str, float | None]],
    pairs: int = 10_000,
    stream: RandomStream = RandomStream(0),
) -> np.ndarray:
    """Losses of `pairs` independent instance pairs in draw order, one row per
    (metric, sigma) combo; every combo is scored on the same pairs."""
    if pairs < MIN_TRIALS:
        raise ValueError(f"domain error: need at least {MIN_TRIALS} pairs")
    kernels = [_kernel_for(sigma, metric) for metric, sigma in combos]
    mmd2 = [i for i, (metric, _) in enumerate(combos) if metric == "mmd2"]
    mmd2_kernels = tuple(kernels[i] for i in mmd2)

    def draw(rng, count):
        diff = instance_prob_values(family, n, count, rng) - instance_prob_values(
            family, n, count, rng
        )
        out = np.empty((len(combos), count))
        if mmd2:
            out[mmd2] = mmd2_fourier_batch(diff, n, mmd2_kernels).T
        l1 = None
        for i, (metric, _) in enumerate(combos):
            if metric == "sd":
                out[i] = np.einsum("ij,ij->i", diff, diff)
            elif metric != "mmd2":
                if l1 is None:
                    l1 = np.abs(diff).sum(axis=1)
                out[i] = l1 if metric == "l1" else 0.5 * l1
        return out

    return _collect(draw, pairs, _dense_chunk(n), stream)


def pairwise_loss_moments(
    family: FamilySpec,
    n: int,
    combos: list[tuple[str, float | None]],
    pairs: int = 10_000,
    stream: RandomStream = RandomStream(0),
) -> list[MomentReport]:
    """Mean/variance of each combo's loss across the same instance pairs."""
    values = pairwise_loss_values(family, n, combos, pairs, stream)
    return [_moment_report(family, n, m, row, sigma) for (m, sigma), row in zip(combos, values)]


def anticoncentration_statistic(
    family: FamilySpec, n: int, trials: int, stream: RandomStream
) -> AnticoncentrationReport:
    """2^{2n} E[p(x*)^2] and the survival at threshold 1/(2N)."""
    masses = _reference_masses(family, n, trials, stream)
    N = 1 << n
    sq = masses**2
    statistic = float(N**2 * sq.mean())
    se = float(N**2 * sq.std(ddof=1) / math.sqrt(trials))
    hits = int(np.count_nonzero(masses >= 0.5 / N))
    lo, hi = wilson_interval(hits, trials)
    return AnticoncentrationReport(
        family=family.label(),
        n=n,
        second_moment_statistic=statistic,
        second_moment_se=se,
        tail_at_half=hits / trials,
        tail_ci_low=lo,
        tail_ci_high=hi,
        trials=trials,
    )


def diagonal_observable_variance(
    family: FamilySpec, n: int, S: SubsetMask, trials: int, stream: RandomStream
) -> MomentReport:
    """Across-instance moments of <Z_S> = sum_x chi_S(x) p(x)."""
    if S.n != n:
        raise ValueError(f"dimension error: n mismatch {S.n} != {n}")
    if S.weight == 0:
        raise ValueError("domain error: S must be non-empty")
    if trials < MIN_VARIANCE_TRIALS:
        raise ValueError(
            f"domain error: need at least {MIN_VARIANCE_TRIALS} trials for a variance"
        )
    x = np.arange(1 << n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(S.mask)) % 2)
    values = _collect(
        lambda rng, count: instance_prob_values(family, n, count, rng) @ signs,
        trials, _dense_chunk(n), stream,
    )
    positions = "".join(str(i + 1) for i in range(n) if (S.mask >> i) & 1)
    return _moment_report(family, n, f"z{positions}", values, None)


def distance_to_uniform_moments(
    family: FamilySpec, n: int, trials: int, stream: RandomStream
) -> MomentReport:
    """Moments of the squared distance to the uniform distribution."""
    if trials < MIN_TRIALS:
        raise ValueError(f"domain error: need at least {MIN_TRIALS} trials")

    def draw(rng, count):
        diff = instance_prob_values(family, n, count, rng) - 1.0 / (1 << n)
        return np.einsum("ij,ij->i", diff, diff)

    values = _collect(draw, trials, _dense_chunk(n), stream)
    return _moment_report(family, n, "sd_to_uniform", values, None)
