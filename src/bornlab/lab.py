"""Monte Carlo concentration experiments over distribution families.

All six experiments live here: tail curve, pairwise loss, anticoncentration,
diagonal observable, distance to uniform and the mmdtest rejection rates.
Each draws through _collect: work is split into fixed-size chunks run one
after another, chunk k draws from stream.child(k), and chunk results are
concatenated in index order. Parallelism lives one level up: cli hands every
(family, n) cell of an invocation (each config of a `run --config` file, each
kind of a `figures` call) to one _parallel_map call, in cell order, whose
workers are threads of this process, and each cell draws from its own
stream, so results are bit-identical for a fixed (config, seed) regardless
of the worker count or of the other configs run beside it. A pairwise chunk
draws its pairs once and scores every requested (metric, sigma) combo on
them, so a combo's values never depend on which other combos were asked
for. A report holds statistics only: cli names its rows.

cli checks each input once, where it enters. The functions here take the
values it has checked (n within the route's cap, MIN_TRIALS trials or more,
MIN_VARIANCE_TRIALS for the observable, PAIR_METRICS with a sigma per mmd2,
a non-empty y grid and subset, alpha in (0, 1], 2 samples or more) and refuse
only what a draw produces: a non-finite mass, a row past its redraw bound.

One byte budget sizes every chunk. A caller of _collect states an upper
bound on the bytes an item holds at its peak (a Route's bytes per instance,
or _mmdtest_rep_bytes per repetition), and _collect derives the chunk from
it: as many items as CHUNK_BYTES holds, at most MAX_CHUNK. So memory is
bounded before it is allocated, and the chunk size depends on the cell's
parameters only. A dense pairwise chunk holds one chunk of rows: it draws
p whole, then q a block of at most BLOCK_BYTES at a time, subtracted into p
in draw order, and scores that one array in place, MMD^2 last. Beside its
draw of p it holds one block of q, one working block (|p - q| or fwht's)
and its scores: 8 bytes a pair for each combo, again for each MMD^2 kernel
and for the L1 row. iqp and mps hand out q whole:
batching changes an IQP row's last bit, and an MPS draw already holds more
than the pair. A chunk of one row (n >= 20 for the float kinds) still holds
p and q, about 2.1 times its bound. Beside its chunks a cell holds its
values, 8 bytes a trial and combo, and may hold a constant of its own: an
observable cell its sign row, 8 bytes an outcome, an mmdtest cell its
kernels' weights and the scorer's class order, 8 bytes an outcome. The
workers' chunks share one process, so a fan-out holds at most about workers
times the largest chunk's peak.

FAMILIES is the one table of family kinds. Each entry holds two routes with
their own bytes per instance and n cap: `dense` (Rows) hands out the rows of
B instances in blocks, in draw order, and its draw joins them into a
(B, 2^n) array; `mass` draws their reference-outcome masses, from the kind's
closed-form marginal where it has one. The sparse kinds draw that mass only
for the instances whose support holds x*, a share of K/2^n. Their entries
also hold the compact form (Support): K masses and K positions an instance,
which `dense` scatters into 2^n rows. Where K^2 <= 2^n and K < 2^n, where
the positions are K drawn integers, a pairwise cell scores the compact pairs
on their 2K support points, with a byte bound of their own
(_support_pair_bytes); every other shape and experiment densifies. The
entry also names the FamilySpec parameters its kind reads and its
underlying law. FamilySpec builds its CSV label from them, and
family_reading refuses a parameter the kind ignores, whatever its value.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

# sample_prob_vector is called through circuits, where timing wrappers (perfbench/spans.py) replace it
from . import circuits
from .bitmath import (MAX_DENSE_QUBITS, MAX_OUTCOME_BITS, MAX_STATEVECTOR_QUBITS, RandomStream,
                      SubsetMask, validate_prob_vector)
from .circuits import iqp_prob_values
from .families import GammaLaw, ParetoLaw, product_prob_values
from .metrics import (bandwidth_kernel, counts_bytes_per_outcome, mmd2_fourier_batch, mmd2_points_batch,
                      mmd2_unbiased_pairs, mmd_test_threshold)
from .mps import bond_dims, mps_prob_values

PAIR_METRICS = ("sd", "mmd2", "l1", "tvd")

# fewest trials (instances or pairs) the statistics need, which cli requires:
# the moment and tail statistics need MIN_TRIALS, a bare variance MIN_VARIANCE_TRIALS
MIN_TRIALS = 100
MIN_VARIANCE_TRIALS = 2

# 95% two-sided
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class TailCurve:
    """Empirical survival Prob(p(x*) >= y/2^n) over a y grid."""

    y_grid: tuple[float, ...]
    estimates: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    trials: int


@dataclass(frozen=True)
class MomentReport:
    """Mean/variance of a per-instance (or per-pair) statistic."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    trials: int


@dataclass(frozen=True)
class AnticoncentrationReport:
    second_moment_statistic: float  # 2^{2n} E[p(x*)^2]
    second_moment_se: float
    tail_at_half: float  # Prob(p(x*) >= 1/(2N))
    tail_ci_low: float
    tail_ci_high: float
    trials: int


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid near 0 and 1."""
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _rows_with_repeats(positions: np.ndarray) -> np.ndarray:
    ordered = np.sort(positions, axis=1)
    return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def _distinct_positions(B: int, K: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """(B, K) positions in [N], K distinct a row: K iid draws, a row with a
    repeat drawn again, at most MAX_REDRAW_ROUNDS times."""
    positions = rng.integers(0, N, (B, K))
    redo = _rows_with_repeats(positions)
    for _ in range(MAX_REDRAW_ROUNDS):
        if redo.size == 0:
            break
        positions[redo] = rng.integers(0, N, (redo.size, K))
        redo = redo[_rows_with_repeats(positions[redo])]
    if redo.size:
        raise ValueError(
            f"domain error: a row of {K} positions in [{N}] held a repeat in {MAX_REDRAW_ROUNDS} redraws"
        )
    return positions


def _support_positions(B: int, K: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """(B, K) distinct outcomes of [N] a row for the masses 1..K of B rows:
    independently per row, an exactly uniform ordered K-tuple.

    Where K^2 <= N a row draws K iid positions, O(K) draws, and draws them
    again while they hold a repeat; they are distinct with probability at least
    1 - K(K-1)/(2N) >= 1/2. Where a repeat is likely (K^2 > N), the K smallest
    of N iid uniform keys a row give the positions. K = N keeps the masses in
    place and draws nothing.
    """
    if K == N:
        return np.broadcast_to(np.arange(N), (B, N))
    if K * K > N:
        return np.argpartition(rng.random((B, N)), K, axis=1)[:, :K]
    return _distinct_positions(B, K, N, rng)


def _scatter_rows(masses: np.ndarray, positions: np.ndarray, N: int) -> np.ndarray:
    """Dense rows of N outcomes: each row's masses at its positions, 0 elsewhere.
    N masses a row sit at 0..N-1 (_support_positions), so they are copied."""
    if masses.shape[1] == N:
        return masses.copy()
    out = np.zeros((len(masses), N))
    np.put_along_axis(out, positions, masses, axis=1)
    return out


# how many times _law_blocks redraws a row whose draws all underflowed to 0,
# and _distinct_positions a row of positions that holds a repeat, before it
# gives up. The laws refuse the parameters past which half their draws are 0.0
# (see families), and a row of positions is free of repeats with probability at
# least 1/2, so a row outlives 50 rounds with probability below 2^-50; the bound
# keeps any other law or generator from redrawing forever.
MAX_REDRAW_ROUNDS = 50


def _law_blocks(law, rng, count: int, K: int, rows: int):
    """`count` rows of K iid draws from law, each divided by its total, as
    (index, values) blocks of at most `rows` rows. A row whose total is not
    positive is handed out as zeros and drawn again in the next round, after
    the last block of this one, at most MAX_REDRAW_ROUNDS times: the draws of
    one (count, K) array and its redraws, in row order, bit for bit."""
    redo = None  # the first round draws every row, in blocks of whole slices
    for _ in range(MAX_REDRAW_ROUNDS + 1):
        size, still = count if redo is None else redo.size, []
        for a in range(0, size, rows):
            b = min(a + rows, size)
            index = slice(a, b) if redo is None else redo[a:b]
            y = law.sample(rng, (b - a, K))
            totals = y.sum(axis=1)
            bad = np.flatnonzero(totals <= 0)
            totals[bad] = 1.0  # the row stays 0 until it is drawn again
            y /= totals[:, None]
            still.append(bad + a if redo is None else index[bad])
            yield index, y
            del y  # freed before the next block is drawn
        redo = np.concatenate(still)
        if redo.size == 0:
            return
    raise ValueError(
        f"domain error: a row of {K} draws from {law} held no positive "
        f"value in {MAX_REDRAW_ROUNDS} redraws; the parameter is too extreme for float64"
    )


def _blocks_of(count: int, rows: int, make):
    """(index, make(start, stop)) over the blocks of `rows` rows of `count`, in order."""
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        yield slice(start, stop), make(start, stop)


def _join(blocks) -> np.ndarray:
    """The rows that (index, values) blocks hand out, as one array: the first
    block, drawn as one, holds them all, and later ones replace rows drawn again."""
    _, out = next(blocks)
    for index, values in blocks:
        out[index] = values
    return out


def _normalized_rows(law, rng, shape) -> np.ndarray:
    """Rows of iid draws from law, each divided by its total; a row whose
    total is not positive is drawn again, at most MAX_REDRAW_ROUNDS times."""
    return _join(_law_blocks(law, rng, *shape, shape[0]))


# ---------------------------------------------------------------------------
# family specs and the family table


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a distribution family.

    kind selects the FAMILIES entry; a parameter other than the kind may
    leave its default only if the entry lists it as read (family_reading).
    k=None and chi=None mean "use the size-dependent default" (2^ceil(log2 n)
    support and chi = n respectively). Parameters are checked here, so a bad
    spec fails before any run starts.
    """

    kind: str
    alpha: float = 1.0
    k: int | None = None
    chi: int | None = None

    def __post_init__(self):
        family = family_reading(self.kind, self._set_parameters())
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
            raise ValueError(f"domain error: {self.kind} support k={K} exceeds the 2^{n} outcomes")
        return K

    def bond_dimension(self, n: int) -> int:
        return self.chi if self.chi is not None else n

    def label(self) -> str:
        """Stable CSV label: kind(...) over the parameters not at their default."""
        parts = [_LABEL_FORMATS[p].format(getattr(self, p)) for p in self._set_parameters()]
        return f"{self.kind}({','.join(parts)})" if parts else self.kind


def family_reading(kind: str, names) -> Family:
    """The FAMILIES entry of kind, which must read every parameter named: one
    refusal for a token's given keys and a FamilySpec's set parameters alike."""
    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"unknown family {kind!r}; known: {tuple(FAMILIES)}")
    for name in names:
        if name not in family.params:
            takes = ", ".join(family.params) or "no parameters"
            raise ValueError(f"family {kind} does not take {name} (it takes {takes})")
    return family


# how label() writes each parameter, e.g. peaked(0.5,K=4) and mps(chi=3)
_LABEL_FORMATS = {"alpha": "{:g}", "k": "K={}", "chi": "chi={}"}


# One byte budget sizes every chunk: a chunk holds at most about CHUNK_BYTES at
# its peak (2^20 float64 outcomes), and never more than MAX_CHUNK items, which
# bounds the chunks of the routes that draw a few numbers each.
CHUNK_BYTES = 1 << 23
MAX_CHUNK = 1 << 16

# A dense route hands out a draw's rows in blocks of at most BLOCK_BYTES at
# their peak (one row where a row holds more): the second draw of a pairwise
# chunk is drawn a block at a time into its difference.
BLOCK_BYTES = CHUNK_BYTES // 8


@dataclass(frozen=True)
class Route:
    """One way to draw from a family kind: draw(spec, n, count, rng) for
    `count` fresh instances; bytes_per_instance(spec, n), an upper bound on
    what such a draw holds at its peak, per instance; max_n, the largest n."""

    draw: Callable
    bytes_per_instance: Callable[[FamilySpec, int], int]
    max_n: int = MAX_DENSE_QUBITS


@dataclass(frozen=True)
class Rows:
    """The dense route of a family kind, a Route whose draw is the join of
    its blocks. blocks(spec, n, count, rng, rows) hands out the (count, 2^n)
    rows of `count` fresh instances in draw order as (index, values) pairs:
    blocks of at most `rows` rows, then any rows drawn again (an index
    array), which replace what their index held. A `whole` kind hands out
    its draw as one block, whatever `rows` asks."""

    blocks: Callable
    bytes_per_instance: Callable[[FamilySpec, int], int]
    max_n: int = MAX_DENSE_QUBITS
    whole: bool = False

    def draw(self, spec, n, count, rng) -> np.ndarray:
        return _join(self.blocks(spec, n, count, rng, count))

    def block_rows(self, spec, n, count) -> int:
        """The rows of a block: as many as BLOCK_BYTES holds, or `count` for a whole kind."""
        return count if self.whole else max(1, BLOCK_BYTES // self.bytes_per_instance(spec, n))


def _whole(draw, bytes_per_instance, max_n) -> Rows:
    """The dense route that hands out draw(spec, n, count, rng) as one block."""
    return Rows(lambda spec, n, count, rng, rows: iter([(slice(0, count), draw(spec, n, count, rng))]),
                bytes_per_instance, max_n, whole=True)


@dataclass(frozen=True)
class Support:
    """The compact form of a sparse kind: an instance puts K masses on K
    distinct outcomes. size(spec, n) is K, and masses(spec, n, count, rng)
    draws the (count, K) masses."""

    size: Callable[[FamilySpec, int], int]
    masses: Callable

    def draw(self, spec, n, count, rng) -> tuple[np.ndarray, np.ndarray]:
        """`count` fresh instances: their masses, then their positions, (count, K) each."""
        masses = self.masses(spec, n, count, rng)
        return masses, _support_positions(count, masses.shape[1], 1 << n, rng)

    def blocks(self, spec, n, count, rng, rows):
        """The same draw scattered into rows of 2^n outcomes, `rows` a block:
        the masses and drawn positions first, ranked positions from their
        keys a block at a time (_support_positions draws them row by row)."""
        masses = self.masses(spec, n, count, rng)
        K, N = masses.shape[1], 1 << n
        ranked = K < N < K * K
        positions = None if ranked else _support_positions(count, K, N, rng)
        return _blocks_of(count, rows, lambda a, b: _scatter_rows(
            masses[a:b], _support_positions(b - a, K, N, rng) if ranked else positions[a:b], N))


@dataclass(frozen=True)
class Family:
    """How the experiments draw the instances of one family kind.

    dense returns `count` output distributions, shape (count, 2^n); mass
    returns their p(x*), shape (count,). params names the FamilySpec
    parameters the kind reads, and law, for the kinds built on iid positive
    draws, the underlying law that alpha parameterizes. support is the
    compact form of the sparse kinds, whose dense route scatters its draw.
    """

    dense: Rows
    mass: Route
    params: tuple[str, ...] = ()
    law: type | None = None
    support: Support | None = None


def _iqp_product_weights(n: int, count: int, rng) -> np.ndarray:
    # theta = 2 arccos(sqrt(u)) makes the weight cos^2(theta/2) uniform on [0, 1];
    # theta/2 is arccos(sqrt(u)) exactly, so the steps run in place on the draw
    w = rng.random((count, n))
    np.sqrt(w, out=w)
    np.arccos(w, out=w)
    np.cos(w, out=w)
    w **= 2
    return w


def _product_mass(spec, n, count, rng) -> np.ndarray:
    # p(x*) of both product forms is a product of n uniform weights (iqp_product's
    # are uniform by construction, see _iqp_product_weights), and minus its log
    # is Gamma(n, 1) (Devroye 1986, IX.3): one draw an instance
    g = rng.standard_gamma(n, count)
    np.negative(g, out=g)
    np.exp(g, out=g)
    return g


def _law_rows(spec: FamilySpec, K: int, count: int, rng) -> np.ndarray:
    """`count` normalized K-vectors of iid draws from the family's law."""
    return _normalized_rows(spec.underlying(), rng, (count, K))


def _pareto_mass(spec, n, count, rng) -> np.ndarray:
    # the other N - 1 draws of an instance are drawn and summed in blocks of
    # whole rows, at most MAX_CHUNK draws where a row is shorter: the pool's
    # threads share one process. The blocks draw and sum as one
    # (count, N - 1) array would, bit for bit.
    law, N = spec.underlying(), 1 << n
    first = law.sample(rng, count)
    rest = np.zeros(count)
    if N > 1:
        rows = max(1, MAX_CHUNK // (N - 1))
        for i in range(0, count, rows):
            law.sample(rng, (min(rows, count - i), N - 1)).sum(axis=1, out=rest[i:i + rows])
    return first / (first + rest)


def _hits(spec, n, count, rng) -> np.ndarray:
    """Which of `count` instances hold x* in their support: Bernoulli(K/N)."""
    return rng.random(count) < spec.support_size(n) / (1 << n)


def _peaked_mass(spec, n, count, rng) -> np.ndarray:
    # Bernoulli(K/N) thinning of the Beta(a, a(K-1)) marginal of the K masses,
    # drawn for the hits alone
    K, hit = spec.support_size(n), _hits(spec, n, count, rng)
    out = np.zeros(count)
    out[hit] = 1.0 if K == 1 else rng.beta(spec.alpha, spec.alpha * (K - 1), np.count_nonzero(hit))
    return out


def _peaked_iqp_masses(spec, n, count, rng) -> np.ndarray:
    """The log2(K)-qubit IQP masses that a peaked-IQP instance scatters."""
    return iqp_prob_values(spec.support_size(n).bit_length() - 1, count, rng)


def _peaked_iqp_mass(spec, n, count, rng) -> np.ndarray:
    # one of the K masses of an IQP instance, drawn for the hits alone
    hit = _hits(spec, n, count, rng)
    masses = _peaked_iqp_masses(spec, n, np.count_nonzero(hit), rng)
    out = np.zeros(count)
    out[hit] = masses[np.arange(len(masses)), rng.integers(0, masses.shape[1], len(masses))]
    return out


# ---------------------------------------------------------------------------
# what a draw holds at its peak, per instance (tracemalloc, tests/test_lab.py)


def _float_bytes(N: int, rest: int) -> int:
    """A float64 row of N outcomes, plus the rest of an instance's peak where
    it passes a tenth of that: a chunk may hold 1.1 times its budget, so the
    small terms size a float route's chunks only at small n."""
    return 8 * N + rest if 10 * rest > 8 * N else 8 * N


def _scatter_bytes(K: int, N: int) -> int:
    """A row of _scatter_rows with its K masses: a copy where K = N; N keys
    and their int64 ranks where K^2 > N; else the output row, plus the
    masses, the K positions and the temporaries of their repeat check."""
    if K == N:
        return 16 * N
    if K * K > N:
        return 16 * (N + K)
    return _float_bytes(N, 20 * K + 16)


def _iqp_bytes(n: int) -> int:
    """iqp_prob_values: the phasor product and the two real planes, 32 bytes
    an outcome, and the angles and their phasors, 24 bytes a gate."""
    return (32 << n) + 24 * (n * (n + 1) // 2)


def _mps_bytes(spec: FamilySpec, n: int) -> int:
    """mps_prob_values: the amplitudes and |.|^2, 24 bytes an outcome, and the
    normals and the complex site tensors, 32 bytes a tensor entry."""
    dims = bond_dims(n, spec.bond_dimension(n))
    return (24 << n) + 32 * sum(2 * dims[i] * dims[i + 1] for i in range(n))


def _peaked_iqp_bytes(spec: FamilySpec, n: int) -> int:
    K = spec.support_size(n)
    return max(_iqp_bytes(K.bit_length() - 1), _scatter_bytes(K, 1 << n))


def _support_pair_bytes(K: int, n: int) -> int:
    """A pair scored on its 2K support points (tracemalloc, n = 1..20): 16
    bytes a pair of points (a distance key, a weight product), 64 a point (the
    two draws while their union is sorted, then the union and its
    differences) and the histogram's n + 1 bins. A combo's row adds 8, which
    the point terms cover for the four metrics at a few bandwidths."""
    return 64 * K * K + 128 * K + 8 * (n + 1)


# What an mmdtest repetition holds at its peak, which sizes a cell's chunks:
# per outcome, the scorer's three sets and a working row (56 bytes), more
# than its two instances hold while they are validated and turned into CDFs
# (36); per sample of its three sets, the uniform and the outcome, or the
# outcome and its histogram key (16); beside these, the draw of its two
# instances. The cell holds the kernels' weights and the scorer's class
# order for all its chunks, so they size no chunk, and a bandwidth's rows do
# not depend on the other bandwidths
_MMDTEST_BYTES_PER_SAMPLE = 3 * 16


def _mmdtest_rep_bytes(family: FamilySpec, n: int, samples: int) -> int:
    """An upper bound on the bytes an mmdtest repetition holds at its peak."""
    draw = 2 * FAMILIES[family.kind].dense.bytes_per_instance(family, n)
    return (counts_bytes_per_outcome(3) << n) + _MMDTEST_BYTES_PER_SAMPLE * samples + draw


# product and iqp_product share their marginal, whose draw is 8 bytes an instance
_PRODUCT_MASS = Route(_product_mass, lambda spec, n: 8)

# iqp and mps have no closed-form marginal: p(x*) is column 0 of the dense draw
_DENSE_COLUMN = Route(
    lambda spec, n, count, rng: instance_prob_values(spec, n, count, rng)[:, 0],
    lambda spec, n: FAMILIES[spec.kind].dense.bytes_per_instance(spec, n),
    MAX_STATEVECTOR_QUBITS,
)

# the sparse kinds' compact forms: K masses from the kind's law, from a
# log2(K)-qubit IQP, or a mass of 1, a read-only view that holds no bytes
_PEAKED = Support(FamilySpec.support_size,
                  lambda spec, n, count, rng: _law_rows(spec, spec.support_size(n), count, rng))
_PEAKED_IQP = Support(FamilySpec.support_size, _peaked_iqp_masses)
_POINT = Support(lambda spec, n: 1, lambda spec, n, count, rng: np.broadcast_to(1.0, (count, 1)))


def _product_rows(weights) -> Rows:
    """A product form's dense route: its (count, n) weights(n, count, rng)
    drawn first, then densified a block at a time. A row of it holds its n
    weights, a column of 1 - a_i and a share of numpy's iterator buffers
    besides its 2^n masses: 8 (n + 3) bytes."""
    def blocks(spec, n, count, rng, rows):
        w = weights(n, count, rng)
        return _blocks_of(count, rows, lambda a, b: product_prob_values(w[a:b]))

    return Rows(blocks, lambda spec, n: _float_bytes(1 << n, 8 * (n + 3)))


# dirichlet and pareto: rows of 2^n draws from the kind's law, normalized
_LAW_ROWS = Rows(lambda spec, n, count, rng, rows: _law_blocks(spec.underlying(), rng, count, 1 << n, rows),
                 lambda spec, n: _float_bytes(1 << n, 16))


# Every family is exchangeable over outcomes, so the tail law of p(x*) does
# not depend on the choice of x* = 0...0. The entries call the generators
# through this module's globals, never through stored function objects. A
# dense route hands out its rows in blocks, as its draw makes them, except
# iqp and mps: an IQP row changes in its last bit with the batch it is
# transformed in, and an MPS batch draws its normals site by site, so either
# draw is handed out whole.
FAMILIES = {
    "product": Family(_product_rows(lambda n, count, rng: rng.random((count, n))), _PRODUCT_MASS),
    "iqp_product": Family(_product_rows(_iqp_product_weights), _PRODUCT_MASS),
    "dirichlet": Family(
        _LAW_ROWS,
        # Beta(a, a(N-1)) by gamma additivity, exact at any N, so it runs past the dense cap
        Route(lambda spec, n, count, rng: rng.beta(spec.alpha, spec.alpha * ((1 << n) - 1), count),
              lambda spec, n: 8, MAX_OUTCOME_BITS),
        params=("alpha",), law=GammaLaw,
    ),
    "pareto": Family(
        _LAW_ROWS,
        Route(_pareto_mass, lambda spec, n: _float_bytes(1 << n, 16)),
        params=("alpha",), law=ParetoLaw,
    ),
    "peaked": Family(
        Rows(_PEAKED.blocks, lambda spec, n: _scatter_bytes(spec.support_size(n), 1 << n)),
        # the hit mask, the output and a Beta variate a hit: 17 bytes where all hit
        Route(_peaked_mass, lambda spec, n: 17),
        params=("alpha", "k"), law=GammaLaw, support=_PEAKED,
    ),
    "iqp": Family(
        _whole(lambda spec, n, count, rng: iqp_prob_values(n, count, rng),
               lambda spec, n: _iqp_bytes(n), MAX_STATEVECTOR_QUBITS),
        _DENSE_COLUMN,
    ),
    "peaked_iqp": Family(
        Rows(_PEAKED_IQP.blocks, _peaked_iqp_bytes, MAX_STATEVECTOR_QUBITS),
        # the log2(K)-qubit IQP of every hit beside the 1-byte hit mask; the picks
        # and the output after it hold less
        Route(_peaked_iqp_mass, lambda spec, n: _iqp_bytes(spec.support_size(n).bit_length() - 1) + 1,
              MAX_STATEVECTOR_QUBITS),
        params=("k",), support=_PEAKED_IQP,
    ),
    "mps": Family(
        _whole(lambda spec, n, count, rng: mps_prob_values(n, spec.bond_dimension(n), count, rng),
               _mps_bytes, MAX_STATEVECTOR_QUBITS),
        _DENSE_COLUMN,
        params=("chi",),
    ),
    # degenerate reference families, mainly for calibration runs
    "uniform": Family(
        Rows(lambda spec, n, count, rng, rows: _blocks_of(
            count, rows, lambda a, b: np.full((b - a, 1 << n), 1.0 / (1 << n))), lambda spec, n: 8 << n),
        Route(lambda spec, n, count, rng: np.full(count, 1.0 / (1 << n)), lambda spec, n: 8),
    ),
    "point": Family(
        Rows(_POINT.blocks, lambda spec, n: _float_bytes(1 << n, 16)),
        Route(lambda spec, n, count, rng: (rng.integers(0, 1 << n, count) == 0).astype(float),
              lambda spec, n: 16),
        support=_POINT,
    ),
}


def instance_prob_values(
    family: FamilySpec, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Dense output distributions of `count` fresh instances, shape (count, 2^n)."""
    return FAMILIES[family.kind].dense.draw(family, n, count, rng)


def reference_mass_values(
    family: FamilySpec, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """p(x*) at the reference outcome x* = 0...0 for `count` fresh instances."""
    return FAMILIES[family.kind].mass.draw(family, n, count, rng)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one (taskset, cgroup cpusets), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FanOutStopped(Exception):
    """Raised in a cell at its next chunk once another cell of its fan-out failed."""


# the stop Event of the fan-out whose pool this thread serves; unset outside a pool
_pool_thread = threading.local()


def _serve(stop: threading.Event) -> None:
    _pool_thread.stop = stop


def _parallel_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], on a pool of min(workers, len(tasks)) threads.

    Cells whose time goes into large draws and array operations overlap,
    since those release the GIL, without copying an interpreter per worker.
    Cells whose time goes into many small numpy calls hold the GIL, and
    their threads take turns. Cells are few, coarse and unequal in cost:
    they are handed out one at a time in task order and collected in order.
    The first failing cell ends the fan-out at once: cells not yet started
    are cancelled, running cells stop at their next chunk (_collect), and
    its own error is raised.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    stop = threading.Event()
    with ThreadPoolExecutor(min(workers, len(tasks)), initializer=_serve, initargs=(stop,)) as pool:
        futures = [pool.submit(fn, t) for t in tasks]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
            for f in futures:  # the earliest failed cell in cell order, if any
                if f.done() and f.exception() is not None:
                    raise f.exception()
        except BaseException:
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise
    return [f.result() for f in futures]


def _chunk(item_bytes: int) -> int:
    """Items a chunk holds, which decides the substream each item draws from:
    as many as CHUNK_BYTES holds at item_bytes each, from 1 to MAX_CHUNK."""
    return max(1, min(MAX_CHUNK, CHUNK_BYTES // item_bytes))


def _collect(draw, total: int, item_bytes: int, stream: RandomStream) -> np.ndarray:
    """draw(rng, count) over `total` items in chunks of _chunk(item_bytes), concatenated
    in draw order. Before each chunk it raises FanOutStopped where another cell of
    this thread's fan-out has failed: chunks are where a cell may stop."""
    chunk = _chunk(item_bytes)
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    stop = getattr(_pool_thread, "stop", None)
    parts = []
    for k, size in enumerate(sizes):
        if stop is not None and stop.is_set():
            raise FanOutStopped("another cell of the fan-out failed")
        parts.append(draw(stream.child(k).generator, size))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _moment_report(values: np.ndarray) -> MomentReport:
    T = values.size
    mean = float(values.mean())
    variance = float(values.var(ddof=1)) if T > 1 else 0.0
    se_mean = math.sqrt(variance / T)
    centered = values - mean
    m4 = float((centered**4).mean())
    var_of_s2 = (m4 - variance**2 * (T - 3) / (T - 1)) / T if T > 1 else 0.0
    return MomentReport(mean=mean, variance=variance, se_mean=se_mean,
                        se_variance=math.sqrt(max(var_of_s2, 0.0)), trials=T)


def _reference_masses(family: FamilySpec, n: int, trials: int, stream) -> np.ndarray:
    """p(x*) of `trials` instances in draw order, for the tail statistics."""
    masses = _collect(lambda rng, count: reference_mass_values(family, n, count, rng),
                      trials, FAMILIES[family.kind].mass.bytes_per_instance(family, n), stream)
    if not np.isfinite(masses).all():  # a tail count would take NaN as a miss
        raise ValueError(f"domain error: {family.label()} at n={n} drew a non-finite mass")
    return masses


def estimate_tail_curve(
    family: FamilySpec, n: int, y_grid, trials: int, stream: RandomStream
) -> TailCurve:
    """Empirical Prob(p(x*) >= y/2^n) across the grid, with 95% Wilson CIs.

    One pooled sample of reference masses serves the whole grid, which also
    makes the point estimates exactly non-increasing in y.
    """
    grid = sorted(float(y) for y in y_grid)
    masses = _reference_masses(family, n, trials, stream)
    hits = [int(np.count_nonzero(masses >= y / (1 << n))) for y in grid]
    lows, highs = zip(*(wilson_interval(h, trials) for h in hits))
    return TailCurve(y_grid=tuple(grid), estimates=tuple(h / trials for h in hits),
                     ci_low=lows, ci_high=highs, trials=trials)


def _on_supports(family: FamilySpec, n: int) -> bool:
    """Whether a pairwise cell scores its pairs on their 2K support points: a
    sparse kind where its K positions are drawn, not ranked (K^2 <= 2^n, K < 2^n)."""
    support = FAMILIES[family.kind].support
    if support is None:
        return False
    K = support.size(family, n)
    return K * K <= 1 << n and K < 1 << n


def _support_difference(family: FamilySpec, n: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """p - q of `count` fresh pairs of a sparse kind on the union of their
    supports: (points, diff), (count, 2K) each, points sorted along a row. A
    point of both supports holds p - q at its first entry and 0 at its second."""
    draw = FAMILIES[family.kind].support.draw
    (p, x), (q, y) = draw(family, n, count, rng), draw(family, n, count, rng)
    points = np.concatenate([x, y], axis=1)
    order = np.argsort(points, axis=1)
    points = np.take_along_axis(points, order, axis=1)
    diff = np.take_along_axis(np.concatenate([p, -q], axis=1), order, axis=1)
    del p, q, x, y, order  # freed before the twins are merged, as _support_pair_bytes counts
    # a row's positions are distinct within p and within q, so a point occurs at most twice
    twin = points[:, 1:] == points[:, :-1]
    diff[:, :-1][twin] += diff[:, 1:][twin]
    diff[:, 1:][twin] = 0.0
    return points, diff


def _subtract_blocks(p: np.ndarray, blocks) -> None:
    """p -= the rows that (index, values) blocks hand out, one block alive at a time."""
    for index, values in blocks:
        p[index] -= values
        del values  # freed before the next block is drawn


def _abs_row_sums(a: np.ndarray) -> np.ndarray:
    """|a| summed along each row, BLOCK_BYTES of rows at a time, never |a| whole."""
    out = np.empty(len(a))
    rows = max(1, BLOCK_BYTES // a[0].nbytes)
    for start in range(0, len(a), rows):
        np.abs(a[start:start + rows]).sum(axis=1, out=out[start:start + rows])
    return out


def pairwise_loss_values(
    family: FamilySpec,
    n: int,
    combos: list[tuple[str, float | None]],
    pairs: int,
    stream: RandomStream,
) -> np.ndarray:
    """Losses of `pairs` independent instance pairs in draw order, one row per
    (metric, sigma) combo; every combo is scored on the same pairs.

    A pair is scored on its dense difference p - q, or, where _on_supports,
    on that difference over the 2K points of its two supports, drawn from the
    same generator calls: SD, L1 and TVD sum it, and MMD^2 is the kernel
    double sum over the points. A dense chunk draws its p whole, then q's rows
    block by block from the same generator (all of q for iqp and mps), each
    subtracted into p as it comes, and scores that one array: SD and L1 read
    it, and MMD^2 transforms it in place last."""
    mmd2 = [i for i, (metric, _) in enumerate(combos) if metric == "mmd2"]
    mmd2_kernels = tuple(bandwidth_kernel(sigma) for metric, sigma in combos if metric == "mmd2")
    on_supports = _on_supports(family, n)
    route = FAMILIES[family.kind].dense

    def draw(rng, count):
        if on_supports:
            points, diff = _support_difference(family, n, count, rng)
        else:
            diff = instance_prob_values(family, n, count, rng)
            _subtract_blocks(diff, route.blocks(family, n, count, rng, route.block_rows(family, n, count)))
        out = np.empty((len(combos), count))
        l1 = None
        for i, (metric, _) in enumerate(combos):
            if metric == "sd":
                np.einsum("ij,ij->i", diff, diff, out=out[i])
            elif metric != "mmd2":
                if l1 is None:
                    l1 = _abs_row_sums(diff)
                np.multiply(l1, 1.0 if metric == "l1" else 0.5, out=out[i])
        if mmd2:  # last: the dense transform runs in place in diff
            out[mmd2] = (mmd2_points_batch(points, diff, n, mmd2_kernels) if on_supports
                         else mmd2_fourier_batch(diff, n, mmd2_kernels)).T
        return out

    item_bytes = (_support_pair_bytes(FAMILIES[family.kind].support.size(family, n), n) if on_supports
                  else route.bytes_per_instance(family, n))
    return _collect(draw, pairs, item_bytes, stream)


def pairwise_loss_moments(
    family: FamilySpec,
    n: int,
    combos: list[tuple[str, float | None]],
    pairs: int,
    stream: RandomStream,
) -> list[MomentReport]:
    """Mean/variance of each combo's loss across the same instance pairs, in
    combo order."""
    return [_moment_report(row) for row in pairwise_loss_values(family, n, combos, pairs, stream)]


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
        second_moment_statistic=statistic, second_moment_se=se, tail_at_half=hits / trials,
        tail_ci_low=lo, tail_ci_high=hi, trials=trials,
    )


def diagonal_observable_variance(
    family: FamilySpec, n: int, S: SubsetMask, trials: int, stream: RandomStream
) -> MomentReport:
    """Across-instance moments of <Z_S> = sum_x chi_S(x) p(x). The signs
    chi_S are one float row of 2^n beside the cell's chunks, built in place."""
    signs = np.ones(1 << n)
    for i in range(n):  # outcomes with bit i set: those without, negated where i is in S
        h = 1 << i
        np.multiply(signs[:h], -1.0 if S.mask >> i & 1 else 1.0, out=signs[h : 2 * h])
    values = _collect(
        lambda rng, count: instance_prob_values(family, n, count, rng) @ signs,
        trials, FAMILIES[family.kind].dense.bytes_per_instance(family, n), stream,
    )
    return _moment_report(values)


def distance_to_uniform_moments(
    family: FamilySpec, n: int, trials: int, stream: RandomStream
) -> MomentReport:
    """Moments of the squared distance to the uniform distribution."""

    def draw(rng, count):
        diff = instance_prob_values(family, n, count, rng) - 1.0 / (1 << n)
        return np.einsum("ij,ij->i", diff, diff)

    values = _collect(draw, trials, FAMILIES[family.kind].dense.bytes_per_instance(family, n), stream)
    return _moment_report(values)


def mmdtest_rejection_rates(family, n, sigmas, alpha, samples, trials, stream) -> np.ndarray:
    """Monte Carlo rejection rates of the two-sample test within one family,
    shape (len(sigmas), 2): the null's rate, then the alternative's.

    Per repetition draws two fresh instances p, q and three sample sets, and
    at every bandwidth runs the test twice on them: once with both sample
    sets from p (the null) and once with one set from each (family-typical
    alternative). Concentrated families are expected to show near-zero power
    here; that is the behavior being measured.

    Repetitions run in _collect chunks sized at _mmdtest_rep_bytes each. A
    chunk of R draws its 2R instances in one call (row 2i is repetition i's
    p, row 2i + 1 its q), then the uniforms of its 3R sample sets in one
    (rows 3i and 3i + 1 from p_i, row 3i + 2 from q_i), and validates,
    samples and scores them together, each estimate bit for bit that of the
    repetition alone.
    """
    specs = tuple(bandwidth_kernel(sigma) for sigma in sigmas)
    threshold = mmd_test_threshold(samples, samples, alpha)
    score = mmd2_unbiased_pairs(n, samples, samples, specs)

    def draw(rng, count):
        p = validate_prob_vector(instance_prob_values(family, n, 2 * count, rng), n)
        index = np.arange(count)[:, None]
        rows = (2 * index + [0, 0, 1]).ravel()
        outcomes = circuits.sample_prob_vector(p, rng.random((3 * count, samples)), rows)
        del p
        # a repetition's equal pair (sets 3i, 3i + 1) and distinct pair (sets 3i, 3i + 2)
        pairs = (3 * index[:, None] + [[0, 1], [0, 2]]).reshape(-1, 2)
        estimates = score(outcomes.reshape(-1, samples), pairs)
        return estimates.reshape(len(specs), count, 2).transpose(0, 2, 1) > threshold

    return _collect(draw, trials, _mmdtest_rep_bytes(family, n, samples), stream).mean(axis=-1)
