"""Loss functions between distributions over bit strings, batched.

Implements the maximum mean discrepancy (MMD^2) under the Gaussian-Hamming
kernel in its Fourier-diagonal form over batches of dense differences, as a
kernel double sum over batches of differences held on a few points, the
two-sample U-statistic and its test threshold. The pairwise experiments in
lab take SD, L1 and TVD of a batch directly. The single-pair form of every
metric, and the kernel double sum that checks the Fourier form, are test
oracles (tests/oracles.py). The functions take the values cli has checked
where they enter: sample sets of one width with at least 2 outcomes each, and
alpha in (0, 1]. KernelSpec and bandwidth_kernel hold the checks made here.

The kernel k(x, y) = exp(-d_H(x, y)/(2 sigma^2)) = rho^{d_H} with
rho = exp(-1/(2 sigma^2)) is diagonal in the character basis with
eigenvalue (1-rho)^{|S|} (1+rho)^{n-|S|} / 2^n on chi_S, so

    MMD^2(p, q) = (1/2^n) sum_S (1-rho)^{|S|} (1+rho)^{n-|S|} (phat_S - qhat_S)^2.

At rho = 0 the weights collapse to 1 and Parseval turns this into the
squared distance; that limit is accepted directly (rho=0, or sigma=0
through bandwidth_kernel) even though no finite bandwidth reaches it.
bandwidth_kernel is the only conversion from sigma to rho; it refuses a
sigma so wide that rho rounds to 1 (above about 9.5e7), a constant kernel.
mmd2_fourier_batch evaluates every requested bandwidth from one transform,
run in place in the batch it is given, and each column equals, bit for bit,
a call with that kernel alone.

The two-sample U-statistic has one scorer, mmd2_unbiased_pairs, which
scores pairs of sample sets of m and l outcomes; mmd2_unbiased is its one
pair. The statistic is

    (xx - m)/(m(m-1)) + (yy - l)/(l(l-1)) - 2 xy/(m l),

with xx, xy, yy the kernel sums c^T K c' over the outcome histograms of the
pair. Between two samples of one law the three terms nearly cancel, so the
scorer sums them exactly first. Either route splits each kernel sum into
n + 1 classes with one weight each and counts every class exactly in int64.
Per class it combines the three terms over one denominator in integers and
rounds that once; each kernel's n + 1 weights are applied last. The route
is picked from (n, m, l) alone, and every kernel shares its transform or
histograms:

* counts: one offset bincount makes every set's histogram and one batched
  transform turns them all; a class is the masks S of one Hamming weight k,
  the sum of chat_S chat'_S over them, and its weight (1-rho)^k
  (1+rho)^{n-k} / 2^n. Cost about 2 n 2^n a lone pair.
* distances: int64 histograms of the Hamming distances over the sample
  pairs, each unordered within-sample pair visited once; a class is one
  distance d, with weight rho^d. A set's own histogram is made once
  however many pairs hold it. Cost m(m+1)/2 + l(l+1)/2 + m l cells a lone
  pair. This route covers outcomes up to 64 bits.

Exact means: the result is the U-statistic of the float rho up to the
rounding of the n + 1 class weights and of the terms, and no cancellation
between the three terms is rounded. The int64 counts are exact while a class
sum stays below 2^63: at most 2^n max(m, l)^2 on the counts route, which its
rule requires, and max(m, l)^2 on the distance route, which the scorer
checks.

The counts route runs when its units number at most _DISTANCE_CELL_UNITS
times the distance route's cells, a lone pair's working memory
(counts_bytes_per_outcome) fits MMD_MEMORY_BYTES, and
its class sums are exact. The distance route works in row blocks of 8 bytes
a cell that fit the same budget (or in one row, if that is larger). Neither
allocates anything of size m x m. counts_route is that rule, the one place
it is stated.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bitmath import SampleSet, fwht, popcounts

# the two-sample scorer's peak working memory: either route's arrays fit in this many
# bytes (or in one row of the distance route, if that is larger)
MMD_MEMORY_BYTES = 1 << 26

# what a distance cell costs in counts units, as the scorer's route rule
# weighs them. On one core a counts unit costs about 1 ns and a distance cell
# 4-6 ns; timed over m = l, the counts route wins below 2 n 2^n / cells of
# about 4-5 at n = 16..20, and at every ratio up to 20 for n <= 14, where the
# distance route's row blocks cost more than its cells (scan in CHANGES.md).
# The weight sits at that crossover; moving it moves the rows of the cells
# whose route flips, so it changes only with a version bump.
_DISTANCE_CELL_UNITS = 4.5


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian-Hamming kernel rho^{d_H}, rho in [0, 1); bandwidth_kernel
    builds one from a bandwidth.

    k(x, x) = 1, so the kernel bound K of mmd_test_threshold is 1.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"domain error: rho must lie in [0, 1), got {self.rho}")
        object.__setattr__(self, "rho", float(self.rho))


def bandwidth_kernel(sigma: float) -> KernelSpec:
    """The kernel of bandwidth sigma, rho = exp(-1/(2 sigma^2)): the one
    conversion from a bandwidth to rho.

    sigma = 0 stands for rho = 0, and so does a sigma whose square underflows
    to 0, since rho underflows there too. A sigma so wide that rho rounds to 1
    (above about 9.5e7), or whose square overflows, is refused: that kernel
    is 1 everywhere, and every MMD^2 under it would read 0.
    """
    sigma = float(sigma)
    if 0.0 <= sigma < math.inf:
        try:
            square = sigma**2
        except OverflowError:
            square = math.inf
        if square == 0.0:
            return KernelSpec(rho=0.0)
        rho = math.exp(-1.0 / (2.0 * square))
        if rho < 1.0:
            return KernelSpec(rho=rho)
    raise ValueError(
        "domain error: sigma must be positive and finite (or 0, for rho = 0), "
        f"with rho = exp(-1/(2 sigma^2)) below 1; got {sigma!r}"
    )


def _class_weights(n: int, spec: KernelSpec) -> np.ndarray:
    """Kernel eigenvalue (1-rho)^k (1+rho)^{n-k} of the masks of weight k = 0..n."""
    k = np.arange(n + 1)
    return (1.0 - spec.rho) ** k * (1.0 + spec.rho) ** (n - k)


def fourier_weights(n: int, spec: KernelSpec) -> np.ndarray:
    """Kernel eigenvalue (1-rho)^|S| (1+rho)^{n-|S|} per subset mask."""
    return _class_weights(n, spec)[popcounts(n)]


def mmd2_fourier_batch(diffs: np.ndarray, n: int, specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """MMD^2 of diffs, shape (..., 2^n), under each kernel: one column per kernel.

    diffs is scratch: a writeable C-contiguous float64 array is transformed
    and squared in place, so the batch is held once; any other is copied first.
    """
    power = fwht(np.require(diffs, np.float64, ["C", "W"]), in_place=True)
    np.square(power, out=power)
    out = np.empty((len(specs),) + power.shape[:-1])
    for row, spec in zip(out, specs):
        np.matmul(power, fourier_weights(n, spec), out=row)
        row /= 1 << n
    return np.moveaxis(out, 0, -1)


def _point_pair_histogram(points: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per row, the sum of w_i w_j over the pairs of points at Hamming
    distance 0..n, shape (B, n + 1); the pair tables are freed on return."""
    B = len(points)
    keys = points[:, :, None] ^ points[:, None, :]
    np.bitwise_count(keys, out=keys)
    keys += (n + 1) * np.arange(B)[:, None, None]
    products = weights[:, :, None] * weights[:, None, :]
    return np.bincount(keys.reshape(-1), products.reshape(-1), minlength=B * (n + 1)).reshape(B, n + 1)


def mmd2_points_batch(points: np.ndarray, weights: np.ndarray, n: int,
                      specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """MMD^2 of differences given as weights on n-bit points, shape (B, M)
    each, under each kernel: the double sum sum_ij w_i w_j rho^{d_H(x_i, x_j)}
    of each row, one column per kernel, every kernel from one histogram."""
    h = _point_pair_histogram(points, weights, n)
    return np.stack([h @ spec.rho ** np.arange(n + 1) for spec in specs], axis=-1)


def _fourier_class_sums(classed: np.ndarray, pairs: np.ndarray, starts: np.ndarray) -> tuple:
    """(cx cx, cx cy, cy cy) summed exactly over the masks of each Hamming
    weight, for each pair (x, y) of rows of classed, the transformed
    histograms as int64 in class order that starts splits: three arrays of
    shape (pairs, n + 1). A set's own sums are made once however many pairs
    hold it, and one cross product row is alive at a time."""
    own = np.add.reduceat(classed * classed, starts, axis=1)
    cross = np.array([np.add.reduceat(classed[i] * classed[j], starts) for i, j in pairs])
    return own[pairs[:, 0]], cross, own[pairs[:, 1]]


def _block_histogram(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """One block's distance counts; the block is freed on return, before the
    caller makes the next, so one block at a time is alive."""
    d = np.bitwise_xor(a[:, None], b[None, :])
    np.bitwise_count(d, out=d)
    return np.bincount(d.view(np.int64).ravel(), minlength=n + 1)


def _hamming_histogram(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Counts of d_H(a_i, b_j) = 0..n over all (i, j), in row blocks."""
    rows = max(1, MMD_MEMORY_BYTES // (8 * max(b.size, 1)))
    h = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, a.size, rows):
        h += _block_histogram(a[start : start + rows], b, n)
    return h


def _self_hamming_histogram(a: np.ndarray, n: int) -> np.ndarray:
    """_hamming_histogram(a, a, n), visiting each unordered pair once.

    Blocks of at most a sixteenth of the rows keep the square diagonal
    blocks, which are visited whole, a small share of the work.
    """
    h = np.zeros(n + 1, dtype=np.int64)
    rows = max(1, min(MMD_MEMORY_BYTES // (8 * a.size), a.size // 16))
    for start in range(0, a.size, rows):
        block, rest = a[start : start + rows], a[start + rows :]
        h += _hamming_histogram(block, block, n) + 2 * _hamming_histogram(block, rest, n)
    return h


def counts_bytes_per_outcome(sets: int) -> int:
    """The counts route's peak bytes per outcome for a call scoring `sets`
    sets: 16 a set (its histogram and transform, then the transform and its
    copy in class order, that copy and its int64 copy, then that and its
    square) and 8 for one working row (a cross product). The scorer holds
    the class order beside its calls, 8 bytes an outcome, which the working
    row's 8 cover for a lone pair: it holds 40 (tracemalloc, n = 20: 40.3),
    inside MMD_MEMORY_BYTES at the largest N the route rule admits, 2^20."""
    return 16 * sets + 8


# the U-statistic's class sums are exact in int64: a counts-route sum over
# the masks of one weight is at most 2^n max(m, l)^2 (Cauchy-Schwarz and
# Parseval), and a distance count at most max(m, l)^2
_EXACT_LIMIT = 1 << 63


def counts_route(n: int, m: int, l: int) -> bool:
    """Whether the scorer takes the counts route for sets of m and l outcomes
    of n bits: the one route rule, from (n, m, l) alone. Beside cost and
    memory, its class sums must be exact in int64."""
    N, pair_cells = 1 << n, m * (m + 1) // 2 + l * (l + 1) // 2 + m * l
    counts_cheaper = 2 * n * N <= _DISTANCE_CELL_UNITS * pair_cells
    fits = (counts_bytes_per_outcome(2) + 8) * N <= MMD_MEMORY_BYTES
    return counts_cheaper and fits and N * max(m, l) ** 2 < _EXACT_LIMIT


def _estimates(tables, diagonal, m: int, l: int, weights) -> np.ndarray:
    """The U-statistic per kernel and pair, shape (kernels, pairs), from the
    exact class tables (xx, xy, yy), each (pairs, n + 1), whose diagonal
    pairs (an outcome with itself) number m and l times diagonal a class.

    Per pair and class the three terms
    (xx - m d)/(m(m-1)) + (yy - l d)/(l(l-1)) - 2 xy/(m l), which nearly
    cancel between two samples of one law, are combined over one
    denominator in integers and rounded once. Each kernel's weights
    are applied last, summed along the pair's row, so an estimate is bit for
    bit that of its pair and its kernel alone.
    """
    m, l = int(m), int(l)
    # a numerator is below 2^(n+2) m^2 l^2; where that is below 2^53, int64
    # holds it and float64 divides it exactly as Python integers do, faster
    exact = np.int64 if (4 * (m * l) ** 2) << len(diagonal) < 1 << 54 else object
    xx, xy, yy = np.asarray(tables, dtype=exact)
    d = np.asarray(diagonal, dtype=exact)
    numerator = (xx - m * d) * (l * (l - 1)) + (yy - l * d) * (m * (m - 1)) - 2 * xy * ((m - 1) * (l - 1))
    terms = (numerator / (m * (m - 1) * l * (l - 1))).astype(float)
    return np.stack([(terms * w).sum(axis=1) for w in weights])


def mmd2_unbiased(X: SampleSet, Y: SampleSet, specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """Two-sample U-statistic whose expectation is the population MMD^2, per kernel.

    Averages the kernel over distinct ordered pairs within each sample and
    over all cross pairs; can be negative and is never clamped (clamping
    would break the unbiasedness the concentration bound relies on). It is
    mmd2_unbiased_pairs' one pair (X, Y); each estimate equals, bit for bit,
    a call with that kernel alone.
    """
    return mmd2_unbiased_pairs(X.n, len(X), len(Y), specs)([X.outcomes, Y.outcomes], [(0, 1)])[:, 0]


def mmd2_unbiased_pairs(n: int, m: int, l: int, specs: tuple[KernelSpec, ...]) -> Callable:
    """A scorer of sets of n-bit outcomes: score(sets, pairs) is the
    U-statistic of set i (m outcomes) against set j (l outcomes) for each row
    (i, j) of pairs, shape (len(specs), len(pairs)). sets is a 2-D array of
    equal sets, one a row, or a sequence of 1-D arrays.

    The route is counts_route(n, m, l), and each kernel's n + 1 weights and
    the counts route's class order are built here, once. At its peak the
    counts route holds counts_bytes_per_outcome of its sets.
    """
    if max(m, l) ** 2 >= _EXACT_LIMIT:
        raise ValueError(f"resource error: sets of {m} and {l} outcomes overflow the exact int64 counts")
    if not counts_route(n, m, l):
        powers = [spec.rho ** np.arange(n + 1) for spec in specs]
        same = [1] + [0] * n  # an outcome is at distance 0 from itself

        def score(sets, pairs):
            own = {i: _self_hamming_histogram(sets[i], n) for i in np.unique(pairs)}
            tables = [(own[i], _hamming_histogram(sets[i], sets[j], n), own[j]) for i, j in pairs]
            return _estimates(np.transpose(tables, (1, 0, 2)), same, m, l, powers)

        return score
    N = 1 << n
    weights = [_class_weights(n, spec) / N for spec in specs]
    # sum_S w_S / 2^n = k(x, x) = 1, so the diagonal holds C(n, k) of a class
    binomials = [math.comb(n, k) for k in range(n + 1)]
    order = np.argsort(popcounts(n), kind="stable")
    starts = np.cumsum([0] + binomials[:-1])

    def score(sets, pairs):
        # outcomes offset by N times their set's index. An array of equal sets
        # (an mmdtest chunk) is read through a view, so the keys are the one
        # copy that lab._mmdtest_rep_bytes counts; a sequence is joined first
        equal = isinstance(sets, np.ndarray)
        sizes = sets.shape[1] if equal else [len(s) for s in sets]
        keys = np.repeat(N * np.arange(len(sets)), sizes)
        keys += (sets.reshape(-1) if equal else np.concatenate(sets)).view(np.int64)
        hats = fwht(np.bincount(keys, minlength=N * len(sets)).reshape(-1, N))
        del keys
        classed = np.take(hats, order, axis=1)
        del hats
        # exact: the transforms of counts below 2^53 are integers
        classed = classed.astype(np.int64)
        return _estimates(_fourier_class_sums(classed, np.asarray(pairs), starts), binomials, m, l, weights)

    return score


def mmd_test_threshold(m: int, l: int, alpha: float) -> float:
    """Acceptance threshold K sqrt(8 ln(1/alpha)/(m+l)) for H0: p = q, with the
    kernel bound K = 1: k(x, x) = 1 for every KernelSpec."""
    return math.sqrt(8.0 * math.log(1.0 / alpha) / (m + l))


