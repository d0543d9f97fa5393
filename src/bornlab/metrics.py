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
and each column equals, bit for bit, a call with that kernel alone.

The two-sample U-statistic has one scorer, mmd2_unbiased_pairs, which
scores pairs of sample sets of m and l outcomes; mmd2_unbiased is its one
pair. The statistic needs the kernel sums c^T K c' over the outcome
histograms c, c' of each pair, for each requested kernel. The scorer takes
one of two exact routes, picked from (n, m, l) alone, and every kernel
shares that route's transform or histograms:

* counts: one offset bincount makes every set's histogram and one batched
  transform turns them all, after which c^T K c' = sum_S w_S chat_S chat'_S
  / 2^n. Cost about 2 n 2^n a lone pair.
* distances: exact int64 histograms of the Hamming distances over the
  sample pairs, each unordered within-sample pair visited once, so each
  kernel sum is (rho^0..rho^n) @ h. A set's own histogram is made once
  however many pairs hold it. Cost m(m+1)/2 + l(l+1)/2 + m l cells a lone
  pair. This route covers outcomes up to 64 bits.

The counts route runs when its units number at most _DISTANCE_CELL_UNITS
times the distance route's cells, and a lone pair's working memory at one
kernel (counts_bytes_per_outcome) fits MMD_MEMORY_BYTES. The distance
route works in row blocks of 8 bytes a cell that fit the same budget (or in
one row, if that is larger). Neither allocates anything of size m x m.
counts_route is that rule, the one place it is stated.
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


def fourier_weights(n: int, spec: KernelSpec) -> np.ndarray:
    """Kernel eigenvalue (1-rho)^|S| (1+rho)^{n-|S|} per subset mask."""
    k = np.arange(n + 1)
    return ((1.0 - spec.rho) ** k * (1.0 + spec.rho) ** (n - k))[popcounts(n)]


def mmd2_fourier_batch(diffs: np.ndarray, n: int, specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """MMD^2 of diffs, shape (..., 2^n), under each kernel: one column per kernel."""
    power = fwht(np.asarray(diffs, dtype=float)) ** 2
    return np.stack([power @ fourier_weights(n, spec) / (1 << n) for spec in specs], axis=-1)


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


def _counts_kernel_sums(hats: np.ndarray, pairs, roots) -> np.ndarray:
    """(cx K cx, cx K cy, cy K cy) for each pair (x, y) of rows of hats, the
    transformed outcome histograms, per kernel: shape (3, kernels, pairs).

    K is diagonal in the Walsh basis, so the quadratic forms are Gram matrices
    weighted by the eigenvalues; roots holds each kernel's square-rooted
    eigenvalues over 2^n. For each kernel the pairs are gathered into one
    array, weighted in place, and multiplied by their own transpose in one
    stacked product: numpy runs pair @ pair.T over one buffer as a BLAS syrk
    per pair, which rounds as a lone pair's product does, where copies on
    the two sides would not.
    """
    sums = []
    for root in roots:
        gathered = np.take(hats, pairs, axis=0)
        gathered *= root
        sums.append(np.matmul(gathered, gathered.swapaxes(1, 2))[:, [0, 0, 1], [0, 1, 1]].T)
        del gathered  # freed before the next kernel's pairs are gathered
    return np.stack(sums, axis=1)


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


def counts_bytes_per_outcome(sets: int, pairs: int, kernels: int) -> int:
    """The counts route's peak bytes per outcome for a call holding the
    transforms of `sets` histograms (8 bytes each), `pairs` of them gathered
    for the Gram product (16 each) and the square-rooted eigenvalues of
    `kernels` kernels (8 each). A lone pair at one kernel holds 40
    (tracemalloc, n = 20: 40.41), inside MMD_MEMORY_BYTES at the largest N the
    route rule admits, 2^20."""
    return 8 * sets + 16 * pairs + 8 * kernels


def counts_route(n: int, m: int, l: int) -> bool:
    """Whether the scorer takes the counts route for sets of m and l outcomes
    of n bits: the one route rule, from (n, m, l) alone."""
    N, pair_cells = 1 << n, m * (m + 1) // 2 + l * (l + 1) // 2 + m * l
    counts_cheaper = 2 * n * N <= _DISTANCE_CELL_UNITS * pair_cells
    return counts_cheaper and counts_bytes_per_outcome(2, 1, 1) * N <= MMD_MEMORY_BYTES


def _estimates(sums, m: int, l: int) -> np.ndarray:
    """The U-statistic from the kernel sums (xx, xy, yy) over m and l outcomes."""
    xx, xy, yy = sums
    return (xx - m) / (m * (m - 1)) + (yy - l) / (l * (l - 1)) - 2.0 * xy / (m * l)


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

    The route is counts_route(n, m, l), and each kernel's weights are built
    here, once. At its peak the counts route holds counts_bytes_per_outcome
    of its sets, its pairs and the kernels.
    """
    if not counts_route(n, m, l):
        powers = [spec.rho ** np.arange(n + 1) for spec in specs]

        def score(sets, pairs):
            own = {i: _self_hamming_histogram(sets[i], n) for i in np.unique(pairs)}
            hists = [(own[i], _hamming_histogram(sets[i], sets[j], n), own[j]) for i, j in pairs]
            sums = [[[power @ h for power in powers] for h in pair] for pair in hists]
            return _estimates(np.transpose(sums, (1, 2, 0)), m, l)

        return score
    N = 1 << n
    roots = [np.sqrt(fourier_weights(n, spec) / N) for spec in specs]

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
        return _estimates(_counts_kernel_sums(hats, pairs, roots), m, l)

    return score


def mmd_test_threshold(m: int, l: int, alpha: float) -> float:
    """Acceptance threshold K sqrt(8 ln(1/alpha)/(m+l)) for H0: p = q, with the
    kernel bound K = 1: k(x, x) = 1 for every KernelSpec."""
    return math.sqrt(8.0 * math.log(1.0 / alpha) / (m + l))


