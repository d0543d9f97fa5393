"""Loss functions between distributions over bit strings, batched.

Implements the maximum mean discrepancy (MMD^2) under the Gaussian-Hamming
kernel in its Fourier-diagonal form over batches of differences, the
two-sample U-statistic and its test threshold. The pairwise experiments in
lab take SD, L1 and TVD of a batch directly. The single-pair form of every
metric, and the kernel double sum that checks the Fourier form, are test
oracles (tests/oracles.py).

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

The two-sample U-statistic mmd2_unbiased needs the kernel sums
c^T K c' over the outcome histograms c, c' of m and l samples, for each
requested kernel. It takes one of two exact routes, picked from (n, m, l)
alone, and every kernel shares that route's transform or histograms:

* counts: one batched transform of the two histograms, after which
  c^T K c' = sum_S w_S chat_S chat'_S / 2^n. Cost about 2 n 2^n.
* distances: exact int64 histograms of the Hamming distances over the
  sample pairs, each unordered within-sample pair visited once, so each
  kernel sum is (rho^0..rho^n) @ h. Cost m(m+1)/2 + l(l+1)/2 + m l cells.
  This route covers outcomes up to 64 bits.

The counts route runs when its units number at most _DISTANCE_CELL_UNITS
times the distance route's cells, and its working memory, 40 bytes per
outcome, fits MMD_MEMORY_BYTES; the distance route works in row blocks of
8 bytes a cell that fit the same budget (or in one row, if that is
larger). Neither allocates anything of size m x m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmath import SampleSet, fwht, popcounts

# mmd2_unbiased's peak working memory: either route's arrays fit in this many
# bytes (or in one row of the distance route, if that is larger)
MMD_MEMORY_BYTES = 1 << 26

# what a distance cell costs in counts units, as mmd2_unbiased's route rule
# weighs them. On one core a counts unit costs about 1 ns and a distance cell
# 4-6 ns; timed over m = l, the counts route wins below 2 n 2^n / cells of
# about 4-5 at n = 16..20, and at every ratio up to 20 for n <= 14, where the
# distance route's row blocks cost more than its cells (scan in CHANGES.md).
# The weight stays below that crossover so that the shapes the route tests
# pin to distances (n <= 12, ratios 2.56 to 3.4) keep their route; raising it
# changes rows, so it waits for a version bump.
_DISTANCE_CELL_UNITS = 2.5

# the counts route's peak per outcome (tracemalloc, n = 20: 40.0015): the two
# transformed float64 histograms, one kernel's square-rooted eigenvalues and
# that kernel's weighted copy of the histograms. The transform itself peaks
# lower (32.25), at the histograms, their copy and one matmul block.
_COUNTS_BYTES_PER_OUTCOME = 40.0


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


def _counts_kernel_sums(x: np.ndarray, y: np.ndarray, n: int, specs) -> list[np.ndarray]:
    """(cx K cx, cx K cy, cy K cy) for the outcome histograms, per kernel.

    K is diagonal in the Walsh basis, so after one batched transform of the
    two histograms the quadratic forms are a Gram matrix weighted by the
    eigenvalues.
    """
    N = 1 << n
    c = np.empty((2, N))
    c[0] = np.bincount(x.view(np.int64), minlength=N)
    c[1] = np.bincount(y.view(np.int64), minlength=N)
    c = fwht(c)
    sums = []
    for spec in specs:
        scaled = c * np.sqrt(fourier_weights(n, spec) / N)
        sums.append((scaled @ scaled.T)[[0, 0, 1], [0, 1, 1]])
        del scaled  # freed before the next kernel's weights are built
    return sums


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


def mmd2_unbiased(X: SampleSet, Y: SampleSet, specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """Two-sample U-statistic whose expectation is the population MMD^2, per kernel.

    Averages the kernel over distinct ordered pairs within each sample and
    over all cross pairs; can be negative and is never clamped (clamping
    would break the unbiasedness the concentration bound relies on). The
    kernel sums take the counts or the distance route of the module
    docstring; both are exact and neither holds an m x m array. Each
    estimate equals, bit for bit, a call with that kernel alone.
    """
    if X.n != Y.n:
        raise ValueError(f"dimension error: n mismatch {X.n} != {Y.n}")
    n, m, l = X.n, len(X), len(Y)
    if m < 2 or l < 2:
        raise ValueError("domain error: need at least 2 samples on each side")
    N, pair_cells = 1 << n, m * (m + 1) // 2 + l * (l + 1) // 2 + m * l
    counts_cheaper = 2 * n * N <= _DISTANCE_CELL_UNITS * pair_cells
    if counts_cheaper and _COUNTS_BYTES_PER_OUTCOME * N <= MMD_MEMORY_BYTES:
        sums = _counts_kernel_sums(X.outcomes, Y.outcomes, n, specs)
    else:
        hists = (
            _self_hamming_histogram(X.outcomes, n),
            _hamming_histogram(X.outcomes, Y.outcomes, n),
            _self_hamming_histogram(Y.outcomes, n),
        )
        sums = [[(spec.rho ** np.arange(n + 1)) @ h for h in hists] for spec in specs]
    xx, xy, yy = np.array(sums).T
    return (xx - m) / (m * (m - 1)) + (yy - l) / (l * (l - 1)) - 2.0 * xy / (m * l)


def mmd_test_threshold(m: int, l: int, alpha: float, k_max: float = 1.0) -> float:
    """Acceptance threshold K sqrt(8 ln(1/alpha)/(m+l)) for H0: p = q."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"domain error: alpha must lie in (0, 1], got {alpha}")
    if m + l < 1:
        raise ValueError("domain error: need at least one sample")
    return k_max * math.sqrt(8.0 * math.log(1.0 / alpha) / (m + l))


