"""Loss functions between distributions over bit strings.

Implements the squared distance, the maximum mean discrepancy (MMD^2) under
the Gaussian-Hamming kernel in three interchangeable forms (kernel double
sum, Fourier diagonalization, two-sample U-statistic), the associated
two-sample test threshold, and 1-norm / total-variation distances.

The kernel k(x, y) = exp(-d_H(x, y)/(2 sigma^2)) = rho^{d_H} with
rho = exp(-1/(2 sigma^2)) is diagonal in the character basis with
eigenvalue (1-rho)^{|S|} (1+rho)^{n-|S|} / 2^n on chi_S, so

    MMD^2(p, q) = (1/2^n) sum_S (1-rho)^{|S|} (1+rho)^{n-|S|} (phat_S - qhat_S)^2.

At rho = 0 the weights collapse to 1 and Parseval turns this into the
squared distance; that limit is accepted directly (rho=0, or sigma=0
through bandwidth_kernel) even though no finite bandwidth reaches it.
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

The counts route runs when it has no more units than the distance route
(the rule weighs the units alike, though on one core a counts unit costs
about 1 ns and a distance cell 4-6 ns) and its working memory, 40 bytes
per outcome, fits MMD_MEMORY_BYTES; the distance route works in row blocks
of 8 bytes a cell that fit the same budget (or in one row, if that is
larger). Neither allocates anything of size m x m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmath import MAX_KERNEL_SUM_QUBITS, ProbVector, SampleSet, fwht, popcounts

# mmd2_unbiased's peak working memory: either route's arrays fit in this many
# bytes (or in one row of the distance route, if that is larger)
MMD_MEMORY_BYTES = 1 << 26

# the counts route's peak per outcome (tracemalloc, n = 20: 40.0015): the two
# transformed float64 histograms, one kernel's square-rooted eigenvalues and
# that kernel's weighted copy of the histograms. The transform itself peaks
# lower (32.25), at the histograms, their copy and one matmul block.
_COUNTS_BYTES_PER_OUTCOME = 40.0


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian-Hamming kernel, given either a bandwidth or rho directly.

    k(x, x) = 1, so the kernel bound K of mmd_test_threshold is 1.
    """

    sigma: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if (self.sigma is None) == (self.rho is None):
            raise ValueError("give exactly one of sigma, rho")
        if self.sigma is not None:
            if not 0.0 < self.sigma < math.inf:
                raise ValueError(
                    f"domain error: sigma must be positive and finite, got {self.sigma}"
                )
            object.__setattr__(self, "sigma", float(self.sigma))
            object.__setattr__(self, "rho", math.exp(-1.0 / (2.0 * self.sigma**2)))
        else:
            if not 0.0 <= self.rho < 1.0:
                raise ValueError(f"domain error: rho must lie in [0, 1), got {self.rho}")
            object.__setattr__(self, "rho", float(self.rho))


def bandwidth_kernel(sigma: float) -> KernelSpec:
    """The kernel of bandwidth sigma, where sigma = 0 stands for rho = 0."""
    return KernelSpec(rho=0.0) if sigma == 0.0 else KernelSpec(sigma=sigma)


def _check_same_n(p: ProbVector, q: ProbVector):
    if p.n != q.n:
        raise ValueError(f"dimension error: n mismatch {p.n} != {q.n}")


def squared_distance(p: ProbVector, q: ProbVector) -> float:
    """sum_x (p(x) - q(x))^2."""
    _check_same_n(p, q)
    d = p.values - q.values
    return float(d @ d)


def fourier_weights(n: int, spec: KernelSpec) -> np.ndarray:
    """Kernel eigenvalue (1-rho)^|S| (1+rho)^{n-|S|} per subset mask."""
    k = np.arange(n + 1)
    return ((1.0 - spec.rho) ** k * (1.0 + spec.rho) ** (n - k))[popcounts(n)]


def mmd2_fourier(p: ProbVector, q: ProbVector, spec: KernelSpec) -> float:
    """MMD^2 via two Walsh-Hadamard transforms, O(N log N)."""
    _check_same_n(p, q)
    ghat = fwht(p.values - q.values)
    return float(fourier_weights(p.n, spec) @ ghat**2) / (1 << p.n)


def mmd2_fourier_batch(diffs: np.ndarray, n: int, specs: tuple[KernelSpec, ...]) -> np.ndarray:
    """MMD^2 of diffs, shape (..., 2^n), under each kernel: one column per kernel."""
    power = fwht(np.asarray(diffs, dtype=float)) ** 2
    return np.stack([power @ fourier_weights(n, spec) / (1 << n) for spec in specs], axis=-1)


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
    if 2 * n * N <= pair_cells and _COUNTS_BYTES_PER_OUTCOME * N <= MMD_MEMORY_BYTES:
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
