"""Bit-domain primitives.

Bitstrings over F_2^n, Hamming distance, Fourier characters, the fast
Walsh-Hadamard transform, validated probability vectors and deterministic
random-stream derivation. Everything downstream (distribution families,
kernels, experiments) is built on these.

The transform applies H_{2^n} as Kronecker factors of small Hadamard
matrices, each one BLAS matmul over blocks of rows, in place in the output;
complex input goes through as its real and imaginary planes.

Conventions used throughout the package:

* Outcomes x in {0,1}^n are stored as the integer sum_i x_i 2^(i-1), so
  qubit 1 is the least significant bit of the index.
* The character of a subset S (also stored as a mask) is
  chi_S(x) = (-1)^popcount(S & x), and the transform computes
  P_hat(S) = sum_x P(x) chi_S(x). The inverse carries the 1/2^n factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Dense vectors of 2^n entries are the workhorse representation; past this
# cap memory explodes, so every constructor enforces it.
MAX_DENSE_QUBITS = 26

# Dense complex statevectors and the generators built on them (IQP, MPS)
# stop here; above it they are deliberately unsupported.
MAX_STATEVECTOR_QUBITS = 16

# the MMD^2 kernel double sum is O(4^n); past this, use the Fourier form
MAX_KERNEL_SUM_QUBITS = 13

# |sum(p) - 1| above this rejects the vector. Normalizing 2^26 positive
# doubles accumulates rounding well below 1e-9.
NORMALIZATION_ATOL = 1e-9

# fwht's Kronecker factors are at most 2^_FACTOR_BITS wide, and each matmul
# takes a block of about _BLOCK_BYTES (tuned on 2^10..2^20 outcomes; see
# CHANGES.md): 16 x 16 factors and 256 KiB blocks, which stay in cache
_FACTOR_BITS = 4
_BLOCK_BYTES = 1 << 18


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


@dataclass(frozen=True)
class SubsetMask:
    """A subset S of qubit positions [n], stored as a bit mask.

    Qubit i is a member iff bit (i-1) of mask is set, mirroring the
    BitString index convention.
    """

    mask: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_QUBITS:
            raise ValueError(f"n must be in [1, {MAX_DENSE_QUBITS}], got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")

    @property
    def weight(self) -> int:
        """|S|, the number of set positions."""
        return self.mask.bit_count()

    @classmethod
    def from_positions(cls, positions, n: int) -> "SubsetMask":
        """Build from 1-based qubit positions, e.g. {1,3} -> mask 0b101."""
        mask = 0
        for i in positions:
            if not 1 <= i <= n:
                raise ValueError(f"qubit index {i} out of range for n={n}")
            mask |= 1 << (i - 1)
        return cls(mask, n)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A distribution over {0,1}^n as a dense vector of 2^n masses.

    Construct through validate_prob_vector so the invariants (entries >= 0,
    sum within NORMALIZATION_ATOL of 1) are actually checked.
    """

    n: int
    values: np.ndarray

    @property
    def size(self) -> int:
        return 1 << self.n


def validate_prob_vector(values, n: int) -> ProbVector:
    """Check and wrap a candidate probability vector.

    Raises ValueError naming the failed check: length mismatch, a negative
    entry (domain error), or the sum drifting from 1 beyond the tolerance
    (normalization error).
    """
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_DENSE_QUBITS}], got {n}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != (1 << n):
        raise ValueError(
            f"dimension error: expected {1 << n} entries for n={n}, got shape {arr.shape}"
        )
    if np.any(arr < 0.0):
        raise ValueError("domain error: negative probability entry")
    total = float(arr.sum())
    if not np.isfinite(total) or abs(total - 1.0) > NORMALIZATION_ATOL:
        raise ValueError(f"normalization error: sum(p) = {total!r}")
    arr = arr.copy()
    arr.flags.writeable = False
    return ProbVector(n=n, values=arr)


def check_statevector_cap(n: int) -> None:
    """Refuse a dense statevector over more than MAX_STATEVECTOR_QUBITS qubits."""
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"resource error: n={n} exceeds statevector cap {MAX_STATEVECTOR_QUBITS}"
        )


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


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The k x k Sylvester-Hadamard matrix, H[S, x] = (-1)^popcount(S & x)."""
    i = np.arange(k, dtype=np.uint64)
    h = 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i[None, :]) & 1)
    h.flags.writeable = False
    return h


def _factor_sizes(n: int) -> list[int]:
    """Sizes 2^s, s <= _FACTOR_BITS and as even as possible, with product 2^n."""
    count = max(1, -(-n // _FACTOR_BITS))
    base, extra = divmod(n, count)
    return [1 << (base + 1)] * extra + [1 << base] * (count - extra)


def _apply_factor(v: np.ndarray, h: np.ndarray) -> None:
    """v[r] = h @ v[r] in place for a (rows, k, lo) view, in chunks of
    _BLOCK_BYTES. At lo = 1 the chunk is one GEMM, rows @ h (h is symmetric)."""
    rows, k, lo = v.shape
    if lo == 1:
        v = v.reshape(rows, k)
        step = max(1, _BLOCK_BYTES // (8 * k))
        for r in range(0, rows, step):
            v[r : r + step] = v[r : r + step] @ h
        return
    step = max(1, _BLOCK_BYTES // (8 * k * lo))
    width = min(lo, max(1, _BLOCK_BYTES // (8 * k)))
    for r in range(0, rows, step):
        for c in range(0, lo, width):
            block = v[r : r + step, :, c : c + width]
            block[...] = np.matmul(h, block)


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    out[S] = sum_x a[x] * (-1)^popcount(S & x). Works on batched (..., N)
    arrays of float or complex; N must be a power of two. The transform is
    an involution up to the factor N.

    H_N is the Kronecker product of Hadamard matrices of at most
    2^_FACTOR_BITS, one per group of index bits. Each factor is one BLAS
    matmul over the output, applied in place in blocks of about
    _BLOCK_BYTES, and costs k multiply-adds per entry, so the whole
    transform is O(N log N). The factor on the lowest bits is a plain GEMM,
    rows @ H. Complex input is transformed as the stacked real batch of its
    real and imaginary planes. Sums of +-1 multiples of integers are exact,
    so integer-valued input (below 2^53) gives exact coefficients.
    """
    a = np.asarray(a)
    N = a.shape[-1]
    if N == 0 or N & (N - 1):
        raise ValueError(f"length {N} is not a power of two")
    if np.iscomplexobj(a):
        planes = np.empty((2,) + a.shape)
        planes[0], planes[1] = a.real, a.imag
        re, im = _transform(planes)
        out = np.empty(a.shape, dtype=np.result_type(a.dtype, np.complex128))
        out.real, out.imag = re, im
        return out
    return _transform(np.array(a, dtype=np.result_type(a.dtype, np.float64), order="C"))


def _transform(x: np.ndarray) -> np.ndarray:
    """fwht of a C-contiguous float64 (..., N) array, in place; returns x."""
    flat, lo = x.reshape(-1), 1  # a view, since x is C-contiguous
    for k in _factor_sizes(x.shape[-1].bit_length() - 1):
        _apply_factor(flat.reshape(-1, k, lo), _hadamard(k))
        lo *= k
    return x


def walsh_hadamard(p: ProbVector) -> np.ndarray:
    """All 2^n Fourier characters P_hat(S) of a distribution.

    P_hat(0) = 1 for any normalized input and |P_hat(S)| <= 1 throughout.
    """
    return fwht(p.values)


def walsh_hadamard_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Invert walsh_hadamard: p(x) = 2^-n sum_S coeffs[S] chi_S(x)."""
    coeffs = np.asarray(coeffs)
    return fwht(coeffs) / coeffs.shape[-1]


def popcounts(n: int) -> np.ndarray:
    """Hamming weights of the indices 0 .. 2^n - 1 as a uint8 array."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.uint8)


@dataclass(frozen=True)
class RandomStream:
    """A deterministic, independently-seeded source of randomness.

    Streams are derived counter-style from (master_seed, path): equal pairs
    replay the identical sequence, distinct pairs are statistically
    independent. path is a tuple so nested fan-out (experiment -> chunk ->
    instance) never collides; derive_stream starts a path with one index.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "RandomStream":
        """Derive the index-th substream; deterministic and collision-free."""
        return RandomStream(self.master_seed, self.path + (int(index),))


def derive_stream(master_seed: int, index: int) -> RandomStream:
    """Stream number `index` under a master seed."""
    return RandomStream(int(master_seed), (int(index),))


def as_generator(stream) -> np.random.Generator:
    """Accept either a RandomStream or a raw numpy Generator."""
    if isinstance(stream, RandomStream):
        return stream.generator
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(stream)!r}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Outcomes drawn from one distribution instance, as uint64 indices."""

    n: int
    outcomes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.outcomes, dtype=np.uint64)
        if arr.ndim != 1:
            raise ValueError("outcomes must be a flat array of indices")
        if arr.size and int(arr.max()) >= (1 << self.n):
            raise ValueError(f"outcome exceeds 2^{self.n} - 1")
        object.__setattr__(self, "outcomes", arr)

    def __len__(self) -> int:
        return int(self.outcomes.size)

    def bitstrings(self) -> list[str]:
        """Render outcomes as 0/1 lines, most significant qubit first."""
        return [format(int(x), f"0{self.n}b") for x in self.outcomes]
