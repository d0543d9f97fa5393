"""Random matrix product states with exact (perfect) sampling.

A state over n qubits is a chain of site tensors A_i of shape
(D_{i-1}, 2, D_i) with boundary dimensions 1, internal dimensions capped at
min(chi, 2^i, 2^(n-i)), and amplitudes

    psi(x) = A_1[x_1] A_2[x_2] ... A_n[x_n].

Site i corresponds to qubit i (LSB-first index convention, as everywhere in
the package). Random states draw iid standard complex Gaussian entries and
are then brought to left-canonical form by a QR sweep; dropping the final
1x1 factor normalizes the state exactly. The sweep is a gauge change plus
that scalar, so the batched dense generator, whose output is normalized
anyway, skips it: only perfect sampling needs the canonical form.

With left-canonical tensors the accumulated left environment is the
identity, so suffix marginals are exact inner products and sampling walks
site n -> 1 drawing each bit from its exact conditional given the bits
already fixed. One sample costs O(n chi^2).

mps_prob_values is the batched dense generator. It contracts each chain
from both ends and meets in the middle, at h = n // 2: sites 1..h give a
(D_h, 2^h) block whose columns are the low bits, sites n..h+1 a
(2^(n-h), D_h) block whose rows are the high bits, and one batched product
of the two writes the amplitudes already in LSB-first order. Each half
grows by one matmul a site against a permuted copy of the small site
tensor, so nothing of size 2^n is permuted. At n = 12, chi = 12 this is
about 20 2^n complex MACs an instance (12 2^n of them in the final
product), against 43 2^n for one left-to-right sweep, whose last sites
run skinny matmuls over 2^(n-1) rows.

The dense vector and the single-outcome probability of one state, and that
sweep, are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmath import SampleSet, as_generator, check_statevector_cap


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


def bond_dims(n: int, chi: int) -> list[int]:
    """Capped bond dimensions [1, D_1, ..., D_{n-1}, 1]."""
    return [1] + [min(chi, 2**i, 2 ** (n - i)) for i in range(1, n)] + [1]


def random_mps(n: int, chi: int, stream) -> MpsState:
    """Random state: iid complex Gaussian tensors, left-canonicalized."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if chi < 1:
        raise ValueError("bond dimension must be at least 1")
    tensors = _left_canonicalize(_gaussian_tensors(n, chi, (), as_generator(stream)))
    return MpsState(n=n, chi=chi, tensors=tuple(tensors), canonical=True)


def _gaussian_tensors(n: int, chi: int, batch: tuple, rng) -> list[np.ndarray]:
    """iid standard complex Gaussian site tensors, shapes batch + (D_{i-1}, 2, D_i).

    One normal draw fills them all, in the order real 1, imaginary 1, real 2,
    ...: the values a draw per part, site by site, would give.
    """
    dims = bond_dims(n, chi)
    shapes = [batch + (dims[i], 2, dims[i + 1]) for i in range(n)]
    sizes = [math.prod(s) for s in shapes]
    normals = rng.standard_normal(2 * sum(sizes))
    tensors, start = [], 0
    for shape, size in zip(shapes, sizes):
        t = np.empty(shape, dtype=complex)
        t.real = normals[start : start + size].reshape(shape)
        t.imag = normals[start + size : start + 2 * size].reshape(shape)
        tensors.append(t)
        start += 2 * size
    return tensors


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


def _amplitudes(tensors: list[np.ndarray]) -> np.ndarray:
    """Amplitudes (B, 2^n) of chains of site tensors (B, D, 2, D'), met in the middle.

    L (B, D_h, 2^h) holds sites 1..h with each new bit as the slowest column;
    R (B, 2^(n-h), D_h) holds sites n..h+1 with each new bit as the fastest
    row. R @ L is then LSB-first as it stands.
    """
    batch, h = tensors[0].shape[0], len(tensors) // 2
    L = R = np.ones((batch, 1, 1), dtype=np.complex128)
    for t in tensors[:h]:
        _, dl, _, dr = t.shape
        L = np.matmul(t.transpose(0, 3, 2, 1).reshape(batch, 2 * dr, dl), L).reshape(batch, dr, -1)
    for t in reversed(tensors[h:]):
        _, dl, _, dr = t.shape
        R = np.matmul(R, t.transpose(0, 3, 2, 1).reshape(batch, dr, 2 * dl)).reshape(batch, -1, dl)
    return np.matmul(R, L).reshape(batch, -1)


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


def mps_prob_values(n: int, chi: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Dense output distributions of `batch` random MPS, shape (batch, 2^n).

    Same ensemble as random_mps + mps_prob_vector (tests/oracles.py), in
    distribution, not in stream order. It is contracted as drawn: the QR
    sweep only inserts R R^-1 between sites and drops one overall scalar,
    and p / sum(p) sees neither.
    """
    check_statevector_cap(n)
    p = np.abs(_amplitudes(_gaussian_tensors(n, chi, (batch,), rng))) ** 2
    return p / p.sum(axis=1, keepdims=True)
