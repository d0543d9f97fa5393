"""Random matrix product states, contracted in batches to dense distributions.

A state over n qubits is a chain of site tensors A_i of shape
(D_{i-1}, 2, D_i) with boundary dimensions 1, internal dimensions capped at
min(chi, 2^i, 2^(n-i)), and amplitudes

    psi(x) = A_1[x_1] A_2[x_2] ... A_n[x_n].

Site i corresponds to qubit i (LSB-first index convention, as everywhere in
the package). Random states draw iid standard complex Gaussian entries.

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

The left-canonical form and perfect sampling of one state, its dense vector
and single-outcome probability, and that sweep, are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import math

import numpy as np

from .bitmath import check_statevector_cap


def bond_dims(n: int, chi: int) -> list[int]:
    """Capped bond dimensions [1, D_1, ..., D_{n-1}, 1]."""
    return [1] + [min(chi, 2**i, 2 ** (n - i)) for i in range(1, n)] + [1]


def _gaussian_tensors(n: int, chi: int, batch: int, rng) -> list[np.ndarray]:
    """iid standard complex Gaussian site tensors, shapes (batch, D_{i-1}, 2, D_i).

    One normal draw fills them all, in the order real 1, imaginary 1, real 2,
    ...: the values a draw per part, site by site, would give.
    """
    dims = bond_dims(n, chi)
    shapes = [(batch, dims[i], 2, dims[i + 1]) for i in range(n)]
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


def mps_prob_values(n: int, chi: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Dense output distributions of `batch` random MPS, shape (batch, 2^n).

    Same ensemble as random_mps + mps_prob_vector (tests/oracles.py), in
    distribution, not in stream order. It is contracted as drawn: the QR
    sweep only inserts R R^-1 between sites and drops one overall scalar,
    and p / sum(p) sees neither.
    """
    check_statevector_cap(n)
    p = np.abs(_amplitudes(_gaussian_tensors(n, chi, batch, rng))) ** 2
    return np.divide(p, p.sum(axis=1, keepdims=True), out=p)
