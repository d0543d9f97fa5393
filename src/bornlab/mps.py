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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmath import (
    BitString,
    ProbVector,
    SampleSet,
    as_generator,
    check_statevector_cap,
    validate_prob_vector,
)


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
    """iid standard complex Gaussian site tensors, shapes batch + (D_{i-1}, 2, D_i)."""
    dims = bond_dims(n, chi)
    shapes = [batch + (dims[i], 2, dims[i + 1]) for i in range(n)]
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


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


def mps_probability(state: MpsState, x: BitString) -> float:
    """|psi(x)|^2 by left-to-right contraction, O(n chi^2)."""
    if x.n != state.n:
        raise ValueError(f"dimension error: n mismatch {x.n} != {state.n}")
    v = np.ones(1, dtype=np.complex128)
    for i, t in enumerate(state.tensors):
        v = v @ t[:, (x.bits >> i) & 1, :]
    return float(abs(v[0]) ** 2)


def _amplitudes(tensors: list[np.ndarray]) -> np.ndarray:
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
    return _amplitudes([t[None] for t in state.tensors])[0]


def mps_prob_vector(state: MpsState) -> ProbVector:
    p = np.abs(mps_state_vector(state)) ** 2
    return validate_prob_vector(p / p.sum(), state.n)


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

    Same ensemble as random_mps + mps_prob_vector (in distribution, not in
    stream order), contracted as drawn: the QR sweep only inserts R R^-1
    between sites and drops one overall scalar, and p / sum(p) sees neither.
    """
    check_statevector_cap(n)
    p = np.abs(_amplitudes(_gaussian_tensors(n, chi, (batch,), rng))) ** 2
    return p / p.sum(axis=1, keepdims=True)
