"""IQP circuit simulation and diagonal observables.

An IQP circuit here is a Hadamard layer, a diagonal phase gate, and another
Hadamard layer. Each diagonal gate acts on a subset S of at most two qubits
with generator chi_S, so the accumulated phase on basis state z is

    phi(z) = sum_g theta_g chi_{S_g}(z),  chi_S(z) = (-1)^popcount(S & z),

and the output amplitude is the Walsh-Hadamard transform of e^(i phi)
divided by 2^n. One weight-1 gate on a single qubit gives p(1) = sin^2(theta),
which pins the convention. The batched generator transforms the real planes
cos(phi) and sin(phi) in one call instead of the complex e^(i phi).

The statevector route is dense and capped at n = 16: iqp_state_vector
returns the amplitude array of one circuit and iqp_prob_values the output
distributions of a batch of random circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmath import (
    ProbVector,
    SampleSet,
    SubsetMask,
    as_generator,
    check_statevector_cap,
    fwht,
    validate_prob_vector,
)


@dataclass(frozen=True)
class IqpCircuit:
    """Diagonal-gate list over n qubits; each gate is (subset mask, angle)."""

    n: int
    gates: tuple[tuple[int, float], ...]

    def __post_init__(self):
        gates = []
        for mask, theta in self.gates:
            mask = int(mask)
            if mask == 0:
                raise ValueError("gate mask must be non-empty")
            if mask >= (1 << self.n):
                raise ValueError(f"gate mask {mask} out of range for n={self.n}")
            if mask.bit_count() > 2:
                raise ValueError("gate weight above 2 is not supported")
            gates.append((mask, float(theta)))
        object.__setattr__(self, "gates", tuple(gates))


def all_weight_le2_masks(n: int) -> np.ndarray:
    """Every weight-1 and weight-2 subset mask, in a fixed order."""
    masks = [1 << i for i in range(n)]
    masks.extend((1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n))
    return np.asarray(masks, dtype=np.uint64)


def random_iqp_circuit(n: int, stream) -> IqpCircuit:
    """All-to-all weight-<=2 gate set with iid uniform angles on [0, 2pi)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = as_generator(stream)
    masks = all_weight_le2_masks(n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, masks.size)
    return IqpCircuit(n, tuple((int(m), float(t)) for m, t in zip(masks, thetas)))


def _phases(masks: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """phi(z) = sum_g thetas[..., g] chi_{S_g}(z) for all 2^n basis states z.

    Built in blocks of 2^12 outcomes, so the (G, 2^n) character table and
    its uint64 temporary never exist whole.
    """
    N, block = 1 << n, 1 << 12
    phase = np.empty(thetas.shape[:-1] + (N,))
    for start in range(0, N, block):
        z = np.arange(start, min(N, start + block), dtype=np.uint64)
        chi = 1.0 - 2.0 * (np.bitwise_count(masks[:, None] & z[None, :]) % 2)
        phase[..., start : start + z.size] = thetas @ chi
    return phase


def iqp_state_vector(circuit: IqpCircuit) -> np.ndarray:
    """Amplitudes of H^n D(theta) H^n |0>, computed as FWHT(e^{i phi}) / 2^n."""
    check_statevector_cap(circuit.n)
    masks = np.asarray([m for m, _ in circuit.gates], dtype=np.uint64)
    thetas = np.asarray([t for _, t in circuit.gates], dtype=float)
    phase = _phases(masks, thetas, circuit.n)  # zeros when there are no gates
    return fwht(np.exp(1j * phase)) / (1 << circuit.n)


def iqp_prob_vector(circuit: IqpCircuit) -> ProbVector:
    """Output distribution of an IQP circuit (statevector route, n <= 16)."""
    p = np.abs(iqp_state_vector(circuit)) ** 2
    return validate_prob_vector(p / p.sum(), circuit.n)


def iqp_prob_values(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Batched output distributions of random circuits, shape (batch, 2^n).

    Same ensemble as random_iqp_circuit + iqp_prob_vector, vectorized: the
    per-instance phases are a matmul against the shared character table,
    one block of outcomes at a time. No complex array is made: cos(phi) and
    sin(phi) are two real planes, transformed in one call, and
    p = re^2 + im^2 of the transformed planes.
    """
    check_statevector_cap(n)
    masks = all_weight_le2_masks(n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, (batch, masks.size))
    phase = _phases(masks, thetas, n)
    planes = np.empty((2,) + phase.shape)
    np.cos(phase, out=planes[0])
    np.sin(phase, out=planes[1])
    del phase
    # the amplitudes' 1/2^n is a power of two, which normalizing drops exactly
    re, im = fwht(planes)
    del planes
    p = re * re + im * im
    return p / p.sum(axis=1, keepdims=True)


def diagonal_pauli_expectation(p: ProbVector, S: SubsetMask) -> float:
    """<Z_S> = sum_x chi_S(x) p(x), the S-th Fourier character of p."""
    if S.n != p.n:
        raise ValueError(f"dimension error: n mismatch {S.n} != {p.n}")
    x = np.arange(1 << p.n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(S.mask)) % 2)
    return float(signs @ p.values)


def sample_prob_vector(p: ProbVector, stream, count: int) -> SampleSet:
    """Draw outcomes from any dense distribution by inverse CDF."""
    rng = as_generator(stream)
    cdf = np.cumsum(p.values)
    cdf[-1] = 1.0  # guard the last bin against rounding
    outcomes = np.searchsorted(cdf, rng.random(count), side="right")
    return SampleSet(p.n, outcomes.astype(np.uint64))
