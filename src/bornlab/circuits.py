"""IQP circuit simulation and diagonal observables.

An IQP circuit here is a Hadamard layer, a diagonal phase gate, and another
Hadamard layer. Each diagonal gate acts on a subset S of at most two qubits
with generator chi_S, so the accumulated phase on basis state z is

    phi(z) = sum_g theta_g chi_{S_g}(z),  chi_S(z) = (-1)^popcount(S & z),

and the output amplitude is the Walsh-Hadamard transform of e^(i phi)
divided by 2^n. One weight-1 gate on a single qubit gives p(1) = sin^2(theta),
which pins the convention.

The statevector route is dense and capped at n = 16.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bitmath import (
    MAX_STATEVECTOR_QUBITS,
    ProbVector,
    SampleSet,
    SubsetMask,
    as_generator,
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

    def to_json(self) -> str:
        """Serialize as {n, gates: [{qubits: [...], theta}]}, qubits 1-based."""
        record = {
            "n": self.n,
            "gates": [
                {
                    "qubits": [i + 1 for i in range(self.n) if (mask >> i) & 1],
                    "theta": theta,
                }
                for mask, theta in self.gates
            ],
        }
        return json.dumps(record)

    @classmethod
    def from_json(cls, text: str) -> "IqpCircuit":
        record = json.loads(text)
        n = int(record["n"])
        gates = []
        for g in record["gates"]:
            mask = SubsetMask.from_positions(g["qubits"], n).mask
            gates.append((mask, float(g["theta"])))
        return cls(n, tuple(gates))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex amplitudes over 2^n outcomes, unit norm."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"normalization error: |psi|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> ProbVector:
        p = np.abs(self.amplitudes) ** 2
        return validate_prob_vector(p / p.sum(), self.n)


def all_weight_le2_masks(n: int, include_singletons: bool = True) -> np.ndarray:
    """Every weight-1 (optional) and weight-2 subset mask, in a fixed order."""
    masks = []
    if include_singletons:
        masks.extend(1 << i for i in range(n))
    masks.extend(
        (1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)
    )
    return np.asarray(masks, dtype=np.uint64)


def random_iqp_circuit(n: int, stream, include_singletons: bool = True) -> IqpCircuit:
    """All-to-all weight-<=2 gate set with iid uniform angles on [0, 2pi)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = as_generator(stream)
    masks = all_weight_le2_masks(n, include_singletons)
    thetas = rng.uniform(0.0, 2.0 * math.pi, masks.size)
    return IqpCircuit(n, tuple((int(m), float(t)) for m, t in zip(masks, thetas)))


def _character_table(masks: np.ndarray, n: int) -> np.ndarray:
    """chi_{S_g}(z) for every gate mask and basis state z, shape (G, N)."""
    z = np.arange(1 << n, dtype=np.uint64)
    overlap = np.bitwise_count(masks[:, None] & z[None, :])
    return 1.0 - 2.0 * (overlap % 2)


def iqp_state_vector(circuit: IqpCircuit) -> StateVector:
    """H^n D(theta) H^n |0>, computed as FWHT(e^{i phi}) / 2^n."""
    if circuit.n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"resource error: n={circuit.n} exceeds statevector cap "
            f"{MAX_STATEVECTOR_QUBITS}"
        )
    masks = np.asarray([m for m, _ in circuit.gates], dtype=np.uint64)
    thetas = np.asarray([t for _, t in circuit.gates], dtype=float)
    N = 1 << circuit.n
    if masks.size:
        phase = thetas @ _character_table(masks, circuit.n)
    else:
        phase = np.zeros(N)
    amps = fwht(np.exp(1j * phase)) / N
    return StateVector(circuit.n, amps)


def iqp_prob_vector(circuit: IqpCircuit) -> ProbVector:
    """Output distribution of an IQP circuit (statevector route, n <= 16)."""
    p = np.abs(iqp_state_vector(circuit).amplitudes) ** 2
    return validate_prob_vector(p / p.sum(), circuit.n)


def iqp_prob_values(
    n: int, batch: int, rng: np.random.Generator, include_singletons: bool = True
) -> np.ndarray:
    """Batched output distributions of random circuits, shape (batch, 2^n).

    Same ensemble as random_iqp_circuit + iqp_prob_vector, vectorized: the
    per-instance phases are one matmul against the shared character table.
    """
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            f"resource error: n={n} exceeds statevector cap {MAX_STATEVECTOR_QUBITS}"
        )
    masks = all_weight_le2_masks(n, include_singletons)
    chi = _character_table(masks, n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, (batch, masks.size))
    amps = fwht(np.exp(1j * (thetas @ chi))) / (1 << n)
    p = np.abs(amps) ** 2
    return p / p.sum(axis=1, keepdims=True)


def diagonal_pauli_expectation(p: ProbVector, S: SubsetMask) -> float:
    """<Z_S> = sum_x chi_S(x) p(x), the S-th Fourier character of p."""
    if S.n != p.n:
        raise ValueError(f"dimension error: n mismatch {S.n} != {p.n}")
    x = np.arange(1 << p.n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(S.mask)) % 2)
    return float(signs @ p.values)


def sample_prob_vector(p: ProbVector, stream, count: int, family: str | None = None) -> SampleSet:
    """Draw outcomes from any dense distribution by inverse CDF."""
    rng = as_generator(stream)
    cdf = np.cumsum(p.values)
    cdf[-1] = 1.0  # guard the last bin against rounding
    outcomes = np.searchsorted(cdf, rng.random(count), side="right")
    return SampleSet(p.n, outcomes.astype(np.uint64), family=family)
