"""IQP output distributions, batched, and sampling from a dense distribution.

An IQP circuit here is a Hadamard layer, a diagonal phase gate, and another
Hadamard layer. Each diagonal gate acts on a subset S of at most two qubits
with generator chi_S, so the accumulated phase on basis state z is

    phi(z) = sum_g theta_g chi_{S_g}(z),  chi_S(z) = (-1)^popcount(S & z),

and the output amplitude is the Walsh-Hadamard transform of e^(i phi)
divided by 2^n. One weight-1 gate on a single qubit gives p(1) = sin^2(theta),
which pins the convention.

The batched generator never evaluates phi. Since chi_S(z) = +-1, e^(i phi) is
the product over gates of u_g = e^(i theta_g) or its conjugate, and with at
most two qubits per gate it is built qubit by qubit from the B G unit phasors
alone: no trig on the 2^n outcomes. Its real and imaginary parts are then
transformed as two real planes in one call.

The route is dense and capped at n = 16: iqp_prob_values returns the output
distributions of a batch of random circuits. The single-circuit state
vector it is checked against is a test oracle (tests/oracles.py).
"""
from __future__ import annotations

import math

import numpy as np

from .bitmath import ProbVector, check_statevector_cap, fwht


def all_weight_le2_masks(n: int) -> np.ndarray:
    """Every weight-1 and weight-2 subset mask, in a fixed order."""
    masks = [1 << i for i in range(n)]
    masks.extend((1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n))
    return np.asarray(masks, dtype=np.uint64)


# _phase_planes de-interleaves its outcome-major product into the planes a
# block of outcomes at a time, so each block's transposed reads stay in cache
_TRANSPOSE_BYTES = 1 << 18


def _phase_planes(masks: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """cos(phi) and sin(phi) of each row of thetas, shape (2, batch, 2^n).

    masks must hold every weight-1 and weight-2 mask over n qubits (the
    columns of thetas). Let u_k = e^(i theta) of the gate on qubit k and u_jk
    that of the gate on qubits j < k, and let f hold e^(i phi) of the gates
    on qubits < k. Adding qubit k as the new high bit multiplies f by

        g_k(z) = u_k prod_{j<k} (u_jk if z_j = 0 else conj(u_jk))

    where z_k = 0, and by conj(g_k) where z_k = 1, since every character
    containing qubit k flips sign there. g_k is built by doubling over j, so
    a row costs about 4 2^n complex multiplies and G tangents.
    f is built outcome-major, (2^n, batch), so every product runs over whole
    contiguous rows of the batch.
    """
    batch, N = thetas.shape[0], 1 << n
    # u = e^(i theta), (G, batch), from the half-angle tangent t: cos theta =
    # (1 - t^2) / (1 + t^2) and sin theta = 2t / (1 + t^2). numpy has a
    # vectorized tan but computes exp(1j theta) through scalar cos and sin,
    # so this costs a fraction of it. The steps run in u's planes and in t,
    # which then holds 1 + t^2, each rounding as the whole expression would.
    t = np.tan(0.5 * np.ascontiguousarray(thetas.T))
    u = np.empty(t.shape, dtype=complex)
    np.multiply(t, 2.0, out=u.imag)
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=u.real)
    t += 1.0
    u.real /= t
    u.imag /= t
    del t  # only u, 16 bytes a gate, lives through the products
    gate = {int(mask): column for column, mask in enumerate(masks)}
    f = np.empty((N, batch), dtype=complex)
    g = np.empty((max(1, N >> 1), batch), dtype=complex)
    f[0] = 1.0
    for k in range(n):
        h = 1 << k
        g[0] = u[gate[h]]
        for j in range(k):
            w, column = 1 << j, gate[h | 1 << j]
            np.multiply(g[:w], u[column].conj(), out=g[w : 2 * w])
            g[:w] *= u[column]
        np.conjugate(g[:h], out=f[h : 2 * h])
        f[h : 2 * h] *= f[:h]
        f[:h] *= g[:h]
    del g  # freed before the planes, so the peak stays at f and the planes
    parts = f.view(np.float64).reshape(N, batch, 2)
    planes = np.empty((2, batch, N))
    step = max(1, _TRANSPOSE_BYTES // (16 * max(1, batch)))
    for start in range(0, N, step):
        planes[:, :, start : start + step] = parts[start : start + step].transpose(2, 1, 0)
    return planes


def iqp_prob_values(n: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Batched output distributions of random circuits, shape (batch, 2^n).

    Same ensemble as the single-circuit oracle (random_iqp_circuit +
    iqp_prob_vector in tests/oracles.py), vectorized: each instance draws
    its G angles in all_weight_le2_masks order, and e^(i phi) is the
    product of the gates' unit phasors, built qubit by qubit
    (_phase_planes). No complex array is transformed: the real and
    imaginary planes go through one call in place, and p = re^2 + im^2 of
    the transformed planes, squared in place.
    """
    check_statevector_cap(n)
    masks = all_weight_le2_masks(n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, (batch, masks.size))
    planes = _phase_planes(masks, thetas, n)
    # the amplitudes' 1/2^n is a power of two, which normalizing drops exactly
    fwht(planes, in_place=True)
    np.square(planes, out=planes)
    p = planes[0] + planes[1]
    del planes
    return np.divide(p, p.sum(axis=1, keepdims=True), out=p)


def sample_prob_vector(p: ProbVector, uniforms: np.ndarray, rows=None) -> np.ndarray:
    """Outcomes of a dense distribution, or of a block of them, by inverse CDF.

    Each uniform u in [0, 1) draws the outcome whose CDF interval holds it,
    from p's one row, or from row rows[i] of p's block for uniforms[i] (a
    row of draws). Returns uint64 outcomes, flat in the uniforms' C order.
    The inverse CDF is monotone, so a row of sorted uniforms draws its
    outcomes sorted, and its searchsorted walks the CDF row in order, which
    is faster than a binary search from scratch per uniform.

    The CDFs come from one cumsum over the block, and every row's entries
    from its last positive mass on are set to 1, so a uniform in the gap
    that rounding leaves below 1 draws that last positive outcome, never a
    mass-0 one after it. Each row of uniforms is one searchsorted in its
    row of the CDFs, which stays in cache.
    """
    values = np.atleast_2d(p.values)
    N = values.shape[1]
    cdf = np.cumsum(values, axis=1)
    last = N - 1 - np.argmax(values[:, ::-1] > 0.0, axis=1)
    cdf[np.arange(N) >= last[:, None]] = 1.0
    uniforms = np.atleast_2d(uniforms)
    rows = np.zeros(len(uniforms), dtype=int) if rows is None else rows
    outcomes = np.empty(uniforms.shape, dtype=np.uint64)
    for out, row, u in zip(outcomes, rows, uniforms):
        out[...] = np.searchsorted(cdf[row], u, side="right")
    return outcomes.ravel()
