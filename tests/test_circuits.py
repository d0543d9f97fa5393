"""Tests for the diagonal-circuit simulator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bornlab.bitmath import ProbVector, RandomStream, SubsetMask, fwht, validate_prob_vector
from bornlab.circuits import all_weight_le2_masks, iqp_prob_values, sample_prob_vector
from bornlab.lab import FamilySpec, instance_prob_values
from oracles import (
    IqpCircuit,
    ProductParams,
    _phases,
    diagonal_pauli_expectation,
    iqp_prob_values_out_of_place,
    iqp_prob_vector,
    iqp_state_vector,
    product_prob_vector,
    random_iqp_circuit,
)
from test_bitmath import _butterfly_fwht


def test_single_gate_probability_is_sine_squared():
    # Independent 2x2 check: the diagonal phase on one qubit is
    # diag(e^{i t}, e^{-i t}) in the character convention, so
    # amp(0) = cos t, amp(1) = i sin t, and p(1) = sin^2 t.
    for theta in (0.0, 0.3, math.pi / 4, 1.1, 2.7):
        p = iqp_prob_vector(IqpCircuit(1, ((1, theta),)))
        assert p.values[1] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
        assert p.values[0] == pytest.approx(math.cos(theta) ** 2, abs=1e-12)


def test_zero_angles_give_point_mass_at_zero():
    circuit = IqpCircuit(4, ((0b0011, 0.0), (0b1000, 0.0), (0b0101, 0.0)))
    p = iqp_prob_vector(circuit)
    assert p.values[0] == pytest.approx(1.0, abs=1e-12)


def test_singleton_only_circuit_factorizes():
    # weight-1 gates commute and act on disjoint qubits, so the state is a
    # product with p_i(0) = cos^2(theta_i)
    stream = RandomStream(11)
    for n in (5, 14):  # 14 qubits span several blocks of the phase table
        thetas = stream.generator.uniform(0, 2 * math.pi, n)
        circuit = IqpCircuit(n, tuple((1 << i, t) for i, t in enumerate(thetas)))
        via_circuit = iqp_prob_vector(circuit).values
        via_product = product_prob_vector(ProductParams(tuple(np.cos(thetas) ** 2))).values
        np.testing.assert_allclose(via_circuit, via_product, atol=1e-12)


def test_gate_set_counts():
    assert all_weight_le2_masks(1).tolist() == [1]
    assert all_weight_le2_masks(3).tolist() == [1, 2, 4, 3, 5, 6]
    circuit = random_iqp_circuit(6, RandomStream(0))
    assert len(circuit.gates) == 6 + 15


def test_random_circuits_stay_normalized():
    stream = RandomStream(23)
    for i in range(100):
        n = 1 + i % 10
        psi = iqp_state_vector(random_iqp_circuit(n, stream.child(i)))
        assert psi.shape == (1 << n,)
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_gate_order_does_not_matter():
    stream = RandomStream(5)
    circuit = random_iqp_circuit(5, stream)
    perm = stream.generator.permutation(len(circuit.gates))
    shuffled = IqpCircuit(5, tuple(circuit.gates[j] for j in perm))
    np.testing.assert_allclose(
        iqp_prob_vector(circuit).values, iqp_prob_vector(shuffled).values, atol=1e-12
    )


def test_gate_validation():
    with pytest.raises(ValueError):
        IqpCircuit(3, ((0, 0.1),))
    with pytest.raises(ValueError):
        IqpCircuit(3, ((0b111, 0.1),))
    with pytest.raises(ValueError):
        IqpCircuit(2, ((0b100, 0.1),))


def test_random_product_angles_weight_is_uniform():
    # the iqp_product family: qubit 1's weight p(x_1 = 0) is uniform on [0, 1]
    p = instance_prob_values(FamilySpec("iqp_product"), 1, 4000, RandomStream(31).generator)
    assert stats.kstest(p[:, 0], "uniform").pvalue > 1e-3


def test_batched_matches_single_route():
    # same draw order; single route goes through explicit gate tuples
    single = iqp_prob_vector(random_iqp_circuit(5, RandomStream(77))).values
    batched = iqp_prob_values(5, 1, RandomStream(77).generator)[0]
    np.testing.assert_allclose(batched, single, atol=1e-12)


def test_iqp_prob_values_matches_complex_exp_oracle():
    # the phasor product route against |butterfly(e^{i phi})|^2 with the
    # phases summed over the character table, at every n up to the cap
    for n in range(1, 17):
        masks = all_weight_le2_masks(n)
        p = iqp_prob_values(n, 3, np.random.default_rng(n))
        thetas = np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, (3, masks.size))
        expect = np.abs(_butterfly_fwht(np.exp(1j * _phases(masks, thetas, n)))) ** 2
        expect /= expect.sum(axis=1, keepdims=True)
        assert np.all(np.abs(p - expect) <= 1e-12 * expect.max(axis=1, keepdims=True)), n


def test_iqp_prob_values_equal_the_out_of_place_draw():
    # the planes transformed and squared in place: the same rows bit for bit
    # as the copy and its two squares, at every n and at several batch sizes
    for seed in (1, 2):
        for n in range(1, 17):
            for batch in (1, 3, 8) if n <= 12 else (1, 2):
                got = iqp_prob_values(n, batch, np.random.default_rng([seed, n, batch]))
                want = iqp_prob_values_out_of_place(n, batch, np.random.default_rng([seed, n, batch]))
                assert got.tobytes() == want.tobytes(), (seed, n, batch)


def test_iqp_prob_values_draws_only_the_gate_angles():
    # one (batch, G) uniform draw and nothing else, so every later draw on
    # the same generator (peaked_iqp's scatter, the next chunk) is fixed
    for n, batch in ((1, 5), (3, 2048), (7, 40)):
        rng, expect = np.random.default_rng(n), np.random.default_rng(n)
        iqp_prob_values(n, batch, rng)
        expect.uniform(size=(batch, n * (n + 1) // 2))
        assert rng.bit_generator.state == expect.bit_generator.state, n


def test_batched_phase_table_is_built_in_blocks():
    # the product build holds the (2^16, 2) phasors, a half-size doubling
    # buffer and the real planes, about 34 bytes an outcome (4.5 MB); the
    # whole (G, 2^16) character table and its uint64 temporary would take
    # about 145 MB, and the blocked phase route peaked at 15 MB
    tracemalloc.start()
    try:
        iqp_prob_values(16, 2, RandomStream(4).generator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_batched_rows_are_distributions():
    p = iqp_prob_values(6, 50, RandomStream(3).generator)
    assert p.shape == (50, 64)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_iqp_fourier_weights_depend_only_on_degree():
    # ensemble mean of the squared spectrum is symmetric under relabeling
    rng = RandomStream(41).generator
    p = iqp_prob_values(4, 4000, rng)
    coeffs = np.apply_along_axis(lambda row: fwht(ProbVector(4, row).values), 1, p)
    mean_sq = (coeffs**2).mean(axis=0)
    weights = np.bitwise_count(np.arange(16, dtype=np.uint64))
    for w in range(1, 5):
        group = mean_sq[weights == w]
        assert group.std() < 0.05 * group.mean() + 3.0 / math.sqrt(4000)


def test_peaked_iqp_support_and_masses():
    p = instance_prob_values(FamilySpec("peaked_iqp"), 8, 1, RandomStream(13).generator)[0]
    support = np.flatnonzero(p)
    assert support.size == 8  # 2^ceil(log2 8)
    # replaying the same stream reproduces the scattered masses exactly
    rng = RandomStream(13).generator
    masses = iqp_prob_values(3, 1, rng)[0]
    assert sorted(p[support]) == pytest.approx(sorted(masses))


def test_peaked_iqp_small_n():
    spec = FamilySpec("peaked_iqp")
    p = instance_prob_values(spec, 2, 1, RandomStream(2).generator)
    assert np.flatnonzero(p).size == 2
    # at n = 1 the two-outcome support is the whole space
    p = instance_prob_values(spec, 1, 1, RandomStream(2).generator)
    assert np.flatnonzero(p).size == 2


def test_diagonal_pauli_examples():
    uniform = ProbVector(2, np.full(4, 0.25))
    point = ProbVector(2, np.array([1.0, 0.0, 0.0, 0.0]))
    skew = ProbVector(2, np.array([0.1875, 0.5625, 0.0625, 0.1875]))
    assert diagonal_pauli_expectation(uniform, SubsetMask(0b01, 2)) == 0.0
    assert diagonal_pauli_expectation(point, SubsetMask(0b11, 2)) == 1.0
    assert diagonal_pauli_expectation(skew, SubsetMask(0b01, 2)) == pytest.approx(-0.5)
    assert diagonal_pauli_expectation(skew, SubsetMask(0b10, 2)) == pytest.approx(0.5)
    assert diagonal_pauli_expectation(skew, SubsetMask(0b11, 2)) == pytest.approx(-0.25)
    assert diagonal_pauli_expectation(uniform, SubsetMask(0, 2)) == 1.0


def test_dirichlet_character_second_moment():
    # flat Dirichlet: E[<Z_S>^2] = 1/(N+1) for non-empty S
    n, trials = 6, 3000
    N = 1 << n
    rng = RandomStream(19).generator
    g = rng.gamma(1.0, size=(trials, N))
    p = g / g.sum(axis=1, keepdims=True)
    vals = np.array(
        [
            diagonal_pauli_expectation(ProbVector(n, row), SubsetMask(0b101, n)) ** 2
            for row in p
        ]
    )
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - 1.0 / (N + 1)) < 3 * se


def test_statevector_cap():
    with pytest.raises(ValueError, match="resource error"):
        iqp_state_vector(IqpCircuit(17, ((1, 0.1),)))
    with pytest.raises(ValueError, match="resource error"):
        iqp_prob_values(17, 1, RandomStream(0).generator)


def test_sample_prob_vector_deterministic_mass():
    p = ProbVector(1, np.array([0.0, 1.0]))
    s = sample_prob_vector(p, RandomStream(4).generator.random(100))
    assert s.dtype == np.uint64 and s.shape == (100,)
    assert np.all(s == 1)


def test_sample_prob_vector_frequencies():
    p = ProbVector(2, np.array([0.1875, 0.5625, 0.0625, 0.1875]))
    s = sample_prob_vector(p, RandomStream(8).generator.random(20000))
    counts = np.bincount(s.astype(int), minlength=4)
    assert stats.chisquare(counts, 20000 * p.values).pvalue > 1e-3


def test_sample_prob_vector_never_draws_a_mass_zero_tail():
    # ten masses of 0.1 sum to 0.9999999999999999, so the CDF stays below 1
    # over the six zeros after them; 1 - 2^-53, the largest uniform a
    # Generator draws, read outcome 15 where the guard sat on the last entry
    values = np.array([0.1] * 10 + [0.0] * 6)
    assert np.cumsum(values)[9] == np.nextafter(1.0, 0.0)
    p = validate_prob_vector(values, 4)
    top = np.nextafter(1.0, 0.0)
    assert sample_prob_vector(p, np.array([top, 0.95, 0.0])).tolist() == [9, 9, 0]
    # in a block, each row is guarded from its own last positive mass
    block = validate_prob_vector([values, values[::-1]], 4)
    drawn = sample_prob_vector(block, np.array([[top], [top], [0.0]]), rows=[0, 1, 1])
    assert drawn.tolist() == [9, 15, 6]


def test_sorted_uniforms_draw_each_rows_outcomes_sorted():
    # the inverse CDF is monotone: row-sorted uniforms draw, per row, the
    # sorted outcomes of the same uniforms unsorted, also on the rows whose
    # CDF stays below 1 over a mass-zero tail, where the largest uniform a
    # Generator draws reads the last positive outcome
    rng = np.random.default_rng(8)
    values = np.array([0.1] * 10 + [0.0] * 6)
    masses = np.vstack([values, values[::-1], rng.dirichlet(np.ones(16), size=2)])
    block = validate_prob_vector(masses, 4)
    uniforms = rng.random((6, 40))
    uniforms[:, 0] = np.nextafter(1.0, 0.0)
    uniforms[:, 1] = 0.0
    rows = [0, 1, 2, 3, 0, 1]
    drawn = sample_prob_vector(block, uniforms, rows).reshape(6, 40)
    uniforms.sort(axis=1)
    got = sample_prob_vector(block, uniforms, rows).reshape(6, 40)
    assert got.tobytes() == np.sort(drawn, axis=1).tobytes()
    assert got[:, -1].tolist() == [9, 15, 15, 15, 9, 15] and got[:, 0].tolist() == [0, 6, 0, 0, 0, 6]


def test_sample_prob_vector_block_equals_row_by_row():
    rng = np.random.default_rng(5)
    masses = rng.dirichlet(np.ones(32), size=4)
    masses[1, 20:] = 0.0
    masses[1] /= masses[1].sum()
    block = validate_prob_vector(masses, 5)
    uniforms = rng.random((6, 50))
    rows = [0, 0, 1, 2, 3, 1]
    drawn = sample_prob_vector(block, uniforms, rows).reshape(6, 50)
    for u, row, got in zip(uniforms, rows, drawn):
        single = sample_prob_vector(validate_prob_vector(masses[row], 5), u)
        assert got.tobytes() == single.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_arbitrary_gate_lists_give_distributions(n, seed, data):
    masks = [m for m in range(1, 1 << n) if bin(m).count("1") <= 2]
    count = data.draw(st.integers(min_value=1, max_value=8))
    rng = RandomStream(seed).generator
    gates = tuple(
        (masks[rng.integers(len(masks))], float(rng.uniform(0, 2 * math.pi)))
        for _ in range(count)
    )
    p = iqp_prob_vector(IqpCircuit(n, gates))
    assert np.all(p.values >= 0)
    assert p.values.sum() == pytest.approx(1.0, abs=1e-9)
