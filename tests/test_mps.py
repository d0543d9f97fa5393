"""Tests for random matrix product states and perfect sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bornlab.bitmath import RandomStream
from bornlab.mps import _amplitudes, _gaussian_tensors, bond_dims, mps_prob_values
from oracles import (
    BitString,
    MpsState,
    ProductParams,
    _left_canonicalize,
    _sweep_amplitudes,
    gaussian_tensors_by_site,
    mps_prob_values_out_of_place,
    mps_prob_vector,
    mps_probability,
    mps_sample,
    mps_state_vector,
    product_prob_vector,
    random_mps,
)


def test_bond_dims_examples():
    assert bond_dims(6, 8) == [1, 2, 4, 8, 4, 2, 1]
    assert bond_dims(4, 2) == [1, 2, 2, 2, 1]
    assert bond_dims(1, 5) == [1, 1]
    assert bond_dims(5, 1) == [1, 1, 1, 1, 1, 1]


def test_random_state_is_normalized():
    for n, chi in [(1, 1), (3, 2), (6, 6), (8, 3), (10, 10)]:
        psi = mps_state_vector(random_mps(n, chi, RandomStream(n * 31 + chi)))
        assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_left_canonical_form():
    state = random_mps(7, 5, RandomStream(21))
    assert state.canonical
    for t in state.tensors:
        gram = np.einsum("dsa,dsb->ab", t.conj(), t)
        np.testing.assert_allclose(gram, np.eye(t.shape[2]), atol=1e-12)


def test_probability_matches_dense():
    for n, chi in [(3, 2), (5, 4), (8, 8)]:
        state = random_mps(n, chi, RandomStream(n + chi))
        dense = np.abs(mps_state_vector(state)) ** 2
        for x in range(1 << n):
            assert mps_probability(state, BitString(x, n)) == pytest.approx(
                dense[x], abs=1e-12
            )


def test_chain_of_one_site():
    state = random_mps(1, 4, RandomStream(2))
    p = mps_prob_vector(state)
    assert p.values.sum() == pytest.approx(1.0)
    s = mps_sample(state, RandomStream(3), 4000)
    f1 = np.mean(s.outcomes == 1)
    assert abs(f1 - p.values[1]) < 4 * math.sqrt(0.25 / 4000)


def test_sampler_matches_dense_distribution():
    n, chi, m = 6, 6, 100_000
    state = random_mps(n, chi, RandomStream(17))
    p = mps_prob_vector(state).values
    s = mps_sample(state, RandomStream(18), m)
    counts = np.bincount(s.outcomes.astype(int), minlength=1 << n).astype(float)
    expected = m * p
    # lump rare outcomes so the chi-square approximation is sound
    big = expected >= 10
    obs, exp = counts, expected
    if not big.all():
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
    assert stats.chisquare(obs, exp).pvalue > 1e-3


def test_sampler_single_qubit_marginals():
    n = 8
    state = random_mps(n, 4, RandomStream(29))
    p = mps_prob_vector(state).values
    s = mps_sample(state, RandomStream(30), 50_000)
    x = np.arange(1 << n, dtype=np.uint64)
    for i in range(n):
        marginal = p[(x >> np.uint64(i)) & np.uint64(1) == 1].sum()
        freq = np.mean((s.outcomes >> np.uint64(i)) & np.uint64(1) == 1)
        assert abs(freq - marginal) < 4 * math.sqrt(0.25 / 50_000)


def test_bond_dimension_one_is_a_product_state():
    state = random_mps(6, 1, RandomStream(41))
    a = tuple(float(np.abs(t[0, 0, 0]) ** 2) for t in state.tensors)
    expected = product_prob_vector(ProductParams(a))
    np.testing.assert_allclose(mps_prob_vector(state).values, expected.values, atol=1e-12)


def test_states_are_deterministic_in_the_stream():
    s1 = random_mps(5, 3, RandomStream(77, (4,)))
    s2 = random_mps(5, 3, RandomStream(77, (4,)))
    for t1, t2 in zip(s1.tensors, s2.tensors):
        np.testing.assert_array_equal(t1, t2)
    s3 = random_mps(5, 3, RandomStream(77, (5,)))
    assert any(
        not np.array_equal(t1, t3) for t1, t3 in zip(s1.tensors, s3.tensors)
    )


def test_batched_rows_are_distributions():
    p = mps_prob_values(6, 4, 40, RandomStream(9).generator)
    assert p.shape == (40, 64)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_batched_rows_equal_canonicalized_draws(n):
    # the batched route contracts the raw Gaussian tensors; canonicalizing
    # the same draws and evaluating each outcome one at a time must give the
    # same distributions, since the sweep is a gauge change plus a scalar
    batch, seed = 5, 600 + n
    for chi in sorted({1, 3, n}):
        rows = mps_prob_values(n, chi, batch, RandomStream(seed + chi).generator)
        rng = RandomStream(seed + chi).generator
        dims = bond_dims(n, chi)
        shapes = [(batch, dims[i], 2, dims[i + 1]) for i in range(n)]
        drawn = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
        for b in range(batch):
            tensors = _left_canonicalize([t[b] for t in drawn])
            state = MpsState(n=n, chi=chi, tensors=tuple(tensors), canonical=True)
            ref = np.array([mps_probability(state, BitString(x, n)) for x in range(1 << n)])
            ref /= ref.sum()
            assert np.abs(rows[b] - ref).max() <= 1e-12 * ref.max(), (n, chi, b)


@pytest.mark.parametrize("n", range(1, 17))
def test_amplitudes_match_the_sweep(n):
    # the two halves meet at h = n // 2 (h = 0 at n = 1, where the left half
    # is empty); summed in another order, so equal up to rounding
    batch = 3 if n <= 13 else 1
    for chi in sorted({1, 2, 3, n, 64}):
        tensors = _gaussian_tensors(n, chi, batch, RandomStream(700 + n, (chi,)).generator)
        got, ref = _amplitudes(tensors), _sweep_amplitudes(tensors)
        assert got.shape == ref.shape == (batch, 1 << n)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale), (n, chi)


def test_batched_rows_equal_the_out_of_place_draw():
    # |psi| squared in place: the same rows bit for bit as |psi|^2 into a
    # temporary, at every n and at several bond dimensions and batch sizes
    for seed in (1, 2):
        for n in range(1, 17):
            for chi in sorted({1, 3, n}):
                for batch in (1, 3, 8) if n <= 12 else (1, 2):
                    got = mps_prob_values(n, chi, batch, np.random.default_rng([seed, n, chi, batch]))
                    want = mps_prob_values_out_of_place(n, chi, batch, np.random.default_rng([seed, n, chi, batch]))
                    assert got.tobytes() == want.tobytes(), (seed, n, chi, batch)


def test_one_normal_draw_gives_the_per_site_tensors():
    # one standard_normal call over every part equals a real and an imaginary
    # call a site, bit for bit, and leaves the generator in the same state
    for n in range(1, 17):
        for chi in sorted({1, 3, n}):
            for batch in (1, 3, 64):
                rng, expect_rng = np.random.default_rng(n), np.random.default_rng(n)
                got = _gaussian_tensors(n, chi, batch, rng)
                expect = gaussian_tensors_by_site(n, chi, (batch,), expect_rng)
                assert len(got) == len(expect) == n
                for g, e in zip(got, expect):
                    assert g.shape == e.shape
                    np.testing.assert_array_equal(g, e)
                    assert np.array_equal(np.signbit(g.real), np.signbit(e.real))
                    assert np.array_equal(np.signbit(g.imag), np.signbit(e.imag))
                assert rng.bit_generator.state == expect_rng.bit_generator.state, (n, chi, batch)


def test_batched_rows_hold_no_permuted_copy():
    # the amplitudes and their |.|^2 are 1.5x the complex amplitudes' bytes;
    # the sweep's 2^n axis reversal took this to 2.18x
    n, batch = 14, 16
    tracemalloc.start()
    try:
        mps_prob_values(n, n, batch, RandomStream(5).generator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 16 * batch * (1 << n), peak


def test_batched_ensemble_matches_single_route():
    # collision mass sum p^2 has the same law under both constructions
    n, chi, reps = 6, 4, 300
    batched = mps_prob_values(n, chi, reps, RandomStream(51).generator)
    coll_batched = (batched**2).sum(axis=1)
    root = RandomStream(52)
    coll_single = np.array(
        [
            (mps_prob_vector(random_mps(n, chi, root.child(i))).values ** 2).sum()
            for i in range(reps)
        ]
    )
    assert stats.ks_2samp(coll_batched, coll_single).pvalue > 1e-3


def test_sampling_requires_canonical_form():
    rng = RandomStream(1).generator
    t = rng.standard_normal((1, 2, 1)) + 1j * rng.standard_normal((1, 2, 1))
    t /= np.sqrt(np.sum(np.abs(t) ** 2))
    state = MpsState(n=1, chi=1, tensors=(t,), canonical=False)
    with pytest.raises(ValueError, match="canonical"):
        mps_sample(state, RandomStream(2), 10)


def test_shape_validation():
    good = random_mps(3, 2, RandomStream(0))
    with pytest.raises(ValueError):
        MpsState(n=2, chi=2, tensors=good.tensors)
    with pytest.raises(ValueError):
        MpsState(n=3, chi=2, tensors=good.tensors[::-1])
    assert good.bond_dimensions == (2, 2)


def test_resource_caps():
    state = random_mps(17, 2, RandomStream(6))
    assert mps_probability(state, BitString(0, 17)) >= 0
    with pytest.raises(ValueError, match="resource error"):
        mps_state_vector(state)
    with pytest.raises(ValueError, match="resource error"):
        mps_prob_values(17, 2, 1, RandomStream(6).generator)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    chi=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_states_always_give_distributions(n, chi, seed):
    state = random_mps(n, chi, RandomStream(seed))
    p = mps_prob_vector(state)
    assert np.all(p.values >= 0)
    assert p.values.sum() == pytest.approx(1.0, abs=1e-9)
    x = seed % (1 << n)
    assert mps_probability(state, BitString(x, n)) == pytest.approx(
        float(p.values[x]), abs=1e-12
    )
