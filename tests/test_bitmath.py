"""Bit-domain primitive tests: characters, transforms, validation, streams."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.bitmath import (
    RandomStream,
    SampleSet,
    SubsetMask,
    fwht,
    popcounts,
    validate_prob_vector,
)
from oracles import BitString, bitstrings, fourier_character, hamming_distance


def test_hamming_distance_examples():
    assert hamming_distance(BitString(0b0000, 4), BitString(0b0000, 4)) == 0
    assert hamming_distance(BitString(0b1010, 4), BitString(0b0101, 4)) == 4
    assert hamming_distance(BitString(0b110, 3), BitString(0b100, 3)) == 1


def test_hamming_distance_dimension_error():
    with pytest.raises(ValueError, match="dimension"):
        hamming_distance(BitString(0, 2), BitString(0, 3))


@given(st.integers(1, 12), st.data())
def test_hamming_symmetry_and_identity(n, data):
    x = data.draw(st.integers(0, 2**n - 1))
    y = data.draw(st.integers(0, 2**n - 1))
    bx, by = BitString(x, n), BitString(y, n)
    assert hamming_distance(bx, by) == hamming_distance(by, bx)
    assert (hamming_distance(bx, by) == 0) == (x == y)


def test_fourier_character_examples():
    # empty set: chi is identically +1
    for x in range(8):
        assert fourier_character(SubsetMask(0, 3), BitString(x, 3)) == 1
    # single-bit parity on n=1
    assert fourier_character(SubsetMask(1, 1), BitString(1, 1)) == -1
    # S = {1,3}, x = 0b101: both members set, parity even
    S = SubsetMask.from_positions([1, 3], 3)
    assert S.mask == 0b101
    assert fourier_character(S, BitString(0b101, 3)) == 1


def test_subset_mask_weight():
    assert SubsetMask(0b1011, 4).weight == 3
    assert SubsetMask(0, 4).weight == 0
    with pytest.raises(ValueError):
        SubsetMask(16, 4)


def test_bitstring_accessors():
    b = BitString(0b101, 3)
    assert [b.bit(i) for i in (1, 2, 3)] == [1, 0, 1]
    with pytest.raises(ValueError):
        BitString(8, 3)


def test_walsh_hadamard_flat_and_delta_spectra():
    n = 4
    uniform = validate_prob_vector(np.full(16, 1 / 16), n)
    coeffs = fwht(uniform.values)
    assert coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(coeffs[1:])) <= 1e-15

    delta = np.zeros(16)
    delta[0] = 1.0
    coeffs = fwht(validate_prob_vector(delta, n).values)
    np.testing.assert_allclose(coeffs, np.ones(16))


def test_walsh_hadamard_product_closed_form():
    # product distribution: P_hat(S) = prod_{i in S} (2 a_i - 1)
    rng = np.random.default_rng(5)
    n = 5
    a = rng.random(n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    p = np.prod(np.where(bits == 0, a, 1.0 - a), axis=1)
    coeffs = fwht(validate_prob_vector(p, n).values)
    for S in range(1 << n):
        expect = np.prod([2 * a[i] - 1 for i in range(n) if (S >> i) & 1])
        assert coeffs[S] == pytest.approx(float(expect), abs=1e-12)


def test_fwht_matches_direct_character_sum():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5):
        N = 1 << n
        v = rng.standard_normal(N)
        out = fwht(v)
        chi = 1.0 - 2.0 * (np.bitwise_count(np.arange(N)[:, None] & np.arange(N)[None, :]) % 2)
        np.testing.assert_allclose(out, chi @ v, atol=1e-10)


def _butterfly_fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    out[S] = sum_x a[x] * (-1)^popcount(S & x), in O(N log N). Works on
    batched (..., N) arrays of float or complex; N must be a power of two.
    The transform is an involution up to the factor N.
    """
    a = np.asarray(a)
    N = a.shape[-1]
    if N == 0 or N & (N - 1):
        raise ValueError(f"length {N} is not a power of two")
    dtype = np.result_type(a.dtype, np.float64)
    out = np.array(a, dtype=dtype, copy=True)
    h = 1
    while h < N:
        # in-place butterfly on blocks of width h; one half-size temporary at a time
        view = out.reshape(out.shape[:-1] + (N // (2 * h), 2, h))
        top, bot = view[..., 0, :], view[..., 1, :]
        diff = top - bot
        top += bot
        bot[...] = diff
        del diff
        h *= 2
    return out


@pytest.mark.parametrize("n", range(1, 17))
def test_fwht_matches_butterfly_oracle(n):
    rng = np.random.default_rng(n)
    leads = [(), (3,), (2, 3)]
    if n == 10:
        leads.append((130,))  # 130 rows of 8 KiB straddle the matmul blocks
    for lead in leads:
        shape = lead + (1 << n,)
        real = rng.standard_normal(shape)
        cplx = real + 1j * rng.standard_normal(shape)
        for a in (real, cplx, np.asfortranarray(real), np.asfortranarray(cplx)):
            out, expect = fwht(a), _butterfly_fwht(a)
            assert out.shape == expect.shape and out.dtype == expect.dtype
            assert np.max(np.abs(out - expect)) <= 1e-12 * np.max(np.abs(expect))
        # +-1 sums of integers are exact, so integer-valued input matches bitwise
        ints = rng.integers(-1000, 1000, shape)
        for a in (ints, ints.astype(np.float64)):
            out, expect = fwht(a), _butterfly_fwht(a)
            assert out.dtype == expect.dtype == np.float64
            assert np.array_equal(out, expect)


def test_fwht_batched_and_complex():
    rng = np.random.default_rng(2)
    batch = rng.standard_normal((7, 16)) + 1j * rng.standard_normal((7, 16))
    out = fwht(batch)
    for row_in, row_out in zip(batch, out):
        np.testing.assert_allclose(fwht(row_in), row_out)


def test_fwht_peak_is_the_output_and_one_half_size_temporary():
    a = np.random.default_rng(4).standard_normal((2, 1 << 18))
    tracemalloc.start()
    try:
        fwht(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * a.nbytes + (1 << 20), peak


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fwht(np.ones(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 14))
def test_walsh_hadamard_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(1 << n))
    coeffs = fwht(p)
    back = fwht(coeffs) / coeffs.shape[-1]
    assert np.max(np.abs(back - p)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_parseval_identity(seed, n):
    # 2^-n sum_S P_hat(S)^2 == sum_x p(x)^2
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(1 << n))
    coeffs = fwht(p)
    lhs = float(np.sum(coeffs**2)) / (1 << n)
    rhs = float(np.sum(p**2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_character_orthogonality_exhaustive():
    # 2^-n sum_x chi_S(x) chi_T(x) = [S == T], n <= 6
    for n in range(1, 7):
        N = 1 << n
        H = fwht(np.eye(N))
        gram = H @ H.T / N
        np.testing.assert_allclose(gram, np.eye(N), atol=1e-12)


def test_popcounts_table():
    assert popcounts(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


def test_validate_prob_vector_examples():
    pv = validate_prob_vector([0.5, 0.5], 1)
    assert pv.n == 1 and pv.size == 2
    with pytest.raises(ValueError, match="normalization"):
        validate_prob_vector([0.6, 0.6], 1)
    with pytest.raises(ValueError, match="domain"):
        validate_prob_vector([-0.1, 1.1], 1)
    with pytest.raises(ValueError, match="dimension"):
        validate_prob_vector([1.0], 1)


def test_validate_prob_vector_tolerance_boundary():
    validate_prob_vector([0.5, 0.5 + 0.9e-9], 1)
    with pytest.raises(ValueError, match="normalization"):
        validate_prob_vector([0.5, 0.5 + 1.1e-9], 1)


def test_prob_vector_values_read_only():
    pv = validate_prob_vector([0.25, 0.75], 1)
    with pytest.raises(ValueError):
        pv.values[0] = 1.0


def test_derive_stream_determinism():
    a = RandomStream(42).child(0).generator.random(100)
    b = RandomStream(42).child(0).generator.random(100)
    np.testing.assert_array_equal(a, b)


def test_derive_stream_distinct_seeds_and_indices():
    base = RandomStream(42).child(0).generator.random(64)
    assert not np.array_equal(base, RandomStream(43).child(0).generator.random(64))
    assert not np.array_equal(base, RandomStream(42).child(1).generator.random(64))


def test_derive_stream_cross_correlation():
    # empirical independence proxy: |r| < 0.05 over 1e4 uniforms
    u = RandomStream(42).child(0).generator.random(10_000)
    v = RandomStream(42).child(1).generator.random(10_000)
    r = np.corrcoef(u, v)[0, 1]
    assert abs(r) < 0.05


def test_stream_children_are_independent_of_sibling_order():
    s = RandomStream(7).child(3)
    c2 = s.child(2).generator.random(16)
    # deriving child 5 first must not affect child 2's sequence
    s2 = RandomStream(7).child(3)
    s2.child(5)
    np.testing.assert_array_equal(c2, s2.child(2).generator.random(16))


def test_sample_set_validation_and_rendering():
    s = SampleSet(3, [0, 5, 7])
    assert len(s) == 3
    assert bitstrings(s) == ["000", "101", "111"]
    with pytest.raises(ValueError):
        SampleSet(2, [4])
