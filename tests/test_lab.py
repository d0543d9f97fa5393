"""Tests for the Monte Carlo experiment engine."""

import math
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from bornlab import lab
from bornlab.bitmath import RandomStream, SubsetMask
from bornlab.lab import (
    FAMILIES,
    FamilySpec,
    _parallel_map,
    anticoncentration_statistic,
    diagonal_observable_variance,
    distance_to_uniform_moments,
    estimate_tail_curve,
    instance_prob_values,
    pairwise_loss_moments,
    pairwise_loss_values,
    reference_mass_values,
    wilson_interval,
)
from bornlab.metrics import bandwidth_kernel, mmd2_fourier_batch
from oracles import pareto_mass_one_array, porter_thomas_survival, product_tail_exact

STREAM = RandomStream(424242)


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    lo, hi = wilson_interval(1, 10**5)
    assert 0 < lo < 1e-5 < hi < 1e-4


def _spec(kind):
    return FamilySpec(kind, alpha=2.0 if kind == "pareto" else 1.0)


def test_instance_generators_are_normalized():
    for i, kind in enumerate(FAMILIES):
        p = instance_prob_values(_spec(kind), 5, 7, RandomStream(1).child(i).generator)
        assert p.shape == (7, 32), kind
        assert np.all(p >= 0), kind
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9, err_msg=kind)


def test_reference_masses_match_dense_law():
    # every shortcut (marginal) route agrees in distribution with its dense
    # law; kinds without a shortcut compare two dense draws
    from scipy import stats

    for i, kind in enumerate(FAMILIES):
        fast = reference_mass_values(_spec(kind), 6, 4000, RandomStream(2).child(i).generator)
        dense = instance_prob_values(_spec(kind), 6, 4000, RandomStream(3).child(i).generator)[:, 0]
        assert stats.ks_2samp(fast, dense).pvalue > 1e-3, kind


class _CountingGenerator:
    """A numpy Generator that records the size of every draw it is asked for."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.sizes.append((name, np.size(out)))
            return out

        return draw


@pytest.mark.parametrize("kind, n", [("peaked", 2), ("peaked", 6), ("peaked", 20),
                                     ("peaked_iqp", 3), ("peaked_iqp", 8)])
def test_sparse_masses_are_drawn_for_the_hits_alone(kind, n):
    # x* lies in an instance's support with probability K/2^n, and only those
    # instances draw a Beta variate, or run an IQP and pick one of its masses
    rng = _CountingGenerator(n)
    masses = reference_mass_values(FamilySpec(kind), n, 5000, rng)
    hits = int(np.count_nonzero(masses))
    assert rng.sizes[0] == ("random", 5000)
    if kind == "peaked":
        assert rng.sizes[1:] == [("beta", hits)]
    else:
        qubits = FamilySpec(kind).support_size(n).bit_length() - 1
        gates = qubits * (qubits + 1) // 2
        assert rng.sizes[1:] == [("uniform", hits * gates), ("integers", hits)]
    assert 0 < hits < 5000 or n == 20


def test_tail_curve_product_matches_exact():
    spec = FamilySpec("product")
    for n in (4, 8):
        curve = estimate_tail_curve(spec, n, [0.5], 20_000, RandomStream(10 + n))
        exact = product_tail_exact(n, 0.5)
        assert curve.ci_low[0] <= exact <= curve.ci_high[0]


def test_product_mass_route_at_its_cap_matches_closed_forms():
    # both product forms draw p(x*) from one route; at n = 24 and 26 each of
    # six tail points holds at level 1 - 0.05/6, so all six hold together at
    # 95%. The second moment 2^{2n} E[p^2] = (4/3)^n is checked at n = 4 and 8
    # only: its true standard error at 10^5 trials passes the mean from n = 20 on
    assert FAMILIES["iqp_product"].mass is FAMILIES["product"].mass
    spec, z = FamilySpec("product"), NormalDist().inv_cdf(1 - 0.05 / 12)
    for n in (24, 26):
        curve = estimate_tail_curve(spec, n, [1e-3, 0.05, 1.9], 100_000, RandomStream(40).child(n))
        for y, estimate in zip(curve.y_grid, curve.estimates):
            lo, hi = wilson_interval(round(estimate * curve.trials), curve.trials, z)
            assert lo <= product_tail_exact(n, y) <= hi, (n, y, lo, hi)
    for n in (4, 8):
        report = anticoncentration_statistic(spec, n, 100_000, RandomStream(41).child(n))
        assert abs(report.second_moment_statistic - (4 / 3) ** n) < 3 * report.second_moment_se, n


def test_tail_curve_dirichlet_half_threshold():
    curve = estimate_tail_curve(FamilySpec("dirichlet"), 10, [0.5], 20_000, RandomStream(21))
    exact = porter_thomas_survival(1 << 10, 0.5 / (1 << 10))
    assert curve.ci_low[0] <= exact <= curve.ci_high[0]
    assert exact == pytest.approx(math.exp(-0.5), abs=0.01)


def test_tail_curve_peaked_is_bounded_by_sparsity():
    spec = FamilySpec("peaked")  # K = 8 at n = 8
    curve = estimate_tail_curve(spec, 8, np.geomspace(0.01, 4.0, 8), 20_000, RandomStream(31))
    for est, hi in zip(curve.estimates, curve.ci_high):
        assert est <= 8 / 256 + (hi - est) + 1e-12


def test_tail_curve_monotone_and_sorted():
    curve = estimate_tail_curve(
        FamilySpec("iqp"), 4, [2.0, 0.1, 0.5, 1.0], 500, RandomStream(5)
    )
    assert curve.y_grid == (0.1, 0.5, 1.0, 2.0)
    assert all(a >= b for a, b in zip(curve.estimates, curve.estimates[1:]))
    assert all(0 <= e <= 1 for e in curve.estimates)


def test_pairwise_product_sd_mean():
    n = 5
    report = pairwise_loss_moments(FamilySpec("product"), n, [("sd", None)], pairs=4000, stream=RandomStream(7))[0]
    expected = 2 * ((2 / 3) ** n - 2.0**-n)
    assert abs(report.mean - expected) < 3 * report.se_mean
    assert report.trials == 4000


def test_pairwise_dirichlet_sd_mean():
    n = 6
    N = 1 << n
    report = pairwise_loss_moments(FamilySpec("dirichlet"), n, [("sd", None)], pairs=4000, stream=RandomStream(8))[0]
    assert abs(report.mean - 2 * (N - 1) / (N * (N + 1))) < 3 * report.se_mean


def test_pairwise_dirichlet_l1_mean():
    n = 6
    N = 1 << n
    report = pairwise_loss_moments(FamilySpec("dirichlet"), n, [("l1", None)], pairs=4000, stream=RandomStream(9))[0]
    assert abs(report.mean - 2 * (N - 1) / (2 * N - 1)) < 3 * report.se_mean
    half = pairwise_loss_moments(FamilySpec("dirichlet"), n, [("tvd", None)], pairs=400, stream=RandomStream(9))[0]
    full = pairwise_loss_moments(FamilySpec("dirichlet"), n, [("l1", None)], pairs=400, stream=RandomStream(9))[0]
    assert half.mean == pytest.approx(0.5 * full.mean, rel=1e-12)


def test_pairwise_dirichlet_mmd2_mean():
    # E[MMD^2] = (1 - ((1+rho)/2)^n) * 2/(N+1) for flat Dirichlet pairs
    n, sigma = 6, 1.0
    N = 1 << n
    rho = math.exp(-0.5)
    report = pairwise_loss_moments(
        FamilySpec("dirichlet"), n, [("mmd2", sigma)], pairs=6000, stream=RandomStream(12)
    )[0]
    expected = (1 - ((1 + rho) / 2) ** n) * 2 / (N + 1)
    assert abs(report.mean - expected) < 3 * report.se_mean


def test_pairwise_peaked_sd_mean():
    # E[SD] = 4/(K+1) - 2/N for flat Dirichlet masses on a random K-subset
    n = 8
    spec = FamilySpec("peaked", k=8)
    report = pairwise_loss_moments(spec, n, [("sd", None)], pairs=4000, stream=RandomStream(13))[0]
    assert abs(report.mean - (4 / 9 - 2 / 256)) < 3 * report.se_mean


def test_pairwise_sigma_zero_is_squared_distance():
    sd = pairwise_loss_values(FamilySpec("iqp"), 5, [("sd", None)], pairs=300, stream=RandomStream(14))[0]
    mmd = pairwise_loss_values(
        FamilySpec("iqp"), 5, [("mmd2", 0.0)], pairs=300, stream=RandomStream(14)
    )[0]
    np.testing.assert_allclose(mmd, sd, rtol=1e-12)


def test_pairwise_combos_share_draws_across_chunks():
    # n = 12 makes 256-pair chunks, so 600 pairs span three of them
    combos = [("tvd", None), ("mmd2", 12.0), ("sd", None), ("mmd2", 0.0), ("l1", None)]
    spec, stream = FamilySpec("dirichlet"), RandomStream(17)
    values = pairwise_loss_values(spec, 12, combos, pairs=600, stream=stream)
    assert values.shape == (5, 600)
    for row, combo in zip(values, combos):
        np.testing.assert_array_equal(row, pairwise_loss_values(spec, 12, [combo], 600, stream)[0])
    np.testing.assert_array_equal(values[0], values[4] / 2)


SUPPORT_SPECS = [FamilySpec("peaked"), FamilySpec("peaked", k=4), FamilySpec("peaked_iqp"), FamilySpec("point")]


def _support_cells(spec, n_max):
    """The n <= n_max whose pairwise cells of spec are scored on supports."""
    return [n for n in range(1, n_max + 1)
            if (spec.k is None or spec.k <= 1 << n) and lab._on_supports(spec, n)]


def _every_combo(n):
    return [("sd", None), ("mmd2", 0.0), ("mmd2", 1.0), ("mmd2", float(n)), ("l1", None), ("tvd", None)]


def test_sparse_pairs_take_the_support_route_where_positions_are_drawn():
    # K^2 <= 2^n and K < 2^n: fig5's peaked_iqp cells at n = 3 and 5 rank keys
    assert _support_cells(FamilySpec("peaked_iqp"), 13) == [2, 4] + list(range(6, 14))
    assert _support_cells(FamilySpec("peaked", k=4), 16) == list(range(4, 17))
    assert _support_cells(FamilySpec("peaked", k=64), 16) == list(range(12, 17))
    assert _support_cells(FamilySpec("point"), 16) == list(range(1, 17))
    for kind in ("product", "dirichlet", "iqp", "mps", "uniform"):
        assert _support_cells(_spec(kind), 16) == []


@pytest.mark.parametrize("spec", SUPPORT_SPECS, ids=FamilySpec.label)
def test_support_pairs_match_dense_pairs_of_one_draw(spec):
    # the support route draws its compact pairs from the chunk's generator;
    # the same generator gives the dense pairs, and every metric of the two
    # agrees, also for pairs whose supports share points
    overlapping = 0
    for n in _support_cells(spec, 16):
        pairs = max(8, min(200, (1 << 20) >> n))  # one chunk; dense pairs of at most 8 MiB
        stream = RandomStream(37).child(n)
        values = pairwise_loss_values(spec, n, _every_combo(n), pairs, stream)
        rng = stream.child(0).generator
        p, q = instance_prob_values(spec, n, pairs, rng), instance_prob_values(spec, n, pairs, rng)
        diff = p - q
        l1 = np.abs(diff).sum(axis=1)
        kernels = tuple(bandwidth_kernel(sigma) for _, sigma in _every_combo(n)[1:4])
        dense = np.vstack([np.einsum("ij,ij->i", diff, diff), mmd2_fourier_batch(diff.copy(), n, kernels).T,
                           l1, l1 / 2])
        np.testing.assert_allclose(values, dense, rtol=1e-12, atol=0, err_msg=f"n={n}")
        overlapping += np.count_nonzero(((p > 0) & (q > 0)).any(axis=1))
    assert overlapping > 100


# a chunk's traced peak may pass chunk * bytes_per_instance by this factor:
# lab._float_bytes leaves to it the terms under a tenth of a float row
MEMORY_SLACK = 1.1
MEMORY_SPECS = [_spec(kind) for kind in FAMILIES] + [
    FamilySpec("mps", chi=3), FamilySpec("mps", chi=64), FamilySpec("peaked", k=64),
    FamilySpec("peaked_iqp", k=1), FamilySpec("peaked_iqp", k=64),
]


@pytest.mark.parametrize("spec", MEMORY_SPECS, ids=FamilySpec.label)
def test_chunk_memory_is_bounded_before_allocation(spec):
    # every route, every n up to 20: a chunk's draw holds at its peak no more
    # than the bytes its size was derived from
    for name in ("dense", "mass"):
        route = getattr(FAMILIES[spec.kind], name)
        for n in range(1, min(route.max_n, 20) + 1):
            if spec.k is not None and spec.k > 1 << n:
                continue
            chunk = lab._chunk(route.bytes_per_instance(spec, n))
            tracemalloc.start()
            try:
                route.draw(spec, n, chunk, np.random.default_rng(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= MEMORY_SLACK * chunk * route.bytes_per_instance(spec, n), (name, n, chunk, peak)
    # a pairwise chunk on the supports, every metric scored: at most the
    # bytes its pairs state
    for n in _support_cells(spec, 20):
        pair_bytes = lab._support_pair_bytes(FAMILIES[spec.kind].support.size(spec, n), n)
        chunk = lab._chunk(pair_bytes)
        tracemalloc.start()
        try:
            pairwise_loss_values(spec, n, _every_combo(n), chunk, RandomStream(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= MEMORY_SLACK * chunk * pair_bytes, ("support", n, chunk, peak)


@pytest.mark.parametrize("spec", MEMORY_SPECS, ids=FamilySpec.label)
def test_a_dense_pairwise_chunk_is_bounded_before_allocation(spec):
    # p drawn whole and q subtracted into it a block at a time: every combo
    # scored, a dense chunk holds its draw of p within the route's bound and
    # what it states beside it: one block of q (all of q for iqp and mps),
    # one working block of BLOCK_BYTES (|p - q| or the transform's) and its
    # scores, 8 bytes a pair for each combo, for each MMD^2 kernel again (its
    # result before it is copied into its row) and for the L1 row; at
    # n = 1..20 wherever a chunk holds two rows or more
    route = FAMILIES[spec.kind].dense
    for n in range(1, min(route.max_n, 20) + 1):
        if (spec.k is not None and spec.k > 1 << n) or lab._on_supports(spec, n):
            continue
        item_bytes = route.bytes_per_instance(spec, n)
        chunk = lab._chunk(item_bytes)
        if chunk < 2:
            continue
        combos = _every_combo(n)
        tracemalloc.start()
        try:
            pairwise_loss_values(spec, n, combos, chunk, RandomStream(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = len(combos) + sum(metric == "mmd2" for metric, _ in combos) + 1
        beside = route.block_rows(spec, n, chunk) * item_bytes + lab.BLOCK_BYTES + 8 * scores * chunk
        assert peak <= MEMORY_SLACK * chunk * item_bytes + beside, (n, chunk, beside, peak)


@pytest.mark.parametrize("spec", MEMORY_SPECS + [FamilySpec("dirichlet", alpha=0.002)], ids=FamilySpec.label)
def test_dense_blocks_join_to_the_whole_draw(spec):
    # a route's blocks of 3 rows, then its rows drawn again, joined: the
    # whole draw, bit for bit, with the generator left where the whole draw
    # leaves it. dirichlet(0.002) at n = 2..4 draws rows whose draws all
    # underflow to 0, which are redrawn after the last block
    route = FAMILIES[spec.kind].dense
    redrawn = 0
    for n in range(1, min(route.max_n, 12) + 1):
        if spec.k is not None and spec.k > 1 << n:
            continue
        count = 2000 if n <= 4 else 10
        whole, blocked = np.random.default_rng(n), np.random.default_rng(n)
        expected = route.draw(spec, n, count, whole)
        joined = np.full_like(expected, np.nan)
        for index, values in route.blocks(spec, n, count, blocked, 3):
            assert len(values) <= (count if route.whole else 3)  # also a round of rows drawn again
            redrawn += isinstance(index, np.ndarray) and len(index)
            joined[index] = values
        assert joined.tobytes() == expected.tobytes(), n
        assert blocked.bit_generator.state == whole.bit_generator.state, n
    assert (redrawn > 0) == (spec.alpha == 0.002)


@pytest.mark.parametrize("spec", [_spec(kind) for kind in FAMILIES] + [FamilySpec("peaked", k=256)],
                         ids=FamilySpec.label)
def test_dense_pairs_score_the_two_whole_draws_bit_for_bit(spec):
    # q handed out in blocks and subtracted into p, then scored in place,
    # gives the values of p - q from two whole draws, bit for bit: at n = 14
    # a chunk of 64 pairs spans eight blocks of q
    for n in (3, 9, 14 if FAMILIES[spec.kind].dense.max_n >= 14 else 12):
        if (spec.k is not None and spec.k > 1 << n) or lab._on_supports(spec, n):
            continue
        combos = _every_combo(n)
        pairs = lab._chunk(FAMILIES[spec.kind].dense.bytes_per_instance(spec, n)) + 5
        values = pairwise_loss_values(spec, n, combos, pairs, RandomStream(41).child(n))
        chunks = []
        for k, count in enumerate((pairs - 5, 5)):
            rng = RandomStream(41).child(n).child(k).generator
            diff = instance_prob_values(spec, n, count, rng) - instance_prob_values(spec, n, count, rng)
            l1 = np.abs(diff).sum(axis=1)
            kernels = tuple(bandwidth_kernel(sigma) for _, sigma in combos[1:4])
            sd = np.einsum("ij,ij->i", diff, diff)
            chunks.append(np.vstack([sd, mmd2_fourier_batch(diff, n, kernels).T, l1, 0.5 * l1]))
        assert values.tobytes() == np.concatenate(chunks, axis=1).tobytes(), n


@pytest.mark.parametrize("spec", MEMORY_SPECS, ids=FamilySpec.label)
def test_observable_and_distance_cells_are_bounded_before_allocation(spec):
    # a cell of two chunks, n = 1..20: at its peak it holds a chunk's draw
    # within the route's bound, its values (8 bytes an instance) and what it
    # states it holds beside its chunks: the observable's sign row of 2^n
    # floats, and nothing for the distance to uniform
    route = FAMILIES[spec.kind].dense
    for n in range(1, min(route.max_n, 20) + 1):
        if spec.k is not None and spec.k > 1 << n:
            continue
        item_bytes = route.bytes_per_instance(spec, n)
        chunk = lab._chunk(item_bytes)
        cells = [
            (lambda: diagonal_observable_variance(spec, n, SubsetMask((1 << n) - 1, n), chunk + 1,
                                                  RandomStream(n)), 8 << n),
            (lambda: distance_to_uniform_moments(spec, n, chunk + 1, RandomStream(n)), 0),
        ]
        for cell, beside in cells:
            tracemalloc.start()
            try:
                cell()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = MEMORY_SLACK * chunk * item_bytes + 8 * (chunk + 1) + beside
            assert peak <= bound, (n, chunk, beside, peak)


def test_observable_signs_are_the_parity_of_the_outcome_in_s(monkeypatch):
    # an instance that is the point mass on x reads <Z_S> = chi_S(x), so with
    # the 2^n point masses as the draw and the moments replaced by the values,
    # the cell returns its sign row: 1 - 2 (popcount(x & S) mod 2), every S
    eye = {n: np.eye(1 << n) for n in range(1, 11)}
    monkeypatch.setattr(lab, "instance_prob_values", lambda family, n, count, rng: eye[n][:count])
    monkeypatch.setattr(lab, "_moment_report", lambda values: values)
    for n in range(1, 11):
        x = np.arange(1 << n, dtype=np.uint64)
        for mask in range(1 << n):
            signs = diagonal_observable_variance(_spec("uniform"), n, SubsetMask(mask, n), 1 << n, STREAM)
            np.testing.assert_array_equal(signs, 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(mask)) % 2))


def test_float_chunks_keep_their_size_where_small_terms_fit_the_slack():
    # 2^20 outcomes a chunk from n = 8 on, as before the byte budget, and the
    # closed-form marginals at the instance cap: up to n = 15, and the
    # product forms' one Gamma draw an instance up to their cap
    def chunk(kind, route, n):
        return lab._chunk(getattr(FAMILIES[kind], route).bytes_per_instance(_spec(kind), n))

    for kind in ("product", "iqp_product", "dirichlet", "pareto", "peaked", "peaked_iqp", "uniform", "point"):
        for n in range(8, FAMILIES[kind].dense.max_n + 1):
            assert chunk(kind, "dense", n) == max(1, (1 << 20) >> n), (kind, n)
    for kind in ("dirichlet", "peaked", "uniform", "point"):
        for n in range(1, 16):
            assert chunk(kind, "mass", n) == lab.MAX_CHUNK, (kind, n)
    for kind in ("product", "iqp_product"):
        for n in range(1, FAMILIES[kind].mass.max_n + 1):
            assert chunk(kind, "mass", n) == lab.MAX_CHUNK, (kind, n)


def test_anticoncentration_reports():
    uniform = anticoncentration_statistic(FamilySpec("uniform"), 6, 500, RandomStream(17))
    assert uniform.second_moment_statistic == pytest.approx(1.0)
    assert uniform.tail_at_half == 1.0

    n = 8
    N = 1 << n
    dirichlet = anticoncentration_statistic(FamilySpec("dirichlet"), n, 50_000, RandomStream(18))
    assert abs(dirichlet.second_moment_statistic - 2 * N / (N + 1)) < 3 * dirichlet.second_moment_se
    assert dirichlet.tail_ci_low <= math.exp(-0.5) * (1 + 0.01) and dirichlet.tail_at_half > 0.55

    product = anticoncentration_statistic(FamilySpec("product"), 6, 50_000, RandomStream(19))
    assert abs(product.second_moment_statistic - (4 / 3) ** 6) < 3 * product.second_moment_se

    point = anticoncentration_statistic(FamilySpec("point"), 4, 20_000, RandomStream(20))
    assert abs(point.second_moment_statistic - 16.0) < 3 * point.second_moment_se


def test_non_finite_reference_mass_is_refused(monkeypatch):
    # a tail count would read NaN as "below every threshold", so a NaN mass
    # stops the cell instead of becoming a silent miss
    def nan_masses(family, n, count, rng):
        masses = np.full(count, 1.0 / (1 << n))
        masses[-1] = np.nan
        return masses

    monkeypatch.setattr(lab, "reference_mass_values", nan_masses)
    spec = FamilySpec("dirichlet", alpha=0.5)
    with pytest.raises(ValueError, match=r"domain error: dirichlet\(0\.5\) at n=5 drew a non-finite"):
        estimate_tail_curve(spec, 5, [0.5], 200, STREAM)
    with pytest.raises(ValueError, match=r"domain error: dirichlet\(0\.5\) at n=5 drew a non-finite"):
        anticoncentration_statistic(spec, 5, 200, STREAM)


def test_observable_variance_product():
    report = diagonal_observable_variance(
        FamilySpec("product"), 6, SubsetMask(0b1, 6), 4000, RandomStream(22)
    )
    assert abs(report.mean) < 3 * report.se_mean
    assert abs(report.variance - 1 / 3) < 3 * report.se_variance
    # n-independence of the single-bit variance
    other = diagonal_observable_variance(
        FamilySpec("product"), 10, SubsetMask(0b1, 10), 4000, RandomStream(23)
    )
    assert abs(other.variance - 1 / 3) < 3 * other.se_variance
    # weight-2 subset: Var = (1/3)^2
    pair = diagonal_observable_variance(
        FamilySpec("product"), 6, SubsetMask(0b11, 6), 4000, RandomStream(24)
    )
    assert abs(pair.variance - 1 / 9) < 3 * pair.se_variance


def test_observable_variance_dirichlet_bound():
    n = 8
    N = 1 << n
    report = diagonal_observable_variance(
        FamilySpec("dirichlet"), n, SubsetMask(0b1, n), 6000, RandomStream(25)
    )
    assert report.variance <= (1 / N) * (1 + 1 / N) * 1.1
    assert abs(report.variance - 1 / (N + 1)) < 3 * report.se_variance


def test_observable_variance_point_masses():
    report = diagonal_observable_variance(
        FamilySpec("point"), 4, SubsetMask(0b1010, 4), 3000, RandomStream(26)
    )
    assert abs(report.variance - 1.0) < 3 * report.se_variance


def test_distance_to_uniform():
    zero = distance_to_uniform_moments(FamilySpec("uniform"), 5, 200, RandomStream(27))
    assert zero.mean == 0.0 and zero.variance == 0.0

    n = 6
    N = 1 << n
    dirichlet = distance_to_uniform_moments(FamilySpec("dirichlet"), n, 4000, RandomStream(28))
    assert abs(dirichlet.mean - (2 / (N + 1) - 1 / N)) < 3 * dirichlet.se_mean

    product = distance_to_uniform_moments(FamilySpec("product"), n, 4000, RandomStream(29))
    assert abs(product.mean - ((2 / 3) ** n - 1 / N)) < 3 * product.se_mean


def test_markov_style_pair_bounds():
    # product pairs: Prob(SD > (2/3)^n / delta) <= delta (Markov is loose;
    # the empirical fraction should sit far below delta)
    n, pairs = 8, 3000
    values = pairwise_loss_values(FamilySpec("product"), n, [("sd", None)], pairs=pairs, stream=RandomStream(33))[0]
    for delta in (0.1, 0.01):
        frac = np.mean(values > (2 / 3) ** n / delta)
        assert frac <= delta + 3 * math.sqrt(delta * (1 - delta) / pairs)

    # Dirichlet pairs with threshold k^2/N and the constant-6 bound
    n, pairs = 8, 3000
    N = 1 << n
    values = pairwise_loss_values(FamilySpec("dirichlet"), n, [("sd", None)], pairs=pairs, stream=RandomStream(34))[0]
    for k in (2.0, 4.0):
        bound = 6 / k**2 * (1 + 2 / N)
        frac = np.mean(values > k**2 / N)
        assert frac <= bound + 3 * math.sqrt(max(bound * (1 - bound), 1e-9) / pairs)

    # peaked pairs: threshold k^2/K, bound 6/k^2 (1 + 2/N) + K^2/N
    n, K, pairs = 10, 16, 3000
    N = 1 << n
    values = pairwise_loss_values(
        FamilySpec("peaked", k=K), n, [("sd", None)], pairs=pairs, stream=RandomStream(35)
    )[0]
    for delta in (0.1, 0.05):
        k2 = 1 / delta
        bound = 6 * delta * (1 + 2 / N) + K**2 / N
        frac = np.mean(values > k2 / K)
        assert frac <= bound + 3 * math.sqrt(max(bound * (1 - bound), 1e-9) / pairs)


def test_sd_and_fourier_sd_decay_slopes_agree():
    # Dirichlet: fitted ln(mean) slope of SD and of MMD^2(sigma=1) within 20%
    ns = np.arange(4, 11)
    sd_means, mmd_means = [], []
    for n in ns:
        sd = pairwise_loss_moments(FamilySpec("dirichlet"), int(n), [("sd", None)], pairs=1500, stream=RandomStream(36).child(n))[0]
        mmd = pairwise_loss_moments(
            FamilySpec("dirichlet"), int(n), [("mmd2", 1.0)], pairs=1500, stream=RandomStream(37).child(n)
        )[0]
        sd_means.append(sd.mean)
        mmd_means.append(mmd.mean)
    sd_slope = np.polyfit(ns, np.log(sd_means), 1)[0]
    mmd_slope = np.polyfit(ns, np.log(mmd_means), 1)[0]
    assert sd_slope < 0 and mmd_slope < 0
    assert abs(sd_slope - mmd_slope) < 0.2 * abs(sd_slope)


# a slow cell draws 3000 chunks of 10 ms, 30 s in all
SLOW_CHUNKS = 3000


def _fail_first(task, drawn):
    if task == 0:
        time.sleep(0.2)  # the slow cell beside it is past its first chunks
        raise ValueError("cell 0 failed")

    def draw(rng, count):
        drawn.append(task)
        time.sleep(0.01)
        return np.zeros(count)

    return lab._collect(draw, SLOW_CHUNKS, lab.CHUNK_BYTES, RandomStream(task))  # one item a chunk


def test_parallel_map_raises_at_the_first_failing_cell():
    # the first cell's error must end the fan-out instead of waiting for the
    # others: the cells not started never run, the running ones stop at
    # their next chunk
    drawn = []
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cell 0 failed"):
        _parallel_map(lambda task: _fail_first(task, drawn), [0, 1, 2, 3], workers=2)
    assert time.perf_counter() - start < 10
    assert 1 in drawn
    assert len(drawn) < SLOW_CHUNKS // 10


def test_a_failed_fan_out_leaves_the_next_one_running():
    with pytest.raises(ValueError):
        _parallel_map(lambda task: _fail_first(task, []), [0, 0], workers=2)
    sums = _parallel_map(
        lambda total: lab._collect(lambda rng, count: np.ones(count), total, lab.CHUNK_BYTES // 2,
                                   RandomStream(total)).sum(),  # two items a chunk
        [3, 4, 5], workers=2,
    )
    assert sums == [3, 4, 5]


@pytest.mark.parametrize("n", range(1, 15))
def test_pareto_mass_blocks_match_one_array(n):
    # the row blocks draw and sum as one (count, 2^n - 1) array would, bit
    # for bit, at counts that fill three whole blocks and that do not
    rows = max(1, lab.MAX_CHUNK // ((1 << n) - 1))
    for alpha in (1.5, 2.0, 3.0):
        spec = FamilySpec("pareto", alpha=alpha)
        for count in (1, 7, 3 * rows, 3 * rows + 5):
            np.testing.assert_array_equal(
                lab._pareto_mass(spec, n, count, np.random.Generator(np.random.Philox(n))),
                pareto_mass_one_array(spec.underlying(), n, count, np.random.Generator(np.random.Philox(n))),
            )
