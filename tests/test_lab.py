"""Tests for the Monte Carlo experiment engine."""

import math

import numpy as np
import pytest

from bornlab.bitmath import RandomStream, SubsetMask
from bornlab.families import porter_thomas_survival, product_tail_exact
from bornlab.lab import (
    FAMILIES,
    FamilySpec,
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

STREAM = RandomStream(424242)


def test_wilson_interval_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    lo, hi = wilson_interval(1, 10**5)
    assert 0 < lo < 1e-5 < hi < 1e-4
    with pytest.raises(ValueError, match="domain error"):
        wilson_interval(5, 0)
    with pytest.raises(ValueError, match="domain error"):
        wilson_interval(11, 10)


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


def test_tail_curve_product_matches_exact():
    spec = FamilySpec("product")
    for n in (4, 8):
        curve = estimate_tail_curve(spec, n, [0.5], 20_000, RandomStream(10 + n))
        exact = product_tail_exact(n, 0.5)
        assert curve.ci_low[0] <= exact <= curve.ci_high[0]


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


def test_tail_curve_validation():
    with pytest.raises(ValueError, match="domain error"):
        estimate_tail_curve(FamilySpec("product"), 4, [0.5], 50, STREAM)
    with pytest.raises(ValueError, match="domain error"):
        estimate_tail_curve(FamilySpec("product"), 4, [], 200, STREAM)


def test_pairwise_product_sd_mean():
    n = 5
    report = pairwise_loss_moments(FamilySpec("product"), n, [("sd", None)], pairs=4000, stream=RandomStream(7))[0]
    expected = 2 * ((2 / 3) ** n - 2.0**-n)
    assert abs(report.mean - expected) < 3 * report.se_mean
    assert report.metric == "sd" and report.trials == 4000


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


def test_pairwise_validation():
    with pytest.raises(ValueError, match="domain error"):
        pairwise_loss_moments(FamilySpec("product"), 4, [("hellinger", None)], pairs=200, stream=STREAM)
    with pytest.raises(ValueError, match="domain error"):
        pairwise_loss_moments(FamilySpec("product"), 4, [("mmd2", None)], pairs=200, stream=STREAM)
    with pytest.raises(ValueError, match="domain error"):
        pairwise_loss_moments(FamilySpec("product"), 4, [("sd", None)], pairs=10, stream=STREAM)


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


def test_observable_variance_product():
    report = diagonal_observable_variance(
        FamilySpec("product"), 6, SubsetMask(0b1, 6), 4000, RandomStream(22)
    )
    assert abs(report.mean) < 3 * report.se_mean
    assert abs(report.variance - 1 / 3) < 3 * report.se_variance
    assert report.metric == "z1"
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
    assert pair.metric == "z12"


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


def test_observable_validation():
    with pytest.raises(ValueError, match="domain error"):
        diagonal_observable_variance(FamilySpec("product"), 4, SubsetMask(0, 4), 100, STREAM)
    with pytest.raises(ValueError, match="dimension error"):
        diagonal_observable_variance(FamilySpec("product"), 4, SubsetMask(1, 5), 100, STREAM)


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
