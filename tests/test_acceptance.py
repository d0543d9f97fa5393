"""Acceptance suite: one test per numbered criterion.

Each test states its claim, the tolerance, and the Monte Carlo budget in its
own body; pytest -v therefore prints one pass/fail line per criterion. Seeds
are pinned so the suite is deterministic; the statistical tolerances (3 SE,
Wilson intervals) were sized so a typical draw passes with margin.

Criterion 8 asserts the flat-Dirichlet pairwise L1 moments at their exact
values: mean 2(N-1)/(2N-1) from the Beta(1, N-1) marginals, and variance
1/(2N) from the delta method. The often-quoted 3/N treats the N coordinate
contributions as independent; it is kept only as an upper bound.
tests/test_metrics.py::test_dirichlet_l1_moments pins the same values by
direct numpy simulation, without going through bornlab.

Criteria 10 and 11 each take more than 10 s and carry the `slow` marker, so
-m 'not slow' skips them in a quick loop; the full suite still runs them.

Criteria 15-21 hold the iqp and peaked_iqp rows that cli writes to their
exact means (tests/oracles.py), each grid at one joint 99% level.
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from bornlab import lab
from bornlab.bitmath import RandomStream, SampleSet, SubsetMask, validate_prob_vector
from bornlab.cli import ExperimentConfig, parse_family, run_config
from bornlab.lab import (
    FamilySpec,
    anticoncentration_statistic,
    diagonal_observable_variance,
    estimate_tail_curve,
    instance_prob_values,
    pairwise_loss_moments,
    wilson_interval,
)
from bornlab.metrics import (
    KernelSpec,
    bandwidth_kernel,
    mmd2_fourier_batch,
    mmd2_unbiased,
    mmd_test_threshold,
)
from oracles import (
    iqp_mmd2_mean,
    iqp_observable_variance,
    iqp_sd_mean,
    iqp_second_moment,
    iqp_uniform_distance_mean,
    mmd2_fourier,
    mmd2_population,
    peaked_iqp_mmd2_mean,
    peaked_iqp_second_moment,
    peaked_iqp_sd_mean,
    product_tail_exact,
)

N_FULL_RANGE = range(2, 13)


def linear_fit(ns, values):
    """Least-squares line through (n, ln value); returns slope and R^2."""
    ns = np.asarray(ns, dtype=float)
    lny = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(ns, lny, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - np.sum((lny - pred) ** 2) / np.sum((lny - lny.mean()) ** 2)
    return slope, r2


def hamming_kernel_table(n, rho):
    xs = np.arange(1 << n, dtype=np.uint64)
    d = np.bitwise_count(xs[:, None] ^ xs[None, :])
    return rho ** d.astype(np.float64)


def unbiased_from_counts(cx, cy, K):
    """mmd2_unbiased evaluated from outcome count vectors (diagonal k=1)."""
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    m = cx.sum(axis=-1)
    l = cy.sum(axis=-1)
    xx = (np.einsum("...i,ij,...j->...", cx, K, cx) - m) / (m * (m - 1))
    yy = (np.einsum("...i,ij,...j->...", cy, K, cy) - l) / (l * (l - 1))
    xy = np.einsum("...i,ij,...j->...", cx, K, cy) / (m * l)
    return xx + yy - 2 * xy


def test_criterion_01_product_sd_mean_tracks_closed_form():
    # mean pairwise SD of random product states is 2((2/3)^n - 2^-n);
    # n = 2..12, 10^4 pairs per n, 3 SE, full loop under two minutes
    start = time.time()
    for n in N_FULL_RANGE:
        report = pairwise_loss_moments(
            FamilySpec("product"), n, [("sd", None)], 10_000, RandomStream(411).child(n)
        )[0]
        expected = 2 * ((2 / 3) ** n - 2.0 ** -n)
        assert abs(report.mean - expected) <= 3 * report.se_mean, (n, report.mean, expected)
    assert time.time() - start < 120


def test_criterion_02_dirichlet_sd_mean_tracks_closed_form():
    # flat-Dirichlet mean pairwise SD is 2(N-1)/(N(N+1)); the closed form is
    # itself re-derived here at n=4 by a 10^6-pair brute-force oracle
    rng = np.random.default_rng(2024)
    n0, N0 = 4, 16
    sds = []
    for _ in range(8):
        g = rng.gamma(1.0, size=(2, 125_000, N0))
        p = g / g.sum(axis=-1, keepdims=True)
        sds.append(((p[0] - p[1]) ** 2).sum(axis=-1))
    sds = np.concatenate(sds)
    closed = 2 * (N0 - 1) / (N0 * (N0 + 1))
    assert abs(sds.mean() - closed) <= 3 * sds.std(ddof=1) / math.sqrt(sds.size)

    for n in N_FULL_RANGE:
        N = 1 << n
        report = pairwise_loss_moments(
            FamilySpec("dirichlet"), n, [("sd", None)], 10_000, RandomStream(412).child(n)
        )[0]
        expected = 2 * (N - 1) / (N * (N + 1))
        assert abs(report.mean - expected) <= 3 * report.se_mean, (n, report.mean, expected)


def test_criterion_03_parseval_ties_rho0_mmd_to_sd():
    # with rho = 0 the Fourier form collapses to the squared distance;
    # 100 pairs per family, relative error at most 1e-12
    spec = KernelSpec(rho=0.0)
    cases = [
        (FamilySpec("product"), 12),
        (FamilySpec("iqp_product"), 12),
        (FamilySpec("dirichlet"), 12),
        (FamilySpec("pareto", alpha=2.0), 12),
        (FamilySpec("peaked"), 12),
        (FamilySpec("uniform"), 12),
        (FamilySpec("point"), 12),
        (FamilySpec("iqp"), 10),
        (FamilySpec("peaked_iqp"), 10),
        (FamilySpec("mps"), 10),
    ]
    for idx, (family, n) in enumerate(cases):
        rows = instance_prob_values(family, n, 200, RandomStream(413).child(idx).generator)
        diffs = rows[0::2] - rows[1::2]
        sd = (diffs ** 2).sum(axis=-1)
        mmd0 = mmd2_fourier_batch(diffs, n, (spec,))[..., 0]  # transforms diffs in place
        tol = 1e-12 * np.maximum(np.maximum(mmd0, sd), 1e-300)
        assert np.all(np.abs(mmd0 - sd) <= tol), family.label()


def test_criterion_04_fourier_form_matches_kernel_double_sum():
    # O(N log N) Fourier route vs the O(N^2) kernel sum, 100 pairs,
    # absolute agreement 1e-10, bandwidths 0.5, 1, and n
    pair_budget = [(FamilySpec("dirichlet"), 8, 60), (FamilySpec("iqp"), 6, 40)]
    for idx, (family, n, pairs) in enumerate(pair_budget):
        rows = instance_prob_values(family, n, 2 * pairs, RandomStream(414).child(idx).generator)
        for sigma in (0.5, 1.0, float(n)):
            spec = bandwidth_kernel(sigma)
            for k in range(pairs):
                p = validate_prob_vector(rows[2 * k], n)
                q = validate_prob_vector(rows[2 * k + 1], n)
                a = mmd2_fourier(p, q, spec)
                b = mmd2_population(p, q, spec)
                assert abs(a - b) <= 1e-10, (family.label(), sigma, a, b)


# criterion 5 checks 30 correlated tail points at once, so each point gets the
# Bonferroni level 1 - 0.05/30: all 30 then hold together with probability at
# least 95% (per-point 95% intervals would all hold only about 38% of the time)
CRITERION_05_Z = NormalDist().inv_cdf(1 - 0.05 / 60)  # 3.144


def criterion_05_misses():
    """The (n, y) points of criterion 5 whose exact product tail lies outside
    the Wilson interval, at CRITERION_05_Z, of the estimate from the product
    family's reference masses."""
    grid = tuple(float(y) for y in np.geomspace(1e-3, 1.9, 10))
    misses = []
    for n in (4, 8, 12):
        curve = estimate_tail_curve(
            FamilySpec("product"), n, grid, 100_000, RandomStream(102).child(n)
        )
        for y, estimate in zip(curve.y_grid, curve.estimates):
            lo, hi = wilson_interval(round(estimate * curve.trials), curve.trials, CRITERION_05_Z)
            exact = product_tail_exact(n, y)
            if not lo <= exact <= hi:
                misses.append((n, y, exact, lo, hi))
    return misses


def test_criterion_05_product_tail_matches_incomplete_gamma():
    # empirical Prob(p(x) >= y/2^n) vs the regularized incomplete gamma
    # gamma(n, n ln 2 - ln y)/Gamma(n); 10-point grid, 10^5 trials per n,
    # every point inside its Wilson interval at the joint 95% level
    assert criterion_05_misses() == []


def test_criterion_05_still_refuses_a_wrong_gamma_shape(monkeypatch):
    # masses exp(-Gamma(n + 1, 1)) are the law of n + 1 uniform weights; the
    # wider per-point intervals still miss the product tail at all 30 points
    monkeypatch.setattr(lab, "reference_mass_values",
                        lambda family, n, count, rng: np.exp(-rng.standard_gamma(n + 1, count)))
    assert len(criterion_05_misses()) == 30


def test_criterion_06_dirichlet_anticoncentrates():
    # Prob(p(x) >= 1/(2N)) stays near e^{-1/2} ~ 0.6065 and the normalized
    # second moment 2^{2n} E[p(x)^2] stays near 2, for n = 8, 10, 12
    for n in (8, 10, 12):
        report = anticoncentration_statistic(
            FamilySpec("dirichlet"), n, 40_000, RandomStream(401).child(n)
        )
        assert 0.55 <= report.tail_at_half <= 0.66, (n, report.tail_at_half)
        assert 1.9 <= report.second_moment_statistic <= 2.1, (n, report.second_moment_statistic)


def test_criterion_07_peaked_sd_scales_inversely_with_support():
    # mean SD of the peaked family scales like 4/(K+1): shrinking the
    # support from K=64 to K=16 multiplies it by about 4 (n=12, 10^4 pairs)
    r16 = pairwise_loss_moments(
        FamilySpec("peaked", k=16), 12, [("sd", None)], 10_000, RandomStream(402).child(16)
    )[0]
    r64 = pairwise_loss_moments(
        FamilySpec("peaked", k=64), 12, [("sd", None)], 10_000, RandomStream(402).child(64)
    )[0]
    ratio = r16.mean / r64.mean
    assert 3.0 <= ratio <= 5.0, ratio


def test_criterion_08_dirichlet_l1_mean_and_variance():
    # flat-Dirichlet pairwise L1 for n = 6..12, max(128, N) pairs per n:
    # mean 2(N-1)/(2N-1) within 3 SE, and N*Var within 3 SE of 1/2, with
    # Var < 3/N at every n. Delta method: with p = g/sum g, q = h/sum h and
    # g_i, h_i iid Exp(1), l1 = (1/N) sum_i Z_i to first order, where
    # Z_i = |g_i - h_i| - (g_i + h_i)/2 + 1 and Var[Z] = 1 + 1/2 - 2*(1/2).
    # The 3/N bound drops the negative covariance from the normalization.
    measured = {}
    for n in range(6, 13):
        N = 1 << n
        pairs = max(128, N)
        report = pairwise_loss_moments(
            FamilySpec("dirichlet"), n, [("l1", None)], pairs, RandomStream(301).child(n)
        )[0]
        exact_mean = 2 * (N - 1) / (2 * N - 1)
        assert abs(report.mean - exact_mean) <= 3 * report.se_mean, (
            n, report.mean, exact_mean, 3 * report.se_mean
        )
        measured[n] = (N * report.variance, N * report.se_variance)
        assert report.variance < 3 / N, (n, report.variance, 3 / N)
    violations = {
        n: (round(v, 3), round(3 * se, 3))
        for n, (v, se) in measured.items()
        if abs(v - 0.5) > 3 * se
    }
    assert not violations, f"N*Var[L1] more than 3 SE from 1/2: {violations}"


def test_criterion_09_two_sample_test_calibration_and_power():
    # type-I error at alpha=0.05 stays at or below 0.05 + 3 SE over 10^3
    # same-distribution trials (n=8, m=l=200); the test still separates
    # maximally distant point masses with power >= 0.99
    n, m, trials = 8, 200, 1000
    rho = math.exp(-0.5)
    K = hamming_kernel_table(n, rho)
    threshold = mmd_test_threshold(m, m, 0.05)
    rejects = 0
    for t in range(trials):
        rng = RandomStream(408).child(t).generator
        p = instance_prob_values(FamilySpec("dirichlet"), n, 1, rng)[0]
        cx = rng.multinomial(m, p)
        cy = rng.multinomial(m, p)
        if unbiased_from_counts(cx, cy, K) > threshold:
            rejects += 1
    rate = rejects / trials
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials), rate

    # delta_0 vs delta_{1...1}: sampling is deterministic, the estimate is
    # exactly 2(1 - rho^n) for every repetition
    cx = np.zeros(1 << n); cx[0] = m
    cy = np.zeros(1 << n); cy[-1] = m
    estimate = unbiased_from_counts(cx, cy, K)
    assert abs(estimate - 2 * (1 - rho ** n)) < 1e-12
    power = 1.0 if estimate > threshold else 0.0
    assert power >= 0.99


@pytest.mark.slow
def test_criterion_10_iqp_means_decay_exponentially():
    # weight-<=2 IQP: ln(mean loss) vs n is a line with negative slope and
    # R^2 >= 0.99 over n = 2..12, for SD and for MMD^2 at sigma = 1
    for metric_idx, (metric, sigma) in enumerate((("sd", None), ("mmd2", 1.0))):
        means = []
        for n in N_FULL_RANGE:
            report = pairwise_loss_moments(
                FamilySpec("iqp"), n, [(metric, sigma)], 10_000,
                RandomStream(406).child(metric_idx).child(n),
            )[0]
            means.append(report.mean)
        slope, r2 = linear_fit(list(N_FULL_RANGE), means)
        assert slope < 0, (metric, slope)
        assert r2 >= 0.99, (metric, r2)


@pytest.mark.slow
def test_criterion_11_large_bandwidth_flattens_product_iqp_decay():
    # at sigma = n the product-IQP family decays strictly more slowly than
    # the weight-2 IQP family
    slopes = {}
    for family_idx, kind in enumerate(("iqp_product", "iqp")):
        means = []
        for n in N_FULL_RANGE:
            report = pairwise_loss_moments(
                FamilySpec(kind), n, [("mmd2", float(n))], 4000,
                RandomStream(407).child(family_idx).child(n),
            )[0]
            means.append(report.mean)
        slopes[kind], _ = linear_fit(list(N_FULL_RANGE), means)
    assert slopes["iqp_product"] > slopes["iqp"], slopes


def test_criterion_12_mps_interpolates_between_product_and_iqp():
    # chi=1 matrix product states are product states: SD moments agree
    # within 3 SE; chi=n sits between the fitted product and IQP curves
    a = pairwise_loss_moments(
        FamilySpec("mps", chi=1), 6, [("sd", None)], 4000, RandomStream(404).child(1)
    )[0]
    b = pairwise_loss_moments(
        FamilySpec("product"), 6, [("sd", None)], 4000, RandomStream(404).child(2)
    )[0]
    assert abs(a.mean - b.mean) <= 3 * math.hypot(a.se_mean, b.se_mean)
    assert abs(a.variance - b.variance) <= 3 * math.hypot(a.se_variance, b.se_variance)

    ns = range(4, 11)
    means = {}
    for family_idx, kind in enumerate(("product", "iqp", "mps")):
        values = []
        for n in ns:
            family = FamilySpec("mps", chi=n) if kind == "mps" else FamilySpec(kind)
            report = pairwise_loss_moments(
                family, n, [("sd", None)], 3000, RandomStream(405).child(family_idx).child(n)
            )[0]
            values.append(report.mean)
        means[kind] = values
    product_fit = np.polyfit(list(ns), np.log(means["product"]), 1)
    iqp_fit = np.polyfit(list(ns), np.log(means["iqp"]), 1)
    for i, n in enumerate(ns):
        low = math.exp(np.polyval(iqp_fit, n))
        high = math.exp(np.polyval(product_fit, n))
        assert low < means["mps"][i] < high, (n, low, means["mps"][i], high)


def test_criterion_13_observable_variance_contrast():
    # single-qubit Z variance across instances: flat Dirichlet obeys the
    # (1/N)(1 + 1/N) bound (10% headroom), product states stay at 1/3
    for n in range(6, 13):
        N = 1 << n
        report = diagonal_observable_variance(
            FamilySpec("dirichlet"), n, SubsetMask.from_positions((1,), n),
            4000, RandomStream(403).child(n),
        )
        assert report.variance <= (1 / N) * (1 + 1 / N) * 1.1, (n, report.variance)

    report = diagonal_observable_variance(
        FamilySpec("product"), 8, SubsetMask.from_positions((1,), 8),
        4000, RandomStream(403).child(99),
    )
    assert abs(report.variance - 1 / 3) <= 3 * report.se_variance


def test_criterion_14_estimator_concentrates_at_hoeffding_rate():
    # |unbiased estimate - population MMD^2| > t happens with frequency at
    # most exp(-t^2 (m+l)/8); n = 6, m = l = 100, 10^4 repetitions
    n, m, reps = 6, 100, 10_000
    rho = math.exp(-0.5)
    rng = RandomStream(409).generator
    masses = instance_prob_values(FamilySpec("dirichlet"), n, 2, rng)
    p = validate_prob_vector(masses[0], n)
    q = validate_prob_vector(masses[1], n)
    population = mmd2_fourier(p, q, bandwidth_kernel(1.0))

    K = hamming_kernel_table(n, rho)
    cx = rng.multinomial(m, p.values, size=reps)
    cy = rng.multinomial(m, q.values, size=reps)
    estimates = unbiased_from_counts(cx, cy, K)

    # route check: the count-based evaluation reproduces mmd2_unbiased
    X = SampleSet(n, np.repeat(np.arange(1 << n, dtype=np.uint64), cx[0]))
    Y = SampleSet(n, np.repeat(np.arange(1 << n, dtype=np.uint64), cy[0]))
    direct = mmd2_unbiased(X, Y, (bandwidth_kernel(1.0),))[0]
    assert abs(direct - estimates[0]) <= 1e-10

    deviations = np.abs(estimates - population)
    for t in (0.2, 0.4):
        frequency = float((deviations > t).mean())
        bound = math.exp(-(t ** 2) * (m + m) / 8)
        assert frequency <= bound, (t, frequency, bound)


# criteria 15-21 check every cell of a grid against its exact value at once:
# each row at the two-sided Bonferroni level 1 - 0.01/cells, so all of a
# grid's rows hold together with probability at least 99%
EXACT_JOINT_ALPHA = 0.01


def assert_exact_rows(rows, exact):
    """Every row within z standard errors of exact(row), z at the joint level."""
    z = NormalDist().inv_cdf(1 - EXACT_JOINT_ALPHA / (2 * len(rows)))
    misses = [(r.family, r.n, r.metric, r.value, exact(r), r.stderr)
              for r in rows if abs(r.value - exact(r)) > z * r.stderr]
    assert not misses, (z, misses)


def exact_rows(statistic, **config):
    """The rows of one config, run through cli, whose statistic is statistic."""
    return [r for r in run_config(ExperimentConfig(**config)) if r.statistic == statistic]


def test_criterion_15_iqp_second_moment_is_exact():
    # weight-2 IQP anticoncentrates: 2^{2n} E[p(x*)^2] = 2 - 1/N, against the
    # product law's (4/3)^n; n = 2..8, 10^5 instances per n, 7 cells
    rows = exact_rows("second_moment", experiment="anticoncentration", families=("iqp",),
                      n_min=2, n_max=8, trials=100_000, seed=415)
    assert_exact_rows(rows, lambda r: iqp_second_moment(r.n))


def test_criterion_16_iqp_pairwise_means_are_exact():
    # mean SD 2(N - 1)/N^2 and mean MMD^2 at sigma = 1 (rho = e^{-1/2})
    # (2/N)(1 - ((1 + rho)/2)^n); n = 2..10, 10^4 pairs per n, 18 cells
    rho = math.exp(-0.5)
    rows = exact_rows("mean", experiment="pairwise", families=("iqp",), n_min=2, n_max=10,
                      trials=10_000, metrics=("sd", "mmd2"), sigmas=("1",), seed=416)
    assert_exact_rows(rows, lambda r: iqp_sd_mean(r.n) if r.metric == "sd" else iqp_mmd2_mean(r.n, rho))


def test_criterion_17_iqp_distance_to_uniform_is_exact():
    # mean squared distance to the uniform law (N - 1)/N^2; n = 2..10, 10^4
    # instances per n, 9 cells
    rows = exact_rows("mean", experiment="uniform_distance", families=("iqp",), n_min=2, n_max=10,
                      trials=10_000, seed=417)
    assert_exact_rows(rows, lambda r: iqp_uniform_distance_mean(r.n))


def test_criterion_18_iqp_observable_variance_is_exact():
    # Var<Z_S> = 1/N for every S != {}: S = {1}, {1, 2}, {1, 2, 3} at
    # n = 3..9, 10^4 instances per n, 21 cells
    configs = [ExperimentConfig(experiment="observable", families=("iqp",), n_min=3, n_max=9,
                                trials=10_000, subset=subset, seed=418)
               for subset in ((1,), (1, 2), (1, 2, 3))]
    rows = [r for r in run_config(*configs) if r.statistic == "variance"]
    assert_exact_rows(rows, lambda r: iqp_observable_variance(r.n))


PEAKED_IQP = ("peaked_iqp", "peaked_iqp:k=4")


def peaked_iqp_support(row) -> int:
    """K of the peaked_iqp row's family at its n."""
    return {parse_family(t).label(): parse_family(t) for t in PEAKED_IQP}[row.family].support_size(row.n)


def test_criterion_19_peaked_iqp_sd_mean_is_exact():
    # mean SD 2(2K - 1)/K^2 - 2/N at the default K and at K = 4, n = 2..12:
    # dense pairs where K = N or K^2 > N (n = 3 and 5 by default, n = 2 and 3
    # at K = 4), support pairs elsewhere; 10^4 pairs per n, 22 cells
    rows = exact_rows("mean", experiment="pairwise", families=PEAKED_IQP, n_min=2, n_max=12,
                      trials=10_000, seed=419)
    assert_exact_rows(rows, lambda r: peaked_iqp_sd_mean(r.n, peaked_iqp_support(r)))


def test_criterion_20_peaked_iqp_second_moment_is_exact():
    # 2^{2n} E[p(x*)^2] = N(2K - 1)/K^2 at the default K and at K = 4;
    # n = 2..8, 10^5 instances per n, 14 cells
    rows = exact_rows("second_moment", experiment="anticoncentration", families=PEAKED_IQP,
                      n_min=2, n_max=8, trials=100_000, seed=420)
    assert_exact_rows(rows, lambda r: peaked_iqp_second_moment(r.n, peaked_iqp_support(r)))


def test_criterion_21_peaked_iqp_mmd2_mean_is_exact():
    # mean MMD^2 2(e + (1 - e)c) - 2(1 + rho)^n/N at the default K and at
    # K = 4, at sigma = 1 and sigma = n, n = 2..12 over both pair routes;
    # 10^4 pairs per n, 44 cells. The two sigmas of a cell score one set of
    # pairs, and the Bonferroni level holds for dependent cells too
    rows = exact_rows("mean", experiment="pairwise", families=PEAKED_IQP, n_min=2, n_max=12,
                      trials=10_000, metrics=("mmd2",), sigmas=("1", "n"), seed=421)
    assert len(rows) == 44
    assert_exact_rows(rows, lambda r: peaked_iqp_mmd2_mean(r.n, peaked_iqp_support(r),
                                                           bandwidth_kernel(r.sigma).rho))
