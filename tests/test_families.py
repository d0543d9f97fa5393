"""Distribution-family tests: generators against closed forms and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bornlab.bitmath import RandomStream
from bornlab.cli import parse_family
from bornlab.families import GammaLaw, ParetoLaw, ProductParams, product_prob_values, sample_product
from bornlab.lab import (
    MAX_REDRAW_ROUNDS,
    FamilySpec,
    _normalized_rows,
    _scatter_rows,
    instance_prob_values,
)
from oracles import (
    gini_coefficient,
    hypergeometric_overlap_moments,
    peaked_tail_bound,
    porter_thomas_survival,
    product_marginal_density,
    product_prob_vector,
    product_tail_chernoff_bound,
    product_tail_exact,
    pseudo_indep_anticoncentration_bound,
    random_product_instance,
)


# ---------------------------------------------------------------------------
# product family


def test_product_prob_vector_examples():
    n = 3
    uniform = product_prob_vector(ProductParams((0.5,) * n))
    np.testing.assert_allclose(uniform.values, np.full(8, 0.125))

    point = product_prob_vector(ProductParams((1.0, 1.0)))
    np.testing.assert_allclose(point.values, [1.0, 0.0, 0.0, 0.0])

    # qubit 1 is the LSB: index 1 is the x=(1,0) outcome
    p = product_prob_vector(ProductParams((0.25, 0.75)))
    np.testing.assert_allclose(p.values, [0.1875, 0.5625, 0.0625, 0.1875])


def test_product_prob_values_batch_matches_single():
    rng = np.random.default_rng(0)
    a = rng.random((5, 4))
    batch = product_prob_values(a)
    for row, weights in zip(batch, a):
        np.testing.assert_allclose(
            row, product_prob_vector(ProductParams(tuple(weights))).values
        )


def test_product_params_validation():
    with pytest.raises(ValueError):
        ProductParams((1.2, 0.5))
    with pytest.raises(ValueError):
        ProductParams(())


def test_sample_product_degenerate_weights():
    params = ProductParams((1.0, 0.0))  # x_1 = 0 always, x_2 = 1 always
    s = sample_product(params, RandomStream(0).child(0), 50)
    assert set(s.outcomes.tolist()) == {2}
    assert s.bitstrings()[0] == "10"


def test_sample_product_single_bit_frequency():
    s = sample_product(ProductParams((0.5,)), RandomStream(1).child(0), 100_000)
    freq0 = np.mean(s.outcomes == 0)
    assert abs(freq0 - 0.5) < 0.01


def test_sample_product_chi2_goodness_of_fit():
    # fixed seed: a 1%-level GOF test fails for ~1% of seeds by design
    params = random_product_instance(4, RandomStream(7).child(0))
    s = sample_product(params, RandomStream(7).child(1), 100_000)
    counts = np.bincount(s.outcomes.astype(int), minlength=16)
    expected = product_prob_vector(params).values * len(s)
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 0.01


def test_random_product_instance_uniform_marginal():
    stream = RandomStream(3).child(0)
    a1 = np.array([random_product_instance(4, stream).a[0] for _ in range(20_000)])
    _, pvalue = stats.kstest(a1, "uniform")
    assert pvalue > 0.01


def test_random_product_instance_reference_mass_moments():
    # E[p(0..0)] = 2^-n and E[p(0..0)^2] = 3^-n over random weight vectors
    rng = RandomStream(4).child(0).generator
    n, T = 6, 200_000
    mass = rng.random((T, n)).prod(axis=1)
    for moment, target in ((mass, 2.0**-n), (mass**2, 3.0**-n)):
        se = moment.std(ddof=1) / math.sqrt(T)
        assert abs(moment.mean() - target) < 3 * se


# ---------------------------------------------------------------------------
# pseudo-independent family


def test_pseudo_indep_single_outcome():
    p = instance_prob_values(FamilySpec("dirichlet"), 1, 1, RandomStream(0).child(0).generator)
    assert p.sum() == pytest.approx(1.0)


def test_pseudo_indep_marginal_is_beta():
    # Gamma(1,1) normalization gives Dirichlet(1); marginal Beta(1, N-1)
    rng = RandomStream(5).child(0).generator
    marginals = instance_prob_values(FamilySpec("dirichlet"), 8, 3000, rng)[:, 0]
    _, pvalue = stats.kstest(marginals, "beta", args=(1, 255))
    assert pvalue > 0.01


def test_pseudo_indep_second_moment():
    # E[sum_x p(x)^2] = 2/(N+1) for Dirichlet(1)
    rng = RandomStream(6).child(0).generator
    vals = np.sum(instance_prob_values(FamilySpec("dirichlet"), 6, 4000, rng) ** 2, axis=1)
    target = 2.0 / (64 + 1)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


class _ZeroThenGamma:
    """Stub law whose first `zero_draws` draws are all zeros, to exercise the
    resample path."""

    def __init__(self, zero_draws=1):
        self.zero_draws = zero_draws
        self.calls = 0

    def sample(self, rng, size):
        self.calls += 1
        if self.calls <= self.zero_draws:
            return np.zeros(size)
        return rng.gamma(1.0, 1.0, size)

    def __repr__(self):
        return f"_ZeroThenGamma(zero_draws={self.zero_draws})"


def test_normalized_rows_redraw_zero_sum_rows():
    law = _ZeroThenGamma()
    rng = RandomStream(0).child(1).generator
    p = _normalized_rows(law, rng, (4, 8))
    assert law.calls == 2  # every row of the all-zero first draw was redrawn
    np.testing.assert_allclose(p.sum(axis=1), 1.0)
    # the last redraw the bound allows still fills the rows; one more zero
    # draw, and the rows are refused instead of redrawn forever
    law = _ZeroThenGamma(MAX_REDRAW_ROUNDS)
    np.testing.assert_allclose(_normalized_rows(law, rng, (4, 8)).sum(axis=1), 1.0)
    assert law.calls == MAX_REDRAW_ROUNDS + 1
    law = _ZeroThenGamma(MAX_REDRAW_ROUNDS + 1)
    with pytest.raises(ValueError, match=r"domain error: a row of 8 draws from "
                       rf"_ZeroThenGamma\(zero_draws={MAX_REDRAW_ROUNDS + 1}\) held no"):
        _normalized_rows(law, rng, (4, 8))
    assert law.calls == MAX_REDRAW_ROUNDS + 1


def test_pseudo_indep_approximate_independence():
    # |p(x) - Y_x/(mu N)| = p(x) |mu_hat - mu|/mu, so the Chebyshev event
    # "relative mean deviation <= k sigma/(mu sqrt(N))" must hold with
    # frequency >= 1 - 1/k^2
    rng = RandomStream(8).child(0).generator
    n, T = 10, 2000
    N = 1 << n
    draws = rng.gamma(1.0, 1.0, (T, N))
    rel_dev = np.abs(draws.mean(axis=1) - 1.0)
    for k in (2, 4):
        freq = np.mean(rel_dev <= k / math.sqrt(N))
        se = math.sqrt(freq * (1 - freq) / T)
        assert freq >= 1 - 1 / k**2 - 3 * se


# ---------------------------------------------------------------------------
# peaked family


def test_peaked_support_size_and_values():
    p = instance_prob_values(FamilySpec("peaked", k=16), 10, 20, RandomStream(9).child(0).generator)
    assert np.all(np.count_nonzero(p, axis=1) == 16)
    np.testing.assert_allclose(p.sum(axis=1), 1.0)


def test_peaked_point_mass_and_full_support():
    point = instance_prob_values(FamilySpec("peaked", k=1), 4, 20, RandomStream(9).child(1).generator)
    assert np.all(np.count_nonzero(point, axis=1) == 1)
    np.testing.assert_allclose(point.max(axis=1), 1.0)

    full = instance_prob_values(FamilySpec("peaked", k=16), 4, 20, RandomStream(9).child(2).generator)
    assert np.all(np.count_nonzero(full, axis=1) == 16)


def test_peaked_support_positions_uniform():
    # the support is a uniform K-subset: chi-square over support-position
    # counts, then over all C(8, 2) = 28 subsets; fixed seeds, 1% level
    rng = RandomStream(10).child(0).generator
    counts = np.count_nonzero(instance_prob_values(FamilySpec("peaked", k=16), 10, 5000, rng), axis=0)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01

    rng = RandomStream(10).child(1).generator
    support = instance_prob_values(FamilySpec("peaked", k=2), 3, 5000, rng) > 0
    assert np.all(support.sum(axis=1) == 2)
    _, subset_counts = np.unique(support @ (1 << np.arange(8)), return_counts=True)
    assert subset_counts.size == 28
    _, pvalue = stats.chisquare(subset_counts)
    assert pvalue > 0.01


def test_random_k_subset_properties():
    # _scatter_rows puts each row's K masses on distinct positions of [N]
    rng = np.random.default_rng(12)
    values = rng.random((200, 7)) + 0.5
    out = _scatter_rows(values, 50, rng)
    assert out.shape == (200, 50)
    assert np.all(np.count_nonzero(out, axis=1) == 7)
    np.testing.assert_array_equal(np.sort(out, axis=1)[:, -7:], np.sort(values, axis=1))
    # exhaustive-case uniformity: all C(5,2) = 10 subsets
    rng = np.random.default_rng(13)
    support = _scatter_rows(np.ones((5000, 2)), 5, rng) > 0
    _, subset_counts = np.unique(support @ (1 << np.arange(5)), return_counts=True)
    assert subset_counts.size == 10
    _, pvalue = stats.chisquare(subset_counts)
    assert pvalue > 0.01


def test_peaked_full_support_matches_pseudo_indep():
    # K = N degenerates to the pseudo-independent family; two-sample KS on
    # the reference-outcome marginal
    rng = RandomStream(11).child(0).generator
    peaked = instance_prob_values(FamilySpec("peaked", k=32), 5, 2500, rng)[:, 0]
    plain = instance_prob_values(FamilySpec("dirichlet"), 5, 2500, rng)[:, 0]
    _, pvalue = stats.ks_2samp(peaked, plain)
    assert pvalue > 0.01


def test_peaked_params_validation():
    with pytest.raises(ValueError, match="domain"):
        FamilySpec("peaked", k=9).support_size(3)
    with pytest.raises(ValueError, match="at least 1"):
        FamilySpec("peaked", k=0)
    with pytest.raises(ValueError, match="power of two"):
        FamilySpec("peaked_iqp", k=6)
    with pytest.raises(ValueError, match="at least 1"):
        FamilySpec("mps", chi=0)
    with pytest.raises(ValueError, match="exceed 1"):
        FamilySpec("pareto")  # alpha defaults to 1


# ---------------------------------------------------------------------------
# closed forms: product marginal and tails


def test_product_marginal_density_examples():
    assert product_marginal_density(1, 0.3) == 1.0
    assert product_marginal_density(2, math.exp(-1)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="domain"):
        product_marginal_density(2, 0.0)
    with pytest.raises(ValueError, match="domain"):
        product_marginal_density(2, 1.5)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12])
def test_product_marginal_density_integrates_to_one(n):
    val, err = integrate.quad(
        lambda y: product_marginal_density(n, y), 0.0, 1.0, limit=400
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_product_tail_exact_examples():
    assert product_tail_exact(4, 16.0) == 0.0
    assert product_tail_exact(1, 1.0) == pytest.approx(0.5)
    # monotone decreasing in y
    ys = np.geomspace(1e-6, 16.0, 40)
    vals = [product_tail_exact(4, y) for y in ys]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert product_tail_exact(4, 1e-15) > 0.999999


def test_product_tail_matches_simulation():
    # fixed seed: 95% Wilson CI per point, checked at the y = 1/2 abscissa
    rng = RandomStream(14).child(0).generator
    n, T = 4, 40_000
    mass = rng.random((T, n)).prod(axis=1)
    y = 0.5
    hits = int(np.sum(mass >= y / 2**n))
    phat = hits / T
    half = 1.96 * math.sqrt(phat * (1 - phat) / T)
    assert abs(phat - product_tail_exact(n, y)) < half + 0.002


def test_product_tail_chernoff_dominates_exact():
    for n in range(2, 17):
        ys = np.geomspace(1e-12, float(2**n), 100)
        for y in ys:
            assert product_tail_chernoff_bound(n, float(y)) >= product_tail_exact(
                n, float(y)
            ) - 1e-15


def test_product_tail_chernoff_values():
    # at y = 1 the log-bound is exactly n (1 - ln 2 + ln ln 2)
    slope = 1.0 - math.log(2.0) + math.log(math.log(2.0))
    assert slope == pytest.approx(-0.0596601, abs=1e-6)
    for n in (2, 5, 10, 16):
        assert math.log(product_tail_chernoff_bound(n, 1.0)) == pytest.approx(
            n * slope, rel=1e-12
        )
    assert product_tail_chernoff_bound(6, 64.0) == 0.0
    # far tail: clamped to the trivial bound
    assert product_tail_chernoff_bound(6, 1e-9) == 1.0


# ---------------------------------------------------------------------------
# anticoncentration, Porter-Thomas, peaked tail


def test_anticoncentration_bound_examples():
    val = pseudo_indep_anticoncentration_bound(1 / 3, 2.0, 1.0, 1.0, math.inf)
    assert val == pytest.approx(0.25)
    # prefactor vanishes exactly at alpha (1 + 1/k) = 1
    assert pseudo_indep_anticoncentration_bound(2 / 3, 2.0, 1.0, 1.0, math.inf) == 0.0
    with pytest.raises(ValueError, match="domain"):
        pseudo_indep_anticoncentration_bound(0.5, 2.0, 1.0, 0.0, 100)


def test_anticoncentration_bound_below_empirical():
    # Dirichlet(1) marginal is Beta(1, N-1); compare bound to simulation
    rng = RandomStream(15).child(0).generator
    for n in (8, 12):
        N = 1 << n
        T = 30_000
        p0 = rng.beta(1, N - 1, T)
        alpha, k = 1 / 3, 2.0
        bound = pseudo_indep_anticoncentration_bound(alpha, k, 1.0, 1.0, N)
        freq = np.mean(p0 >= alpha / N)
        se = math.sqrt(freq * (1 - freq) / T)
        assert bound <= freq + 3 * se


def test_porter_thomas_survival_forms():
    assert porter_thomas_survival(100, 0.0) == 1.0
    N = 1 << 10
    exact = porter_thomas_survival(N, 1 / (2 * N))
    assert exact == pytest.approx(math.exp(-0.5), rel=2e-3)
    assert porter_thomas_survival(4, 0.5, form="power") == pytest.approx(0.0625)
    assert porter_thomas_survival(4, 0.5, form="exponential") == pytest.approx(
        math.exp(-2.0)
    )
    with pytest.raises(ValueError):
        porter_thomas_survival(4, 0.5, form="nope")
    with pytest.raises(ValueError, match="domain"):
        porter_thomas_survival(4, 1.5)


def test_porter_thomas_exponential_gap():
    # relative gap of exp(-N y) to the exact survival stays <= 2% for
    # N >= 256 and y <= 4/N
    for N in (256, 1024, 4096):
        for y in np.linspace(0.0, 4.0 / N, 25):
            exact = porter_thomas_survival(N, float(y))
            approx = porter_thomas_survival(N, float(y), form="exponential")
            assert abs(approx - exact) <= 0.02 * exact


def test_peaked_tail_bound_examples():
    assert peaked_tail_bound(3, 8) == 1.0
    assert peaked_tail_bound(10, 16) == pytest.approx(2.0**-6)
    with pytest.raises(ValueError, match="domain"):
        peaked_tail_bound(3, 9)


def test_peaked_tail_bound_dominates_simulation():
    T = 4000
    rng = RandomStream(16).child(0).generator
    mass = instance_prob_values(FamilySpec("peaked", k=16), 10, T, rng)[:, 0]
    bound = peaked_tail_bound(10, 16)
    for y in (0.25, 0.5, 1.0, 2.0):
        freq = np.mean(mass >= y / 2**10)
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / T)
        assert freq <= bound + 3 * se + 1e-9


# ---------------------------------------------------------------------------
# Gini and overlap moments


class _ConstantLaw:
    def sample(self, rng, size):
        return np.full(size, 3.0)


def test_gini_gamma():
    g, se = gini_coefficient(GammaLaw(1.0), RandomStream(17).child(0), 200_000)
    assert abs(g - 0.5) < 3 * se
    assert se < 0.01


def test_gini_degenerate():
    g, se = gini_coefficient(_ConstantLaw(), RandomStream(17).child(1), 1000)
    assert g == 0.0


def test_gini_pareto():
    # survival S(x) = (1+x)^-alpha gives G = 1 - int S^2 / int S
    #               = 1 - (alpha-1)/(2 alpha - 1) = alpha/(2 alpha - 1) = 2/3
    g, se = gini_coefficient(ParetoLaw(2.0), RandomStream(17).child(2), 400_000)
    assert abs(g - 2.0 / 3.0) < 3 * se
    assert se < 0.01


def test_hypergeometric_overlap_examples():
    mean, var = hypergeometric_overlap_moments(8, 2)
    assert mean == pytest.approx(0.5)
    mean, var = hypergeometric_overlap_moments(16, 16)
    assert (mean, var) == (16.0, 0.0)
    with pytest.raises(ValueError, match="domain"):
        hypergeometric_overlap_moments(4, 5)


def test_hypergeometric_overlap_simulation():
    rng = np.random.default_rng(18)
    N, K, T = 1024, 32, 10_000
    mean, var = hypergeometric_overlap_moments(N, K)
    spec = FamilySpec("peaked", k=K)
    overlaps = np.concatenate([
        np.count_nonzero(
            (instance_prob_values(spec, 10, 1000, rng) > 0)
            & (instance_prob_values(spec, 10, 1000, rng) > 0),
            axis=1,
        )
        for _ in range(T // 1000)
    ])
    se = overlaps.std(ddof=1) / math.sqrt(T)
    assert abs(overlaps.mean() - mean) < 3 * se
    assert abs(overlaps.var(ddof=1) - var) < 0.1 * var


# ---------------------------------------------------------------------------
# underlying-law moments and the family registry


def test_law_moments():
    # each law refuses a parameter outside its domain, a non-finite one too
    for bad in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="Pareto alpha must exceed 1 and be finite"):
            ParetoLaw(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="Gamma shape must be positive and finite"):
            GammaLaw(bad)


def test_pareto_sampler_matches_survival():
    rng = RandomStream(19).child(0).generator
    x = ParetoLaw(2.0).sample(rng, 100_000)
    assert x.min() >= 0.0
    # empirical survival at a few abscissae vs (1+x)^-2
    for t in (0.5, 1.0, 3.0):
        emp = np.mean(x >= t)
        exact = (1 + t) ** -2.0
        assert abs(emp - exact) < 3 * math.sqrt(exact * (1 - exact) / 100_000)


def test_family_spec_defaults():
    spec = FamilySpec("peaked")
    assert spec.support_size(8) == 8
    assert spec.support_size(10) == 16
    assert spec.support_size(2) == 2
    assert FamilySpec("mps").bond_dimension(7) == 7
    assert FamilySpec("mps", chi=3).bond_dimension(7) == 3
    assert FamilySpec("pareto", alpha=2.0).label() == "pareto(2)"
    assert FamilySpec("dirichlet").label() == "dirichlet"
    # every parameter off its default shows, so distinct specs get distinct labels
    labels = {
        "dirichlet:alpha=0.5": "dirichlet(0.5)",
        "mps:chi=3": "mps(chi=3)",
        "peaked:k=4": "peaked(K=4)",
        "peaked_iqp:k=2": "peaked_iqp(K=2)",
        "peaked_iqp:k=4": "peaked_iqp(K=4)",
        "peaked:alpha=0.5": "peaked(0.5)",
        "peaked:k=4,alpha=0.5": "peaked(0.5,K=4)",
        "peaked_iqp": "peaked_iqp",
    }
    for token, label in labels.items():
        assert parse_family(token).label() == label
    with pytest.raises(ValueError, match="does not take chi"):
        FamilySpec("iqp", chi=3)
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("haar")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_generated_vectors_are_valid(seed, n):
    stream = RandomStream(seed).child(0)
    vecs = [
        product_prob_vector(random_product_instance(n, stream)).values[None, :],
        instance_prob_values(FamilySpec("dirichlet"), n, 1, stream.generator),
        instance_prob_values(FamilySpec("pareto", alpha=2.0), n, 1, stream.generator),
        instance_prob_values(FamilySpec("peaked", k=min(2, 1 << n)), n, 1, stream.generator),
    ]
    for v in vecs:
        assert v.min() >= 0.0
        assert abs(v.sum() - 1.0) <= 1e-9
