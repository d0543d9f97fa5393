"""Tests for the loss metrics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import metrics
from bornlab.bitmath import (
    ProbVector,
    RandomStream,
    SampleSet,
    fwht,
    popcounts,
)
from bornlab.circuits import iqp_prob_values, sample_prob_vector
from bornlab.cli import main
from bornlab.metrics import (
    MMD_MEMORY_BYTES,
    KernelSpec,
    bandwidth_kernel,
    fourier_weights,
    mmd2_fourier_batch,
    mmd2_unbiased,
    mmd_test_threshold,
)
from bornlab.mps import mps_prob_values
from oracles import (
    l1_distance,
    mmd2_fourier,
    mmd2_population,
    squared_distance,
    total_variation_distance,
)
from test_acceptance import unbiased_from_counts


def _point(n, x):
    v = np.zeros(1 << n)
    v[x] = 1.0
    return ProbVector(n, v)


def _uniform(n):
    return ProbVector(n, np.full(1 << n, 1.0 / (1 << n)))


def _random_pair(n, seed):
    rng = RandomStream(seed).generator
    g = rng.gamma(1.0, size=(2, 1 << n))
    g /= g.sum(axis=1, keepdims=True)
    return ProbVector(n, g[0]), ProbVector(n, g[1])


def test_kernel_spec():
    assert bandwidth_kernel(1.0).rho == pytest.approx(math.exp(-0.5))
    assert KernelSpec(rho=0.0).rho == 0.0
    # rho increases with bandwidth
    rhos = [bandwidth_kernel(s).rho for s in (0.3, 0.5, 1.0, 4.0)]
    assert rhos == sorted(rhos)
    with pytest.raises(ValueError, match="domain error"):
        KernelSpec(rho=1.0)
    # an infinite bandwidth would reach rho = 1, and so does a finite one so
    # wide that rho rounds to 1 or sigma^2 overflows
    for sigma in (-1.0, math.inf, math.nan, 1e8, 1e200, 1e300):
        with pytest.raises(ValueError, match="positive and finite"):
            bandwidth_kernel(sigma)
    # a sigma whose square underflows is the sigma = 0 kernel, rho = 0
    assert bandwidth_kernel(0.0) == bandwidth_kernel(1e-300) == KernelSpec(rho=0.0)
    assert bandwidth_kernel(2.0).rho == math.exp(-1.0 / (2.0 * 2.0**2))


def test_squared_distance_examples():
    p, q = _random_pair(3, 0)
    assert squared_distance(p, p) == 0.0
    assert squared_distance(p, q) == squared_distance(q, p)
    assert squared_distance(_point(3, 0), _point(3, 5)) == 2.0
    n = 4
    assert squared_distance(_uniform(n), _point(n, 0)) == pytest.approx(1 - 1 / 2**n)
    with pytest.raises(ValueError, match="dimension error"):
        squared_distance(_uniform(2), _uniform(3))


def test_fourier_weights_binomial_sum():
    for n in range(1, 10):
        for rho in (0.0, 0.3, 0.9):
            total = fourier_weights(n, KernelSpec(rho=rho)).sum()
            assert total == pytest.approx(2.0**n, rel=1e-12)


def test_population_equals_fourier():
    for n in (2, 4, 6, 8):
        for sigma in (0.5, 1.0, float(n)):
            spec = bandwidth_kernel(sigma)
            p, q = _random_pair(n, 100 + n)
            assert mmd2_population(p, q, spec) == pytest.approx(
                mmd2_fourier(p, q, spec), abs=1e-10
            )


def test_flipped_weight_orientation_is_wrong():
    # swapping the roles of (1-rho) and (1+rho) must break the double-sum
    # equality; this pins which exponent carries |S|
    n, spec = 4, bandwidth_kernel(1.0)
    p, q = _random_pair(n, 7)
    ghat = fwht(p.values - q.values)
    w = popcounts(n).astype(float)
    flipped = (1 + spec.rho) ** w * (1 - spec.rho) ** (n - w)
    wrong = float(flipped @ ghat**2) / (1 << n)
    assert abs(wrong - mmd2_population(p, q, spec)) > 1e-6


def test_parseval_limit():
    zero = KernelSpec(rho=0.0)
    for n in (2, 5, 9, 12):
        p, q = _random_pair(n, 40 + n)
        sd = squared_distance(p, q)
        assert mmd2_fourier(p, q, zero) == pytest.approx(sd, rel=1e-12)
    p, q = _random_pair(6, 3)
    assert mmd2_population(p, q, zero) == pytest.approx(squared_distance(p, q), rel=1e-9)


def test_mmd2_basic_properties():
    spec = bandwidth_kernel(1.0)
    p, q = _random_pair(5, 11)
    assert mmd2_population(p, p, spec) == pytest.approx(0.0, abs=1e-14)
    assert mmd2_fourier(p, q, spec) > 0
    assert mmd2_fourier(p, q, spec) == pytest.approx(mmd2_fourier(q, p, spec), rel=1e-12)


def test_mmd2_holder_bound():
    spec = bandwidth_kernel(1.0)
    for seed in range(5):
        p, q = _random_pair(6, 200 + seed)
        ghat = fwht(p.values - q.values)
        assert mmd2_fourier(p, q, spec) <= float((ghat**2).max()) + 1e-15


def test_mmd2_population_cap():
    with pytest.raises(ValueError, match="resource error"):
        p, q = _random_pair(14, 0)
        mmd2_population(p, q, bandwidth_kernel(1.0))


def test_mmd2_bit_relabeling_invariance():
    # the Hamming kernel only sees how many bits differ, so permuting bit
    # positions in both arguments leaves the value unchanged
    n, spec = 5, bandwidth_kernel(0.7)
    p, q = _random_pair(n, 19)
    perm = RandomStream(20).generator.permutation(n)
    x = np.arange(1 << n, dtype=np.uint64)
    relabeled = np.zeros_like(x)
    for i, j in enumerate(perm):
        relabeled |= (((x >> np.uint64(i)) & np.uint64(1)) << np.uint64(j)).astype(np.uint64)
    p2 = ProbVector(n, p.values[np.argsort(relabeled)])
    q2 = ProbVector(n, q.values[np.argsort(relabeled)])
    assert mmd2_population(p2, q2, spec) == pytest.approx(
        mmd2_population(p, q, spec), rel=1e-10
    )


def test_fourier_batch_with_several_kernels_equals_one_call_per_kernel():
    n = 7
    pairs = [_random_pair(n, 400 + i) for i in range(5)]
    diffs = np.stack([p.values - q.values for p, q in pairs])
    specs = (KernelSpec(rho=0.0), bandwidth_kernel(1.0), bandwidth_kernel(float(n)))
    batch = mmd2_fourier_batch(diffs, n, specs)
    assert batch.shape == (5, 3)
    for column, spec in enumerate(specs):
        np.testing.assert_array_equal(batch[:, column], mmd2_fourier_batch(diffs, n, (spec,))[:, 0])


def test_fourier_batch_matches_scalar_route():
    n, spec = 6, bandwidth_kernel(1.3)
    pairs = [_random_pair(n, 300 + i) for i in range(8)]
    diffs = np.stack([p.values - q.values for p, q in pairs])
    batch = mmd2_fourier_batch(diffs, n, (spec,))[:, 0]
    for (p, q), value in zip(pairs, batch):
        assert value == pytest.approx(mmd2_fourier(p, q, spec), rel=1e-12)


def test_unbiased_identical_points_give_zero():
    X = SampleSet(3, np.array([5, 5, 5, 5], dtype=np.uint64))
    Y = SampleSet(3, np.array([5, 5, 5], dtype=np.uint64))
    assert mmd2_unbiased(X, Y, (bandwidth_kernel(1.0),))[0] == pytest.approx(0.0, abs=1e-14)


def test_unbiased_requires_two_samples():
    X = SampleSet(3, np.array([5], dtype=np.uint64))
    Y = SampleSet(3, np.array([1, 2], dtype=np.uint64))
    with pytest.raises(ValueError, match="domain error"):
        mmd2_unbiased(X, Y, (bandwidth_kernel(1.0),))
    with pytest.raises(ValueError, match="dimension error"):
        mmd2_unbiased(SampleSet(2, np.array([0, 1], dtype=np.uint64)), Y, (bandwidth_kernel(1.0),))


def test_unbiased_point_mass_value():
    # X ~ delta_0, Y ~ delta_{1...1}: within-terms 1, cross rho^n, so the
    # estimate is exactly 2(1 - rho^n) for any sample sizes
    n, spec = 6, bandwidth_kernel(1.0)
    X = SampleSet(n, np.zeros(50, dtype=np.uint64))
    Y = SampleSet(n, np.full(50, (1 << n) - 1, dtype=np.uint64))
    assert mmd2_unbiased(X, Y, (spec,))[0] == pytest.approx(2 * (1 - spec.rho**n), rel=1e-12)


def test_unbiased_estimator_is_unbiased():
    n, m, reps = 5, 100, 400
    spec = bandwidth_kernel(1.0)
    p, q = _random_pair(n, 23)
    exact = mmd2_population(p, q, spec)
    root = RandomStream(24)
    estimates = np.array(
        [
            mmd2_unbiased(
                sample_prob_vector(p, root.child(2 * i), m),
                sample_prob_vector(q, root.child(2 * i + 1), m),
                (spec,),
            )[0]
            for i in range(reps)
        ]
    )
    se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - exact) < 3 * se


@pytest.fixture
def routes(monkeypatch):
    """Names of the mmd2_unbiased routes taken, in call order."""
    taken = []
    for name, route in (("counts", "_counts_kernel_sums"), ("distances", "_hamming_histogram")):
        inner = getattr(metrics, route)

        def spy(*args, _inner=inner, _name=name):
            taken.append(_name)
            return _inner(*args)

        monkeypatch.setattr(metrics, route, spy)
    return taken


def _support_samples(n, m, l, seed):
    """m and l outcomes drawn with different weights from one random support
    of at most 256 outcomes, so the samples repeat and overlap."""
    rng = np.random.default_rng(seed)
    if n <= 8:
        support = np.arange(1 << n, dtype=np.uint64)
    else:
        support = rng.choice(1 << n, size=256, replace=False).astype(np.uint64)
    px, py = rng.dirichlet(np.ones(support.size), size=2)
    return SampleSet(n, rng.choice(support, m, p=px)), SampleSet(n, rng.choice(support, l, p=py))


def _oracle(X, Y, rho):
    """unbiased_from_counts on the outcomes that occur, with its kernel table
    (hamming_kernel_table's rule restricted to them), and the sum of the
    magnitudes of its three terms."""
    U = np.union1d(X.outcomes, Y.outcomes)
    K = rho ** np.bitwise_count(U[:, None] ^ U[None, :]).astype(float)
    cx = np.bincount(np.searchsorted(U, X.outcomes), minlength=U.size).astype(float)
    cy = np.bincount(np.searchsorted(U, Y.outcomes), minlength=U.size).astype(float)
    m, l = len(X), len(Y)
    xx = (cx @ K @ cx - m) / (m * (m - 1))
    yy = (cy @ K @ cy - l) / (l * (l - 1))
    xy = cx @ K @ cy / (m * l)
    return unbiased_from_counts(cx, cy, K), xx + yy + 2 * xy


@pytest.mark.parametrize("sigma", [0.0, 1.0, "n"])
@pytest.mark.parametrize(
    "n, m, l, route",
    [
        (1, 2, 2, "counts"),
        (1, 2, 7, "counts"),
        (3, 2, 9, "counts"),
        (6, 40, 25, "counts"),
        (12, 300, 200, "counts"),
        (16, 1500, 1100, "counts"),
        (3, 2, 3, "distances"),
        (6, 2, 5, "distances"),
        (6, 15, 9, "distances"),
        (12, 150, 90, "distances"),
        (16, 500, 300, "distances"),
    ],
)
def test_unbiased_routes_match_count_oracle(routes, n, m, l, route, sigma):
    # the route is picked from (n, m, l) alone; the U-statistic is a
    # difference of three O(1) terms, so the bound is on their magnitudes
    sigma = float(n) if sigma == "n" else sigma
    spec = bandwidth_kernel(sigma)
    X, Y = _support_samples(n, m, l, seed=1000 * n + m + l)
    value = mmd2_unbiased(X, Y, (spec,))[0]
    assert set(routes) == {route}
    expected, magnitude = _oracle(X, Y, spec.rho)
    assert abs(value - expected) <= 1e-12 * magnitude, (value, expected, magnitude)


@pytest.mark.parametrize(
    "n, m, l, route",
    [
        (6, 40, 25, "counts"),
        (12, 300, 200, "counts"),
        (16, 1500, 1100, "counts"),
        (6, 15, 9, "distances"),
        (12, 150, 90, "distances"),
        (16, 500, 300, "distances"),
        (30, 400, 300, "distances"),
    ],
)
def test_unbiased_kernels_share_one_pass(routes, n, m, l, route):
    # several kernels cost one histogram pass, and each estimate is the
    # one-kernel call's, bit for bit
    specs = tuple(bandwidth_kernel(sigma) for sigma in (0.0, 1.0, 2.5, float(n)))
    X, Y = _support_samples(n, m, l, seed=7 * n + m)
    values = mmd2_unbiased(X, Y, specs)
    one_pass = len(routes)
    singles = [mmd2_unbiased(X, Y, (spec,))[0] for spec in specs]
    assert set(routes) == {route}
    assert len(routes) == (1 + len(specs)) * one_pass
    assert values.shape == (len(specs),)
    assert values.tobytes() == np.array(singles).tobytes()


@pytest.mark.parametrize(
    "n, m, route",
    [
        (40, 20_000, "distances"),  # a full m x m matrix would be 3.2 GB
        (20, 5000, "counts"),
        (21, 8000, "distances"),  # counts would be cheaper but needs 112 MiB
    ],
)
def test_unbiased_memory_stays_within_budget(routes, n, m, route):
    rng = np.random.default_rng(n)
    X = SampleSet(n, rng.integers(0, 1 << n, size=m, dtype=np.uint64))
    Y = SampleSet(n, rng.integers(0, 1 << n, size=m, dtype=np.uint64))
    tracemalloc.start()
    try:
        mmd2_unbiased(X, Y, (bandwidth_kernel(1.0),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(routes) == {route}
    assert peak <= MMD_MEMORY_BYTES + (1 << 20), peak


@pytest.mark.parametrize(
    "n, m, route",
    [
        # the rule weighs a distance cell as 2.5 counts units: these shapes
        # took distances when it weighed them alike, at two to three times the time
        (16, 700, "counts"),
        (18, 1500, "counts"),
        (20, 3000, "counts"),
        (21, 5000, "distances"),  # counts would be cheaper but needs 80 MiB
    ],
)
def test_unbiased_route_rule_weighs_distance_cells(routes, n, m, route):
    rng = np.random.default_rng(n)
    X = SampleSet(n, rng.integers(0, 1 << n, size=m, dtype=np.uint64))
    Y = SampleSet(n, rng.integers(0, 1 << n, size=m, dtype=np.uint64))
    mmd2_unbiased(X, Y, (bandwidth_kernel(1.0),))
    assert set(routes) == {route}


def _mmdtest(tmp_path, capsys, x_lines, y_lines, sigma):
    x, y = tmp_path / "x.txt", tmp_path / "y.txt"
    x.write_text("\n".join(x_lines) + "\n")
    y.write_text("\n".join(y_lines) + "\n")
    assert main(["mmdtest", str(x), str(y), "--sigma", str(sigma)]) == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    return float(fields["estimate"])


def test_mmdtest_on_40_bit_outcomes(tmp_path, capsys):
    n = 40
    X, Y = _support_samples(n, 60, 45, seed=40)
    estimate = _mmdtest(tmp_path, capsys, X.bitstrings(), Y.bitstrings(), sigma=3.0)
    expected, magnitude = _oracle(X, Y, bandwidth_kernel(3.0).rho)
    assert abs(estimate - expected) <= 1e-12 * magnitude


def test_mmdtest_on_64_bit_point_masses(tmp_path, capsys):
    # all within-sample distances 0 and all cross distances 64: 2(1 - rho^64)
    n, sigma = 64, 8.0
    estimate = _mmdtest(tmp_path, capsys, ["0" * n] * 30, ["1" * n] * 20, sigma)
    assert estimate == pytest.approx(2 * (1 - bandwidth_kernel(sigma).rho ** n), rel=1e-12)


def test_threshold_values():
    assert mmd_test_threshold(4, 4, 1.0) == 0.0
    assert mmd_test_threshold(4, 4, math.exp(-1.0)) == pytest.approx(1.0)
    assert mmd_test_threshold(100, 100, 0.05) == pytest.approx(
        math.sqrt(8 * math.log(20) / 200)
    )
    assert mmd_test_threshold(4, 4, 0.05, k_max=2.0) == 2 * mmd_test_threshold(4, 4, 0.05)
    with pytest.raises(ValueError, match="domain error"):
        mmd_test_threshold(4, 4, 0.0)
    with pytest.raises(ValueError, match="domain error"):
        mmd_test_threshold(4, 4, 1.5)
    with pytest.raises(ValueError, match="domain error"):
        mmd_test_threshold(0, 0, 0.05)


def test_l1_examples():
    p, q = _random_pair(4, 31)
    assert l1_distance(p, p) == 0.0
    assert l1_distance(_point(3, 1), _point(3, 6)) == 2.0
    assert total_variation_distance(_point(3, 1), _point(3, 6)) == 1.0
    assert total_variation_distance(p, q) == 0.5 * l1_distance(p, q)


def test_l1_cauchy_schwarz_bound():
    for seed in range(10):
        n = 3 + seed % 5
        p, q = _random_pair(n, 500 + seed)
        assert l1_distance(p, q) <= math.sqrt((1 << n) * squared_distance(p, q)) + 1e-12


def test_dirichlet_l1_moments():
    # flat Dirichlet pairs: E[l1] = 2(N-1)/(2N-1) exactly (Beta(1,N-1)
    # marginals). The asymptotic variance is 1/(2N): writing the normalized
    # draws to first order gives l1 = (1/N) sum_i Z_i with
    # Z_i = |g_i - h_i| - (g_i + h_i)/2 + 1 and Var[Z] = 1 + 1/2 - 2*(1/2).
    # The often-quoted 4/N (s^2/mu^2 - G^2) = 3/N treats the N terms as
    # independent and is only an upper bound.
    n, pairs = 8, 4000
    N = 1 << n
    rng = RandomStream(37).generator
    g = rng.gamma(1.0, size=(2, pairs, N))
    g /= g.sum(axis=2, keepdims=True)
    values = np.abs(g[0] - g[1]).sum(axis=1)
    se = values.std(ddof=1) / math.sqrt(pairs)
    assert abs(values.mean() - 2 * (N - 1) / (2 * N - 1)) < 3 * se
    var = values.var(ddof=1)
    centered = values - values.mean()
    se_var = math.sqrt(((centered**4).mean() - var**2) / pairs)
    assert abs(var - 0.5 / N) < 3 * se_var + 0.02 * 0.5 / N
    assert var < 3 / N


def test_parseval_across_generators():
    zero = KernelSpec(rho=0.0)
    rng = RandomStream(61).generator
    n = 6
    rows = [
        iqp_prob_values(n, 3, rng),
        mps_prob_values(n, 4, 3, rng),
    ]
    for block in rows:
        for row in block:
            p = ProbVector(n, row)
            q = ProbVector(n, block[0])
            assert mmd2_fourier(p, q, zero) == pytest.approx(
                squared_distance(p, q), abs=1e-15
            )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sigma=st.floats(min_value=0.2, max_value=20.0, allow_nan=False),
)
def test_mmd_between_zero_and_sd_scale(n, seed, sigma):
    # weights are at most (1+rho)^n <= 2^n, so mmd2 <= (1+rho)^n / 2^n * sum ghat^2
    p, q = _random_pair(n, seed)
    spec = bandwidth_kernel(sigma)
    value = mmd2_fourier(p, q, spec)
    assert value >= -1e-15
    bound = (1 + spec.rho) ** n / 2**n * float((fwht(p.values - q.values) ** 2).sum())
    assert value <= bound + 1e-12
