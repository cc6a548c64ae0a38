import dataclasses
import math

import numpy as np
import pytest

from mtgl.model import MultiTaskDataset
from mtgl.probability import (
    TailCheckReport,
    chi_square_tail_bound,
    chi_square_tail_empirical,
    nemirovski_check,
    noise_correlation_violation_rate,
)
from mtgl.regularization import lambda_gaussian
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

# Exact survival probability Pr(chi^2_4 > 8), frozen from the regularized
# upper incomplete gamma function Q(2, 4) (scipy.special.gammaincc).
CHI2_4_ABOVE_8 = 0.091578194443670893
# 2e*ln(3) - e, the multiplier in the sup-norm moment inequality at M=3
NEM_CONSTANT_3 = 3.254393813157606


def test_tail_bound_values():
    assert chi_square_tail_bound(4, 4.0) == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )
    assert chi_square_tail_bound(8, 8.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert chi_square_tail_bound(4, 1e-12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        chi_square_tail_bound(4, 0.0)
    with pytest.raises(ValueError):
        chi_square_tail_bound(0, 1.0)


def test_tail_bound_monotonicity():
    for T in (2, 5, 10):
        xs = np.linspace(0.5, 8 * T, 40)
        vals = [chi_square_tail_bound(T, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    # for x <= T the x^2/T branch is active, so the bound grows with T
    for x in (1.0, 2.0, 3.0):
        vals = [chi_square_tail_bound(T, x) for T in (4, 8, 16)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_chi_square_empirical_matches_exact_tail():
    report = chi_square_tail_empirical(4, 4.0, 100_000, seed=0)
    assert report.replicates == 100_000
    # the empirical frequency estimates Pr(chi^2_4 > 8) = 0.09158
    assert report.empirical_frequency == pytest.approx(CHI2_4_ABOVE_8, abs=0.005)
    assert report.analytic_bound == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert report.passed


def test_chi_square_empirical_edge_cases():
    huge = chi_square_tail_empirical(3, 150.0, 2000, seed=1)
    assert huge.empirical_frequency == 0.0
    assert huge.passed
    with pytest.raises(ValueError):
        chi_square_tail_empirical(3, 1.0, 999, seed=1)


def test_chi_square_empirical_deterministic():
    a = chi_square_tail_empirical(6, 5.0, 4000, seed=7)
    b = chi_square_tail_empirical(6, 5.0, 4000, seed=7)
    assert a == b


def _chi_square_reference(T, x, replicates, seed):
    """The tail check with fresh draws from the same per-chunk streams."""
    count, start, index = 0, 0, 0
    while start < replicates:
        size = min(4096, replicates - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        draws = rng.standard_normal((size, T))
        count += int(np.count_nonzero(np.sum(draws * draws, axis=1) > T + x))
        start += size
        index += 1
    freq = count / replicates
    se = math.sqrt(freq * (1.0 - freq) / replicates)
    return TailCheckReport(
        analytic_bound=chi_square_tail_bound(T, x),
        empirical_frequency=freq,
        replicates=replicates,
        standard_error=se,
        passed=freq <= chi_square_tail_bound(T, x) + 3.0 * se,
    )


def test_chi_square_shared_draws_match_fresh_draws():
    # the draws of one (T, replicates, seed) are kept for the next offset;
    # switching seed or T and back must never hand out stale draws
    calls = [(4, 0, 2.0), (4, 0, 4.0), (4, 1, 2.0), (4, 0, 16.0), (6, 0, 3.0),
             (4, 0, 2.0), (4, [0, 9], 2.0), (4, (0, 9), 4.0), (4, [[0, 9]], 4.0)]
    for T, seed, x in calls:
        report = chi_square_tail_empirical(T, x, 5000, seed)
        assert report == _chi_square_reference(T, x, 5000, seed), (T, seed, x)


def test_nemirovski_single_rademacher_vector():
    # n=1, Rademacher: max_j |Y_j|^2 = 1 deterministically on both sides,
    # so the check reduces to 1 <= 2e*ln(3) - e
    report = nemirovski_check(3, 1, "rademacher", 2000, seed=2)
    assert report.empirical_frequency == pytest.approx(1.0, rel=1e-12)
    assert report.analytic_bound == pytest.approx(NEM_CONSTANT_3, rel=1e-12)
    assert report.passed


def test_nemirovski_gaussian_and_rademacher_pass():
    for distribution in ("rademacher", "gaussian"):
        for M in (3, 10, 100):
            report = nemirovski_check(M, 20, distribution, 2000, seed=3)
            assert report.passed, (distribution, M)


def test_nemirovski_validation():
    with pytest.raises(ValueError):
        nemirovski_check(2, 5, "rademacher", 2000, seed=0)
    with pytest.raises(ValueError):
        nemirovski_check(3, 5, "cauchy", 2000, seed=0)


def test_nemirovski_deterministic():
    a = nemirovski_check(10, 20, "gaussian", 3000, seed=5)
    b = nemirovski_check(10, 20, "gaussian", 3000, seed=5)
    assert a == b


def _nemirovski_reference(M, n_vectors, distribution, replicates, seed):
    """The check's plain float formulas over the same per-chunk streams."""
    const = 2.0 * math.e * math.log(M) - math.e
    sum_l = sum_r = sum_d = sum_d2 = 0.0
    start, index = 0, 0
    while start < replicates:
        size = min(4096, replicates - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        if distribution == "gaussian":
            y = rng.standard_normal((size, n_vectors, M))
        else:
            y = rng.integers(0, 2, size=(size, n_vectors, M)).astype(float) * 2.0 - 1.0
        left = np.max(np.abs(np.sum(y, axis=1)), axis=1) ** 2
        right = np.sum(np.max(np.abs(y), axis=2) ** 2, axis=1)
        diff = left - const * right
        sum_l += float(np.sum(left))
        sum_r += float(np.sum(right))
        sum_d += float(np.sum(diff))
        sum_d2 += float(np.sum(diff * diff))
        start += size
        index += 1
    mean_d = sum_d / replicates
    var_d = max(0.0, (sum_d2 - replicates * mean_d * mean_d) / (replicates - 1))
    se = math.sqrt(var_d / replicates)
    return TailCheckReport(
        analytic_bound=float(const * (sum_r / replicates)),
        empirical_frequency=float(sum_l / replicates),
        replicates=replicates,
        standard_error=float(se),
        passed=bool(mean_d <= 3.0 * se),
    )


@pytest.mark.parametrize("distribution", ["rademacher", "gaussian"])
@pytest.mark.parametrize("M", [3, 100])
def test_nemirovski_matches_float_reference_bit_for_bit(distribution, M):
    # 5000 replicates span two chunks, so per-chunk streams and the
    # release of each chunk's draws are both exercised.
    report = nemirovski_check(M, 7, distribution, 5000, seed=11)
    expected = _nemirovski_reference(M, 7, distribution, 5000, seed=11)
    for field in dataclasses.fields(TailCheckReport):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        assert type(got) is type(want) and got == want, field.name


def _noise_test_dataset(seed=4):
    design = DesignSpec(kind="orthogonal", n=64, M=8, T=16)
    data, _ = generate_dataset(
        design, SignalSpec(s=0), NoiseSpec(kind="gaussian", sigma=1.0), seed
    )
    return data


def test_noise_event_rate_below_bound():
    data = _noise_test_dataset()
    lam, q, _ = lambda_gaussian(1.0, 64, 16, 8, 9.0)
    report = noise_correlation_violation_rate(data, 1.0, lam, 4000, seed=6)
    assert q == 4.5
    assert report.analytic_bound == pytest.approx(8.0 ** (1.0 - 4.5), rel=1e-12)
    assert report.passed
    assert (
        report.empirical_frequency
        <= report.analytic_bound + 3.0 * report.standard_error
    )


def test_noise_event_rate_inflated_lambda():
    data = _noise_test_dataset()
    lam, _, _ = lambda_gaussian(1.0, 64, 16, 8, 9.0)
    report = noise_correlation_violation_rate(data, 1.0, lam * 10.0, 2000, seed=8)
    assert report.empirical_frequency == 0.0
    assert report.passed


def test_noise_event_requires_unit_diagonal():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 10, 3)) * 2.0
    data = MultiTaskDataset(X, np.zeros((2, 10)))
    with pytest.raises(ValueError):
        noise_correlation_violation_rate(data, 1.0, 0.5, 2000, seed=0)


def test_noise_event_deterministic():
    data = _noise_test_dataset()
    lam, _, _ = lambda_gaussian(1.0, 64, 16, 8, 9.0)
    a = noise_correlation_violation_rate(data, 1.0, lam, 3000, seed=10)
    b = noise_correlation_violation_rate(data, 1.0, lam, 3000, seed=10)
    assert a == b


def test_report_pass_rule():
    # the pass flag is exactly "empirical <= bound + 3*se"
    for seed in range(5):
        report = chi_square_tail_empirical(4, 2.0, 2000, seed=seed)
        assert report.passed == (
            report.empirical_frequency
            <= report.analytic_bound + 3.0 * report.standard_error
        )
        se = math.sqrt(
            report.empirical_frequency
            * (1.0 - report.empirical_frequency)
            / report.replicates
        )
        assert report.standard_error == pytest.approx(se, rel=1e-12)


def test_frozen_tail_constant_matches_live_oracle():
    # recompute the frozen survival probability from an independent
    # implementation rather than trusting the comment above
    scipy_special = pytest.importorskip("scipy.special")
    assert CHI2_4_ABOVE_8 == scipy_special.gammaincc(2.0, 4.0)
    assert chi_square_tail_bound(4, 4.0) >= CHI2_4_ABOVE_8  # bound is conservative
