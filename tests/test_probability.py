import ast
import dataclasses
import inspect
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mtgl.probability as probability
from mtgl.model import MultiTaskDataset
from mtgl.probability import (
    PASS_LEVEL,
    TailCheckReport,
    binomial_lower_tail,
    chi_square_tail_bound,
    chi_square_tail_empirical,
    frequency_verdict,
    nemirovski_check,
    noise_correlation_violation_rate,
)
from mtgl.regularization import FINITE_VARIANCE, GAUSSIAN, RegularizationPlan
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

# Exact survival probability Pr(chi^2_4 > 8), frozen from the regularized
# upper incomplete gamma function Q(2, 4) (scipy.special.gammaincc).
CHI2_4_ABOVE_8 = 0.091578194443670893
# 2e*ln(3) - e, the multiplier in the sup-norm moment inequality at M=3
NEM_CONSTANT_3 = 3.254393813157606


@pytest.fixture(params=[None, 1, 20_000], ids=["default", "2-rows", "20kB"])
def block_bytes(request, monkeypatch):
    """The checks' block budget: the default, the 2-replicate floor, and a
    budget of a few rows for the moment and event checks."""
    if request.param is not None:
        monkeypatch.setattr(probability, "_BLOCK_BYTES", request.param)
    return request.param


def _assert_same_report(report, expected):
    for field in dataclasses.fields(TailCheckReport):
        got, want = getattr(report, field.name), getattr(expected, field.name)
        assert type(got) is type(want) and got == want, field.name


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
    [report] = chi_square_tail_empirical(4, [4.0], 100_000, seed=0)
    assert report.replicates == 100_000
    # the empirical frequency estimates Pr(chi^2_4 > 8) = 0.09158
    assert report.empirical_frequency == pytest.approx(CHI2_4_ABOVE_8, abs=0.005)
    assert report.analytic_bound == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert report.passed


def test_chi_square_empirical_edge_cases():
    [huge] = chi_square_tail_empirical(3, [150.0], 2000, seed=1)
    assert huge.empirical_frequency == 0.0
    assert huge.passed
    with pytest.raises(ValueError):
        chi_square_tail_empirical(3, [1.0], 999, seed=1)


def test_chi_square_empirical_deterministic():
    a = chi_square_tail_empirical(6, [5.0], 4000, seed=7)
    b = chi_square_tail_empirical(6, [5.0], 4000, seed=7)
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
    return _freq(count, replicates, chi_square_tail_bound(T, x))


def _exact_ceiling_verdict(count, replicates, bound):
    """scipy's exact one-sided binomial verdict on a frequency that must
    stay at most ``bound``: P(X >= count) at rate bound >= PASS_LEVEL."""
    binom = pytest.importorskip("scipy.stats").binom
    return bool(binom.sf(count - 1, replicates, bound) >= PASS_LEVEL)


def _freq(count, replicates, bound):
    freq = count / replicates
    se = math.sqrt(freq * (1.0 - freq) / replicates)
    return TailCheckReport(
        analytic_bound=float(bound),
        empirical_frequency=float(freq),
        replicates=replicates,
        standard_error=float(se),
        passed=_exact_ceiling_verdict(count, replicates, bound),
    )


def test_chi_square_batched_offsets_match_single_offset_calls():
    # one call's offsets share a sample; each report must equal the one
    # a single-offset call gives, and the check on fresh draws, across
    # interleaved seeds and T values and list, tuple and nested seeds
    calls = [(4, 0, (2.0, 4.0, 16.0)), (4, 1, (2.0,)), (6, 0, (3.0, 1.0)),
             (4, 0, (16.0, 2.0)), (4, [0, 9], (2.0, 4.0)), (4, (0, 9), (4.0, 2.0)),
             (4, [[0, 9]], (4.0,))]
    for T, seed, offsets in calls:
        batched = chi_square_tail_empirical(T, offsets, 5000, seed)
        singles = [chi_square_tail_empirical(T, [x], 5000, seed)[0] for x in offsets]
        assert batched == singles, (T, seed, offsets)
        for x, report in zip(offsets, batched):
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
    # 5000 replicates span two chunks, so per-chunk streams and blocks
    # that split a chunk (and its partial last block) are both exercised.
    report = nemirovski_check(M, 7, distribution, 5000, seed=11)
    expected = _nemirovski_reference(M, 7, distribution, 5000, seed=11)
    _assert_same_report(report, expected)


def _noise_test_dataset(seed=4):
    design = DesignSpec(kind="orthogonal", n=64, M=8, T=16)
    data, _ = generate_dataset(
        design, SignalSpec(s=0), NoiseSpec(kind="gaussian", sigma=1.0), seed
    )
    return data


def _event_plan(sigma=1.0, A=9.0):
    """The gaussian plan at the sizes of ``_noise_test_dataset``."""
    return RegularizationPlan(GAUSSIAN, sigma, 64, 16, 8, A=A)


def _noise_event_reference(data, sigma, lam, q, replicates, seed):
    """The event check over whole-chunk draws from the same streams."""
    n, T, M = data.n, data.T, data.M
    count, start, index = 0, 0, 0
    while start < replicates:
        size = min(4096, replicates - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        w = sigma * rng.standard_normal((size, T, n))
        corr = np.matmul(w.transpose(1, 0, 2), data.designs)
        stat = np.max(np.sqrt(np.sum(corr * corr, axis=0)), axis=1) / (n * T)
        count += int(np.count_nonzero(stat > lam / 2.0))
        start += size
        index += 1
    return _freq(count, replicates, M ** (1.0 - q))


@pytest.mark.parametrize("scale", [1.0, 0.52])
def test_noise_event_matches_whole_chunk_reference(scale, block_bytes):
    # 4500 replicates: a full chunk and a partial one whose last block is
    # short.  scale 0.52 lowers the rule's lam so that about half of the
    # replicates cross the cutoff and the count is not trivially zero.
    data = _noise_test_dataset()
    plan = _event_plan(0.8)
    # the plan at scale * lam; the check reads lam from its plan alone
    scaled = SimpleNamespace(**{**vars(plan), "lam": scale * plan.lam})
    report = noise_correlation_violation_rate(data, scaled, 4500, seed=13)
    expected = _noise_event_reference(data, 0.8, scale * plan.lam, plan.q, 4500, seed=13)
    _assert_same_report(report, expected)
    if scale < 1.0:
        assert 0.3 < report.empirical_frequency < 0.7


def test_noise_event_draws_its_noise_through_the_one_noise_law():
    # synth._draw_noise is the package's one noise law: the event check
    # calls it and makes no draw of its own
    tree = ast.parse(inspect.getsource(noise_correlation_violation_rate))
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    own = [f.attr for f in calls if isinstance(f, ast.Attribute)
           and f.attr in ("standard_normal", "standard_t", "integers")]
    assert not own, f"the event check draws its own noise: {own}"
    assert "_draw_noise" in {f.id for f in calls if isinstance(f, ast.Name)}


_DRAW_CHUNK = probability._draw_chunk


def _chunk_values(monkeypatch, block_bytes, call):
    """Every chunk's per-replicate values that ``call`` reduces, with the
    block budget set to ``block_bytes``."""
    seen = []

    def spy(*args):
        values = _DRAW_CHUNK(*args)
        seen.append(values.tobytes())
        return values

    monkeypatch.setattr(probability, "_draw_chunk", spy)
    monkeypatch.setattr(probability, "_BLOCK_BYTES", block_bytes)
    call()
    return seen


def _calls_of_every_check(replicates, seed):
    """A zero-argument call of each check at ``replicates``."""
    data = _noise_test_dataset()
    return {
        "chi-square": lambda: chi_square_tail_empirical(
            16, [4.0, 8.0, 32.0], replicates, seed
        ),
        "rademacher": lambda: nemirovski_check(100, 20, "rademacher", replicates, seed),
        "gaussian": lambda: nemirovski_check(100, 20, "gaussian", replicates, seed),
        "noise-event": lambda: noise_correlation_violation_rate(
            data, _event_plan(0.7), replicates, seed
        ),
    }


@pytest.mark.parametrize(
    "check", ["chi-square", "rademacher", "gaussian", "noise-event"]
)
def test_per_replicate_values_do_not_depend_on_the_block_size(check, monkeypatch):
    # 4501 replicates: one full chunk and a partial one of 405.  The
    # budgets give whole chunks, the two-replicate floor (the partial
    # chunk ends in a three-replicate block) and a few replicates a block.
    call = _calls_of_every_check(4501, seed=2)[check]
    whole = _chunk_values(monkeypatch, 1 << 40, call)
    assert len(whole) == 2
    for block_bytes in (1, 100_000):
        assert _chunk_values(monkeypatch, block_bytes, call) == whole


@pytest.mark.parametrize("replicates", [4097, 8193])
@pytest.mark.parametrize(
    "check", ["chi-square", "rademacher", "gaussian", "noise-event"]
)
def test_reports_do_not_depend_on_the_worker_count(
    check, replicates, use_workers, monkeypatch
):
    # a check draws its chunks in the calling process: with 2 workers
    # available it forks nothing and returns the 1-worker report.  4097
    # and 8193 replicates end in a one-replicate chunk.
    call = _calls_of_every_check(replicates, seed=3)[check]
    use_workers(1)
    serial = call()

    def no_fork():
        raise AssertionError("a probability check forked")

    use_workers(2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert call() == serial


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check",
    ["rademacher", "gaussian", "noise-event"],
)
def test_checks_draw_in_bounded_blocks(check):
    # one 4096-replicate chunk of these draws is 65.5 MB (moment check,
    # M=100, 20 vectors) or 33.5 MB (event check, T=16, n=64); the
    # blocks keep the traced peak far below either
    data = _noise_test_dataset()
    if check == "noise-event":
        peak = _traced_peak(
            lambda: noise_correlation_violation_rate(data, _event_plan(), 5000, seed=0)
        )
    else:
        peak = _traced_peak(lambda: nemirovski_check(100, 20, check, 5000, seed=0))
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_chunks_keep_memory_bounded(workers, use_workers):
    # 20 chunks of 4096 chi-square(200) draws, 6.6 MB a chunk; whatever
    # the pool's worker count, the chunks run in this process and what a
    # chunk leaves behind is a few counts, so the traced peak stays
    # within the blocks' pin however many chunks run
    use_workers(workers)
    peak = _traced_peak(lambda: chi_square_tail_empirical(200, [20.0], 20 * 4096, seed=0))
    assert peak < 8 * 2**20, peak


def test_noise_event_rate_below_bound():
    data = _noise_test_dataset()
    plan = _event_plan()
    report = noise_correlation_violation_rate(data, plan, 4000, seed=6)
    assert plan.q == 4.5
    assert report.analytic_bound == pytest.approx(8.0 ** (1.0 - 4.5), rel=1e-12)
    assert report.passed
    count = round(report.empirical_frequency * 4000)
    assert _exact_ceiling_verdict(count, 4000, report.analytic_bound)


def test_noise_event_rate_inflated_lambda():
    # A = 1100 puts lam above ten times its value at A = 9
    data = _noise_test_dataset()
    assert _event_plan(A=1100.0).lam > _event_plan().lam * 10.0
    report = noise_correlation_violation_rate(data, _event_plan(A=1100.0), 2000, seed=8)
    assert report.empirical_frequency == 0.0
    assert report.passed


@pytest.mark.parametrize("A", [9.0, 12.5, 40.0])
def test_noise_event_bound_is_the_rule_q(A):
    data = _noise_test_dataset()
    plan = _event_plan(A=A)
    report = noise_correlation_violation_rate(data, plan, 1000, seed=12)
    assert report.analytic_bound == 8 ** (1 - plan.q)


def test_noise_event_requires_unit_diagonal():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 10, 3)) * 2.0
    data = MultiTaskDataset(X, np.zeros((2, 10)))
    with pytest.raises(ValueError, match="unit-diagonal"):
        noise_correlation_violation_rate(
            data, RegularizationPlan(GAUSSIAN, 1.0, 10, 2, 3, A=9.0), 2000, seed=0
        )
    # an orthogonal unit-diagonal design scaled by 1.001: diagonals 1.002
    Q = np.stack([np.linalg.qr(x)[0] for x in rng.standard_normal((2, 10, 3))])
    data = MultiTaskDataset(1.001 * math.sqrt(10) * Q, np.zeros((2, 10)))
    with pytest.raises(ValueError, match="unit-diagonal"):
        noise_correlation_violation_rate(
            data, RegularizationPlan(GAUSSIAN, 1.0, 10, 2, 3, A=9.0), 2000, seed=0
        )


def test_noise_event_reads_a_plan_of_the_datas_sizes_with_a_q():
    data = _noise_test_dataset()
    wrong = RegularizationPlan(GAUSSIAN, 1.0, 64, 16, 9, A=9.0)
    with pytest.raises(ValueError, match=r"\(64, 16, 8\), got a gaussian plan at \(64, 16, 9\)"):
        noise_correlation_violation_rate(data, wrong, 1000, seed=0)
    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 64, 16, 8, delta=3.0)
    with pytest.raises(ValueError, match="need a plan with a q .* got a finite-variance plan"):
        noise_correlation_violation_rate(data, fv, 1000, seed=0)


def test_noise_event_deterministic():
    data = _noise_test_dataset()
    a = noise_correlation_violation_rate(data, _event_plan(), 3000, seed=10)
    b = noise_correlation_violation_rate(data, _event_plan(), 3000, seed=10)
    assert a == b


def test_report_pass_rule():
    # the pass flag is exactly the exact binomial test of the count
    for seed in range(5):
        [report] = chi_square_tail_empirical(4, [2.0], 2000, seed=seed)
        count = round(report.empirical_frequency * 2000)
        assert report.passed == _exact_ceiling_verdict(count, 2000, report.analytic_bound)
        se = math.sqrt(
            report.empirical_frequency
            * (1.0 - report.empirical_frequency)
            / report.replicates
        )
        assert report.standard_error == pytest.approx(se, rel=1e-12)


def test_frequency_verdict_is_the_rule_of_both_check_kinds():
    # Coverage must reach its level from above, a tail frequency must
    # stay under its bound; each is computed from its own count, since
    # 1 - 2/3 != 1/3 in floats.
    assert frequency_verdict(2, 3, 0.99, at_least=True) == (
        2 / 3, math.sqrt((2 / 3) * (1 - 2 / 3) / 3), True
    )
    assert frequency_verdict(1, 3, 0.01, at_least=False)[:2] == (
        1 / 3, math.sqrt((1 / 3) * (1 - 1 / 3) / 3)
    )
    assert frequency_verdict(9, 10, 0.95, at_least=True) == (0.9, 0.09486832980505137, True)
    assert frequency_verdict(10, 10, 1.0, at_least=True) == (1.0, 0.0, True)
    assert frequency_verdict(0, 10, 0.0, at_least=False) == (0.0, 0.0, True)
    # the verdict is exact, so a frequency of 0 or 1 with no standard
    # error still has its slack: one trial at rate 0.5 lands either way
    # with probability 0.5
    assert frequency_verdict(1, 1, 0.5, at_least=False)[2]
    assert frequency_verdict(0, 1, 0.5, at_least=True)[2]
    assert not frequency_verdict(1, 10, 0.0, at_least=False)[2]
    assert not frequency_verdict(9, 10, 1.0, at_least=True)[2]


@pytest.mark.parametrize("count, replicates, limit, at_least, tail, passed", [
    (4, 8, 0.99999, True, 7.0e-19, False),
    (297, 300, 0.99973, True, 8.3e-5, False),
    (298, 300, 0.99973, True, 3.1e-3, True),
    (1, 1000, 1e-6, False, 1.0e-3, False),
])
def test_frequency_verdict_fails_where_the_wald_rule_passed(
    count, replicates, limit, at_least, tail, passed
):
    # Wald, freq >= limit - 3*se, passed all four; the exact tails come
    # from scipy.stats.binom
    freq = count / replicates
    se = math.sqrt(freq * (1.0 - freq) / replicates)
    if at_least:
        assert freq >= limit - 3.0 * se
        exact = binomial_lower_tail(count, replicates, limit, 1.0 - limit)
    else:
        assert freq <= limit + 3.0 * se
        exact = binomial_lower_tail(replicates - count, replicates, 1.0 - limit, limit)
    assert exact == pytest.approx(tail, rel=0.05)
    assert frequency_verdict(count, replicates, limit, at_least)[2] == passed


_LIMITS = (0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99973, 0.99999, 1.0 - 1e-12, 1.0)


@pytest.mark.parametrize("replicates", [1, 2, 8, 300, 1000, 100_000])
def test_frequency_verdict_matches_scipy_binomial(replicates):
    binom = pytest.importorskip("scipy.stats").binom
    counts = sorted({
        0, 1, 2, replicates // 3, replicates // 2, replicates - 2, replicates - 1,
        replicates,
    } & set(range(replicates + 1)))
    for limit in _LIMITS:
        mean = replicates * limit
        sd = math.sqrt(mean * (1.0 - limit))
        near = {int(mean + k * sd) for k in (-6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6)}
        for count in sorted(set(counts) | (near & set(range(replicates + 1)))):
            lower = binom.cdf(count, replicates, limit)
            upper = binom.sf(count - 1, replicates, limit)
            case = (count, replicates, limit)
            assert frequency_verdict(count, replicates, limit, True)[2] == (
                lower >= PASS_LEVEL
            ), case
            assert frequency_verdict(count, replicates, limit, False)[2] == (
                upper >= PASS_LEVEL
            ), case
            # each tail is computed itself, to full relative precision
            # however small it is
            if count <= mean + 1:
                got = binomial_lower_tail(count, replicates, limit, 1.0 - limit)
                assert got == pytest.approx(lower, rel=1e-9, abs=1e-300), case
            if count >= mean - 1:
                got = binomial_lower_tail(
                    replicates - count, replicates, 1.0 - limit, limit
                )
                assert got == pytest.approx(upper, rel=1e-9, abs=1e-300), case


def test_frequency_verdict_does_not_walk_all_replicates():
    # a sum over all n terms would take minutes at n = 10^9; the tail
    # that holds a median passes uncomputed, and the other one stops
    # within a few standard deviations (about 16,000 here) of its start
    n = 10**9
    for count in (0, 10, n // 2 - 40_000, n // 2, n // 2 + 40_000, n - 10, n):
        for at_least in (True, False):
            frequency_verdict(count, n, 0.5, at_least)
    assert not frequency_verdict(n // 2 - 100_000, n, 0.5, at_least=True)[2]
    assert frequency_verdict(n // 2 - 40_000, n, 0.5, at_least=True)[2]


@pytest.mark.parametrize("limit", [-0.1, 1.5, math.nan])
def test_frequency_verdict_rejects_a_limit_that_is_not_a_probability(limit):
    with pytest.raises(ValueError, match="probability"):
        frequency_verdict(1, 10, limit, at_least=True)


def test_frozen_tail_constant_matches_live_oracle():
    # recompute the frozen survival probability from an independent
    # implementation rather than trusting the comment above
    scipy_special = pytest.importorskip("scipy.special")
    assert CHI2_4_ABOVE_8 == scipy_special.gammaincc(2.0, 4.0)
    assert chi_square_tail_bound(4, 4.0) >= CHI2_4_ABOVE_8  # bound is conservative


@pytest.mark.parametrize("check, message", [
    (lambda: nemirovski_check(3, 0, "rademacher", 2000, seed=0),
     "need n_vectors >= 1, got 0"),
    (lambda: nemirovski_check(3, 5, "rademacher", 1, seed=0),
     "need at least 2 replicates, got 1"),
    (lambda: noise_correlation_violation_rate(
        _noise_test_dataset(), RegularizationPlan(GAUSSIAN, 1.0, 64, 16, 8, A=9.0),
        999, seed=0),
     "need at least 1000 replicates, got 999"),
], ids=["n-vectors", "moment-replicates", "event-replicates"])
def test_inputs_outside_the_boundaries_are_rejected(check, message):
    with pytest.raises(ValueError, match=message):
        check()
