import math

import pytest

from mtgl.regularization import (
    FINITE_VARIANCE,
    GAUSSIAN,
    RegularizationPlan,
    finite_variance_confidence,
    norm_bound_constant_c1,
    threshold_constant_c,
)

# Frozen by evaluating the closed-form expressions directly (natural logs):
#   lam = (2*sigma/sqrt(nT))*sqrt(1 + A*ln(M)/sqrt(T)) at sigma=1, n=100,
#   T=4, M=10, A=9; q = min(8 ln M, A sqrt(T)/8); confidence = 1 - M^(1-q).
LAM_G = 0.33707021402777804
Q_G = 2.25
CONF_G = 0.94376586748096514
# lam = sigma*sqrt((ln M)^(1+delta)/(nT)) at sigma=1, n=100, T=9, M=32, delta=3
LAM_FV = 0.40037751159850116
# 1 - (2e ln32 - e)/ (ln32)^4
CONF_FV = 0.88824290847173792
TAU_G = 2.5521030490674619  # (c(2)/10)*sqrt(1 + 9 ln10 / 2)
TAU_FV = 1.9732891643068986  # c_fv(2)*sqrt((ln32)^4/100)


def test_lambda_gaussian_frozen_values():
    plan = RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0)
    assert plan.lam == pytest.approx(LAM_G, rel=1e-15)
    assert plan.q == Q_G
    assert plan.confidence == pytest.approx(CONF_G, rel=1e-15)


def test_lambda_gaussian_limits_and_scaling():
    big_t = RegularizationPlan(GAUSSIAN, 1.0, 100, 10**6, 10, A=9.0)
    assert big_t.lam == pytest.approx(2.0 / math.sqrt(100 * 10**6), rel=2e-2)
    assert big_t.q == 8.0 * math.log(10)  # the 8 ln M cap binds

    one = RegularizationPlan(GAUSSIAN, 1.0, 50, 4, 20, A=9.0)
    two = RegularizationPlan(GAUSSIAN, 2.0, 50, 4, 20, A=9.0)
    assert two.lam == pytest.approx(2.0 * one.lam, rel=1e-15)
    assert one.q == two.q


def test_lambda_gaussian_requires_large_A():
    with pytest.raises(ValueError) as excinfo:
        RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=8.0)
    assert "exceed 8" in str(excinfo.value)
    # there is no override: every A <= 8 is refused
    for A in (4.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=A)
    with pytest.raises(ValueError):
        RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 1, A=9.0)  # M >= 2


def test_lambda_finite_variance_frozen_value():
    assert RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0).lam == (
        pytest.approx(LAM_FV, rel=1e-15)
    )


def test_lambda_finite_variance_limits():
    def lam(n, M, delta):
        return RegularizationPlan(FINITE_VARIANCE, 1.0, n, 9, M, delta=delta).lam

    # delta -> 0+ approaches sigma*sqrt(ln M/(nT))
    assert lam(100, 32, 1e-9) == pytest.approx(math.sqrt(math.log(32) / 900), rel=1e-6)
    # scaling n by 4 halves lambda
    assert lam(400, 32, 3.0) == pytest.approx(lam(100, 32, 3.0) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        lam(100, 2, 3.0)  # M >= 3
    with pytest.raises(ValueError):
        lam(100, 32, 0.0)  # delta > 0


def test_finite_variance_confidence():
    conf, vacuous = finite_variance_confidence(32, 3.0, 1.0)
    assert conf == pytest.approx(CONF_FV, rel=1e-15)
    assert not vacuous

    conf0, vac0 = finite_variance_confidence(32, 3.0, 1e-300)
    assert conf0 == pytest.approx(1.0, abs=1e-12) and not vac0

    # small M, delta: raw value negative -> clamped and flagged
    conf_bad, vac_bad = finite_variance_confidence(3, 0.01, 5.0)
    assert conf_bad == 0.0 and vac_bad


def test_threshold_constant_c():
    assert threshold_constant_c(2.0, 1.0, GAUSSIAN) == pytest.approx(
        3.0 + 32.0 / 7.0, rel=1e-15
    )
    assert threshold_constant_c(2.0, 1.0, FINITE_VARIANCE) == pytest.approx(
        1.5 + 1.0 / 7.0, rel=1e-15
    )
    # decreasing in alpha, homogeneous in sigma
    for regime in (GAUSSIAN, FINITE_VARIANCE):
        values = [threshold_constant_c(a, 1.0, regime) for a in (1.5, 2.0, 4.0, 16.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert threshold_constant_c(2.0, 3.0, regime) == pytest.approx(
            3.0 * threshold_constant_c(2.0, 1.0, regime), rel=1e-15
        )
    with pytest.raises(ValueError):
        threshold_constant_c(1.0, 1.0, GAUSSIAN)
    with pytest.raises(ValueError):
        threshold_constant_c(2.0, 1.0, "bogus")


def test_norm_bound_constant_c1():
    assert norm_bound_constant_c1(2.0, 1.0) == pytest.approx(64.0, rel=1e-15)
    assert norm_bound_constant_c1(2.0, 2.0) == pytest.approx(
        22.012983182009396, rel=1e-14
    )
    # p -> inf recovers the sup-norm constant
    assert norm_bound_constant_c1(2.0, math.inf) == pytest.approx(
        3.0 + 32.0 / 7.0, rel=1e-15
    )
    assert norm_bound_constant_c1(2.0, 1e6) == pytest.approx(
        3.0 + 32.0 / 7.0, rel=1e-3
    )
    with pytest.raises(ValueError):
        norm_bound_constant_c1(2.0, 0.5)


def test_selection_threshold_frozen_values():
    c_g = threshold_constant_c(2.0, 1.0, GAUSSIAN)
    plan = RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0)
    c, tau = plan.threshold(2.0)
    assert tau == pytest.approx(TAU_G, rel=1e-14)

    c_fv = threshold_constant_c(2.0, 1.0, FINITE_VARIANCE)
    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    c2, tau_fv = fv.threshold(2.0)
    assert tau_fv == pytest.approx(TAU_FV, rel=1e-14)
    # the plan's one recipe from alpha takes c from threshold_constant_c
    assert (c, c2) == (c_g, c_fv)

    # scales as 1/sqrt(n)
    tau4 = RegularizationPlan(GAUSSIAN, 1.0, 400, 4, 10, A=9.0).threshold(2.0)[1]
    assert tau4 == pytest.approx(tau / 2.0, rel=1e-14)


def test_gaussian_confidence_monotone_in_T():
    confs = [
        RegularizationPlan(GAUSSIAN, 1.0, 50, T, 10, A=9.0).confidence
        for T in (1, 4, 9, 16, 25)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(confs, confs[1:]))
    # once the 8 ln M cap binds the confidence saturates
    cap = RegularizationPlan(GAUSSIAN, 1.0, 50, 10**6, 10, A=9.0)
    assert cap.confidence == pytest.approx(1.0 - 10.0 ** (1.0 - 8.0 * math.log(10)))


def test_plan_constructors():
    # one constructor for both regimes; lam, q and confidence are computed
    plan = RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0)
    assert plan.regime == GAUSSIAN
    assert plan.lam == pytest.approx(LAM_G, rel=1e-15)
    assert plan.q == Q_G
    assert plan.confidence == pytest.approx(CONF_G, rel=1e-15)
    assert plan.A == 9.0

    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    assert fv.regime == FINITE_VARIANCE
    assert fv.lam == pytest.approx(LAM_FV, rel=1e-15)
    assert fv.confidence is None  # needs a measured c' to price the guarantee
    assert fv.q is None
    assert fv.delta == 3.0
    with pytest.raises(TypeError):
        RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0, lam=0.1)


@pytest.mark.parametrize("regime, constants, message", [
    (GAUSSIAN, {}, "the gaussian regime needs A"),
    (GAUSSIAN, {"A": 9.0, "delta": 3.0}, "does not read delta"),
    (FINITE_VARIANCE, {}, "the finite-variance regime needs delta"),
    (FINITE_VARIANCE, {"A": 9.0, "delta": 3.0}, "does not read A"),
    ("laplace", {"A": 9.0}, "unknown regime"),
])
def test_plan_reads_exactly_its_regimes_constant(regime, constants, message):
    with pytest.raises(ValueError, match=message):
        RegularizationPlan(regime, 1.0, 100, 9, 32, **constants)


def test_selection_threshold_rejects_the_other_regimes_constant():
    # tau comes only from a plan, whose constructor reads one constant
    with pytest.raises(ValueError, match="does not read delta"):
        RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 32, A=9.0, delta=3.0).threshold(2.0)
    with pytest.raises(ValueError, match="does not read A"):
        RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 4, 32, A=9.0, delta=3.0).threshold(2.0)


def test_plan_threshold_reads_its_own_sizes():
    plan = RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0)
    assert plan.threshold(2.0)[0] == threshold_constant_c(2.0, 1.0, GAUSSIAN)
    assert plan.threshold(2.0)[1] == pytest.approx(TAU_G, rel=1e-14)
    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    assert fv.threshold(2.0)[1] == pytest.approx(TAU_FV, rel=1e-14)
    # the finite-variance tau reads neither T nor lam
    at_one_task = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 1, 32, delta=3.0)
    assert at_one_task.threshold(2.0) == fv.threshold(2.0)


def test_plan_rate_reproduces_lambda_and_tau_bit_for_bit():
    sigma, n, T, M, A = 1.3, 77, 5, 12, 10.0
    plan = RegularizationPlan(GAUSSIAN, sigma, n, T, M, A=A)
    assert plan.rate == 1.0 + A * math.log(M) / math.sqrt(T)
    assert plan.lam == (2.0 * sigma / math.sqrt(n * T)) * math.sqrt(plan.rate)
    c, tau = plan.threshold(2.0)
    assert c == threshold_constant_c(2.0, sigma, GAUSSIAN)
    assert tau == (c / math.sqrt(n)) * math.sqrt(plan.rate)

    sigma, n, T, M, delta = 0.7, 64, 3, 9, 1.5
    fv = RegularizationPlan(FINITE_VARIANCE, sigma, n, T, M, delta=delta)
    assert fv.rate == math.log(M) ** (1.0 + delta)
    assert fv.lam == sigma * math.sqrt(fv.rate / (n * T))
    c, tau = fv.threshold(2.0)
    assert c == threshold_constant_c(2.0, sigma, FINITE_VARIANCE)
    assert tau == c * math.sqrt(fv.rate / n)


def test_lasso_level_is_the_baselines_level_bit_for_bit():
    sigma, n, T, M = 1.3, 77, 5, 12
    plan = RegularizationPlan(GAUSSIAN, sigma, n, T, M, A=10.0)
    assert plan.lasso_level(3.0) == 3.0 * sigma * math.sqrt(math.log(M * T) / n) / T


@pytest.mark.parametrize("c", [2.0 * math.sqrt(2.0), 2.0, -1.0, math.inf, math.nan])
def test_lasso_level_needs_a_finite_constant_above_two_sqrt_two(c):
    plan = RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=9.0)
    with pytest.raises(ValueError, match=rf"must exceed 2\*sqrt\(2\) ~= 2\.8284, got {c}"):
        plan.lasso_level(c)


def test_lasso_level_is_defined_for_the_gaussian_regime_only():
    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    with pytest.raises(ValueError, match="defined for the gaussian regime"):
        fv.lasso_level(3.0)
    # the constant is checked first
    with pytest.raises(ValueError, match="exceed 2"):
        fv.lasso_level(2.0)


@pytest.mark.parametrize("call", [
    lambda: RegularizationPlan(GAUSSIAN, math.inf, 100, 4, 10, A=9.0),
    lambda: RegularizationPlan(GAUSSIAN, 1.0, 100, 4, 10, A=math.inf),
    lambda: RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=math.inf),
    lambda: finite_variance_confidence(32, math.inf, 1.0),
    lambda: finite_variance_confidence(32, 3.0, math.inf),
    lambda: RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=math.inf).threshold(2.0),
    lambda: threshold_constant_c(math.inf, 1.0, GAUSSIAN),
    lambda: threshold_constant_c(2.0, math.inf, GAUSSIAN),
    lambda: norm_bound_constant_c1(math.inf, 2.0),
])
def test_constants_must_be_finite(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_formulas_are_deterministic():
    # plans compare field by field: lam, q and confidence included
    assert RegularizationPlan(GAUSSIAN, 1.3, 77, 5, 12, A=10.0) == RegularizationPlan(
        GAUSSIAN, 1.3, 77, 5, 12, A=10.0
    )
    assert RegularizationPlan(FINITE_VARIANCE, 0.7, 64, 3, 9, delta=1.5) == (
        RegularizationPlan(FINITE_VARIANCE, 0.7, 64, 3, 9, delta=1.5)
    )


@pytest.mark.parametrize("M", [1, 2])
def test_finite_variance_confidence_needs_three_groups(M):
    with pytest.raises(ValueError, match=f"finite-variance bounds need M >= 3, got M={M}"):
        finite_variance_confidence(M, 3.0, 1.0)
