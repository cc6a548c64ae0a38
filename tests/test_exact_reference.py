"""An exact reference for the Monte Carlo on an orthogonal design.

With X_t^T X_t / n = I the objective separates by rows: row j's estimate
is the block soft threshold of z_j = (x_tj^T y_t / n)_t at c = lam*T, and
z_j ~ N(beta_j, (sigma^2/n) I_T) independently (Yuan & Lin 2006).  The
prediction error is (1/T) sum_j ||eta(z_j) - beta_j||^2, so its mean is
(1/T) sum_j E[SURE(z_j)] (Stein 1981): with s^2 = sigma^2/n,
SURE(z) = ||z||^2 - T s^2 when ||z|| <= c, and
T s^2 + c^2 - 2(T-1) s^2 c/||z|| otherwise, where ||z||^2/s^2 is
noncentral chi-square with T degrees of freedom and noncentrality
||beta_j||^2/s^2.  The test checks the whole pipeline (noise draw, lam,
solve and scoring) against that mean, and shows its power on a lam 2%
off either way, which every coverage check passes.

The same separation gives the exact probability of support recovery by
``select_support`` at tau: row j is selected iff ||eta(z_j)||/sqrt(T) > tau,
that is iff ||z_j||^2 n/sigma^2 > x = n(lam*T + tau*sqrt(T))^2/sigma^2, so
the support is recovered exactly with probability
P(chi2_T(n T mu^2/sigma^2) > x)^s * P(chi2_T <= x)^(M - s).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mtgl.experiments import ExperimentConfig, run_oracle_experiment
from mtgl.model import group_support
from mtgl.selection import score_selection, select_support
from mtgl.solver import solve_group_lasso
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

# scipy is a test dependency only; the package never imports it
stats = pytest.importorskip("scipy.stats")
integrate = pytest.importorskip("scipy.integrate")

# the ACCEPTANCE 3 run (tests/test_acceptance.py): constant amplitude mu,
# so every active row has ||beta_j||^2 = T mu^2
CONFIG = ExperimentConfig(
    design=DesignSpec(kind="orthogonal", n=64, M=32, T=9),
    signal=SignalSpec(s=4, mu=1.0),
    noise=NoiseSpec(sigma=1.0),
    A=9.0,
    replicates=200,
    seed=20260815,
    kappa=1.0,
    kappa2s=1.0,
    phi_max=1.0,
)


def _row_risk(T, s2, c, noncentrality):
    """E[SURE(z)] of one row with ||z||^2/s2 ~ chi2_T(noncentrality)."""
    law = stats.ncx2(T, noncentrality) if noncentrality > 0 else stats.chi2(T)
    u0 = c * c / s2
    inside = s2 * integrate.quad(lambda u: (u - T) * law.pdf(u), 0.0, u0, limit=200)[0]
    tail = integrate.quad(lambda u: law.pdf(u) / math.sqrt(u), u0, np.inf, limit=200)[0]
    outside = (T * s2 + c * c) * law.sf(u0) - 2.0 * (T - 1) * math.sqrt(s2) * c * tail
    return inside + outside


def _exact_mean_prediction_error(config, lam):
    d, signal = config.design, config.signal
    s2 = config.noise.sigma ** 2 / d.n
    c = lam * d.T
    active = _row_risk(d.T, s2, c, d.T * signal.mu ** 2 / s2)
    inactive = _row_risk(d.T, s2, c, 0.0)
    return (signal.s * active + (d.M - signal.s) * inactive) / d.T


def _z(config, exact):
    """Standard errors from the exact mean to the run's mean prediction
    error; a run with no spread (SE 0) compares as an equality."""
    errors = np.array([m.prediction_error for m in run_oracle_experiment(config).metrics])
    mean = float(np.mean(errors))
    se = float(np.std(errors, ddof=1)) / math.sqrt(errors.size)
    if se == 0.0:
        return 0.0 if mean == exact else math.copysign(math.inf, mean - exact)
    return (mean - exact) / se


def test_mean_prediction_error_matches_the_exact_risk():
    exact = _exact_mean_prediction_error(CONFIG, CONFIG.plan.lam)
    assert exact == pytest.approx(2.8185, abs=1e-4)
    assert abs(_z(CONFIG, exact)) <= 4.0
    # plan_sigma moves the plan's lam, not the noise: 2% either way is seen
    assert _z(replace(CONFIG, plan_sigma=1.02), exact) > 4.0
    assert _z(replace(CONFIG, plan_sigma=0.98), exact) < -4.0


TAU = 0.1
RECOVERY_REPLICATES = 300


def _exact_recovery_probability(config, lam, tau):
    d, signal, sigma = config.design, config.signal, config.noise.sigma
    x = d.n * (lam * d.T + tau * math.sqrt(d.T)) ** 2 / sigma**2
    active = stats.ncx2.sf(x, d.T, d.n * d.T * signal.mu**2 / sigma**2)
    return active**signal.s * stats.chi2.cdf(x, d.T) ** (d.M - signal.s)


def _recovery_z(config, exact):
    """Binomial standard errors from the exact probability to the rate of
    exact support recovery over fresh replicates fitted at config's lam."""
    hits = 0
    for r in range(RECOVERY_REPLICATES):
        dataset, beta_star = generate_dataset(
            config.design, config.signal, config.noise, [config.seed, r]
        )
        fit = solve_group_lasso(dataset, config.solver)
        selected = select_support(fit.beta_hat, TAU)
        hits += score_selection(selected, group_support(beta_star))[0]
    se = math.sqrt(exact * (1.0 - exact) / RECOVERY_REPLICATES)
    return (hits / RECOVERY_REPLICATES - exact) / se


def test_support_recovery_rate_matches_the_exact_probability():
    exact = _exact_recovery_probability(CONFIG, CONFIG.plan.lam, TAU)
    assert exact == pytest.approx(0.7649, abs=1e-4)
    assert abs(_recovery_z(CONFIG, exact)) <= 4.0
    # lam moves the bar x that every row's ||z_j|| must clear: 2% either
    # way is seen
    assert _recovery_z(replace(CONFIG, plan_sigma=1.02), exact) < -4.0
    assert _recovery_z(replace(CONFIG, plan_sigma=0.98), exact) > 4.0
