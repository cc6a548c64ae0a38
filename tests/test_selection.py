import math

import numpy as np
import pytest

from mtgl.model import GroupCoefficients, group_support
from mtgl.selection import (
    average_sign_estimate,
    score_selection,
    select_support,
)


def _beta(rows):
    return GroupCoefficients(np.asarray(rows, dtype=float))


def test_strict_threshold_semantics():
    tau = 0.5
    # group scores: 0.9*tau, 1.1*tau, 0
    rt2 = math.sqrt(2.0)
    beta = _beta([
        [0.9 * tau * rt2, 0.0],
        [1.1 * tau, 1.1 * tau],
        [0.0, 0.0],
    ])
    # recompute scores directly to keep the construction honest
    scores = np.linalg.norm(beta.values, axis=1) / rt2
    selected = select_support(beta, tau)
    assert selected == tuple(j for j in range(3) if scores[j] > tau) == (1,)

    # a score exactly at tau is excluded
    exact = _beta([[tau, tau]])  # score = tau*sqrt(2)/sqrt(2) = tau
    assert select_support(exact, tau) == ()

    assert select_support(GroupCoefficients.zeros(4, 2), tau) == ()
    with pytest.raises(ValueError):
        select_support(exact, 0.0)


def test_selection_monotone_in_tau():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        beta = GroupCoefficients(rng.standard_normal((8, 3)))
        t1, t2 = sorted(rng.uniform(0.05, 1.5, size=2))
        big = set(select_support(beta, t2))
        small = set(select_support(beta, t1))
        assert big <= small


def test_average_sign_estimate_hand_cases():
    tau = 0.4
    beta = _beta([
        [1.0, -1.0],        # cancellation -> a_hat 0, sign 0
        [3 * tau, 3 * tau],  # a_hat = 3 tau -> kept, sign +1
        [-0.5 * tau, -0.5 * tau],  # |a_hat| = tau/2 -> zeroed
        [-3 * tau, -3 * tau],
    ])
    a_hat, a_tilde, signs = average_sign_estimate(beta, tau)
    assert a_hat.tolist() == [0.0, 3 * tau, -0.5 * tau, -3 * tau]
    assert a_tilde.tolist() == [0.0, 3 * tau, 0.0, -3 * tau]
    assert signs.tolist() == [0, 1, 0, -1]


def test_average_threshold_is_strict():
    tau = 0.7
    beta = _beta([[tau, tau]])
    _, a_tilde, signs = average_sign_estimate(beta, tau)
    assert a_tilde.tolist() == [0.0] and signs.tolist() == [0]


def test_score_selection_counts():
    beta = _beta([[5.0, 5.0], [0.0, 0.0], [5.0, 5.0]])
    truth = (0, 2)
    assert score_selection(select_support(beta, 1.0), truth) == (True, 0, 0)

    missing = select_support(_beta([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0]]), 1.0)
    assert score_selection(missing, truth) == (False, 0, 1)

    extra = select_support(_beta([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0]]), 1.0)
    assert score_selection(extra, truth) == (False, 1, 0)


def test_consistency_chain():
    # whenever ||beta_hat - beta*||_{2,inf}/sqrt(T) <= tau and the beta-min
    # condition holds at tau, strict thresholding recovers J(beta*) exactly
    for seed in range(25):
        rng = np.random.default_rng(seed)
        M, T = 10, 4
        tau = float(rng.uniform(0.2, 1.0))
        support = rng.choice(M, size=3, replace=False)
        beta_star = np.zeros((M, T))
        for j in support:
            row = rng.standard_normal(T)
            row *= (2.0 * tau + rng.uniform(0.1, 2.0)) * math.sqrt(T) / np.linalg.norm(row)
            beta_star[j] = row
        # perturbation of group norm at most tau*sqrt(T)
        noise = rng.standard_normal((M, T))
        noise *= rng.uniform(0.0, 0.999) * tau * math.sqrt(T) / np.maximum(
            np.linalg.norm(noise, axis=1, keepdims=True), 1e-12
        )
        beta_hat = GroupCoefficients(beta_star + noise)
        star = GroupCoefficients(beta_star)
        # beta-min: min over active j of ||beta*_j||/sqrt(T) > 2*tau
        assert np.min(star.group_norms()[support]) / math.sqrt(T) > 2.0 * tau
        selected = select_support(beta_hat, tau)
        exact, fp, fn = score_selection(selected, group_support(star, 0.0))
        assert exact and fp == 0 and fn == 0


def test_sign_chain_for_averages():
    # |a_hat_j - a*_j| <= ||beta_hat - beta*||_{2,inf}/sqrt(T) (Cauchy-Schwarz),
    # so margin-2 averages plus error <= tau give exact sign recovery
    for seed in range(25):
        rng = np.random.default_rng(seed)
        M, T = 8, 5
        tau = float(rng.uniform(0.2, 0.8))
        a_star = np.zeros(M)
        active = rng.choice(M, size=3, replace=False)
        a_star[active] = rng.choice([-1.0, 1.0], size=3) * (
            2.0 * tau + rng.uniform(0.05, 1.0, size=3)
        )
        beta_star = np.repeat(a_star[:, None], T, axis=1)
        noise = rng.standard_normal((M, T))
        noise *= rng.uniform(0.0, 0.999) * tau * math.sqrt(T) / np.maximum(
            np.linalg.norm(noise, axis=1, keepdims=True), 1e-12
        )
        beta_hat = GroupCoefficients(beta_star + noise)

        err_2inf = max(np.linalg.norm(noise, axis=1)) / math.sqrt(T)
        a_hat, _, signs = average_sign_estimate(beta_hat, tau)
        for j in range(M):
            assert abs(a_hat[j] - a_star[j]) <= err_2inf + 1e-12
        assert signs.tolist() == [int(x) for x in np.sign(a_star)]


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
def test_thresholds_must_be_positive_and_finite(tau):
    beta = _beta([[1.0, 2.0], [0.0, 0.0]])
    for threshold in (select_support, average_sign_estimate):
        with pytest.raises(ValueError, match="positive and finite"):
            threshold(beta, tau)
