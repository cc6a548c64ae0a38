"""Support recovery by group-norm thresholding, and the averaged
per-variable sign estimator.

Supports are sorted tuples of 0-based variable indices."""

from __future__ import annotations

import math

import numpy as np


def _check_tau(tau):
    if not 0 < tau < math.inf:
        raise ValueError(f"threshold tau must be positive and finite, got {tau}")


def select_support(beta_hat, tau):
    """The groups whose score ||beta_j||/sqrt(T) strictly exceeds tau.

    Scores sitting exactly at tau are excluded, so the selector agrees
    with ``group_support(beta_hat, tau * sqrt(T))``.
    """
    _check_tau(tau)
    scores = beta_hat.group_norms() / np.sqrt(beta_hat.T)
    return tuple(np.flatnonzero(scores > tau).tolist())


def average_sign_estimate(beta_hat, tau):
    """Average each group across tasks and zero out small averages.

    Returns three (M,) arrays: a_hat_j = (1/T) sum_t beta_jt; a_tilde_j =
    a_hat_j if |a_hat_j| > tau else 0; and the signs of a_tilde as ints
    in {-1, 0, 1}.
    """
    _check_tau(tau)
    a_hat = np.mean(beta_hat.values, axis=1)
    a_tilde = np.where(np.abs(a_hat) > tau, a_hat, 0.0)
    return a_hat, a_tilde, np.sign(a_tilde).astype(int)


def score_selection(selected, truth):
    """(exact, false_positives, false_negatives) of the selected indices
    against the true ones."""
    selected, truth = set(selected), set(truth)
    fp = len(selected - truth)
    fn = len(truth - selected)
    return (selected == truth, fp, fn)
