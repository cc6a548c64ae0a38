"""Support recovery by group-norm thresholding, and the averaged
per-variable sign estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SparsityPattern


@dataclass(frozen=True)
class AverageEstimate:
    """Across-task averages a_hat, their thresholded version a_tilde,
    and the resulting signs in {-1, 0, +1}."""

    a_hat: tuple
    a_tilde: tuple
    signs: tuple


def _check_tau(tau):
    if not 0 < tau < math.inf:
        raise ValueError(f"threshold tau must be positive and finite, got {tau}")


def select_support(beta_hat, tau):
    """The SparsityPattern of the groups whose score ||beta_j||/sqrt(T)
    strictly exceeds tau.

    Scores sitting exactly at tau are excluded, so the selector agrees
    with ``group_support(beta_hat, tau * sqrt(T))``.
    """
    _check_tau(tau)
    scores = beta_hat.group_norms() / np.sqrt(beta_hat.T)
    return SparsityPattern(tuple(int(j) for j in np.nonzero(scores > tau)[0]))


def average_sign_estimate(beta_hat, tau):
    """Average each group across tasks and zero out small averages.

    a_hat_j = (1/T) sum_t beta_jt;  a_tilde_j = a_hat_j if |a_hat_j| > tau
    else 0; signs follow a_tilde.
    """
    _check_tau(tau)
    a_hat = np.mean(beta_hat.values, axis=1)
    a_tilde = np.where(np.abs(a_hat) > tau, a_hat, 0.0)
    signs = np.sign(a_tilde)
    return AverageEstimate(
        a_hat=tuple(float(x) for x in a_hat),
        a_tilde=tuple(float(x) for x in a_tilde),
        signs=tuple(int(x) for x in signs),
    )


def score_selection(selected, truth):
    """(exact, false_positives, false_negatives) of the selected
    SparsityPattern against the true one."""
    selected, truth = selected.as_set(), truth.as_set()
    fp = len(selected - truth)
    fn = len(truth - selected)
    return (selected == truth, fp, fn)
