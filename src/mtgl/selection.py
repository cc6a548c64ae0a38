"""Support recovery by group-norm thresholding, and the averaged
per-variable sign estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SparsityPattern


@dataclass(frozen=True)
class SelectionResult:
    selected: SparsityPattern
    threshold: float
    group_scores: tuple
    true_pattern: SparsityPattern | None = None


@dataclass(frozen=True)
class AverageEstimate:
    """Across-task averages a_hat, their thresholded version a_tilde,
    and the resulting signs in {-1, 0, +1}."""

    a_hat: tuple
    a_tilde: tuple
    tau: float
    signs: tuple


def _check_tau(tau):
    if not 0 < tau < math.inf:
        raise ValueError(f"threshold tau must be positive and finite, got {tau}")


def select_support(beta_hat, tau, true_pattern=None):
    """Keep groups whose score ||beta_j||/sqrt(T) strictly exceeds tau.

    Scores sitting exactly at tau are excluded, so the selector agrees
    with ``group_support(beta_hat, tau * sqrt(T))``.
    """
    _check_tau(tau)
    scores = beta_hat.group_norms() / np.sqrt(beta_hat.T)
    selected = SparsityPattern(tuple(int(j) for j in np.nonzero(scores > tau)[0]))
    return SelectionResult(
        selected=selected,
        threshold=float(tau),
        group_scores=tuple(float(x) for x in scores),
        true_pattern=true_pattern,
    )


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
        tau=float(tau),
        signs=tuple(int(x) for x in signs),
    )


def score_selection(result):
    """(exact, false_positives, false_negatives) against the recorded truth."""
    if result.true_pattern is None:
        raise ValueError("selection result carries no true pattern to score against")
    selected = result.selected.as_set()
    truth = result.true_pattern.as_set()
    fp = len(selected - truth)
    fn = len(truth - selected)
    return (selected == truth, fp, fn)
