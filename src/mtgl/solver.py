"""Solvers for the multi-task group Lasso and a plain Lasso baseline.

Both estimators minimise the average squared residual
S(B) = (1/nT) * sum_t ||X_t B_t - y_t||^2 plus a penalty:
2 * lam * ||B||_{2,1} for the group estimator and
2 * lam * sum_{t,j} |B_jt| for the entrywise baseline.

Convergence is certified through the first-order optimality residual
(``kkt_residual``) over all groups, never through parameter change
between sweeps.

Block-coordinate descent works on a group-contiguous copy of the design
(shape (M, T, n), so group j's columns are one contiguous block) and
sweeps a working set: the nonzero groups plus the zero groups whose
correlation norm exceeds lam.  Every other group already sits at its
block optimum for the current residual.  The full residual X B and the
correlations X^T r / (nT) are batched matrix products (BLAS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroupCoefficients

# Objective traces may rise by at most this much (relative slack) before
# the solver aborts as divergent.
_DESCENT_SLACK = 1e-12

_ALGORITHMS = ("block-coordinate", "proximal-gradient")


def block_soft_threshold(v, tau):
    """Shrink v toward the origin: max(0, 1 - tau/||v||) * v.

    This is the exact minimiser of (1/2)||u - v||^2 + tau*||u|| over u;
    it returns the zero vector when ||v|| <= tau.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    norm = math.sqrt(flat @ flat)
    if norm <= tau:
        return np.zeros_like(v)
    return (1.0 - tau / norm) * v


@dataclass(frozen=True)
class SolverConfig:
    """Settings for ``solve_group_lasso``.

    lam            : penalty level, > 0.
    algorithm      : "block-coordinate" (needs unit-diagonal Grams) or
                     "proximal-gradient" (any design).
    max_iterations : sweep / step budget.
    kkt_tolerance  : stop once the optimality residual falls below this.
    initial        : optional warm start; defaults to all zeros.
    """

    lam: float
    algorithm: str = "block-coordinate"
    max_iterations: int = 1000
    kkt_tolerance: float = 1e-8
    initial: GroupCoefficients | None = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"penalty level must be positive, got {self.lam}")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}, expected one of {_ALGORITHMS}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.kkt_tolerance > 0:
            raise ValueError(f"kkt_tolerance must be positive, got {self.kkt_tolerance}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    beta_hat        : estimated coefficients, (M, T).
    iterations      : sweeps over the working set (block-coordinate) or
                      gradient steps.
    kkt_residual    : optimality residual at beta_hat.
    objective_trace : objective value before each update and at the end;
                      nonincreasing up to float slack.
    converged       : True iff kkt_residual <= the requested tolerance.
    """

    beta_hat: GroupCoefficients
    iterations: int
    kkt_residual: float
    objective_trace: tuple
    converged: bool


def _residual(X, Y, values):
    """Y - X B as a (T, n) array: task t's row is y_t - X_t B_t."""
    return Y - np.matmul(X, values.T[:, :, None])[..., 0]


def _correlation(X, resid):
    """(1/nT) X^T r as an (M, T) array: column t is X_t^T r_t / (nT)."""
    T, n, _ = X.shape
    return np.matmul(resid[:, None, :], X)[:, 0, :].T / (n * T)


def _correlations(data, values):
    """(1/nT) X^T (y - X B) as an (M, T) array."""
    X = data.designs
    return _correlation(X, _residual(X, data.responses, values))


def _group_kkt(corr, values, lam):
    # Active groups must align the correlation with lam * B_j/||B_j||;
    # zero groups must keep the correlation norm at or below lam.
    norms = np.linalg.norm(values, axis=1)
    active = norms > 0
    worst = 0.0
    if np.any(active):
        unit = values[active] / norms[active, None]
        gap = np.linalg.norm(corr[active] - lam * unit, axis=1)
        worst = float(np.max(gap))
    if np.any(~active):
        slack = np.linalg.norm(corr[~active], axis=1) - lam
        worst = max(worst, float(np.max(np.maximum(slack, 0.0))))
    return worst


def kkt_residual(data, beta, lam):
    """First-order optimality residual of the group objective at beta.

    Zero (up to tolerance) if and only if beta minimises the objective.
    Rows whose norm is exactly zero are treated as inactive.
    """
    if not lam > 0:
        raise ValueError(f"penalty level must be positive, got {lam}")
    values = beta.values
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"coefficients {values.shape} do not match dataset (M={data.M}, T={data.T})"
        )
    return _group_kkt(_correlations(data, values), values, lam)


def _objective_from_resid(resid, values, lam, n, T):
    fit = float(np.sum(resid * resid) / (n * T))
    return fit + 2.0 * lam * float(np.sum(np.linalg.norm(values, axis=1)))


def _check_descent(trace):
    prev, curr = trace[-2], trace[-1]
    if curr > prev + _DESCENT_SLACK * max(1.0, abs(prev)):
        raise RuntimeError(
            f"objective increased from {prev!r} to {curr!r}; solver diverged"
        )


def _initial_values(data, config):
    if config.initial is None:
        return np.zeros((data.M, data.T))
    values = np.array(config.initial.values, dtype=float)
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"warm start {values.shape} does not match dataset (M={data.M}, T={data.T})"
        )
    return values


def solve_group_lasso(data, config):
    """Minimise S(B) + 2 * lam * ||B||_{2,1}.

    The block-coordinate algorithm copies the design once into a
    group-contiguous (M, T, n) layout.  Before each sweep it forms the
    full correlation X^T r / (nT) and takes as working set the nonzero
    groups and the zero groups whose correlation norm exceeds lam; it
    updates those in increasing j.  With unit-diagonal Grams the exact
    row update is block_soft_threshold(z_j, lam*T) where z_j is the
    partial-residual correlation row.  Both algorithms stop on the KKT
    residual over all M groups, computed from a residual rebuilt from
    scratch after every sweep or step.  Proximal gradient uses the fixed
    step T / (2*phi_max) and works on any design.
    """
    if config.algorithm == "block-coordinate":
        if not data.unit_diagonal:
            raise ValueError(
                "block-coordinate updates need unit-diagonal Grams "
                "((1/n)||x_tj||^2 = 1 for every column); normalise the design "
                "or use algorithm='proximal-gradient'"
            )
        return _solve_block_coordinate(data, config)
    return _solve_proximal_gradient(data, config)


def _solve_block_coordinate(data, config):
    X, Y = data.designs, data.responses
    n, T = data.n, data.T
    lam = config.lam
    thresh = lam * T
    # G[j] is group j's (T, n) block of columns, contiguous in memory.
    G = np.ascontiguousarray(X.transpose(2, 0, 1))

    values = _initial_values(data, config)
    resid = _residual(X, Y, values)
    trace = [_objective_from_resid(resid, values, lam, n, T)]

    iterations = 0
    converged = False
    corr = _correlation(X, resid)
    kkt = _group_kkt(corr, values, lam)
    while True:
        if kkt <= config.kkt_tolerance:
            converged = True
            break
        if iterations >= config.max_iterations:
            break
        # A zero group with ||corr_j|| <= lam is at its block optimum for
        # the current residual, so the sweep skips it.  The set is empty
        # only when kkt is 0, which already stopped the loop.
        working = np.flatnonzero(
            np.any(values != 0.0, axis=1) | (np.linalg.norm(corr, axis=1) > lam)
        )
        for j in working:
            cols = G[j]                                    # (T, n)
            z = np.einsum("tn,tn->t", cols, resid) / n + values[j]
            new_row = block_soft_threshold(z, thresh)
            delta = new_row - values[j]
            if np.count_nonzero(delta):
                resid -= cols * delta[:, None]
            values[j] = new_row
        iterations += 1
        # Recompute the residual from scratch so incremental drift never
        # contaminates the convergence certificate.
        resid = _residual(X, Y, values)
        trace.append(_objective_from_resid(resid, values, lam, n, T))
        _check_descent(trace)
        corr = _correlation(X, resid)
        kkt = _group_kkt(corr, values, lam)

    return SolveResult(
        beta_hat=GroupCoefficients(values),
        iterations=iterations,
        kkt_residual=float(kkt),
        objective_trace=tuple(trace),
        converged=converged,
    )


def _solve_proximal_gradient(data, config):
    from .assumptions import largest_gram_eigenvalue

    X, Y = data.designs, data.responses
    n, T = data.n, data.T
    lam = config.lam

    phi_max = largest_gram_eigenvalue(data)
    if not phi_max > 0:
        raise ValueError("design is degenerate (largest Gram eigenvalue is zero)")
    # grad S has Lipschitz constant 2 * phi_max / T, so this step size
    # guarantees monotone descent.
    step = T / (2.0 * phi_max)
    prox_tau = step * 2.0 * lam

    values = _initial_values(data, config)
    resid = _residual(X, Y, values)
    trace = [_objective_from_resid(resid, values, lam, n, T)]

    iterations = 0
    converged = False
    corr = _correlation(X, resid)
    kkt = _group_kkt(corr, values, lam)
    while True:
        if kkt <= config.kkt_tolerance:
            converged = True
            break
        if iterations >= config.max_iterations:
            break
        # Gradient of S is -2 * corr, so the forward step adds 2*step*corr.
        values = _prox_l21(values + 2.0 * step * corr, prox_tau)
        iterations += 1
        resid = _residual(X, Y, values)
        trace.append(_objective_from_resid(resid, values, lam, n, T))
        _check_descent(trace)
        corr = _correlation(X, resid)
        kkt = _group_kkt(corr, values, lam)

    return SolveResult(
        beta_hat=GroupCoefficients(values),
        iterations=iterations,
        kkt_residual=float(kkt),
        objective_trace=tuple(trace),
        converged=converged,
    )


def _prox_l21(values, tau):
    norms = np.linalg.norm(values, axis=1)
    scale = np.zeros_like(norms)
    nz = norms > tau
    scale[nz] = 1.0 - tau / norms[nz]
    return values * scale[:, None]


def solve_lasso_baseline(data, lam, max_iterations=1000, kkt_tolerance=1e-8):
    """Entrywise-L1 baseline: minimise S(B) + 2 * lam * sum |B_jt|.

    Cyclic coordinate descent, one scalar soft-threshold per coefficient.
    On block-diagonal problems this decomposes into T single-task Lassos.
    """
    if not lam > 0:
        raise ValueError(f"penalty level must be positive, got {lam}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if not kkt_tolerance > 0:
        raise ValueError(f"kkt_tolerance must be positive, got {kkt_tolerance}")

    X, Y = data.designs, data.responses
    n, T, M = data.n, data.T, data.M
    thresh = lam * T
    # Per-column Gram diagonal (1/n)||x_tj||^2; columns may be unnormalised.
    diag = np.einsum("tnm,tnm->tm", X, X) / n

    values = np.zeros((M, T))
    resid = Y.copy()
    trace = [_lasso_objective(resid, values, lam, n, T)]

    iterations = 0
    converged = False
    kkt = _lasso_kkt(_correlation(X, resid), values, lam)
    while True:
        if kkt <= kkt_tolerance:
            converged = True
            break
        if iterations >= max_iterations:
            break
        for t in range(T):
            Xt = X[t]
            rt = resid[t]
            for j in range(M):
                d = diag[t, j]
                if d == 0.0:
                    continue
                col = Xt[:, j]
                z = col @ rt / n + d * values[j, t]
                new = _soft(z, thresh) / d
                delta = new - values[j, t]
                if delta != 0.0:
                    rt -= col * delta
                    values[j, t] = new
        iterations += 1
        resid = _residual(X, Y, values)
        trace.append(_lasso_objective(resid, values, lam, n, T))
        _check_descent(trace)
        kkt = _lasso_kkt(_correlation(X, resid), values, lam)

    return SolveResult(
        beta_hat=GroupCoefficients(values),
        iterations=iterations,
        kkt_residual=float(kkt),
        objective_trace=tuple(trace),
        converged=converged,
    )


def _soft(z, tau):
    if z > tau:
        return z - tau
    if z < -tau:
        return z + tau
    return 0.0


def _lasso_objective(resid, values, lam, n, T):
    fit = float(np.sum(resid * resid) / (n * T))
    return fit + 2.0 * lam * float(np.sum(np.abs(values)))


def _lasso_kkt(corr, values, lam):
    active = values != 0.0
    worst = 0.0
    if np.any(active):
        gap = np.abs(corr[active] - lam * np.sign(values[active]))
        worst = float(np.max(gap))
    if np.any(~active):
        slack = np.abs(corr[~active]) - lam
        worst = max(worst, float(np.max(np.maximum(slack, 0.0))))
    return worst


def lasso_kkt_residual(data, beta, lam):
    """Entrywise optimality residual for the plain-Lasso objective."""
    if not lam > 0:
        raise ValueError(f"penalty level must be positive, got {lam}")
    values = beta.values
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"coefficients {values.shape} do not match dataset (M={data.M}, T={data.T})"
        )
    return _lasso_kkt(_correlations(data, values), values, lam)
