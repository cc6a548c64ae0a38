"""Solvers for the multi-task group Lasso and a plain Lasso baseline.

Both estimators minimise the average squared residual
S(B) = (1/nT) * sum_t ||X_t B_t - y_t||^2 plus a penalty:
2 * lam * ||B||_{2,1} for the group estimator and
2 * lam * sum_{t,j} |B_jt| for the entrywise baseline.  The entrywise
penalty is the group penalty with groups of width 1 instead of T, so
both share one objective and one optimality residual, evaluated on the
(M, T) coefficients viewed as rows of ``width`` entries.

All three solvers (block-coordinate descent, proximal gradient and the
baseline) run one descent driver and differ only in its step.  After
every sweep or step the driver rebuilds the residual from scratch,
records the objective and aborts if it rose.  Convergence is certified
through the first-order optimality residual (``kkt_residual``) over all
groups, never through parameter change between sweeps.

Block-coordinate descent and the baseline share one prox-linear
coordinate sweep over a working set; they differ only in the group
width.  The full residual X B and the correlations X^T r / (nT) are
batched matrix products (BLAS).
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


def _check_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Settings for ``solve_group_lasso``.

    lam            : penalty level, finite and > 0.
    algorithm      : "block-coordinate" or "proximal-gradient"; both
                     work on any design.
    max_iterations : sweep / step budget.
    kkt_tolerance  : stop once the optimality residual falls below this;
                     finite and > 0.
    initial        : optional warm start; defaults to all zeros.
    """

    lam: float
    algorithm: str = "block-coordinate"
    max_iterations: int = 1000
    kkt_tolerance: float = 1e-8
    initial: GroupCoefficients | None = None

    def __post_init__(self):
        _check_positive("penalty level", self.lam)
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}, expected one of {_ALGORITHMS}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        _check_positive("kkt_tolerance", self.kkt_tolerance)


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


def _group_kkt(corr, values, lam, width):
    # Groups are runs of `width` entries along a row of B: the whole row
    # for the group penalty, single entries for the entrywise one.
    # Active groups must align the correlation with lam * B_g/||B_g||;
    # zero groups must keep the correlation norm at or below lam.
    corr, values = corr.reshape(-1, width), values.reshape(-1, width)
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


def _kkt(data, beta, lam, width):
    _check_positive("penalty level", lam)
    values = beta.values
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"coefficients {values.shape} do not match dataset (M={data.M}, T={data.T})"
        )
    X = data.designs
    corr = _correlation(X, _residual(X, data.responses, values))
    return _group_kkt(corr, values, lam, width)


def kkt_residual(data, beta, lam):
    """First-order optimality residual of the group objective at beta.

    Zero (up to tolerance) if and only if beta minimises the objective.
    Rows whose norm is exactly zero are treated as inactive.
    """
    return _kkt(data, beta, lam, data.T)


def lasso_kkt_residual(data, beta, lam):
    """Entrywise optimality residual for the plain-Lasso objective."""
    return _kkt(data, beta, lam, 1)


def _objective_from_resid(resid, values, lam, width):
    fit = float(np.sum(resid * resid) / resid.size)
    groups = values.reshape(-1, width)
    return fit + 2.0 * lam * float(np.sum(np.linalg.norm(groups, axis=1)))


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


def _descend(data, config, width, step):
    """Iterate ``step`` from the warm start until the optimality residual
    over all groups of ``width`` entries is within config.kkt_tolerance
    or config.max_iterations steps are spent.

    step(values, resid, corr) returns the next (M, T) iterate and may
    update values and resid in place.  The residual is recomputed from
    scratch after every step so incremental drift never contaminates
    the convergence certificate.
    """
    X, Y = data.designs, data.responses
    lam = config.lam
    values = _initial_values(data, config)
    trace = []
    iterations = 0
    while True:
        resid = _residual(X, Y, values)
        trace.append(_objective_from_resid(resid, values, lam, width))
        if iterations:
            _check_descent(trace)
        corr = _correlation(X, resid)
        kkt = _group_kkt(corr, values, lam, width)
        if kkt <= config.kkt_tolerance or iterations >= config.max_iterations:
            break
        values = step(values, resid, corr)
        iterations += 1

    return SolveResult(
        beta_hat=GroupCoefficients(values),
        iterations=iterations,
        kkt_residual=kkt,
        objective_trace=tuple(trace),
        converged=kkt <= config.kkt_tolerance,
    )


def _coordinate_sweep(data, lam, width):
    """A descent step that sets, in increasing j, each group of row j of
    B to shrink(B_g + c_g / L, lam*T / L): c = X_j^T r / n correlates
    the row's columns with the current residual, L is the group's
    largest Gram diagonal entry d_tj = (1/n)||x_tj||^2 (1 if all are 0),
    and shrink is the group's soft threshold.  With equal d in a group
    (always at width 1; at width T on unit-diagonal designs) this is the
    exact group minimiser, else the block coordinate gradient step of
    Tseng & Yun (2009), which descends on any design.

    Only nonzero rows and zero rows holding a group whose correlation
    norm exceeds lam are visited: every other group has ||c|| <= lam*T
    and would stay 0.  That set is empty only at KKT residual 0, which
    already stopped the driver.
    """
    M, n = data.M, data.n
    # G[j] is row j's (T, n) block of columns, contiguous in memory.
    G = np.ascontiguousarray(data.designs.transpose(2, 0, 1))
    curvature = (np.einsum("jtn,jtn->jt", G, G) / n).reshape(M, -1, width).max(axis=2)
    step = 1.0 / np.where(curvature > 0, curvature, 1.0)
    thresh = lam * data.T * step
    scale = step / n    # turns X_j^T r into the gradient step c_j / L
    if width > 1:
        # One step per row, as Python floats: cheaper than 0-d arrays.
        scale, thresh = scale[:, 0].tolist(), thresh[:, 0].tolist()

    def sweep(values, resid, corr):
        violated = np.linalg.norm(corr.reshape(-1, width), axis=1) > lam
        nonzero = (values != 0.0).any(axis=1)
        working = np.flatnonzero(nonzero | violated.reshape(M, -1).any(axis=1))
        # Each row is visited once, so nonzero[j] still holds when j is.
        for j in working.tolist():
            cols, row = G[j], values[j]                    # (T, n), (T,)
            v = row + np.vecdot(cols, resid) * scale[j]
            if width == 1:
                v = _soft_threshold(v, thresh[j])
            else:
                # block_soft_threshold inlined: the call cost more than the work
                norm = math.sqrt(v.dot(v))
                if norm > thresh[j]:
                    v *= 1.0 - thresh[j] / norm
                elif nonzero[j]:
                    v[:] = 0.0
                else:
                    continue                # a zero row that stays zero
            delta = v - row
            if np.count_nonzero(delta):
                resid -= cols * delta[:, None]
                row[:] = v
        return values

    return sweep


def _soft_threshold(v, tau):
    # v minus its clip to [-tau, tau], entry by entry.
    return v - np.minimum(np.maximum(v, -tau), tau)


def solve_group_lasso(data, config):
    """Minimise S(B) + 2 * lam * ||B||_{2,1} on any design.

    The block-coordinate algorithm runs the prox-linear coordinate
    sweep it shares with ``solve_lasso_baseline``, with groups of width
    T.  Proximal gradient uses the fixed step T / (2*phi_max).  Both run
    the shared descent driver, which stops on the KKT residual over all
    M groups, computed from a residual rebuilt from scratch after every
    sweep or step.
    """
    if config.algorithm == "proximal-gradient":
        return _solve_proximal_gradient(data, config)
    return _descend(data, config, data.T, _coordinate_sweep(data, config.lam, data.T))


def _solve_proximal_gradient(data, config):
    # Imported at call time: perfbench's tracer wraps this module attribute.
    from .assumptions import largest_gram_eigenvalue

    phi_max = largest_gram_eigenvalue(data)
    if not phi_max > 0:
        raise ValueError("design is degenerate (largest Gram eigenvalue is zero)")
    # grad S has Lipschitz constant 2 * phi_max / T, so this step size
    # guarantees monotone descent.
    step = data.T / (2.0 * phi_max)
    prox_tau = step * 2.0 * config.lam

    def forward_backward(values, resid, corr):
        # Gradient of S is -2 * corr, so the forward step adds 2*step*corr.
        return _prox_l21(values + 2.0 * step * corr, prox_tau)

    return _descend(data, config, data.T, forward_backward)


def _prox_l21(values, tau):
    norms = np.linalg.norm(values, axis=1)
    scale = np.zeros_like(norms)
    nz = norms > tau
    scale[nz] = 1.0 - tau / norms[nz]
    return values * scale[:, None]


def solve_lasso_baseline(data, lam, max_iterations=1000, kkt_tolerance=1e-8):
    """Entrywise-L1 baseline: minimise S(B) + 2 * lam * sum |B_jt|.

    The descent driver and coordinate sweep of block-coordinate descent,
    with groups of width 1: each entry is soft-thresholded with its own
    step 1/d_jt, the exact coordinate minimiser, so columns may be
    unnormalised and an all-zero column keeps B_jt = 0.  Tasks do not
    interact, so each task's coordinates are updated in increasing j, as
    in T separate single-task Lassos.
    """
    config = SolverConfig(
        lam=lam, max_iterations=max_iterations, kkt_tolerance=kkt_tolerance
    )
    return _descend(data, config, 1, _coordinate_sweep(data, lam, 1))
