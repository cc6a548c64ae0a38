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
every sweep or step the driver takes a residual built from scratch,
records the objective and aborts if it rose.  Convergence is certified
through the first-order optimality residual (``kkt_residual``) over all
groups, never through parameter change between sweeps.

Block-coordinate descent and the baseline share one prox-linear
coordinate sweep over a working set; they differ only in the group
width.  Proximal gradient is FISTA (Beck & Teboulle 2009) with a
function-value restart (O'Donoghue & Candes 2015): an extrapolated
step is kept only if it does not raise the objective, else the
momentum is reset and the plain step T/(2*phi_max) is taken, so only
descending iterates reach the driver.  The residual Y - X B and the
correlations X^T r / (nT) are ``model``'s batched BLAS kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (GroupCoefficients, _check_positive, fitted_responses,
                    task_correlations, task_fits)

# Objective traces may rise by at most this much (relative slack) before
# the solver aborts as divergent.
_DESCENT_SLACK = 1e-12

# The algorithms of SolverConfig; the first is the default.
ALGORITHMS = ("block-coordinate", "proximal-gradient")


def block_soft_threshold(v, tau):
    """Shrink each group of v toward the origin: max(0, 1 - tau/||g||) * g
    for every group g, a row along v's last axis.

    This is the proximal map of tau times the sum of the groups' norms:
    each group is the exact minimiser of (1/2)||u - g||^2 + tau*||u||
    over u, and is zero when ||g|| <= tau.  A 1-D v is one group, and
    the rows of an (M, T) array are its M groups.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    scale = np.zeros_like(norms)
    kept = norms > tau
    scale[kept] = 1.0 - tau / norms[kept]
    return v * scale[..., None]


@dataclass(frozen=True)
class SolverConfig:
    """Settings for ``solve_group_lasso``.

    lam            : penalty level, finite and > 0.
    algorithm      : "block-coordinate" or "proximal-gradient"; both
                     work on any design.
    max_iterations : sweep / step budget.
    kkt_tolerance  : stop once the optimality residual falls below this;
                     finite and > 0.

    Every solve starts from all zeros.
    """

    lam: float
    algorithm: str = ALGORITHMS[0]
    max_iterations: int = 1000
    kkt_tolerance: float = 1e-8

    def __post_init__(self):
        _check_positive("penalty level", self.lam)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        _check_positive("kkt_tolerance", self.kkt_tolerance)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve.

    beta_hat        : estimated coefficients, (M, T).
    iterations      : sweeps over the working set (block-coordinate) or
                      accepted proximal-gradient iterates; an
                      extrapolated step that would raise the objective
                      is replaced by the plain step, not counted twice.
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
    resid = data.responses - fitted_responses(data, beta)
    corr = task_correlations(data.designs, resid) / (data.n * data.T)
    return _group_kkt(corr, beta.values, lam, width)


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


def _descend(data, config, width, step):
    """Iterate ``step`` from all zeros until the optimality residual
    over all groups of ``width`` entries is within config.kkt_tolerance
    or config.max_iterations steps are spent.

    step(values, resid, corr, objective) returns the next (M, T) iterate
    and its residual Y - X B if the step built it from scratch, else
    None, and the driver rebuilds it, so incremental drift never
    contaminates the convergence certificate.  A step may update values
    and resid in place.
    """
    X, Y, lam, nT = data.designs, data.responses, config.lam, data.n * data.T
    values = np.zeros((data.M, data.T))
    resid = None
    trace = []
    iterations = 0
    while True:
        if resid is None:
            resid = Y - task_fits(X, values)
        trace.append(_objective_from_resid(resid, values, lam, width))
        if iterations:
            _check_descent(trace)
        corr = task_correlations(X, resid) / nT
        kkt = _group_kkt(corr, values, lam, width)
        if kkt <= config.kkt_tolerance or iterations >= config.max_iterations:
            break
        values, resid = step(values, resid, corr, trace[-1])
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
    already stopped the driver.  Row j's columns are read in place, as
    the (T, n) slab X[:, :, j] of the design store, whose rows are
    contiguous; every row's step and threshold come from one pass over
    the store before the first sweep, so the solve copies no design
    rows.  The slab's products stay in this inner loop, not in
    ``model``'s kernels.
    """
    M, n = data.M, data.n
    store = data.store                                      # (T, M, n)
    diagonal = np.einsum("tmn,tmn->mt", store, store) / n   # d_tj
    if width > 1:
        diagonal = diagonal.max(axis=1)
    step = 1.0 / np.where(diagonal > 0, diagonal, 1.0)
    # step / n turns X_j^T r into the gradient step c_j / L
    scales, thresholds = step / n, lam * data.T * step
    if width > 1:
        # One step per row, as a Python float: cheaper than 0-d arrays.
        scales, thresholds = scales.tolist(), thresholds.tolist()

    buf = np.empty_like(data.responses)     # (T, n) rank-one update

    def sweep(values, resid, corr, objective):
        violated = np.linalg.norm(corr.reshape(-1, width), axis=1) > lam
        nonzero = (values != 0.0).any(axis=1)
        working = np.flatnonzero(nonzero | violated.reshape(M, -1).any(axis=1))
        # Each row is visited once, so nonzero[j] still holds when j is.
        for j in working.tolist():
            cols, scale, thresh = store[:, j], scales[j], thresholds[j]
            row = values[j]
            v = row + np.vecdot(cols, resid) * scale
            if width == 1:
                v = _soft_threshold(v, thresh)
            else:
                # block_soft_threshold inlined: the call cost more than the work
                norm = math.sqrt(v.dot(v))
                if norm > thresh:
                    v *= 1.0 - thresh / norm
                elif nonzero[j]:
                    v[:] = 0.0
                else:
                    continue                # a zero row that stays zero
            # An unchanged row subtracts zeros: resid stays bit for bit.
            np.multiply(cols, (v - row)[:, None], out=buf)
            resid -= buf
            row[:] = v
        return values, None     # resid drifted: the driver rebuilds it

    return sweep


def _soft_threshold(v, tau):
    # v minus its clip to [-tau, tau], entry by entry.
    return v - np.minimum(np.maximum(v, -tau), tau)


def solve_group_lasso(data, config):
    """Minimise S(B) + 2 * lam * ||B||_{2,1} on any design.

    The block-coordinate algorithm runs the prox-linear coordinate
    sweep it shares with ``solve_lasso_baseline``, with groups of width
    T.  Proximal gradient is restarted FISTA with step T / (2*phi_max):
    each iteration tries the extrapolated step and keeps it if the
    objective does not rise, else it resets the momentum and takes the
    plain proximal step.  Both run the shared descent driver, which
    stops on the KKT residual over all M groups, computed from a
    residual built from scratch after every sweep or step.
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
    X, Y, lam, T = data.designs, data.responses, config.lam, data.T
    prev = prev_corr = None         # x_{k-1} and its correlation
    momentum = 0.0                  # t_k

    def accelerated_step(values, resid, corr, objective):
        # Gradient of S is -2 * corr, so a forward step adds 2*step*corr.
        nonlocal prev, prev_corr, momentum
        following = _next_momentum(momentum)
        beta = (momentum - 1.0) / following
        candidate = candidate_resid = None
        if beta > 0.0:
            # corr is affine in B, so at z = x_k + beta*(x_k - x_{k-1})
            # it is corr_k + beta*(corr_k - corr_{k-1}): no X^T r needed.
            z = values + beta * (values - prev)
            z_corr = corr + beta * (corr - prev_corr)
            candidate = block_soft_threshold(z + 2.0 * step * z_corr, prox_tau)
            candidate_resid = Y - task_fits(X, candidate)
            if _objective_from_resid(candidate_resid, candidate, lam, T) > objective:
                # Restart (O'Donoghue & Candes 2015): go on as if x_k were
                # the starting point, whose plain step descends by itself.
                candidate = candidate_resid = None
                following = _next_momentum(0.0)
        if candidate is None:
            candidate = block_soft_threshold(values + 2.0 * step * corr, prox_tau)
        prev, prev_corr, momentum = values, corr, following
        return candidate, candidate_resid

    return _descend(data, config, T, accelerated_step)


def _next_momentum(t):
    # t_{k+1} of Beck & Teboulle (2009).  The step from x_k extrapolates
    # by beta = (t_k - 1) / t_{k+1}; from t_0 = 0 (so t_1 = 1) the first
    # two steps are plain, and so are the two after each restart.
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def solve_lasso_baseline(data, lam, max_iterations=SolverConfig.max_iterations,
                         kkt_tolerance=SolverConfig.kkt_tolerance):
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
