import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgl.model import (
    GroupCoefficients,
    MultiTaskDataset,
    group_support,
    objective,
    task_correlations,
    task_fits,
)
from mtgl.regularization import RegularizationPlan
from mtgl.solver import (
    SolverConfig,
    _descend,
    _group_kkt,
    _next_momentum,
    _objective_from_resid,
    block_soft_threshold,
    kkt_residual,
    lasso_kkt_residual,
    solve_group_lasso,
    solve_lasso_baseline,
)
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

# Shrinkage of v=(3,4) at tau=2: scale factor 1 - 2/5 = 0.6.  Frozen after
# checking against numeric minimization of 0.5*||u-v||^2 + tau*||u||
# (scipy.optimize, both a 1-D search along v and an unconstrained 2-D run
# agree to 7 decimals).
BST_EXPECTED = (1.8, 2.4)


def _normalized_design(rng, T, n, M):
    X = rng.standard_normal((T, n, M))
    X *= math.sqrt(n) / np.linalg.norm(X, axis=1, keepdims=True)
    return X


def _orthogonal_design(rng, T, n, M):
    X = np.empty((T, n, M))
    for t in range(T):
        Q, _ = np.linalg.qr(rng.standard_normal((n, M)))
        X[t] = math.sqrt(n) * Q
    return X


def _dataset(rng, T=4, n=30, M=10, orthogonal=False):
    make = _orthogonal_design if orthogonal else _normalized_design
    X = make(rng, T, n, M)
    y = rng.standard_normal((T, n))
    return MultiTaskDataset(X, y)


# ---------------------------------------------------------------------------
# block soft threshold

def test_block_soft_threshold_values():
    np.testing.assert_allclose(
        block_soft_threshold(np.array([3.0, 4.0]), 2.0), BST_EXPECTED, rtol=1e-15
    )
    np.testing.assert_array_equal(
        block_soft_threshold(np.array([3.0, 4.0]), 5.0), [0.0, 0.0]
    )
    v = np.array([0.3, -1.2, 0.0])
    np.testing.assert_array_equal(block_soft_threshold(v, 0.0), v)


def test_block_soft_threshold_is_prox():
    # output minimizes 0.5*||u-v||^2 + tau*||u|| against a sampled cloud
    for seed in range(10):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4)
        tau = float(rng.uniform(0.1, 2.0))
        u = block_soft_threshold(v, tau)
        best = 0.5 * np.sum((u - v) ** 2) + tau * np.linalg.norm(u)
        for _ in range(200):
            cand = u + rng.standard_normal(4) * rng.uniform(0.001, 1.0)
            val = 0.5 * np.sum((cand - v) ** 2) + tau * np.linalg.norm(cand)
            assert best <= val + 1e-12


def test_block_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        block_soft_threshold(np.array([1.0]), -0.1)


# ---------------------------------------------------------------------------
# group solver

def test_zero_response_gives_zero_solution():
    rng = np.random.default_rng(0)
    X = _normalized_design(rng, 3, 20, 6)
    data = MultiTaskDataset(X, np.zeros((3, 20)))
    for lam in (0.01, 1.0):
        res = solve_group_lasso(data, SolverConfig(lam=lam))
        np.testing.assert_array_equal(res.beta_hat.values, np.zeros((6, 3)))
        assert res.converged


def test_orthogonal_closed_form_both_algorithms():
    rng = np.random.default_rng(1)
    data = _dataset(rng, T=4, n=32, M=8, orthogonal=True)
    lam = 0.37
    z = np.einsum("tnm,tn->mt", data.designs, data.responses) / data.n
    expected = np.vstack(
        [block_soft_threshold(z[j], lam * data.T) for j in range(data.M)]
    )
    for algorithm in ("block-coordinate", "proximal-gradient"):
        res = solve_group_lasso(
            data, SolverConfig(lam=lam, algorithm=algorithm, max_iterations=500)
        )
        assert res.converged
        np.testing.assert_allclose(res.beta_hat.values, expected, atol=1e-8)


def test_algorithms_agree_on_general_design():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = _dataset(rng, T=3, n=40, M=12)
        lam = float(rng.uniform(0.05, 0.5))
        bcd = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=3000))
        pg = solve_group_lasso(
            data,
            SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=20000),
        )
        assert bcd.converged and pg.converged
        assert objective(data, bcd.beta_hat, lam) == pytest.approx(
            objective(data, pg.beta_hat, lam), rel=1e-9, abs=1e-12
        )


def test_zero_solution_threshold():
    # beta_hat = 0 exactly iff lam >= max_j ||(X^T y)^j|| / (nT); brute-force
    # objective grid on a 2-variable instance agrees with the KKT cutoff.
    rng = np.random.default_rng(2)
    data = _dataset(rng, T=1, n=15, M=2)
    corr = np.einsum("tnm,tn->mt", data.designs, data.responses) / data.n
    cutoff = float(np.max(np.linalg.norm(corr, axis=1)))

    above = solve_group_lasso(data, SolverConfig(lam=cutoff * 1.0001))
    np.testing.assert_array_equal(above.beta_hat.values, np.zeros((2, 1)))
    below = solve_group_lasso(data, SolverConfig(lam=cutoff * 0.99))
    assert np.linalg.norm(below.beta_hat.values) > 0

    grid = np.linspace(-1.0, 1.0, 201)
    b0, b1 = np.meshgrid(grid, grid, indexing="ij")
    X, y = data.designs[0], data.responses[0]
    fits = X[:, 0][:, None, None] * b0 + X[:, 1][:, None, None] * b1
    sq = np.sum((fits - y[:, None, None]) ** 2, axis=0) / data.n
    for lam, expect_zero in ((cutoff * 1.0001, True), (cutoff * 0.5, False)):
        vals = sq + 2.0 * lam * (np.abs(b0) + np.abs(b1))
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        is_zero = grid[i] == 0.0 and grid[j] == 0.0
        assert is_zero == expect_zero


def test_kkt_residual_semantics():
    rng = np.random.default_rng(3)
    data = _dataset(rng, T=3, n=25, M=6)

    # orthogonal-to-y columns -> 0 residual at beta = 0
    X = data.designs.copy()
    y_perp = np.zeros((3, 25))
    data_perp = MultiTaskDataset(X, y_perp)
    assert kkt_residual(data_perp, GroupCoefficients.zeros(6, 3), 0.5) == 0.0

    # beta = 0 with lam below the max correlation -> strictly positive
    corr = np.einsum("tnm,tn->mt", data.designs, data.responses) / (25 * 3)
    max_corr = float(np.max(np.linalg.norm(corr, axis=1)))
    resid = kkt_residual(data, GroupCoefficients.zeros(6, 3), 0.5 * max_corr)
    assert resid == pytest.approx(0.5 * max_corr, rel=1e-12)

    res = solve_group_lasso(data, SolverConfig(lam=0.2, kkt_tolerance=1e-9))
    assert res.converged
    assert kkt_residual(data, res.beta_hat, 0.2) <= 1e-9


def test_converged_solution_beats_perturbations():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = _dataset(rng, T=2, n=30, M=8)
        lam = 0.15
        res = solve_group_lasso(data, SolverConfig(lam=lam, kkt_tolerance=1e-10))
        assert res.converged
        base = objective(data, res.beta_hat, lam)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-3, 0)
            step = rng.standard_normal((8, 2))
            cand = GroupCoefficients(res.beta_hat.values + scale * step)
            assert base <= objective(data, cand, lam) + 1e-12


def test_objective_trace_monotone():
    for algorithm in ("block-coordinate", "proximal-gradient"):
        rng = np.random.default_rng(11)
        data = _dataset(rng, T=3, n=40, M=10)
        res = solve_group_lasso(
            data, SolverConfig(lam=0.1, algorithm=algorithm, max_iterations=5000)
        )
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert res.iterations == len(trace) - 1 or res.iterations == len(trace)


def test_iteration_cap():
    rng = np.random.default_rng(4)
    data = _dataset(rng, T=2, n=20, M=6)
    capped = solve_group_lasso(
        data, SolverConfig(lam=0.05, max_iterations=1, kkt_tolerance=1e-14)
    )
    assert capped.iterations == 1 and not capped.converged


def test_a_step_that_raises_the_objective_aborts_the_solve():
    # every step adds 1 to each coefficient, so the objective rises at the
    # first one and the solve stops there instead of spending its budget
    rng = np.random.default_rng(4)
    data = _dataset(rng, T=2, n=20, M=6)
    config = SolverConfig(lam=0.5 * _lam_max(data), max_iterations=5)

    def uphill(values, resid, corr, objective):
        return values + 1.0, None

    with pytest.raises(RuntimeError, match="solver diverged"):
        _descend(data, config, data.T, uphill)


def test_block_coordinate_converges_on_unnormalized_design():
    # Per-task column scales in [0.2, 5], so a group's Gram diagonal
    # entries differ by up to 625x; column 5 is zero in every task and
    # column 9 only in the first.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 40, 30)) * rng.uniform(0.2, 5.0, size=(3, 1, 30))
    X[:, :, 5] = 0.0
    X[0, :, 9] = 0.0
    data = MultiTaskDataset(X, rng.standard_normal((3, 40)))
    for fraction in (0.5, 0.1):
        lam = fraction * _lam_max(data)
        bcd = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=5000))
        pg = solve_group_lasso(
            data,
            SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=50000),
        )
        assert bcd.converged and pg.converged
        assert kkt_residual(data, bcd.beta_hat, lam) <= 1e-8
        assert not np.any(bcd.beta_hat.values[5])
        assert objective(data, bcd.beta_hat, lam) == pytest.approx(
            objective(data, pg.beta_hat, lam), rel=1e-9
        )


# ---------------------------------------------------------------------------
# working-set block-coordinate descent against a full-cyclic reference

def _full_cyclic_bcd(data, lam, kkt_tolerance=1e-8, max_sweeps=5000):
    """Plain group BCD: every sweep updates all M groups, einsum products,
    and stops on the group KKT residual of a residual rebuilt per sweep."""
    X, Y = data.designs, data.responses
    n, T, M = data.n, data.T, data.M
    values = np.zeros((M, T))
    resid = Y.copy()
    for _ in range(max_sweeps):
        corr = np.einsum("tnm,tn->mt", X, resid) / (n * T)
        norms = np.linalg.norm(values, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        active_gap = np.linalg.norm(corr - lam * values / safe[:, None], axis=1)
        zero_gap = np.maximum(np.linalg.norm(corr, axis=1) - lam, 0.0)
        if np.max(np.where(norms > 0, active_gap, zero_gap)) <= kkt_tolerance:
            return values
        for j in range(M):
            z = np.einsum("tn,tn->t", X[:, :, j], resid) / n + values[j]
            norm = np.linalg.norm(z)
            new_row = (1.0 - lam * T / norm) * z if norm > lam * T else np.zeros(T)
            resid -= X[:, :, j] * (new_row - values[j])[:, None]
            values[j] = new_row
        resid = Y - np.einsum("tnm,mt->tn", X, values)
    raise AssertionError("reference BCD did not converge")


def _ar1_dataset(seed=0):
    # Correlated columns with M > n, so many groups stay zero and the
    # working set is a strict subset of the M groups.
    design = DesignSpec(kind="ar1", n=30, M=60, T=3, rho=0.6)
    data, _ = generate_dataset(
        design, SignalSpec(s=6, amplitude="gaussian"), NoiseSpec(), seed
    )
    return data


def _lam_max(data):
    corr = np.einsum("tnm,tn->mt", data.designs, data.responses)
    return float(np.max(np.linalg.norm(corr, axis=1))) / (data.n * data.T)


@pytest.mark.parametrize("fraction", [0.5, 0.2, 0.08])
def test_working_set_matches_full_cyclic_reference(fraction):
    data = _ar1_dataset()
    lam = fraction * _lam_max(data)
    expected = _full_cyclic_bcd(data, lam)
    res = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=5000))
    assert res.converged and res.kkt_residual <= 1e-8
    np.testing.assert_allclose(
        np.linalg.norm(res.beta_hat.values, axis=1),
        np.linalg.norm(expected, axis=1),
        rtol=0,
        atol=1e-7,
    )
    assert objective(data, res.beta_hat, lam) == pytest.approx(
        objective(data, GroupCoefficients(expected), lam), rel=1e-9
    )


def test_single_sweep_budget_on_correlated_design():
    data = _ar1_dataset()
    lam = 0.08 * _lam_max(data)
    res = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=1))
    assert res.iterations <= 1
    assert not res.converged
    assert len(res.objective_trace) == res.iterations + 1


@pytest.mark.parametrize("algorithm", ["block-coordinate", "proximal-gradient"])
def test_solve_leaves_designs_untouched(algorithm):
    data = _ar1_dataset()
    names = ("c_contiguous", "f_contiguous", "owndata", "writeable", "aligned")
    before = data.designs.tobytes()
    flags = [getattr(data.designs.flags, name) for name in names]
    solve_group_lasso(
        data, SolverConfig(lam=0.2 * _lam_max(data), algorithm=algorithm)
    )
    assert data.designs.tobytes() == before
    assert [getattr(data.designs.flags, name) for name in names] == flags
    assert data.designs.shape == (data.T, data.n, data.M)


def _reference_row_loop_sweep(data, lam, width):
    """The coordinate sweep with the row update written out plainly: a
    fresh ``row + c * scale`` vector, a rank update only when some entry
    changed, and a new ``cols * delta`` product per row."""
    M, n = data.M, data.n
    G = np.ascontiguousarray(data.designs.transpose(2, 0, 1))
    curvature = (np.einsum("jtn,jtn->jt", G, G) / n).reshape(M, -1, width).max(axis=2)
    step = 1.0 / np.where(curvature > 0, curvature, 1.0)
    thresh = lam * data.T * step
    scale = step / n
    if width > 1:
        scale, thresh = scale[:, 0].tolist(), thresh[:, 0].tolist()

    def sweep(values, resid, corr, objective):
        violated = np.linalg.norm(corr.reshape(-1, width), axis=1) > lam
        nonzero = (values != 0.0).any(axis=1)
        working = np.flatnonzero(nonzero | violated.reshape(M, -1).any(axis=1))
        for j in working.tolist():
            cols, row = G[j], values[j]
            v = row + np.vecdot(cols, resid) * scale[j]
            if width == 1:
                v = v - np.minimum(np.maximum(v, -thresh[j]), thresh[j])
            else:
                norm = math.sqrt(v.dot(v))
                if norm > thresh[j]:
                    v *= 1.0 - thresh[j] / norm
                elif nonzero[j]:
                    v[:] = 0.0
                else:
                    continue
            delta = v - row
            if np.count_nonzero(delta):
                resid -= cols * delta[:, None]
                row[:] = v
        return values, None

    return sweep


def _unnormalized_dataset_with_zero_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 25, 12)) * rng.uniform(0.2, 5.0, size=(3, 1, 12))
    X[:, :, 4] = 0.0
    return MultiTaskDataset(X, rng.standard_normal((3, 25)))


@pytest.mark.parametrize("design", ["ar1", "unnormalized"])
@pytest.mark.parametrize("width", ["group", "entrywise"])
def test_coordinate_sweep_is_bit_identical_to_plain_row_loop(design, width):
    data = _ar1_dataset() if design == "ar1" else _unnormalized_dataset_with_zero_column()
    for fraction in (0.5, 0.2, 0.08):
        lam = fraction * _lam_max(data)
        config = SolverConfig(lam=lam, max_iterations=20000)
        if width == "group":
            res = solve_group_lasso(data, config)
            group_width = data.T
        else:
            res = solve_lasso_baseline(data, lam, max_iterations=20000)
            group_width = 1
        ref = _descend(
            data, config, group_width, _reference_row_loop_sweep(data, lam, group_width)
        )
        assert res.converged and ref.converged
        assert res.iterations == ref.iterations
        assert np.array_equal(res.beta_hat.values, ref.beta_hat.values)
        assert res.objective_trace == ref.objective_trace


# (design, signal, fraction of the gaussian rule's lambda at A = 9)
_ROW_READ_SOLVES = {
    # a replicate of the certified orthogonal run: the sweeps visit the
    # few rows of the support
    "orthogonal-support": (DesignSpec(kind="orthogonal", n=400, M=200, T=8),
                           SignalSpec(s=4), 1.0),
    # the smallest-lambda solve of the AR(1) file fit, whose sweeps visit
    # nearly every row
    "ar1-full": (DesignSpec(kind="ar1", n=150, M=500, T=8, rho=0.6),
                 SignalSpec(s=20, amplitude="gaussian"), 0.05),
}


@pytest.mark.parametrize("case", sorted(_ROW_READ_SOLVES))
def test_block_coordinate_solve_copies_no_design_rows(case):
    # The sweep reads each row's columns in place in the design store,
    # so a solve holds no copy of the design, however many rows it visits.
    design, signal, fraction = _ROW_READ_SOLVES[case]
    data, _ = generate_dataset(design, signal, NoiseSpec(), 0)
    lam = fraction * RegularizationPlan("gaussian", 1.0, data.n, data.T, data.M, 9.0).lam
    solve_group_lasso(_ar1_dataset(), SolverConfig(lam=0.5))  # first-call imports
    tracemalloc.start()
    try:
        result = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=5000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < 0.1 * data.designs.nbytes


# ---------------------------------------------------------------------------
# accelerated proximal gradient

# Fixed-step proximal gradient (step T/(2*phi_max), no momentum) took this
# many steps on _ar1_dataset() at these fractions of lam_max.
_FIXED_STEP_COUNTS = {0.2: 462, 0.08: 852}


@pytest.mark.parametrize("fraction", sorted(_FIXED_STEP_COUNTS))
def test_accelerated_pg_converges_monotonically_in_half_the_fixed_steps(fraction):
    data = _ar1_dataset()
    lam = fraction * _lam_max(data)
    pg = solve_group_lasso(
        data, SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=5000)
    )
    bcd = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=5000))
    assert pg.converged and pg.kkt_residual <= 1e-8
    trace = np.array(pg.objective_trace)
    assert len(trace) == pg.iterations + 1
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])
    assert objective(data, pg.beta_hat, lam) == pytest.approx(
        objective(data, bcd.beta_hat, lam), rel=1e-9
    )
    assert pg.iterations <= _FIXED_STEP_COUNTS[fraction] // 2


def _restarted_fista_reference(data, lam, steps):
    """FISTA (Beck & Teboulle 2009) written out plainly, with t_1 = 1 and
    y_1 = x_0: x_k = pg(y_k), y_{k+1} = x_k + (t_k - 1)/t_{k+1} (x_k - x_{k-1}),
    the gradient at y computed from its own residual.  An extrapolated
    x_k whose objective exceeds that of x_{k-1} is replaced by pg(x_{k-1})
    and the method starts afresh from x_{k-1} (O'Donoghue & Candes 2015).
    Returns the objective of x_0 and of each step, and the restarts."""
    X, Y, n, T = data.designs, data.responses, data.n, data.T
    phi_max = max(np.linalg.eigvalsh(X[t].T @ X[t] / n)[-1] for t in range(T))
    step = T / (2.0 * phi_max)

    def pg(B):
        resid = Y - np.einsum("tnm,mt->tn", X, B)
        forward = B + 2.0 * step * np.einsum("tnm,tn->mt", X, resid) / (n * T)
        norms = np.linalg.norm(forward, axis=1, keepdims=True)
        shrink = np.maximum(1.0 - 2.0 * step * lam / np.maximum(norms, 1e-300), 0.0)
        return forward * shrink

    def F(B):
        return objective(data, GroupCoefficients(B), lam)

    x = y = np.zeros((data.M, T))
    t, extrapolated = 1.0, False
    trace, restarts = [F(x)], 0
    for _ in range(steps):
        x_next = pg(y)
        if extrapolated and F(x_next) > trace[-1]:
            restarts += 1
            x_next, t = pg(x), 1.0
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x_next + (t - 1.0) / t_next * (x_next - x)
        x, t, extrapolated = x_next, t_next, t > 1.0
        trace.append(F(x))
    return trace, restarts


def test_accelerated_pg_follows_restarted_fista_reference():
    data = _ar1_dataset()
    lam = 0.2 * _lam_max(data)
    steps = 60
    expected, restarts = _restarted_fista_reference(data, lam, steps)
    assert restarts >= 2
    pg = solve_group_lasso(
        data,
        SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=steps),
    )
    assert pg.iterations == steps
    np.testing.assert_allclose(pg.objective_trace, expected, rtol=1e-12, atol=0)


def _pg_rebuilding_every_residual(data, config):
    """Restarted FISTA with every residual rebuilt: the driver forms
    Y - X B for each accepted iterate, and the step recomputes the
    current objective, as the solver did before the driver took an
    extrapolated step's residual.  Returns (values, iterations, kkt,
    trace)."""
    from mtgl.assumptions import largest_gram_eigenvalue

    X, Y, lam, T = data.designs, data.responses, config.lam, data.T
    step = T / (2.0 * largest_gram_eigenvalue(data))
    prox_tau = step * 2.0 * lam
    values = np.zeros((data.M, T))
    prev = prev_corr = None
    momentum = 0.0
    trace, iterations = [], 0
    while True:
        resid = Y - task_fits(X, values)
        trace.append(_objective_from_resid(resid, values, lam, T))
        corr = task_correlations(X, resid) / (data.n * T)
        kkt = _group_kkt(corr, values, lam, T)
        if kkt <= config.kkt_tolerance or iterations >= config.max_iterations:
            return values, iterations, kkt, tuple(trace)
        following = _next_momentum(momentum)
        beta = (momentum - 1.0) / following
        candidate = None
        if beta > 0.0:
            z = values + beta * (values - prev)
            z_corr = corr + beta * (corr - prev_corr)
            candidate = block_soft_threshold(z + 2.0 * step * z_corr, prox_tau)
            rises = _objective_from_resid(
                Y - task_fits(X, candidate), candidate, lam, T
            ) > _objective_from_resid(resid, values, lam, T)
            if rises:
                candidate, following = None, _next_momentum(0.0)
        if candidate is None:
            candidate = block_soft_threshold(values + 2.0 * step * corr, prox_tau)
        prev, prev_corr, momentum = values, corr, following
        values = candidate
        iterations += 1


@pytest.mark.parametrize("design", ["ar1", "unnormalized"])
def test_pg_reusing_step_residuals_is_bit_identical(design):
    data = _ar1_dataset() if design == "ar1" else _unnormalized_dataset_with_zero_column()
    for fraction in (0.5, 0.2, 0.08):
        config = SolverConfig(
            lam=fraction * _lam_max(data), algorithm="proximal-gradient",
            max_iterations=20000,
        )
        res = solve_group_lasso(data, config)
        values, iterations, kkt, trace = _pg_rebuilding_every_residual(data, config)
        assert res.converged
        assert res.iterations == iterations
        assert np.array_equal(res.beta_hat.values, values)
        assert res.kkt_residual == kkt
        assert res.objective_trace == trace


# ---------------------------------------------------------------------------
# properties on small random designs

_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)


@st.composite
def _problems(draw, T=None):
    seed = draw(st.integers(0, 2**32 - 1))
    T = draw(st.integers(1, 3)) if T is None else T
    n = draw(st.integers(10, 25))
    M = draw(st.integers(2, 8))
    fraction = draw(st.floats(0.1, 0.9))
    data = _dataset(np.random.default_rng(seed), T=T, n=n, M=M)
    return data, fraction * _lam_max(data)


@_PROPERTY_SETTINGS
@given(_problems())
def test_property_bcd_and_pg_agree_in_objective(problem):
    data, lam = problem
    bcd = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=5000))
    pg = solve_group_lasso(
        data,
        SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=50000),
    )
    assert bcd.converged and pg.converged
    assert objective(data, bcd.beta_hat, lam) == pytest.approx(
        objective(data, pg.beta_hat, lam), rel=1e-9
    )


@_PROPERTY_SETTINGS
@given(_problems(), st.integers(0, 2**32 - 1))
def test_property_pg_and_bcd_agree_on_unnormalized_designs(problem, seed):
    # Per-task column scales from U(0.2, 5): the Gram diagonal is far
    # from 1 and PG's momentum restarts on a badly conditioned problem.
    data, fraction_lam = problem
    scales = np.random.default_rng(seed).uniform(0.2, 5.0, size=(data.T, 1, data.M))
    scaled = MultiTaskDataset(data.designs * scales, data.responses)
    lam = fraction_lam / _lam_max(data) * _lam_max(scaled)
    bcd = solve_group_lasso(scaled, SolverConfig(lam=lam, max_iterations=50000))
    pg = solve_group_lasso(
        scaled,
        SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=50000),
    )
    assert bcd.converged and pg.converged
    trace = np.array(pg.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])
    assert objective(scaled, pg.beta_hat, lam) == pytest.approx(
        objective(scaled, bcd.beta_hat, lam), rel=1e-9
    )

@_PROPERTY_SETTINGS
@given(_problems(T=1))
def test_property_single_task_group_bcd_is_lasso(problem):
    data, lam = problem
    group = solve_group_lasso(
        data, SolverConfig(lam=lam, kkt_tolerance=1e-12, max_iterations=20000)
    )
    plain = solve_lasso_baseline(data, lam, max_iterations=20000, kkt_tolerance=1e-12)
    assert group.converged and plain.converged
    np.testing.assert_allclose(
        group.beta_hat.values, plain.beta_hat.values, rtol=0, atol=1e-7
    )


@_PROPERTY_SETTINGS
@given(
    _problems(),
    st.floats(1.0, 4.0),
    st.sampled_from(["block-coordinate", "proximal-gradient"]),
)
def test_property_cold_start_at_lam_max_takes_no_sweep(problem, factor, algorithm):
    # Every solve starts from zero, the minimiser once lam is at least
    # max_j ||X_j^T y|| / (nT): the solve certifies it before any step.
    data, _ = problem
    config = SolverConfig(lam=factor * _lam_max(data), algorithm=algorithm)
    res = solve_group_lasso(data, config)
    assert res.iterations == 0 and res.converged
    np.testing.assert_array_equal(res.beta_hat.values, np.zeros((data.M, data.T)))


@_PROPERTY_SETTINGS
@given(_problems(), st.floats(0.25, 4.0))
def test_property_design_scaling(problem, c):
    # Scaling X by c and lam by c maps the minimiser B to B / c at the
    # same objective; c*X is not unit-diagonal unless c = 1.
    data, lam = problem
    scaled = MultiTaskDataset(c * data.designs, data.responses)
    config = dict(kkt_tolerance=1e-12, max_iterations=20000)
    base = solve_group_lasso(data, SolverConfig(lam=lam, **config))
    other = solve_group_lasso(scaled, SolverConfig(lam=c * lam, **config))
    assert base.converged and other.converged
    assert objective(scaled, other.beta_hat, c * lam) == pytest.approx(
        objective(data, base.beta_hat, lam), rel=1e-9
    )
    np.testing.assert_allclose(
        c * other.beta_hat.values, base.beta_hat.values, rtol=0, atol=1e-7
    )


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    data = _dataset(np.random.default_rng(3), T=2, n=12, M=4)
    zero = GroupCoefficients.zeros(4, 2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(lam=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(lam=1.0, kkt_tolerance=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            solve_lasso_baseline(data, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            solve_lasso_baseline(data, 0.1, kkt_tolerance=bad)
        for residual in (kkt_residual, lasso_kkt_residual):
            with pytest.raises(ValueError, match="finite and positive"):
                residual(data, zero, bad)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, algorithm="newton")
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(lam=1.0, kkt_tolerance=0.0)


# ---------------------------------------------------------------------------
# plain Lasso baseline

def test_lasso_zero_response():
    rng = np.random.default_rng(6)
    X = _normalized_design(rng, 2, 12, 5)
    data = MultiTaskDataset(X, np.zeros((2, 12)))
    res = solve_lasso_baseline(data, 0.2)
    np.testing.assert_array_equal(res.beta_hat.values, np.zeros((5, 2)))


def test_lasso_orthogonal_scalar_soft_threshold():
    rng = np.random.default_rng(7)
    data = _dataset(rng, T=1, n=24, M=6, orthogonal=True)
    lam = 0.3
    res = solve_lasso_baseline(data, lam)
    z = (data.designs[0].T @ data.responses[0]) / data.n
    # scalar subgradient condition: beta = sign(z) * max(|z| - lam*T, 0)
    expected = np.sign(z) * np.maximum(np.abs(z) - lam * 1, 0.0)
    np.testing.assert_allclose(res.beta_hat.values[:, 0], expected, atol=1e-10)
    assert lasso_kkt_residual(data, res.beta_hat, lam) <= 1e-8


def test_group_and_lasso_agree_for_single_task():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = _dataset(rng, T=1, n=30, M=8)
        lam = float(rng.uniform(0.05, 0.4))
        group = solve_group_lasso(data, SolverConfig(lam=lam, kkt_tolerance=1e-12))
        plain = solve_lasso_baseline(data, lam, kkt_tolerance=1e-12)
        np.testing.assert_allclose(
            group.beta_hat.values, plain.beta_hat.values, atol=1e-8
        )


def test_lasso_decomposes_across_tasks():
    rng = np.random.default_rng(8)
    data = _dataset(rng, T=3, n=20, M=5)
    lam = 0.12
    joint = solve_lasso_baseline(data, lam, kkt_tolerance=1e-12)
    for t in range(3):
        single = MultiTaskDataset(data.designs[t : t + 1], data.responses[t : t + 1])
        # the 1/(nT) loss normalization makes the per-task subproblem a
        # single-task Lasso at penalty lam*T
        solo = solve_lasso_baseline(single, lam * data.T, kkt_tolerance=1e-12)
        np.testing.assert_allclose(
            joint.beta_hat.values[:, t], solo.beta_hat.values[:, 0], atol=1e-10
        )


def test_lasso_handles_unnormalized_columns():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 25, 6))
    X[:, :, 0] *= 4.0  # deliberately badly scaled column
    data = MultiTaskDataset(X, rng.standard_normal((2, 25)))
    res = solve_lasso_baseline(data, 0.1, max_iterations=5000)
    assert res.converged
    assert lasso_kkt_residual(data, res.beta_hat, 0.1) <= 1e-8


def _cyclic_entrywise_reference(data, lam, kkt_tolerance=1e-8, max_sweeps=5000):
    """Plain entrywise-Lasso coordinate descent: for each task t, every
    sweep updates all M coordinates with one scalar soft-threshold each,
    dividing by the column's Gram diagonal and skipping zero columns; it
    stops on the entrywise KKT residual of a residual rebuilt per sweep."""
    X, Y = data.designs, data.responses
    n, T, M = data.n, data.T, data.M
    thresh = lam * T
    diag = np.einsum("tnm,tnm->tm", X, X) / n
    values = np.zeros((M, T))
    resid = Y.copy()
    for _ in range(max_sweeps):
        corr = np.einsum("tnm,tn->mt", X, resid) / (n * T)
        active_gap = np.abs(corr - lam * np.sign(values))
        zero_gap = np.maximum(np.abs(corr) - lam, 0.0)
        if np.max(np.where(values != 0.0, active_gap, zero_gap)) <= kkt_tolerance:
            return values
        for t in range(T):
            rt = resid[t]
            for j in range(M):
                d = diag[t, j]
                if d == 0.0:
                    continue
                col = X[t, :, j]
                z = col @ rt / n + d * values[j, t]
                if z > thresh:
                    new = (z - thresh) / d
                elif z < -thresh:
                    new = (z + thresh) / d
                else:
                    new = 0.0
                delta = new - values[j, t]
                if delta != 0.0:
                    rt -= col * delta
                    values[j, t] = new
        resid = Y - np.einsum("tnm,mt->tn", X, values)
    raise AssertionError("reference entrywise descent did not converge")


def _lasso_objective(data, values, lam):
    fits = np.einsum("tnm,mt->tn", data.designs, values)
    fit = np.sum((fits - data.responses) ** 2) / (data.n * data.T)
    return float(fit + 2.0 * lam * np.sum(np.abs(values)))


@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("fraction", [0.5, 0.2, 0.08])
def test_lasso_matches_cyclic_reference_with_scaled_and_zero_columns(T, fraction):
    rng = np.random.default_rng(12)
    X = _normalized_design(rng, T, 30, 12)
    X[:, :, 2] *= 4.0          # d_jt = 16
    # d_jt = 0 in the last task only, so at T = 3 the sweep visits row 7
    # for the other tasks and the zero column's coefficient must stay 0.
    X[-1, :, 7] = 0.0
    data = MultiTaskDataset(X, rng.standard_normal((T, 30)))
    corr = np.einsum("tnm,tn->mt", data.designs, data.responses) / (data.n * T)
    lam = fraction * float(np.max(np.abs(corr)))
    expected = _cyclic_entrywise_reference(data, lam)
    res = solve_lasso_baseline(data, lam, max_iterations=5000)
    assert res.converged
    assert res.beta_hat.values[7, -1] == 0.0
    assert np.any(res.beta_hat.values[2])
    np.testing.assert_allclose(res.beta_hat.values, expected, rtol=0, atol=1e-7)
    assert _lasso_objective(data, res.beta_hat.values, lam) == pytest.approx(
        _lasso_objective(data, expected, lam), rel=1e-9
    )
    assert lasso_kkt_residual(data, res.beta_hat, lam) <= 1e-8


def test_solution_support_is_sane():
    rng = np.random.default_rng(10)
    data = _dataset(rng, T=4, n=40, M=12, orthogonal=True)
    res = solve_group_lasso(data, SolverConfig(lam=0.3))
    # block shrinkage produces exact zeros, so tol=0 support is meaningful
    support = group_support(res.beta_hat, 0.0)
    norms = np.linalg.norm(res.beta_hat.values, axis=1)
    assert set(support) == {j for j in range(12) if norms[j] > 0}


def test_proximal_gradient_rejects_an_all_zero_design():
    data = MultiTaskDataset(np.zeros((2, 4, 3)), np.ones((2, 4)))
    config = SolverConfig(lam=0.1, algorithm="proximal-gradient")
    message = r"design is degenerate \(largest Gram eigenvalue is zero\)"
    with pytest.raises(ValueError, match=message):
        solve_group_lasso(data, config)
