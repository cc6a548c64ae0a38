import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtgl.assumptions import (
    _least_squares_completion,
    _quotient,
    _row_gram_inverse,
    coherence_admissible,
    gram_diagnostics,
    largest_gram_eigenvalue,
    minimize_re_quotient,
    re_lower_bound_from_coherence,
    re_upper_estimate,
    task_grams,
)
from mtgl.model import MultiTaskDataset, objective
from mtgl.solver import SolverConfig, solve_group_lasso
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


def _unit_columns(X):
    n = X.shape[0]
    return X * (math.sqrt(n) / np.linalg.norm(X, axis=0))


def _two_column_design(n, corr, seed):
    """Single-task design whose two unit columns have sample correlation corr."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    b -= (a @ b) * a
    b /= np.linalg.norm(b)
    x2 = corr * a + math.sqrt(1.0 - corr**2) * b
    X = math.sqrt(n) * np.column_stack([a, x2])
    return MultiTaskDataset(X[None], np.zeros((1, n)))


def _design_with_gram(n, gram, T, seed):
    """T tasks whose Grams X_t^T X_t / n all equal ``gram`` exactly:
    X_t = sqrt(n) * Q_t * L^T with gram = L L^T and Q_t orthonormal."""
    rng = np.random.default_rng(seed)
    lower = np.linalg.cholesky(gram)
    tasks = []
    for _ in range(T):
        q, _ = np.linalg.qr(rng.standard_normal((n, gram.shape[0])))
        tasks.append(math.sqrt(n) * q @ lower.T)
    return np.array(tasks)


def _orthogonal_dataset(seed, T=2, n=24, M=6):
    design = DesignSpec(kind="orthogonal", n=n, M=M, T=T)
    data, _ = generate_dataset(design, SignalSpec(s=0), NoiseSpec(sigma=0.0), seed)
    return data


# ---------------------------------------------------------------------------
# gram diagnostics

def test_orthogonal_design_diagnostics():
    report = gram_diagnostics(_orthogonal_dataset(0))
    assert report.max_coherence <= 1e-10
    assert report.phi_max == pytest.approx(1.0, abs=1e-9)
    assert report.unit_diagonal_max_deviation <= 1e-10


def test_two_column_correlation_is_coherence():
    # explicit construction: coherence equals the planted sample correlation
    data = _two_column_design(50, 0.3, seed=1)
    report = gram_diagnostics(data)
    assert report.max_coherence == pytest.approx(0.3, abs=1e-12)
    assert report.unit_diagonal_max_deviation <= 1e-12


def test_sign_design_c_prime_is_one():
    rng = np.random.default_rng(2)
    X = rng.choice([-1.0, 1.0], size=(3, 20, 5))
    data = MultiTaskDataset(X, np.zeros((3, 20)))
    report = gram_diagnostics(data)
    assert report.c_prime == pytest.approx(1.0, abs=1e-15)


def test_c_prime_formula_matches_loop():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 7, 4))
    data = MultiTaskDataset(X, np.zeros((2, 7)))
    report = gram_diagnostics(data)
    total = 0.0
    for t in range(2):
        for i in range(7):
            total += max(X[t, i, j] ** 2 for j in range(4))
    assert report.c_prime == pytest.approx(total / 14.0, rel=1e-14)


def test_gram_diagnostics_rejects_zero_design():
    data = MultiTaskDataset(np.zeros((1, 4, 2)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        gram_diagnostics(data)


def test_phi_max_lower_bounded_by_diagonal():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2, 12, 5)) * rng.uniform(0.5, 2.0)
        data = MultiTaskDataset(X, np.zeros((2, 12)))
        report = gram_diagnostics(data)
        assert report.phi_max >= 1.0 - report.unit_diagonal_max_deviation - 1e-6


def _reference_diagnostics(data):
    """Plain NumPy reference: einsum Grams of all tasks, dense eigvalsh."""
    X = data.designs
    grams = np.einsum("tni,tnj->tij", X, X) / data.n
    diags = np.einsum("tjj->tj", grams)
    off = np.abs(grams - np.einsum("tj,jk->tjk", diags, np.eye(data.M)))
    return {
        "unit_dev": float(np.max(np.abs(diags - 1.0))),
        "coherence": float(np.max(off)),
        "phi_max": max(float(np.linalg.eigvalsh(g)[-1]) for g in grams),
        "c_prime": float(np.mean(np.max(X**2, axis=2))),
    }


@pytest.mark.parametrize(
    "design",
    [
        DesignSpec(kind="gaussian-iid", n=40, M=12, T=3),
        DesignSpec(kind="gaussian-iid", n=15, M=30, T=2),
        DesignSpec(kind="ar1", n=50, M=20, T=3, rho=0.6),
        DesignSpec(kind="orthogonal", n=32, M=16, T=4),
    ],
    ids=["gaussian", "gaussian-wide", "ar1", "orthogonal"],
)
def test_diagnostics_match_plain_reference(design):
    for seed in range(3):
        data, _ = generate_dataset(design, SignalSpec(s=0), NoiseSpec(sigma=0.0), seed)
        report = gram_diagnostics(data)
        ref = _reference_diagnostics(data)
        assert report.unit_diagonal_max_deviation == pytest.approx(
            ref["unit_dev"], abs=1e-12
        )
        assert report.max_coherence == pytest.approx(ref["coherence"], abs=1e-12)
        assert report.c_prime == pytest.approx(ref["c_prime"], abs=1e-12)
        assert report.phi_max == pytest.approx(ref["phi_max"], rel=1e-10)


# ---------------------------------------------------------------------------
# largest Gram eigenvalue

def test_largest_gram_eigenvalue_matches_dense_eig():
    # n = 15 rows; M from 2 to 30 covers both the M x M and the n x n route
    for seed in range(10):
        rng = np.random.default_rng(seed)
        M = rng.integers(2, 9) if seed < 5 else rng.integers(16, 31)
        T = rng.integers(1, 4)
        X = rng.standard_normal((T, 15, M))
        data = MultiTaskDataset(X, np.zeros((T, 15)))
        grams = np.einsum("tni,tnj->tij", X, X) / 15
        top = max(np.linalg.eigvalsh(g)[-1] for g in grams)
        assert largest_gram_eigenvalue(data) == pytest.approx(top, rel=1e-10)
        assert gram_diagnostics(data).phi_max == pytest.approx(top, rel=1e-10)


def test_largest_gram_eigenvalue_on_fixed_matrix():
    X = _design_with_gram(20, np.diag([1.0, 3.0, 0.5]), T=1, seed=0)
    data = MultiTaskDataset(X, np.zeros((1, 20)))
    assert largest_gram_eigenvalue(data) == pytest.approx(3.0, rel=1e-12)


def test_largest_gram_eigenvalue_rank_deficient():
    # rank one: X = u v^T has the single nonzero eigenvalue |u|^2 |v|^2 / n,
    # reached by both the M x M (M=4 <= n) and the n x n (M=40 > n) route
    rng = np.random.default_rng(1)
    u = rng.standard_normal(10)
    for M in (4, 40):
        v = rng.standard_normal(M)
        data = MultiTaskDataset(np.outer(u, v)[None], np.zeros((1, 10)))
        expected = float(u @ u) * float(v @ v) / 10
        assert largest_gram_eigenvalue(data) == pytest.approx(expected, rel=1e-12)
    # duplicated columns: rank 3 of 5
    base = rng.standard_normal((12, 3))
    X = np.column_stack([base, base[:, :2]])[None]
    dense = np.linalg.eigvalsh(X[0].T @ X[0] / 12)[-1]
    data = MultiTaskDataset(X, np.zeros((1, 12)))
    assert largest_gram_eigenvalue(data) == pytest.approx(dense, rel=1e-10)


def test_phi_max_of_anticorrelated_pair():
    # Gram [[1, -0.8], [-0.8, 1]] has eigenvalues 1.8 and 0.2; an iteration
    # started on (1, 1)/sqrt(2) sits on the 0.2 eigenvector and stops there.
    n, T = 40, 3
    X = _design_with_gram(n, np.array([[1.0, -0.8], [-0.8, 1.0]]), T, seed=2)
    rng = np.random.default_rng(3)
    beta = np.array([[1.0, -0.5, 0.8], [0.6, 0.3, -1.0]])
    Y = np.einsum("tnm,mt->tn", X, beta) + 0.1 * rng.standard_normal((T, n))
    data = MultiTaskDataset(X, Y)
    assert largest_gram_eigenvalue(data) == pytest.approx(1.8, abs=1e-12)
    assert gram_diagnostics(data).phi_max == pytest.approx(1.8, abs=1e-12)

    lam = 0.05
    pg = solve_group_lasso(
        data, SolverConfig(lam=lam, algorithm="proximal-gradient", max_iterations=20000)
    )
    bcd = solve_group_lasso(data, SolverConfig(lam=lam, max_iterations=20000))
    assert pg.converged and bcd.converged
    assert objective(data, pg.beta_hat, lam) == pytest.approx(
        objective(data, bcd.beta_hat, lam), rel=1e-9, abs=1e-12
    )


# ---------------------------------------------------------------------------
# coherence admissibility

def test_admissibility_thresholds():
    report = gram_diagnostics(_orthogonal_dataset(4))
    assert coherence_admissible(report, 5, 8.0)

    # 0.01 <= 1/(7*2*2) ~= 0.0357 -> admissible; 0.05 is not
    ok = gram_diagnostics(_two_column_design(10000, 0.01, seed=5))
    assert ok.max_coherence == pytest.approx(0.01, abs=1e-12)
    assert coherence_admissible(ok, 2, 2.0)
    bad = gram_diagnostics(_two_column_design(10000, 0.05, seed=6))
    assert not coherence_admissible(bad, 2, 2.0)

    with pytest.raises(ValueError):
        coherence_admissible(ok, 0, 2.0)
    with pytest.raises(ValueError):
        coherence_admissible(ok, 2, 1.0)


def test_admissibility_monotone():
    report = gram_diagnostics(_two_column_design(5000, 0.012, seed=7))
    for s in (1, 2, 4, 8):
        for alpha in (1.5, 2.0, 4.0):
            if coherence_admissible(report, s, alpha):
                for s2 in range(1, s + 1):
                    for alpha2 in (a for a in (1.5, 2.0, 4.0) if a <= alpha):
                        assert coherence_admissible(report, s2, alpha2)


def test_non_unit_diagonal_is_inadmissible():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((1, 30, 3)) * 2.0
    report = gram_diagnostics(MultiTaskDataset(X, np.zeros((1, 30))))
    assert not coherence_admissible(report, 1, 100.0)


# ---------------------------------------------------------------------------
# RE bounds

def test_re_lower_bound_formula():
    assert re_lower_bound_from_coherence(2.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert re_lower_bound_from_coherence(1e12) == pytest.approx(1.0, abs=1e-9)
    assert re_lower_bound_from_coherence(1.0 + 1e-9) < 1e-4
    with pytest.raises(ValueError):
        re_lower_bound_from_coherence(1.0)


def test_identity_gram_estimate_is_one():
    data = _orthogonal_dataset(9, T=2, n=20, M=5)
    estimate = re_upper_estimate(data, 2, 60, seed=0)
    # true kappa is exactly 1; a probe supported inside J attains it
    assert estimate == pytest.approx(1.0, abs=1e-9)
    assert estimate >= 1.0 - 1e-9


def _duplicate_column_dataset():
    rng = np.random.default_rng(10)
    col = rng.standard_normal(40)
    X = _unit_columns(np.column_stack([col, col, rng.standard_normal(40)]))
    return MultiTaskDataset(X[None], np.zeros((1, 40)))


def test_duplicate_column_gives_near_zero():
    # directions canceling the duplicated pair live in the cone for s=1
    assert re_upper_estimate(_duplicate_column_dataset(), 1, 80, seed=0) <= 1e-6


def test_estimate_dominates_coherence_bound():
    # Lemma guarantee: whenever the coherence route certifies (s, alpha),
    # the sampled upper estimate cannot fall below sqrt(1 - 1/alpha).
    data = _two_column_design(8000, 0.015, seed=11)
    report = gram_diagnostics(data)
    for s, alpha in ((1, 2.0), (1, 4.0), (2, 2.0)):
        if coherence_admissible(report, s, alpha):
            upper = re_upper_estimate(data, s, 60, seed=3)
            assert upper >= re_lower_bound_from_coherence(alpha) - 1e-9


def test_estimate_nonincreasing_in_s():
    rng = np.random.default_rng(12)
    X = _unit_columns(rng.standard_normal((35, 7)))
    data = MultiTaskDataset(X[None], np.zeros((1, 35)))
    estimates = [re_upper_estimate(data, s, 50, seed=4) for s in (1, 2, 3, 4)]
    for bigger_s, smaller_s in zip(estimates[1:], estimates):
        assert bigger_s <= smaller_s + 1e-12


def test_re_probe_reports_feasible_direction():
    rng = np.random.default_rng(13)
    X = _unit_columns(rng.standard_normal((30, 6)))
    data = MultiTaskDataset(X[None], np.zeros((1, 30)))
    probe = minimize_re_quotient(data, 2, 40, seed=5)
    values = probe.direction.values
    row_norms = np.linalg.norm(values, axis=1)
    inside = sum(row_norms[j] for j in probe.support)
    outside = sum(row_norms[j] for j in range(6) if j not in probe.support)
    assert len(probe.support) <= 2
    assert inside > 0
    assert outside <= 3.0 * inside + 1e-9
    # reported ratio is the actual quotient of the reported direction
    fit = np.einsum("tnm,mt->tn", data.designs, values)
    num = math.sqrt(float(np.sum(fit * fit)) / 30)
    den = math.sqrt(sum(row_norms[j] ** 2 for j in probe.support))
    assert probe.ratio == pytest.approx(num / den, rel=1e-10)


def test_re_estimate_deterministic_and_validated():
    data = _orthogonal_dataset(14, T=1, n=16, M=4)
    a = re_upper_estimate(data, 2, 30, seed=7)
    b = re_upper_estimate(data, 2, 30, seed=7)
    assert a == b
    with pytest.raises(ValueError):
        re_upper_estimate(data, 5, 30, seed=7)  # s > M
    with pytest.raises(ValueError):
        re_upper_estimate(data, 0, 30, seed=7)


def test_ar1_population_coherence():
    design = DesignSpec(kind="ar1", n=2000, M=4, T=1, rho=0.3)
    data, _ = generate_dataset(design, SignalSpec(s=0), NoiseSpec(sigma=0.0), 1)
    gram = task_grams(data)[0]
    for j in range(3):
        assert gram[j, j + 1] == pytest.approx(0.3, abs=0.03)
    # two-apart correlation decays to rho^2
    assert gram[0, 2] == pytest.approx(0.09, abs=0.03)
    assert gram[1, 3] == pytest.approx(0.09, abs=0.03)


# ---------------------------------------------------------------------------
# RE probe against a per-task least-squares reference

def _reference_re_search(data, s, samples, seed):
    """The probe search with its polish written as T separate LAPACK
    least-squares solves; returns (ratio, values, support)."""
    X, n, M, T = data.designs, data.n, data.M, data.T
    best = (np.inf, None, None)
    for m in range(1, s + 1):
        for k in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence([seed, m, k]))
            support = np.sort(rng.choice(M, size=m, replace=False))
            others = np.setdiff1d(np.arange(M), support)
            d_sup = rng.standard_normal((m, T))
            l21_sup = float(np.sum(np.linalg.norm(d_sup, axis=1)))
            if l21_sup == 0.0:
                continue
            u = np.einsum("tnj,jt->tn", X[:, :, support], d_sup)
            a = float(np.sum(u * u))
            den = float(np.linalg.norm(d_sup))
            candidates = [(math.sqrt(a / n) / den, np.zeros((others.size, T)))]
            if others.size:
                g = rng.standard_normal((others.size, T))
                factor = rng.uniform(0.0, 3.0)
                l21_off = float(np.sum(np.linalg.norm(g, axis=1)))
                if l21_off > 0.0:
                    g = g * (factor * l21_sup / l21_off)
                v = np.einsum("tnj,jt->tn", X[:, :, others], g)
                b = float(np.sum(u * v))
                dq = float(np.sum(v * v))
                if dq > 0.0:
                    c_max = np.inf if factor == 0.0 else 3.0 / factor
                    c = float(np.clip(-b / dq, -c_max, c_max))
                    q = a + 2.0 * b * c + dq * c * c
                    candidates.append((math.sqrt(max(q, 0.0) / n) / den, c * g))
                w = np.empty((others.size, T))
                for t in range(T):
                    w[:, t] = np.linalg.lstsq(X[t][:, others], -u[t], rcond=None)[0]
                l21_w = float(np.sum(np.linalg.norm(w, axis=1)))
                if l21_w > 0.0:
                    rho = min(1.0, 3.0 * l21_sup / l21_w)
                    diff = u + rho * np.einsum("tnj,jt->tn", X[:, :, others], w)
                    q = float(np.sum(diff * diff))
                    candidates.append((math.sqrt(max(q, 0.0) / n) / den, rho * w))
            for ratio, off in candidates:
                if ratio < best[0]:
                    values = np.zeros((M, T))
                    values[support] = d_sup
                    values[others] = off
                    best = (ratio, values, support)
    _, values, support = best
    fit = np.einsum("tnm,mt->tn", X, values)
    ratio = math.sqrt(float(np.sum(fit * fit)) / n) / float(
        np.linalg.norm(values[support])
    )
    return ratio, values, support


def _count_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def _probe_with_reference(data, s, samples, seed, monkeypatch):
    """The probe, the reference (ratio, values, support), and the number of
    least-squares calls the probe made."""
    reference = _reference_re_search(data, s, samples, seed)
    calls = _count_lstsq(monkeypatch)
    probe = minimize_re_quotient(data, s, samples, seed)
    monkeypatch.undo()
    values = probe.direction.values
    support = np.array(probe.support.indices)
    rows = np.linalg.norm(values, axis=1)
    assert rows[support].sum() > 0
    assert rows.sum() - rows[support].sum() <= 3.0 * rows[support].sum() * (1 + 1e-12)
    assert probe.ratio == _quotient(data, values, support)
    return probe, reference, len(calls)


def _assert_same_probe(probe, reference):
    ratio, values, support = reference
    assert probe.ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)
    assert probe.support.indices == tuple(int(j) for j in support)
    np.testing.assert_allclose(
        probe.direction.values, values, rtol=0, atol=1e-12 * np.abs(values).max()
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_re_probe_matches_lstsq_reference_on_wide_ar1(seed, monkeypatch):
    # n = 30 < M - s: every off-support block is wide, solved through X X^T;
    # its exact completions leave the cone, so the estimate stays near 0.3
    design = DesignSpec(kind="ar1", n=30, M=45, T=3, rho=0.6)
    data, _ = generate_dataset(design, SignalSpec(s=0), NoiseSpec(sigma=0.0), seed)
    probe, reference, calls = _probe_with_reference(data, 3, 15, seed, monkeypatch)
    _assert_same_probe(probe, reference)
    assert probe.ratio > 0.1 and calls == 0


def test_re_probe_matches_lstsq_reference_on_tall_design(monkeypatch):
    # M - s < n: every off-support block is tall, solved through X_o^T X_o
    design = DesignSpec(kind="gaussian-iid", n=40, M=12, T=2)
    data, _ = generate_dataset(design, SignalSpec(s=0), NoiseSpec(sigma=0.0), 3)
    probe, reference, calls = _probe_with_reference(data, 3, 20, 6, monkeypatch)
    _assert_same_probe(probe, reference)
    assert calls == 0


def test_re_probe_matches_lstsq_reference_on_duplicate_columns(monkeypatch):
    # an off-support block holding the duplicated pair is singular and falls
    # back to per-task least squares.  A block holding one copy cancels the
    # other exactly, so both searches end at a quotient of pure round-off,
    # reached by probes that tie there: compare the values absolutely.
    probe, reference, calls = _probe_with_reference(
        _duplicate_column_dataset(), 1, 80, 0, monkeypatch
    )
    assert calls > 0
    assert probe.ratio == pytest.approx(reference[0], rel=0.0, abs=1e-14)


@pytest.mark.parametrize("delta", [
    0.0,     # X_t X_t^T is exactly singular: its inverse raises
    1e-10,   # numerically singular: its inverse is garbage
])
def test_re_probe_matches_lstsq_reference_when_row_gram_is_singular(
    delta, monkeypatch
):
    # rows 0 and 1 of every task differ by delta, so each wide off-support
    # block is numerically rank deficient and must fall back
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 20, 30))
    X[:, 1] = X[:, 0] + delta * rng.standard_normal((2, 30))
    data = MultiTaskDataset(X, np.zeros((2, 20)))
    probe, reference, calls = _probe_with_reference(data, 2, 10, 1, monkeypatch)
    _assert_same_probe(probe, reference)
    assert calls > 0


def _near_collinear_design(n, M, T, delta, seed):
    """Unit-column Gaussian design whose columns 0 and 1 differ by delta."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((T, n, M))
    X[:, :, 1] = X[:, :, 0] + delta * rng.standard_normal((T, n))
    return X * (math.sqrt(n) / np.linalg.norm(X, axis=1, keepdims=True))


@pytest.mark.parametrize("n, others, delta", [
    (40, 10, 1e-6),   # tall block: X_o^T X_o has a pivot of about delta^2
    (40, 10, 1e-9),   # tall block whose Gram is numerically indefinite
    (20, 20, 1e-9),   # square block: X_o X_o^T is numerically singular
    (20, 20, 0.0),    # exact duplicates whose Gram LU meets no zero pivot
])
def test_completion_falls_back_on_near_collinear_off_support_columns(
    n, others, delta, monkeypatch
):
    X = _near_collinear_design(n, others + 2, 3, delta, 1)
    X_o, X_s = X[:, :, :others], X[:, :, others:]
    u = np.random.default_rng(2).standard_normal((3, n))
    reference = np.column_stack(
        [np.linalg.lstsq(x, -r, rcond=None)[0] for x, r in zip(X_o, u)]
    )
    K_inv = _row_gram_inverse(X)
    calls = _count_lstsq(monkeypatch)
    w, image = _least_squares_completion(X, X_s, np.arange(others), K_inv, u)
    assert len(calls) == 3
    np.testing.assert_allclose(w, reference, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(image, np.einsum("tnj,jt->tn", X_o, w), rtol=1e-12, atol=0.0)


@st.composite
def _scaled_designs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    # wide and tall off-support blocks; a nearly square wide block mostly
    # keeps its exact completions outside the cone
    n, M = draw(st.sampled_from([(15, 17), (20, 6)]))
    c = draw(st.floats(0.25, 4.0))
    X = np.random.default_rng(seed).standard_normal((2, n, M))
    return X, c


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_scaled_designs())
def test_property_re_estimate_scales_with_design(problem):
    X, c = problem
    zeros = np.zeros(X.shape[:2])
    base = re_upper_estimate(MultiTaskDataset(X, zeros), 2, 6, seed=1)
    scaled = re_upper_estimate(MultiTaskDataset(c * X, zeros), 2, 6, seed=1)
    assume(base > 1e-3)  # an estimate of pure round-off has no scale
    assert scaled == pytest.approx(c * base, rel=1e-9, abs=0.0)
