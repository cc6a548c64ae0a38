import functools
import math
import tracemalloc

import numpy as np
import pytest

from mtgl import synth
from mtgl.assumptions import UNIT_DIAGONAL_TOL, gram_diagnostics
from mtgl.model import GroupCoefficients, group_support
from mtgl.synth import (
    DesignSpec,
    NoiseSpec,
    SignalSpec,
    generate_beta_for_selection,
    generate_dataset,
)


def _gen(design, signal=None, noise=None, seed=0):
    signal = signal or SignalSpec(s=2)
    noise = noise or NoiseSpec(sigma=1.0)
    return generate_dataset(design, signal, noise, seed)


def test_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(kind="hadamard", n=10, M=4, T=1)
    with pytest.raises(ValueError):
        DesignSpec(kind="ar1", n=10, M=4, T=1)  # rho required
    with pytest.raises(ValueError):
        DesignSpec(kind="ar1", n=10, M=4, T=1, rho=1.0)
    with pytest.raises(ValueError):
        DesignSpec(kind="orthogonal", n=3, M=4, T=1)  # needs n >= M
    with pytest.raises(ValueError):
        SignalSpec(s=-1)
    with pytest.raises(ValueError):
        SignalSpec(s=1, amplitude="uniform")
    with pytest.raises(ValueError):
        SignalSpec(s=1, mu=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(kind="student-t", sigma=1.0)  # nu required
    with pytest.raises(ValueError):
        NoiseSpec(kind="student-t", sigma=1.0, nu=2.0)  # nu > 2
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1)


@pytest.mark.parametrize(
    "make",
    [
        lambda v: SignalSpec(s=1, mu=v),
        lambda v: SignalSpec(s=1, amplitude="gaussian", scale=v),
        lambda v: SignalSpec(s=1, scale=v),
        lambda v: NoiseSpec(sigma=v),
        lambda v: NoiseSpec(kind="student-t", nu=v),
        lambda v: NoiseSpec(nu=v),
    ],
    ids=["mu", "gaussian-scale", "constant-scale", "sigma", "student-t-nu", "gaussian-nu"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_specs_reject_non_finite_values(make, value):
    # Rejected at construction, before any draw; student-t nu=inf used
    # to give the noise scale sqrt((nu-2)/nu) = nan.
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


def test_normalization_exactness():
    for kind, extra in (("gaussian-iid", {}), ("ar1", {"rho": 0.6})):
        design = DesignSpec(kind=kind, n=37, M=9, T=3, **extra)
        data, _ = _gen(design, seed=1)
        col_sq = np.einsum("tnm,tnm->tm", data.designs, data.designs) / 37
        assert np.max(np.abs(col_sq - 1.0)) <= 1e-12
        assert gram_diagnostics(data).unit_diagonal_max_deviation <= UNIT_DIAGONAL_TOL


def test_normalising_an_all_zero_column_is_rejected():
    design = DesignSpec(kind="gaussian-iid", n=6, M=3, T=2)
    designs = np.random.default_rng(0).standard_normal((2, 6, 3))
    designs[1, :, 2] = 0.0
    with pytest.raises(ValueError, match="all-zero column"):
        synth._shape_designs(designs, design)


def test_orthogonal_gram_is_identity():
    design = DesignSpec(kind="orthogonal", n=40, M=10, T=2)
    data, _ = _gen(design, seed=2)
    for t in range(2):
        gram = data.designs[t].T @ data.designs[t] / 40
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-10)


def test_unnormalized_columns_allowed():
    design = DesignSpec(kind="gaussian-iid", n=30, M=5, T=2, normalize=False)
    data, _ = _gen(design, seed=3)
    assert gram_diagnostics(data).unit_diagonal_max_deviation > UNIT_DIAGONAL_TOL


def test_signal_support_and_amplitude():
    design = DesignSpec(kind="gaussian-iid", n=25, M=12, T=4)
    signal = SignalSpec(s=5, amplitude="constant", mu=1.5)
    data, beta = _gen(design, signal, NoiseSpec(sigma=0.5), seed=4)
    support = group_support(beta, 0.0)
    assert len(support) == 5
    # constant rule: every active entry has magnitude mu in every task
    active = beta.values[list(support)]
    np.testing.assert_allclose(np.abs(active), 1.5, rtol=0, atol=0)
    # inactive rows are exactly zero -> shared support across tasks
    inactive = [j for j in range(12) if j not in support]
    assert not np.any(beta.values[inactive])


def test_gaussian_amplitude_rule():
    design = DesignSpec(kind="gaussian-iid", n=25, M=40, T=3)
    signal = SignalSpec(s=30, amplitude="gaussian", scale=2.0)
    _, beta = _gen(design, signal, NoiseSpec(sigma=0.0), seed=5)
    active = beta.values[list(group_support(beta, 0.0))]
    sd = np.std(active)
    assert 1.5 <= sd <= 2.5  # scale-2 draws


def test_zero_noise_perfect_fit():
    design = DesignSpec(kind="orthogonal", n=20, M=6, T=2)
    data, beta = _gen(design, SignalSpec(s=3), NoiseSpec(sigma=0.0), seed=6)
    fits = np.einsum("tnm,mt->tn", data.designs, beta.values)
    np.testing.assert_allclose(fits, data.responses, atol=1e-12)


def test_noise_variance_scaling():
    design = DesignSpec(kind="gaussian-iid", n=4000, M=2, T=2)
    sigma = 0.7
    for kind, nu in (("gaussian", None), ("student-t", 3.0), ("rademacher", None)):
        noise = NoiseSpec(kind=kind, sigma=sigma, nu=nu)
        data, beta = _gen(design, SignalSpec(s=0), noise, seed=7)
        residual = data.responses  # s=0 -> y is pure noise
        second_moment = float(np.mean(residual**2))
        if kind == "rademacher":
            assert np.all(np.isclose(np.abs(residual), sigma))
        # E[W^2] = sigma^2 for every kind (student-t rescaled by (nu-2)/nu)
        tol = 0.15 if kind == "student-t" else 0.05
        assert second_moment == pytest.approx(sigma**2, rel=tol)


# The laws of the noise itself.  With s = 0 the responses are exactly the
# noise W, drawn N = T*n times; each test bounds a statistic at |z| <= 5.
_LAW_N, _LAW_T, _LAW_SIGMA, _LAW_NU, _LAW_SEED = 25000, 8, 1.5, 10.0, 11
# the kurtosis E W^4 / sigma^4 of each kind; t(nu)'s is 3 + 6/(nu - 4)
_KURTOSIS = {"gaussian": 3.0, "student-t": 3.0 + 6.0 / (_LAW_NU - 4.0), "rademacher": 1.0}


@functools.cache
def _pure_noise(kind):
    """The (T, n) noise of a draw with no signal."""
    nu = _LAW_NU if kind == "student-t" else None
    design = DesignSpec("gaussian-iid", _LAW_N, 2, _LAW_T)
    data, _ = generate_dataset(
        design, SignalSpec(s=0), NoiseSpec(kind, _LAW_SIGMA, nu), _LAW_SEED
    )
    return data.responses


@pytest.mark.parametrize("kind", sorted(_KURTOSIS))
def test_noise_has_variance_sigma_squared(kind):
    # The mean of W^2/sigma^2 has mean 1 and SE sqrt((kurtosis - 1)/N);
    # rademacher noise (kurtosis 1) gives exactly 1.
    squares = (_pure_noise(kind) / _LAW_SIGMA) ** 2
    error = float(np.mean(squares)) - 1.0
    se = math.sqrt((_KURTOSIS[kind] - 1.0) / squares.size)
    if se == 0.0:
        assert abs(error) <= 1e-12
    else:
        assert abs(error) / se <= 5.0, error / se


@pytest.mark.parametrize("kind", sorted(_KURTOSIS))
def test_task_noise_is_uncorrelated_across_tasks(kind):
    # The sample correlation of two independent tasks' noise is about
    # N(0, 1/n), so sqrt(n) times the largest of T(T-1)/2 stays below 5.
    corr = np.corrcoef(_pure_noise(kind))
    largest = float(np.max(np.abs(corr[np.triu_indices(_LAW_T, k=1)])))
    assert largest * math.sqrt(_LAW_N) <= 5.0, largest * math.sqrt(_LAW_N)


def test_design_invariant_to_noise_kind():
    design = DesignSpec(kind="ar1", n=30, M=6, T=2, rho=0.4)
    signal = SignalSpec(s=2)
    data_g, beta_g = generate_dataset(design, signal, NoiseSpec(sigma=1.0), 8)
    data_t, beta_t = generate_dataset(
        design, signal, NoiseSpec(kind="student-t", sigma=1.0, nu=4.0), 8
    )
    np.testing.assert_array_equal(data_g.designs, data_t.designs)
    np.testing.assert_array_equal(beta_g.values, beta_t.values)


def test_seed_determinism_and_variation():
    design = DesignSpec(kind="gaussian-iid", n=15, M=5, T=3)
    a_data, a_beta = _gen(design, seed=9)
    b_data, b_beta = _gen(design, seed=9)
    np.testing.assert_array_equal(a_data.designs, b_data.designs)
    np.testing.assert_array_equal(a_data.responses, b_data.responses)
    np.testing.assert_array_equal(a_beta.values, b_beta.values)
    c_data, _ = _gen(design, seed=10)
    assert np.any(a_data.designs != c_data.designs)


def test_beta_override():
    design = DesignSpec(kind="gaussian-iid", n=15, M=4, T=2)
    override = np.zeros((4, 2))
    override[1] = [3.0, -3.0]
    from mtgl.model import GroupCoefficients

    data, beta = generate_dataset(
        design, SignalSpec(s=1), NoiseSpec(sigma=0.0), 11,
        beta_star=GroupCoefficients(override),
    )
    np.testing.assert_array_equal(beta.values, override)
    fits = np.einsum("tnm,mt->tn", data.designs, override)
    np.testing.assert_allclose(data.responses, fits, atol=1e-12)


def test_generate_beta_for_selection():
    signal = SignalSpec(s=3)
    tau, margin, M, T = 1.0, 2.5, 10, 4
    beta = generate_beta_for_selection(signal, tau, margin, M, T, seed=12)
    support = group_support(beta, 0.0)
    assert len(support) == 3
    norms = np.linalg.norm(beta.values, axis=1) / math.sqrt(T)
    # every active group norm is exactly margin*tau, entries margin*tau each
    for j in support:
        assert norms[j] == pytest.approx(margin * tau, rel=1e-14)
    active = beta.values[list(support)]
    np.testing.assert_allclose(active, margin * tau, rtol=1e-14)
    # beta-min: min over active j of ||beta*_j||/sqrt(T) > 2*tau
    assert np.min(norms[list(support)]) > 2.0 * tau

    with pytest.raises(ValueError):
        generate_beta_for_selection(signal, tau, 2.0, M, T, seed=12)
    with pytest.raises(ValueError):
        generate_beta_for_selection(signal, 0.0, margin, M, T, seed=12)

    boundary = generate_beta_for_selection(signal, tau, 2.01, M, T, seed=13)
    boundary_norms = np.linalg.norm(boundary.values, axis=1) / math.sqrt(T)
    assert np.min(boundary_norms[list(group_support(boundary, 0.0))]) > 2.0 * tau


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_generate_beta_for_selection_rejects_a_bad_tau(tau):
    with pytest.raises(ValueError, match="threshold tau must be positive and finite"):
        generate_beta_for_selection(SignalSpec(s=3), tau, 2.5, 10, 4, seed=12)


def _per_task_generation(design, signal, noise, seed, beta_star=None):
    """generate_dataset written task by task: each task draws its own
    n x M normals, shapes and normalises them alone, then draws its
    noise.  The batched generator must reproduce it bit for bit."""
    n, M, T = design.n, design.M, design.T
    children = np.random.SeedSequence(seed).spawn(1 + 2 * T)
    if beta_star is None:
        values = synth._draw_beta(signal, M, T, np.random.default_rng(children[0]))
    else:
        values = np.asarray(beta_star.values, dtype=float)
    designs, responses = np.empty((T, n, M)), np.empty((T, n))
    for t in range(T):
        rng = np.random.default_rng(children[1 + t])
        if design.kind == "gaussian-iid":
            x = rng.standard_normal((n, M))
        elif design.kind == "ar1":
            z = rng.standard_normal((n, M))
            x = np.empty((n, M))
            x[:, 0] = z[:, 0]
            scale = np.sqrt(1.0 - design.rho**2)
            for j in range(1, M):
                x[:, j] = design.rho * x[:, j - 1] + scale * z[:, j]
        else:
            q, _ = np.linalg.qr(rng.standard_normal((n, M)))
            x = np.sqrt(n) * q
        if design.normalize:
            x = x * (np.sqrt(n) / np.linalg.norm(x, axis=0))
        w = synth._draw_noise(noise, n, np.random.default_rng(children[1 + T + t]))
        designs[t] = x
        responses[t] = x @ values[:, t] + w
    return designs, responses, values


_NOISES = {
    "gaussian": NoiseSpec(sigma=0.7),
    "student-t": NoiseSpec(kind="student-t", sigma=0.7, nu=4.0),
    "rademacher": NoiseSpec(kind="rademacher", sigma=0.7),
}


@pytest.mark.parametrize("noise", sorted(_NOISES))
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("kind", ["gaussian-iid", "ar1", "orthogonal"])
def test_generation_is_bit_identical_to_the_per_task_loop(kind, normalize, noise):
    rho = 0.6 if kind == "ar1" else None
    # (n, M, T): tall and square (n = M) designs, one task and three.
    for seed, (n, M, T) in enumerate([(20, 7, 1), (20, 7, 3), (7, 7, 3)]):
        design = DesignSpec(kind, n, M, T, rho=rho, normalize=normalize)
        signal = SignalSpec(s=2, amplitude="gaussian")
        data, beta = generate_dataset(design, signal, _NOISES[noise], seed)
        designs, responses, values = _per_task_generation(
            design, signal, _NOISES[noise], seed
        )
        assert data.designs.tobytes() == designs.tobytes()
        assert data.responses.tobytes() == responses.tobytes()
        assert beta.values.tobytes() == values.tobytes()


def test_generation_with_supplied_coefficients_matches_the_per_task_loop():
    design = DesignSpec("ar1", 15, 6, 3, rho=-0.3)
    beta_star = GroupCoefficients(np.arange(18.0).reshape(6, 3) / 7.0)
    data, beta = generate_dataset(design, SignalSpec(s=1), NoiseSpec(), 4, beta_star)
    designs, responses, _ = _per_task_generation(
        design, SignalSpec(s=1), NoiseSpec(), 4, beta_star
    )
    assert data.designs.tobytes() == designs.tobytes()
    assert data.responses.tobytes() == responses.tobytes()
    assert np.array_equal(beta.values, beta_star.values)


@pytest.mark.parametrize("kind", ["gaussian-iid", "ar1", "orthogonal"])
def test_generation_holds_about_one_copy_of_the_designs(kind):
    # Designs are drawn into their (T, n, M) slots and shaped there, so
    # at its peak generation holds them once plus one task design (the
    # squares that normalisation sums).  An orthogonal task's
    # np.linalg.qr holds a copy of its input, Q and R: 2.6 task designs
    # at n = 2M.  The task-by-task draw, shape and copy peaked at 3.2
    # (gaussian-iid), 4.2 (ar1) and 4.7 (orthogonal) task designs.
    design = DesignSpec(kind, 400, 200, 8, rho=0.6 if kind == "ar1" else None)
    small = DesignSpec(kind, 20, 10, 2, rho=design.rho)
    generate_dataset(small, SignalSpec(s=4), NoiseSpec(), 0)  # first-call imports
    tracemalloc.start()
    try:
        data, _ = generate_dataset(design, SignalSpec(s=4), NoiseSpec(), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    task = data.designs[0].nbytes
    assert peak <= data.designs.nbytes + (3 if kind == "orthogonal" else 2) * task


_IID = DesignSpec(kind="gaussian-iid", n=6, M=4, T=2)


@pytest.mark.parametrize("build, message", [
    (lambda: DesignSpec(kind="gaussian-iid", n=0, M=4, T=1),
     "need n >= 1, T >= 1, M >= 2, got n=0, M=4, T=1"),
    (lambda: DesignSpec(kind="gaussian-iid", n=4, M=4, T=0), "got n=4, M=4, T=0"),
    (lambda: DesignSpec(kind="gaussian-iid", n=4, M=1, T=1), "got n=4, M=1, T=1"),
    (lambda: SignalSpec(s=1, amplitude="gaussian", scale=0.0),
     "gaussian amplitude scale must be positive, got 0.0"),
    (lambda: SignalSpec(s=1, amplitude="gaussian", scale=-1.0), "positive, got -1.0"),
    (lambda: NoiseSpec(kind="cauchy"), "unknown noise kind 'cauchy'"),
    (lambda: generate_dataset(_IID, SignalSpec(s=5), NoiseSpec(), 0),
     "sparsity s=5 exceeds M=4"),
    (lambda: generate_dataset(_IID, SignalSpec(s=1), NoiseSpec(), 0,
                              beta_star=GroupCoefficients(np.zeros((4, 3)))),
     r"beta_star shape \(4, 3\) does not match \(M=4, T=2\)"),
    (lambda: generate_beta_for_selection(SignalSpec(s=0), 0.5, 3.0, 4, 2, 0),
     "selection truths need s >= 1, got 0"),
], ids=["n", "T", "M", "zero-scale", "negative-scale", "noise-kind", "s-above-M",
        "beta-shape", "selection-s"])
def test_inputs_outside_the_boundaries_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
