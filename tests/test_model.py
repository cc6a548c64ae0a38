import math

import numpy as np
import pytest

from mtgl.assumptions import UNIT_DIAGONAL_TOL, gram_diagnostics
from mtgl.dataio import SIDECAR_NAMES, read_dataset, write_dataset
from mtgl.model import (
    GroupCoefficients,
    MultiTaskDataset,
    fitted_responses,
    group_support,
    mixed_norm,
    objective,
    residual_error,
    task_correlations,
    task_fits,
)
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


def _random_dataset(rng, T=3, n=8, M=5):
    designs = rng.standard_normal((T, n, M))
    responses = rng.standard_normal((T, n))
    return MultiTaskDataset(designs, responses)


def _beta(rows):
    return GroupCoefficients(np.asarray(rows, dtype=float))


# ---------------------------------------------------------------------------
# containers

def test_dataset_shapes_and_flags():
    rng = np.random.default_rng(0)
    data = _random_dataset(rng)
    assert (data.T, data.n, data.M) == (3, 8, 5)
    assert gram_diagnostics(data).unit_diagonal_max_deviation > UNIT_DIAGONAL_TOL

    # exact unit columns -> unit diagonal
    X = np.ones((1, 4, 2))
    data = MultiTaskDataset(X, np.zeros((1, 4)))
    assert gram_diagnostics(data).unit_diagonal_max_deviation <= UNIT_DIAGONAL_TOL


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        MultiTaskDataset(np.zeros((2, 4, 3)), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        MultiTaskDataset(np.zeros((4, 3)), np.zeros((4,)))
    with pytest.raises(ValueError):
        MultiTaskDataset(np.full((1, 2, 2), np.nan), np.zeros((1, 2)))


def test_dataset_copies_caller_arrays():
    designs = np.ones((1, 4, 2))
    responses = np.zeros((1, 4))
    data = MultiTaskDataset(designs, responses)
    designs[0, 0, 0] = 7.0
    responses[0, 0] = 7.0
    assert designs.flags.writeable and responses.flags.writeable
    assert data.designs[0, 0, 0] == 1.0 and data.responses[0, 0] == 0.0


def test_dataset_is_immutable():
    rng = np.random.default_rng(2)
    data = _random_dataset(rng)
    with pytest.raises(ValueError):
        data.designs[0, 0, 0] = 7.0
    with pytest.raises(ValueError):
        data.responses[0, 0] = 7.0


def _dataset_by_each_constructor(tmp_path):
    """{constructor: dataset} for every way a dataset is made."""
    made = {"MultiTaskDataset": _random_dataset(np.random.default_rng(4))}
    for kind in ("gaussian-iid", "ar1", "orthogonal"):
        design = DesignSpec(kind, 9, 5, 3, rho=0.6 if kind == "ar1" else None)
        made[kind], _ = generate_dataset(design, SignalSpec(s=2), NoiseSpec(), 1)
    sidecar = write_dataset(made["ar1"], tmp_path / "sidecar")
    made["read_dataset-sidecar"] = read_dataset(sidecar)
    csv = write_dataset(made["ar1"], tmp_path / "csv")
    for name in SIDECAR_NAMES:
        (tmp_path / "csv" / name).unlink()
    made["read_dataset-csv"] = read_dataset(csv)
    return made


def test_every_constructor_makes_a_read_only_design_store(tmp_path):
    made = _dataset_by_each_constructor(tmp_path)
    assert len(made) == 6
    for name, data in made.items():
        store = data.designs.transpose(0, 2, 1)
        assert store.flags.c_contiguous, name
        assert not store.flags.writeable and not data.designs.flags.writeable, name
        assert not data.designs.base.flags.writeable, name
        assert data.store.flags.c_contiguous and not data.store.flags.writeable, name
        assert data.designs.shape == (data.T, data.n, data.M), name
    for name in ("read_dataset-sidecar", "read_dataset-csv"):
        assert made[name].designs.tobytes() == made["ar1"].designs.tobytes()


def test_dataset_copies_any_layout_into_the_store():
    rng = np.random.default_rng(6)
    designs = rng.standard_normal((2, 7, 4))
    in_store = designs.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    for layout in (designs, np.asfortranarray(designs), in_store):
        data = MultiTaskDataset(layout, np.zeros((2, 7)))
        assert data.designs.transpose(0, 2, 1).flags.c_contiguous
        assert np.array_equal(data.designs, designs)


def test_adopt_raises_on_a_foreign_layout():
    # _adopt never copies: anything but a C-ordered float64 (T, M, n)
    # store raises, while a store is adopted as it is.
    rng = np.random.default_rng(7)
    responses = rng.standard_normal((2, 7))
    for foreign in (
        rng.standard_normal((2, 7, 4)).transpose(0, 2, 1),
        rng.standard_normal((2, 4, 7)).astype(np.float32),
        rng.standard_normal((4, 7)),
        rng.standard_normal((2, 4, 7)).tolist(),
    ):
        with pytest.raises(ValueError, match="design store"):
            MultiTaskDataset._adopt(foreign, responses)
    store = rng.standard_normal((2, 4, 7))
    data = MultiTaskDataset._adopt(store, responses)
    assert data.store.base is store and not store.flags.writeable
    assert data.designs.shape == (2, 7, 4)


# ---------------------------------------------------------------------------
# mixed norms

def test_mixed_norm_hand_values():
    beta = _beta([[3.0, 4.0], [0.0, 0.0]])
    assert mixed_norm(beta, 1.0) == pytest.approx(5.0, abs=1e-15)

    beta = _beta([[1.0, 0.0], [0.0, 1.0]])
    assert mixed_norm(beta, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert mixed_norm(beta, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert mixed_norm(beta, math.inf) == pytest.approx(1.0, abs=1e-15)


def test_mixed_norm_p2_is_frobenius():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 3))
    beta = GroupCoefficients(values)
    assert mixed_norm(beta, 2.0) == pytest.approx(np.linalg.norm(values), rel=1e-14)


def test_mixed_norm_rejects_p_below_one():
    beta = _beta([[1.0]])
    with pytest.raises(ValueError):
        mixed_norm(beta, 0.5)


def test_norm_ordering_and_interpolation():
    # ||.||_{2,inf} <= ||.||_{2,p'} <= ||.||_{2,p} <= ||.||_{2,1} for p <= p',
    # plus the interpolation bound used for the (2,p) error constants.
    ps = [1.0, 1.5, 2.0, 4.0, 16.0, math.inf]
    for seed in range(25):
        rng = np.random.default_rng(seed)
        beta = GroupCoefficients(rng.standard_normal((rng.integers(1, 7), rng.integers(1, 5))))
        norms = [mixed_norm(beta, p) for p in ps]
        for smaller_p, larger_p in zip(norms, norms[1:]):
            assert larger_p <= smaller_p + 1e-12
        n1, ninf = norms[0], norms[-1]
        for p, np_ in zip(ps, norms):
            if p is math.inf:
                continue
            assert np_ <= n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p) + 1e-12


def test_mixed_norm_triangle_and_homogeneity():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 6), rng.integers(1, 4))
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        scale = float(rng.normal())
        for p in (1.0, 2.0, 3.0, math.inf):
            na = mixed_norm(GroupCoefficients(a), p)
            nb = mixed_norm(GroupCoefficients(b), p)
            nab = mixed_norm(GroupCoefficients(a + b), p)
            assert nab <= na + nb + 1e-12
            assert mixed_norm(GroupCoefficients(scale * a), p) == pytest.approx(
                abs(scale) * na, rel=1e-12, abs=1e-12
            )


# ---------------------------------------------------------------------------
# residual error and objective

def test_residual_error_hand_value():
    # single task, n=1, M=1: x=2, y=3, beta=1 -> (2-3)^2 = 1
    data = MultiTaskDataset(np.array([[[2.0]]]), np.array([[3.0]]))
    assert residual_error(data, _beta([[1.0]])) == pytest.approx(1.0, abs=1e-15)


def test_residual_error_perfect_and_zero_fit():
    rng = np.random.default_rng(4)
    designs = rng.standard_normal((2, 6, 3))
    beta = rng.standard_normal((3, 2))
    responses = np.einsum("tnm,mt->tn", designs, beta)
    data = MultiTaskDataset(designs, responses)
    assert residual_error(data, GroupCoefficients(beta)) == pytest.approx(0.0, abs=1e-24)
    zero = GroupCoefficients.zeros(3, 2)
    expected = float(np.sum(responses**2)) / (6 * 2)
    assert residual_error(data, zero) == pytest.approx(expected, rel=1e-14)


def test_objective_composes_residual_and_penalty():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = _random_dataset(rng)
        beta = GroupCoefficients(rng.standard_normal((5, 3)))
        lam = float(rng.uniform(0.01, 2.0))
        expected = residual_error(data, beta) + 2.0 * lam * mixed_norm(beta, 1.0)
        assert objective(data, beta, lam) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        objective(data, beta, 0.0)


def test_objective_rejects_non_finite_lam():
    data = _random_dataset(np.random.default_rng(0))
    zero = GroupCoefficients.zeros(5, 3)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            objective(data, zero, lam)


def test_task_order_invariance():
    rng = np.random.default_rng(5)
    designs = rng.standard_normal((3, 7, 4))
    responses = rng.standard_normal((3, 7))
    values = rng.standard_normal((4, 3))
    perm = [2, 0, 1]
    data = MultiTaskDataset(designs, responses)
    permuted = MultiTaskDataset(designs[perm], responses[perm])
    beta = GroupCoefficients(values)
    beta_perm = GroupCoefficients(values[:, perm])
    assert residual_error(data, beta) == pytest.approx(
        residual_error(permuted, beta_perm), rel=1e-14
    )
    assert objective(data, beta, 0.3) == pytest.approx(
        objective(permuted, beta_perm, 0.3), rel=1e-14
    )


def test_fitted_responses_matches_loop():
    rng = np.random.default_rng(6)
    data = _random_dataset(rng)
    beta = GroupCoefficients(rng.standard_normal((5, 3)))
    fits = fitted_responses(data, beta)
    for t in range(3):
        np.testing.assert_allclose(fits[t], data.designs[t] @ beta.values[:, t], rtol=1e-14)


# (n, M, T) of the benchmark's designs (mc-certify-orth, mc-select-small,
# the AR(1) file of fit-ar1-file and preflight-file), and one task.
@pytest.mark.parametrize("n, M, T", [
    (400, 200, 8), (64, 32, 9), (150, 500, 8), (150, 500, 1), (64, 32, 1),
])
def test_kernels_are_bit_identical_to_the_per_task_loops(n, M, T):
    rng = np.random.default_rng(n + M + T)
    X = rng.standard_normal((T, n, M))
    B = rng.standard_normal((M, T))
    r = rng.standard_normal((T, n))
    fits = task_fits(X, B)
    correlations = task_correlations(X, r)
    assert fits.shape == (T, n) and correlations.shape == (M, T)
    assert np.array_equal(fits, np.stack([X[t] @ B[:, t] for t in range(T)]))
    assert np.array_equal(
        correlations, np.column_stack([X[t].T @ r[t] for t in range(T)])
    )


def test_residual_error_shape_mismatch():
    rng = np.random.default_rng(7)
    data = _random_dataset(rng)
    with pytest.raises(ValueError):
        residual_error(data, GroupCoefficients.zeros(4, 3))


# ---------------------------------------------------------------------------
# support

def test_group_support_thresholds():
    assert group_support(GroupCoefficients.zeros(3, 2), 0.0) == ()

    beta = _beta([[0.0, 0.0], [1e-12, 0.0], [0.3, 0.4]])
    assert group_support(beta, 1e-9) == (2,)
    assert group_support(beta, 0.0) == (1, 2)

    one = _beta([[0.0, 0.0], [2.0, 0.0]])
    assert group_support(one, 0.0) == (1,)
    with pytest.raises(ValueError):
        group_support(one, -1e-3)


@pytest.mark.parametrize("build, error, message", [
    (lambda: MultiTaskDataset(np.ones((1, 3, 2)), np.ones(3)), ValueError,
     r"responses must have shape \(T, n\), got \(3,\)"),
    (lambda: MultiTaskDataset(np.ones((1, 0, 2)), np.ones((1, 0))), ValueError,
     "need T >= 1, n >= 1, M >= 1, got T=1, n=0, M=2"),
    (lambda: MultiTaskDataset(np.ones((1, 2, 2)), np.array([[0.0, math.inf]])),
     ValueError, "responses contain non-finite entries"),
    (lambda: GroupCoefficients(np.ones(3)), ValueError,
     r"coefficients must be an \(M, T\) array, got \(3,\)"),
    (lambda: mixed_norm(np.ones((2, 2)), 2.0), TypeError,
     "expected GroupCoefficients, got ndarray"),
], ids=["responses-1d", "zero-size", "non-finite-responses", "coefficients-1d",
        "not-coefficients"])
def test_inputs_outside_the_boundaries_are_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()
