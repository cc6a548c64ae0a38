"""Core data model for multi-task regression with a shared sparsity pattern.

T regression tasks share the same M predictor variables.  Task t has an
n x M design matrix X_t and an n-vector of responses y_t.  Coefficients
live in an M x T array B whose row j (group j) collects variable j's
coefficients across all tasks.  The mixed (2,p)-norm of B is the plain
p-norm of the M-vector of groupwise Euclidean norms; p = 1 gives the
group-Lasso penalty and p = inf the largest group norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Columns count as normalised when every (1/n) sum_i x_ij^2 is within
# this tolerance of 1.
UNIT_DIAGONAL_TOL = 1e-10


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    """Immutable bundle of designs and responses for T tasks.

    designs   : float array of shape (T, n, M); designs[t] is X_t.
    responses : float array of shape (T, n);    responses[t] is y_t.

    ``unit_diagonal`` records whether every column of every task design
    satisfies (1/n) * ||x_tj||^2 = 1 within UNIT_DIAGONAL_TOL; the
    noise-event lemma requires it.  Arrays are marked read-only,
    so instances are safe to share across threads.
    """

    designs: np.ndarray
    responses: np.ndarray
    unit_diagonal: bool = field(init=False)

    def __post_init__(self):
        designs = np.asarray(self.designs, dtype=float)
        responses = np.asarray(self.responses, dtype=float)
        if designs.ndim != 3:
            raise ValueError(f"designs must have shape (T, n, M), got {designs.shape}")
        if responses.ndim != 2:
            raise ValueError(f"responses must have shape (T, n), got {responses.shape}")
        T, n, M = designs.shape
        if T < 1 or n < 1 or M < 1:
            raise ValueError(f"need T >= 1, n >= 1, M >= 1, got T={T}, n={n}, M={M}")
        if responses.shape != (T, n):
            raise ValueError(
                f"responses shape {responses.shape} does not match designs {(T, n)}"
            )
        if not np.all(np.isfinite(designs)):
            raise ValueError("designs contain non-finite entries")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses contain non-finite entries")
        object.__setattr__(self, "designs", _frozen_array(designs))
        object.__setattr__(self, "responses", _frozen_array(responses))
        col_sq = np.einsum("tnm,tnm->tm", designs, designs) / n
        object.__setattr__(
            self, "unit_diagonal", bool(np.max(np.abs(col_sq - 1.0)) <= UNIT_DIAGONAL_TOL)
        )

    @classmethod
    def from_tasks(cls, tasks):
        """Build a dataset from an ordered list of (design, response) pairs."""
        if not tasks:
            raise ValueError("need at least one task")
        designs = [np.asarray(x, dtype=float) for x, _ in tasks]
        responses = [np.asarray(y, dtype=float) for _, y in tasks]
        shapes = {x.shape for x in designs}
        if len(shapes) != 1:
            raise ValueError(f"task designs have differing shapes: {sorted(shapes)}")
        return cls(np.stack(designs), np.stack(responses))

    @property
    def T(self):
        return self.designs.shape[0]

    @property
    def n(self):
        return self.designs.shape[1]

    @property
    def M(self):
        return self.designs.shape[2]


@dataclass(frozen=True, eq=False)
class GroupCoefficients:
    """Coefficient array of shape (M, T); row j is group j."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"coefficients must be an (M, T) array, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficients contain non-finite entries")
        object.__setattr__(self, "values", _frozen_array(values))

    @classmethod
    def zeros(cls, M, T):
        return cls(np.zeros((M, T)))

    @property
    def M(self):
        return self.values.shape[0]

    @property
    def T(self):
        return self.values.shape[1]

    def group_norms(self):
        """Euclidean norm of each row, as an (M,) array."""
        return np.linalg.norm(self.values, axis=1)


@dataclass(frozen=True)
class SparsityPattern:
    """Sorted tuple of active variable indices (0-based)."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(j) for j in self.indices)
        if any(j < 0 for j in idx):
            raise ValueError(f"negative variable index in {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate variable index in {idx}")
        object.__setattr__(self, "indices", tuple(sorted(idx)))

    @classmethod
    def from_iterable(cls, indices):
        """Forgiving constructor: deduplicates and sorts."""
        return cls(tuple(sorted({int(j) for j in indices})))

    def as_set(self):
        return frozenset(self.indices)

    def __contains__(self, j):
        return j in self.indices

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def _coef_values(beta):
    if isinstance(beta, GroupCoefficients):
        return beta.values
    raise TypeError(f"expected GroupCoefficients, got {type(beta).__name__}")


def mixed_norm(beta, p):
    """Mixed (2,p)-norm: the p-norm of the groupwise Euclidean norms.

    ``p`` must be >= 1; pass ``np.inf`` (or ``math.inf``) for the max.
    """
    values = _coef_values(beta)
    if not (p >= 1):
        raise ValueError(f"mixed norm needs p >= 1, got {p}")
    group = np.linalg.norm(values, axis=1)
    if np.isinf(p):
        return float(np.max(group))
    if p == 1:
        return float(np.sum(group))
    return float(np.sum(group**p) ** (1.0 / p))


def fitted_responses(data, beta):
    """Stack of X_t beta_t over tasks, shape (T, n)."""
    values = _coef_values(beta)
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"coefficients {values.shape} do not match dataset (M={data.M}, T={data.T})"
        )
    return np.einsum("tnm,mt->tn", data.designs, values)


def residual_error(data, beta):
    """Average squared residual (1/nT) * sum_t ||X_t beta_t - y_t||^2."""
    fits = fitted_responses(data, beta)
    diff = fits - data.responses
    return float(np.sum(diff * diff) / (data.n * data.T))


def objective(data, beta, lam):
    """Group-Lasso objective: residual_error + 2 * lam * mixed_norm(beta, 1)."""
    if not (lam > 0 and np.isfinite(lam)):
        raise ValueError(f"penalty level must be finite and positive, got {lam}")
    return residual_error(data, beta) + 2.0 * lam * mixed_norm(beta, 1)


def group_support(beta, tol=0.0):
    """Indices of groups with Euclidean norm strictly greater than tol."""
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    norms = _coef_values(beta)
    norms = np.linalg.norm(norms, axis=1)
    return SparsityPattern(tuple(int(j) for j in np.nonzero(norms > tol)[0]))
