"""Core data model for multi-task regression with a shared sparsity pattern.

T regression tasks share the same M predictor variables.  Task t has an
n x M design matrix X_t and an n-vector of responses y_t.  Coefficients
live in an M x T array B whose row j (group j) collects variable j's
coefficients across all tasks.  The mixed (2,p)-norm of B is the plain
p-norm of the M-vector of groupwise Euclidean norms; p = 1 gives the
group-Lasso penalty and p = inf the largest group norm.  Every product
of the designs with coefficients or residuals is one of this module's
two batched BLAS kernels, ``task_fits`` and ``task_correlations``.

The designs have one layout, the design store: a C-ordered (T, M, n)
array holding each X_t^T, seen everywhere as its (T, n, M) transpose.
So designs[:, :, j], the columns x_tj of variable j, is a (T, n) slab
whose rows are contiguous, which is the access coordinate descent makes.
The dataset owns its store: ``MultiTaskDataset.store`` is the store
itself, and generation and reading build a store and hand it to
``MultiTaskDataset._adopt``, so no other module derives the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _frozen_array(values, dtype=float, copy=True):
    """A read-only C-ordered array of ``values``: a copy, unless ``copy``
    is False and ``values`` already has that dtype and layout."""
    arr = np.array(values, dtype=dtype, order="C", copy=True if copy else None)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    """Immutable bundle of designs and responses for T tasks.

    designs   : float array of shape (T, n, M); designs[t] is X_t.
    responses : float array of shape (T, n);    responses[t] is y_t.

    ``designs`` is the (T, n, M) view of the design store ``store`` (see
    the module docstring), whatever layout the caller passed.  The
    constructor copies the arrays (the designs into a new store) and
    marks the copies read-only, so no caller can change a dataset after
    it is validated.
    """

    designs: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        designs = np.asarray(self.designs, dtype=float)
        if designs.ndim != 3:
            raise ValueError(f"designs must have shape (T, n, M), got {designs.shape}")
        self._settle(
            np.array(designs.transpose(0, 2, 1), order="C"),
            np.array(self.responses, dtype=float, order="C"),
        )

    @classmethod
    def _adopt(cls, store, responses):
        """The dataset over a design store and responses that nothing else
        holds, such as freshly read or drawn ones: validated and marked
        read-only in place instead of copied.  ``store`` must already be a
        C-ordered float (T, M, n) array; any other layout raises
        ValueError rather than being copied."""
        if not (isinstance(store, np.ndarray) and store.ndim == 3
                and store.dtype == np.float64 and store.flags.c_contiguous):
            raise ValueError("adopted designs must be a C-ordered (T, M, n) design store")
        data = object.__new__(cls)
        data._settle(store, responses)
        return data

    def _settle(self, store, responses):
        """Validate the design store and the responses and make them this
        dataset's, read-only."""
        responses = np.asarray(responses, dtype=float)
        if responses.ndim != 2:
            raise ValueError(f"responses must have shape (T, n), got {responses.shape}")
        T, M, n = store.shape
        if T < 1 or n < 1 or M < 1:
            raise ValueError(f"need T >= 1, n >= 1, M >= 1, got T={T}, n={n}, M={M}")
        if responses.shape != (T, n):
            raise ValueError(
                f"responses shape {responses.shape} does not match designs {(T, n)}"
            )
        if not np.all(np.isfinite(store)):
            raise ValueError("designs contain non-finite entries")
        if not np.all(np.isfinite(responses)):
            raise ValueError("responses contain non-finite entries")
        # Freeze the store's own buffer too, not only this view of it.
        for array in (store, store.base):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        object.__setattr__(self, "designs", store.transpose(0, 2, 1))
        object.__setattr__(self, "responses", _frozen_array(responses, copy=False))

    @property
    def store(self):
        """The read-only, C-ordered (T, M, n) design store of every X_t^T."""
        return self.designs.transpose(0, 2, 1)

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

    def as_set(self):
        return frozenset(self.indices)

    def __contains__(self, j):
        return j in self.indices

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def _check_positive(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and positive, got {value}")


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


def task_fits(designs, values):
    """X_t b_t of (T, n, M') designs and (M', T) coefficients, as (T, n)."""
    return np.matmul(designs, values.T[:, :, None])[..., 0]


def task_correlations(designs, resid):
    """X_t^T r_t of (T, n, M') designs and (T, n) residuals, as (M', T)."""
    return np.matmul(resid[:, None, :], designs)[:, 0, :].T


def fitted_responses(data, beta):
    """Stack of X_t beta_t over tasks, shape (T, n)."""
    values = _coef_values(beta)
    if values.shape != (data.M, data.T):
        raise ValueError(
            f"coefficients {values.shape} do not match dataset (M={data.M}, T={data.T})"
        )
    return task_fits(data.designs, values)


def residual_error(data, beta):
    """Average squared residual (1/nT) * sum_t ||X_t beta_t - y_t||^2."""
    fits = fitted_responses(data, beta)
    diff = fits - data.responses
    return float(np.sum(diff * diff) / (data.n * data.T))


def objective(data, beta, lam):
    """Group-Lasso objective: residual_error + 2 * lam * mixed_norm(beta, 1)."""
    _check_positive("penalty level", lam)
    return residual_error(data, beta) + 2.0 * lam * mixed_norm(beta, 1)


def group_support(beta, tol=0.0):
    """Indices of groups with Euclidean norm strictly greater than tol."""
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    norms = _coef_values(beta)
    norms = np.linalg.norm(norms, axis=1)
    return SparsityPattern(tuple(int(j) for j in np.nonzero(norms > tol)[0]))
