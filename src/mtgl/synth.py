"""Synthetic problem generators for solver tests and Monte Carlo runs.

Datasets are built task by task from streams spawned off a single seed,
so generation is reproducible and tasks could be drawn in parallel
without changing the result.  Each task is drawn and shaped as an n x M
array in its slot of a new design store (see ``model``), then turned
into X_t^T in place, and the dataset adopts the store.  Responses are
``model.task_fits`` plus each task's noise.  Noise distributions are
scaled to have variance exactly sigma^2 (the student-t draw is
multiplied by sqrt((nu-2)/nu)), keeping the noise level comparable
across kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import GroupCoefficients, MultiTaskDataset, task_fits
from .selection import _check_tau

DESIGN_KINDS = ("gaussian-iid", "ar1", "orthogonal")
AMPLITUDE_RULES = ("constant", "gaussian")
NOISE_KINDS = ("gaussian", "student-t", "rademacher")


@dataclass(frozen=True)
class DesignSpec:
    """How to draw each task's n x M design.

    gaussian-iid : independent N(0,1) entries.
    ar1          : rows are AR(1) with correlation rho^|j-k|.
    orthogonal   : sqrt(n) times a random column-orthonormal matrix,
                   giving X^T X / n = I exactly; needs n >= M.

    With ``normalize`` (default) every column is rescaled so that
    (1/n) ||x_j||^2 = 1 exactly.
    """

    kind: str
    n: int
    M: int
    T: int
    rho: float | None = None
    normalize: bool = True

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(
                f"unknown design kind {self.kind!r}, expected one of {DESIGN_KINDS}"
            )
        if self.n < 1 or self.T < 1 or self.M < 2:
            raise ValueError(
                f"need n >= 1, T >= 1, M >= 2, got n={self.n}, M={self.M}, T={self.T}"
            )
        if self.kind == "ar1":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError(f"ar1 designs need rho in (-1, 1), got {self.rho}")
        if self.kind == "orthogonal" and self.n < self.M:
            raise ValueError(
                f"orthogonal designs need n >= M, got n={self.n}, M={self.M}"
            )


@dataclass(frozen=True)
class SignalSpec:
    """Shared-support coefficient draw: s active groups out of M.

    constant : every active entry equals mu (so the support is shared
               and every active group is nonzero in every task).
    gaussian : active entries are N(0, scale^2).
    """

    s: int
    amplitude: str = "constant"
    mu: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"sparsity s must be >= 0, got {self.s}")
        if self.amplitude not in AMPLITUDE_RULES:
            raise ValueError(
                f"unknown amplitude rule {self.amplitude!r}, "
                f"expected one of {AMPLITUDE_RULES}"
            )
        for name in ("mu", "scale"):
            _check_finite(f"signal {name}", getattr(self, name))
        if self.amplitude == "constant" and self.mu == 0.0:
            raise ValueError("constant amplitude mu must be nonzero")
        if self.amplitude == "gaussian" and not self.scale > 0:
            raise ValueError(f"gaussian amplitude scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"
    sigma: float = 1.0
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(
                f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}"
            )
        _check_finite("noise level sigma", self.sigma)
        if self.nu is not None:
            _check_finite("noise nu", self.nu)
        if self.sigma < 0:
            raise ValueError(f"noise level sigma must be >= 0, got {self.sigma}")
        if self.kind == "student-t":
            if self.nu is None or not self.nu > 2:
                raise ValueError(
                    f"student-t noise needs nu > 2 for a finite variance, got {self.nu}"
                )


def _check_finite(name, value):
    # Checked before any draw: an infinite or nan parameter would only
    # show up later as non-finite data.
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _shape_designs(designs, spec):
    """Turn the (T, n, M) standard normals in ``designs`` into the spec's
    designs, in place: the same arithmetic on every entry as shaping
    each task's draw on its own."""
    n = spec.n
    if spec.kind == "ar1":
        # x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j, for all tasks at once.
        scale = np.sqrt(1.0 - spec.rho**2)
        previous = np.empty(designs.shape[:2])
        for j in range(1, spec.M):
            column = designs[:, :, j]
            column *= scale
            column += np.multiply(spec.rho, designs[:, :, j - 1], out=previous)
    elif spec.kind == "orthogonal":
        for x in designs:
            x[...] = np.linalg.qr(x)[0]
        designs *= np.sqrt(n)
    if spec.normalize:
        norms = np.array([np.linalg.norm(x, axis=0) for x in designs])  # (T, M)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalise a design with an all-zero column")
        designs *= (np.sqrt(n) / norms)[:, None, :]


def _draw_beta(signal, M, T, rng):
    if signal.s > M:
        raise ValueError(f"sparsity s={signal.s} exceeds M={M}")
    values = np.zeros((M, T))
    support = np.sort(rng.choice(M, size=signal.s, replace=False))
    if signal.amplitude == "constant":
        values[support] = signal.mu
    else:
        values[support] = signal.scale * rng.standard_normal((signal.s, T))
    return values


def _draw_noise(noise, size, rng):
    """``size`` i.i.d. draws of ``noise`` from ``rng``: the package's one
    noise law, for the datasets and ``probability``'s event check."""
    if noise.kind == "gaussian":
        return noise.sigma * rng.standard_normal(size)
    if noise.kind == "student-t":
        return noise.sigma * np.sqrt((noise.nu - 2.0) / noise.nu) * rng.standard_t(noise.nu, size)
    return noise.sigma * (rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0)


def generate_dataset(design, signal, noise, seed, beta_star=None):
    """Draw (dataset, beta_star) with y_t = X_t beta_t + W_t.

    ``seed`` feeds a SeedSequence; the signal and each task's design and
    noise use separate child streams, so designs do not change when the
    noise kind does.  Pass ``beta_star`` to reuse fixed coefficients
    instead of drawing them (the signal spec's draw is then skipped).
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(1 + 2 * design.T)
    signal_rng = np.random.default_rng(children[0])

    if beta_star is None:
        values = _draw_beta(signal, design.M, design.T, signal_rng)
    else:
        values = np.asarray(beta_star.values, dtype=float)
        if values.shape != (design.M, design.T):
            raise ValueError(
                f"beta_star shape {values.shape} does not match "
                f"(M={design.M}, T={design.T})"
            )

    T, n, M = design.T, design.n, design.M
    store = np.empty((T, M, n))
    # Drawn and shaped in a C-ordered (T, n, M) view of the store's buffer.
    drawn = store.reshape(T, n, M)
    for t in range(T):
        np.random.default_rng(children[1 + t]).standard_normal(out=drawn[t])
    _shape_designs(drawn, design)
    responses = task_fits(drawn, values)
    for t in range(T):
        responses[t] += _draw_noise(noise, n, np.random.default_rng(children[1 + T + t]))
    # Each task's slot then takes X_t^T in place, through one task buffer.
    task = np.empty((n, M))
    for t in range(T):
        np.copyto(task, drawn[t])
        np.copyto(store[t], task.T)
    del task
    data = MultiTaskDataset._adopt(store, responses)
    return data, GroupCoefficients(values)


def generate_beta_for_selection(signal, tau, margin, M, T, seed):
    """Constant-amplitude truth whose active groups sit margin*tau above
    the selection threshold: every active entry is margin*tau, so each
    active group has ||beta_j||/sqrt(T) = margin*tau exactly.

    ``margin`` must exceed 2 so the standard beta-min condition holds
    strictly.
    """
    _check_tau(tau)
    if not margin > 2:
        raise ValueError(f"margin must exceed 2, got {margin}")
    if signal.s < 1:
        raise ValueError(f"selection truths need s >= 1, got {signal.s}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    constant = replace(signal, amplitude="constant", mu=margin * tau)
    return GroupCoefficients(_draw_beta(constant, M, T, rng))
