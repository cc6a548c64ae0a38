"""Penalty levels, confidence formulas, and selection thresholds.

All formulas use natural logarithms.  Two noise regimes are covered:

* "gaussian": i.i.d. N(0, sigma^2) noise.  The penalty
  lam = (2*sigma/sqrt(nT)) * sqrt(1 + A*log(M)/sqrt(T)) with A > 8 gives
  guarantees holding with probability at least 1 - M^(1-q),
  q = min(8*log M, A*sqrt(T)/8).

* "finite-variance": only a second moment is assumed.  The penalty
  lam = sigma * sqrt((log M)^(1+delta) / (nT)) with delta > 0, M >= 3
  gives guarantees holding with probability at least
  1 - (2e*log M - e) * c' / (log M)^(1+delta), where c' is the design
  statistic (1/nT) * sum_{t,i} max_j (x_ti)_j^2.

Constant validity windows (A > 8, alpha > 1, and so on) are enforced;
the gaussian penalty takes ``allow_outside_theory=True`` to go below
A = 8, which marks the resulting plan as outside the guarantee regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GAUSSIAN = "gaussian"
FINITE_VARIANCE = "finite-variance"
REGIMES = (GAUSSIAN, FINITE_VARIANCE)


def _check_dims(sigma, n, T, M, min_M=2):
    if not sigma > 0:
        raise ValueError(f"noise level sigma must be positive, got {sigma}")
    if n < 1 or T < 1:
        raise ValueError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if M < min_M:
        raise ValueError(f"need at least M >= {min_M} variables, got M={M}")


def lambda_gaussian(sigma, n, T, M, A, allow_outside_theory=False):
    """Gaussian-regime penalty level.

    Returns (lam, q, confidence) where confidence = 1 - M^(1-q).
    Requires A > 8 unless ``allow_outside_theory`` is set.
    """
    _check_dims(sigma, n, T, M)
    if not A > 8 and not allow_outside_theory:
        raise ValueError(
            f"tuning constant A must exceed 8 for the guarantee to apply, got {A}; "
            "pass allow_outside_theory=True to compute anyway"
        )
    if not A > 0:
        raise ValueError(f"tuning constant A must be positive, got {A}")
    log_m = math.log(M)
    lam = (2.0 * sigma / math.sqrt(n * T)) * math.sqrt(1.0 + A * log_m / math.sqrt(T))
    q = min(8.0 * log_m, A * math.sqrt(T) / 8.0)
    confidence = 1.0 - M ** (1.0 - q)
    return lam, q, confidence


def lambda_finite_variance(sigma, n, T, M, delta):
    """Finite-variance penalty level sigma * sqrt((log M)^(1+delta)/(nT))."""
    _check_dims(sigma, n, T, M, min_M=3)
    if not delta > 0:
        raise ValueError(f"tail exponent delta must be positive, got {delta}")
    return sigma * math.sqrt(math.log(M) ** (1.0 + delta) / (n * T))


def finite_variance_confidence(M, delta, c_prime):
    """Guarantee level 1 - (2e*log M - e)*c' / (log M)^(1+delta).

    Returns (confidence, vacuous).  The raw value can drop below zero for
    small M or large c'; it is then clamped to 0 and flagged vacuous.
    """
    if M < 3:
        raise ValueError(f"finite-variance bounds need M >= 3, got M={M}")
    if not delta > 0:
        raise ValueError(f"tail exponent delta must be positive, got {delta}")
    if not c_prime > 0:
        raise ValueError(f"design statistic c' must be positive, got {c_prime}")
    log_m = math.log(M)
    raw = 1.0 - (2.0 * math.e * log_m - math.e) * c_prime / log_m ** (1.0 + delta)
    if raw < 0.0:
        return 0.0, True
    return raw, False


def threshold_constant_c(alpha, sigma, regime=GAUSSIAN):
    """Sup-norm constant c for the selection threshold.

    gaussian:        c = (3 + 32/(7*(alpha-1))) * sigma
    finite-variance: c = (3/2 + 1/(7*(alpha-1))) * sigma

    alpha > 1 is the coherence slack (pairwise Gram entries at most
    1/(7*alpha*s)).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if not sigma > 0:
        raise ValueError(f"noise level sigma must be positive, got {sigma}")
    if not alpha > 1:
        raise ValueError(f"coherence slack alpha must exceed 1, got {alpha}")
    if regime == GAUSSIAN:
        return (3.0 + 32.0 / (7.0 * (alpha - 1.0))) * sigma
    return (1.5 + 1.0 / (7.0 * (alpha - 1.0))) * sigma


def norm_bound_constant_c1(alpha, p):
    """Interpolation constant for mixed (2,p)-norm error bounds.

    c1 = (32*alpha/(alpha-1))^(1/p) * (3 + 32/(7*(alpha-1)))^(1-1/p),
    from combining the (2,1) bound (via kappa^2 = 1 - 1/alpha) with the
    (2,inf) bound at constant c.  Both are the gaussian-regime bounds;
    no finite-variance c1 is defined.
    """
    if not alpha > 1:
        raise ValueError(f"coherence slack alpha must exceed 1, got {alpha}")
    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")
    left = 32.0 * alpha / (alpha - 1.0)
    right = 3.0 + 32.0 / (7.0 * (alpha - 1.0))
    if math.isinf(p):
        return right
    return left ** (1.0 / p) * right ** (1.0 - 1.0 / p)


def selection_threshold(c, n, M, T=None, A=None, regime=GAUSSIAN, delta=None):
    """Group-norm threshold tau separating signal from noise groups.

    gaussian:        tau = (c/sqrt(n)) * sqrt(1 + A*log(M)/sqrt(T))
    finite-variance: tau = c * sqrt((log M)^(1+delta) / n)
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if not c > 0:
        raise ValueError(f"threshold constant c must be positive, got {c}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if regime == GAUSSIAN:
        if M < 2:
            raise ValueError(f"need M >= 2, got {M}")
        if T is None or A is None:
            raise ValueError("gaussian threshold needs both T and A")
        if T < 1:
            raise ValueError(f"need T >= 1, got {T}")
        return (c / math.sqrt(n)) * math.sqrt(1.0 + A * math.log(M) / math.sqrt(T))
    if M < 3:
        raise ValueError(f"finite-variance threshold needs M >= 3, got {M}")
    if delta is None:
        raise ValueError("finite-variance threshold needs delta")
    if not delta > 0:
        raise ValueError(f"tail exponent delta must be positive, got {delta}")
    return c * math.sqrt(math.log(M) ** (1.0 + delta) / n)


@dataclass(frozen=True)
class RegularizationPlan:
    """A fully resolved penalty choice for one problem size.

    ``confidence`` is the guarantee level 1 - M^(1-q) in the gaussian
    regime; in the finite-variance regime it stays None until the design
    statistic c' is known (see ``finite_variance_confidence``).
    """

    regime: str
    sigma: float
    n: int
    T: int
    M: int
    lam: float
    A: float | None = None
    delta: float | None = None
    q: float | None = None
    confidence: float | None = None
    outside_theory: bool = False

    @classmethod
    def gaussian(cls, sigma, n, T, M, A, allow_outside_theory=False):
        lam, q, confidence = lambda_gaussian(sigma, n, T, M, A, allow_outside_theory)
        return cls(
            regime=GAUSSIAN,
            sigma=sigma,
            n=n,
            T=T,
            M=M,
            lam=lam,
            A=A,
            q=q,
            confidence=confidence,
            outside_theory=not A > 8,
        )

    @classmethod
    def finite_variance(cls, sigma, n, T, M, delta):
        lam = lambda_finite_variance(sigma, n, T, M, delta)
        return cls(
            regime=FINITE_VARIANCE,
            sigma=sigma,
            n=n,
            T=T,
            M=M,
            lam=lam,
            delta=delta,
        )
