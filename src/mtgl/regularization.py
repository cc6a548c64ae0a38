"""Penalty levels, confidence formulas, and selection thresholds.

All formulas use natural logarithms.  Each tuning quantity is defined
here once, as a function of one rate term per noise regime:

* "gaussian": i.i.d. N(0, sigma^2) noise, rate = 1 + A*log(M)/sqrt(T).
  The penalty lam = (2*sigma/sqrt(nT)) * sqrt(rate) with A > 8 gives
  guarantees holding with probability at least 1 - M^(1-q),
  q = min(8*log M, A*sqrt(T)/8).

* "finite-variance": only a second moment is assumed, rate =
  (log M)^(1+delta).  The penalty lam = sigma * sqrt(rate / (nT)) with
  delta > 0, M >= 3 gives guarantees holding with probability at least
  1 - (2e*log M - e) * c' / rate, where c' is the design statistic
  (1/nT) * sum_{t,i} max_j (x_ti)_j^2.

``RegularizationPlan`` computes the rate, lam, q, the confidence and the
selection threshold tau of one problem size and its regime's one
constant, A or delta (giving the other is an error), and the level of
the entrywise Lasso baseline that the group estimator is compared with.
It is the only code that turns those sizes into them: every other module
reads a plan.  Constant validity windows (A > 8, alpha > 1, the
baseline's c > 2*sqrt(2), and so on) are enforced, and sigma, A, delta,
c', alpha and c must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

GAUSSIAN = "gaussian"
FINITE_VARIANCE = "finite-variance"
REGIMES = (GAUSSIAN, FINITE_VARIANCE)


def check_regime_constant(regime, A, delta, prefix=""):
    """Raise unless ``regime`` is known and exactly its constant is given:
    A for gaussian, delta for finite-variance.  The errors name each
    constant as ``prefix`` + its name (a command line passes "--")."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    reads, other = ("A", "delta") if regime == GAUSSIAN else ("delta", "A")
    given = {"A": A, "delta": delta}
    if given[reads] is None:
        raise ValueError(f"the {regime} regime needs {prefix}{reads}")
    if given[other] is not None:
        raise ValueError(f"the {regime} regime does not read {prefix}{other}")


def _check_above(label, value, low=0):
    if not low < value < math.inf:
        raise ValueError(f"{label} must be finite and exceed {low}, got {value}")


def _check_dims(sigma, n, T, M, min_M=2):
    _check_above("noise level sigma", sigma)
    if n < 1 or T < 1:
        raise ValueError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if M < min_M:
        raise ValueError(f"need at least M >= {min_M} variables, got M={M}")


def finite_variance_rate(M, delta):
    """The finite-variance regime's rate term (log M)^(1+delta)."""
    return math.log(M) ** (1.0 + delta)


def moment_constant(M):
    """2e*log M - e, the multiplier of the sup-norm moment inequality."""
    return 2.0 * math.e * math.log(M) - math.e


def finite_variance_confidence(M, delta, c_prime):
    """Guarantee level 1 - (2e*log M - e)*c' / (log M)^(1+delta).

    Returns (confidence, vacuous).  The raw value can drop below zero for
    small M or large c'; it is then clamped to 0 and flagged vacuous.
    """
    if M < 3:
        raise ValueError(f"finite-variance bounds need M >= 3, got M={M}")
    _check_above("tail exponent delta", delta)
    _check_above("design statistic c'", c_prime)
    raw = 1.0 - moment_constant(M) * c_prime / finite_variance_rate(M, delta)
    if raw < 0.0:
        return 0.0, True
    return raw, False


def threshold_constant_c(alpha, sigma, regime=GAUSSIAN):
    """Sup-norm constant c of the selection threshold.

    gaussian:        c = (3 + 32/(7*(alpha-1))) * sigma
    finite-variance: c = (3/2 + 1/(7*(alpha-1))) * sigma

    alpha > 1 is the coherence slack (pairwise Gram entries at most
    1/(7*alpha*s)).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    _check_above("noise level sigma", sigma)
    _check_above("coherence slack alpha", alpha, 1)
    if regime == GAUSSIAN:
        return (3.0 + 32.0 / (7.0 * (alpha - 1.0))) * sigma
    return (1.5 + 1.0 / (7.0 * (alpha - 1.0))) * sigma


def norm_bound_constant_c1(alpha, p):
    """Interpolation constant for mixed (2,p)-norm error bounds.

    c1 = (32*alpha/(alpha-1))^(1/p) * (3 + 32/(7*(alpha-1)))^(1-1/p),
    from combining the (2,1) bound (via kappa^2 = 1 - 1/alpha) with the
    (2,inf) bound at the gaussian ``threshold_constant_c`` per unit sigma.
    Both are the gaussian-regime bounds; no finite-variance c1 is defined.
    """
    right = threshold_constant_c(alpha, 1.0)
    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")
    left = 32.0 * alpha / (alpha - 1.0)
    if math.isinf(p):
        return right
    return left ** (1.0 / p) * right ** (1.0 - 1.0 / p)


@dataclass(frozen=True)
class RegularizationPlan:
    """The penalty choice of one problem size, computed from it and the
    regime's constant (A or delta; the other must stay None).

    ``confidence`` is the gaussian guarantee level 1 - M^(1-q); in the
    finite-variance regime it and ``q`` stay None, as the level waits for
    the design statistic c' (see ``finite_variance_confidence``).
    ``rate`` is the regime's rate term that every bound scales with.
    """

    regime: str
    sigma: float
    n: int
    T: int
    M: int
    A: float | None = None
    delta: float | None = None
    lam: float = field(init=False)
    q: float | None = field(init=False)
    confidence: float | None = field(init=False)

    def __post_init__(self):
        check_regime_constant(self.regime, self.A, self.delta)
        n, T, M = self.n, self.T, self.M
        if self.regime == GAUSSIAN:
            _check_dims(self.sigma, n, T, M)
            _check_above("tuning constant A", self.A, 8)
            lam = (2.0 * self.sigma / math.sqrt(n * T)) * math.sqrt(self.rate)
            q = min(8.0 * math.log(M), self.A * math.sqrt(T) / 8.0)
            values = lam, q, 1.0 - M ** (1.0 - q)
        else:
            _check_dims(self.sigma, n, T, M, min_M=3)
            _check_above("tail exponent delta", self.delta)
            values = self.sigma * math.sqrt(self.rate / (n * T)), None, None
        for name, value in zip(("lam", "q", "confidence"), values):
            object.__setattr__(self, name, value)

    @property
    def rate(self):
        """1 + A*log(M)/sqrt(T) (gaussian) or (log M)^(1+delta)."""
        if self.regime == GAUSSIAN:
            return 1.0 + self.A * math.log(self.M) / math.sqrt(self.T)
        return finite_variance_rate(self.M, self.delta)

    def lasso_level(self, c):
        """The gaussian entrywise Lasso baseline's level c*sigma*sqrt(log(MT)/n)/T:
        T single-task Lassos at the level of Bickel, Ritov & Tsybakov (2009)
        over MT coefficients, which needs a finite c > 2*sqrt(2)."""
        low = 2.0 * math.sqrt(2.0)
        if not low < c < math.inf:
            raise ValueError(
                f"plain-Lasso constant must exceed 2*sqrt(2) ~= {low:.4f}, got {c}"
            )
        if self.regime != GAUSSIAN:
            raise ValueError("the baseline comparison is defined for the gaussian regime")
        return c * self.sigma * math.sqrt(math.log(self.M * self.T) / self.n) / self.T

    def threshold(self, alpha):
        """(c, tau) at coherence slack alpha, with c from ``threshold_constant_c``
        and tau = (c/sqrt(n))*sqrt(rate) (gaussian) or c*sqrt(rate/n): the
        group-norm threshold between signal and noise groups, and the right
        side of the sup-norm bound."""
        c = threshold_constant_c(alpha, self.sigma, self.regime)
        if self.regime == GAUSSIAN:
            return c, (c / math.sqrt(self.n)) * math.sqrt(self.rate)
        return c, c * math.sqrt(self.rate / self.n)
