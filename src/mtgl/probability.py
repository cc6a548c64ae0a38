"""Monte Carlo verifiers for the probability facts behind the tuning rules.

Three checks, each returning a TailCheckReport:

* a chi-square tail bound  Pr(chi2_T > T + x) <= exp(-min(x, x^2/T)/8);
* the moment inequality  E max_j |sum_i Y_ij|^2 <= (2e log M - e) *
  sum_i E max_j |Y_ij|^2  for independent centred vectors, M >= 3;
* the noise-correlation event behind the gaussian penalty: the rate of
  (1/nT) max_j sqrt(sum_t (x_tj . W_t)^2) > lam/2 is at most M^(1-q).

Every check draws from streams derived from (seed, chunk index) with a
fixed chunk size and aggregates in chunk order, so results are
reproducible bit for bit regardless of how the work is scheduled.  The
chi-square checks at one T share their draws: only the cutoff T + x
differs, so the per-replicate statistics are drawn once and kept for
the next offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_CHUNK = 4096


@dataclass(frozen=True)
class TailCheckReport:
    """Outcome of one Monte Carlo tail check.

    ``empirical_frequency`` holds the measured left side (a frequency for
    the tail checks, a mean squared sup-norm for the moment check) and
    ``analytic_bound`` the right side it must not exceed.  ``passed`` is
    True iff empirical <= analytic + 3 * standard_error.
    """

    analytic_bound: float
    empirical_frequency: float
    replicates: int
    standard_error: float
    passed: bool


def _freq_report(count, replicates, bound):
    freq = count / replicates
    se = math.sqrt(freq * (1.0 - freq) / replicates)
    return TailCheckReport(
        analytic_bound=float(bound),
        empirical_frequency=float(freq),
        replicates=replicates,
        standard_error=float(se),
        passed=bool(freq <= bound + 3.0 * se),
    )


def _chunks(replicates):
    start = 0
    index = 0
    while start < replicates:
        size = min(_CHUNK, replicates - start)
        yield index, size
        start += size
        index += 1


def chi_square_tail_bound(T, x):
    """exp(-min(x, x^2/T)/8), valid for chi-square with T degrees of freedom."""
    if T < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {T}")
    if not x > 0:
        raise ValueError(f"tail offset x must be positive, got {x}")
    return math.exp(-min(x, x * x / T) / 8.0)


def _hashable_seed(seed):
    # SeedSequence flattens nested sequences, so a tuple seeds as a list does
    if isinstance(seed, (list, tuple)):
        return tuple(_hashable_seed(part) for part in seed)
    return seed


@functools.lru_cache(maxsize=1)
def _chi_square_statistics(T, replicates, seed):
    """Read-only array of ``replicates`` chi-square(T) draws, each the sum
    of T squared standard normals, chunk by chunk from the streams
    (seed, chunk index).  The last (T, replicates, seed) is cached, so
    the checks at several offsets x for one T draw once."""
    stats = np.empty(replicates)
    start = 0
    for index, size in _chunks(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        draws = rng.standard_normal((size, T))
        stats[start:start + size] = np.sum(draws * draws, axis=1)
        start += size
    stats.flags.writeable = False
    return stats


def chi_square_tail_empirical(T, x, replicates, seed):
    """Simulate Pr(chi2_T > T + x) and compare with the analytic bound."""
    if replicates < 1000:
        raise ValueError(f"need at least 1000 replicates, got {replicates}")
    bound = chi_square_tail_bound(T, x)
    stats = _chi_square_statistics(T, replicates, _hashable_seed(seed))
    return _freq_report(int(np.count_nonzero(stats > T + x)), replicates, bound)


_DISTRIBUTIONS = ("rademacher", "gaussian")


def nemirovski_check(M, n_vectors, distribution, replicates, seed):
    """Check the sup-norm moment inequality for sums of random vectors.

    Each replicate draws ``n_vectors`` i.i.d. centred vectors in R^M and
    records L = max_j |sum_i Y_ij|^2 and R = sum_i max_j |Y_ij|^2.  The
    check passes iff mean(L) <= (2e log M - e) * mean(R) within three
    standard errors of the paired difference.
    """
    if M < 3:
        raise ValueError(f"the moment inequality needs M >= 3, got M={M}")
    if n_vectors < 1:
        raise ValueError(f"need n_vectors >= 1, got {n_vectors}")
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    if distribution not in _DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}, expected one of {_DISTRIBUTIONS}"
        )
    const = 2.0 * math.e * math.log(M) - math.e

    sum_l = 0.0
    sum_r = 0.0
    sum_d = 0.0
    sum_d2 = 0.0
    for index, size in _chunks(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        if distribution == "gaussian":
            y = rng.standard_normal((size, n_vectors, M))
            left = np.max(np.abs(np.sum(y, axis=1)), axis=1) ** 2
            np.abs(y, out=y)
            right = np.sum(np.max(y, axis=2) ** 2, axis=1)
        else:
            # Y_ij = 2 b_ij - 1 with b_ij in {0, 1}, so sum_i Y_ij is the
            # integer 2 sum_i b_ij - n_vectors and every |Y_ij| is 1.
            y = rng.integers(0, 2, size=(size, n_vectors, M))
            sums = 2 * np.sum(y, axis=1) - n_vectors
            left = np.max(np.abs(sums), axis=1).astype(float) ** 2
            right = np.full(size, float(n_vectors))
        # Free this chunk's draws before the next chunk's are made.
        del y
        diff = left - const * right
        sum_l += float(np.sum(left))
        sum_r += float(np.sum(right))
        sum_d += float(np.sum(diff))
        sum_d2 += float(np.sum(diff * diff))

    mean_l = sum_l / replicates
    mean_r = sum_r / replicates
    mean_d = sum_d / replicates
    var_d = max(0.0, (sum_d2 - replicates * mean_d * mean_d) / (replicates - 1))
    se = math.sqrt(var_d / replicates)
    return TailCheckReport(
        analytic_bound=float(const * mean_r),
        empirical_frequency=float(mean_l),
        replicates=replicates,
        standard_error=float(se),
        passed=bool(mean_d <= 3.0 * se),
    )


def noise_correlation_violation_rate(data, sigma, lam, replicates, seed):
    """Rate at which gaussian noise pushes the groupwise correlation
    statistic (1/nT) max_j sqrt(sum_t (x_tj . W_t)^2) above lam/2.

    ``lam`` should come from the gaussian penalty rule with the same
    sigma; the implied tuning constant A is recovered from lam to
    evaluate the analytic rate bound M^(1-q), q = min(8 log M,
    A sqrt(T)/8).
    """
    if not data.unit_diagonal:
        raise ValueError("the correlation event is stated for unit-diagonal designs")
    if not sigma > 0:
        raise ValueError(f"noise level sigma must be positive, got {sigma}")
    if not lam > 0:
        raise ValueError(f"penalty level must be positive, got {lam}")
    if replicates < 1000:
        raise ValueError(f"need at least 1000 replicates, got {replicates}")
    n, T, M = data.n, data.T, data.M
    if M < 2:
        raise ValueError(f"need M >= 2, got M={M}")
    log_m = math.log(M)
    # Invert lam = (2 sigma / sqrt(nT)) sqrt(1 + A log(M)/sqrt(T)) for A.
    a_implied = (lam * lam * n * T / (4.0 * sigma * sigma) - 1.0) * math.sqrt(T) / log_m
    q = min(8.0 * log_m, a_implied * math.sqrt(T) / 8.0)
    bound = M ** (1.0 - q)

    X = data.designs
    cutoff = lam / 2.0
    count = 0
    for index, size in _chunks(replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        w = sigma * rng.standard_normal((size, T, n))
        # (T, size, M): task t's block is W_t X_t for the chunk's draws
        corr = np.matmul(w.transpose(1, 0, 2), X)
        stat = np.max(np.sqrt(np.sum(corr * corr, axis=0)), axis=1) / (n * T)
        count += int(np.count_nonzero(stat > cutoff))
    return _freq_report(count, replicates, bound)
