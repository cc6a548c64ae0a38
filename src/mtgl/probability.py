"""Monte Carlo verifiers for the probability facts behind the tuning rules.

Three checks, each returning a TailCheckReport:

* a chi-square tail bound  Pr(chi2_T > T + x) <= exp(-min(x, x^2/T)/8);
* the moment inequality  E max_j |sum_i Y_ij|^2 <= (2e log M - e) *
  sum_i E max_j |Y_ij|^2  for independent centred vectors, M >= 3;
* the noise-correlation event behind the gaussian penalty: the rate of
  (1/nT) max_j sqrt(sum_t (x_tj . W_t)^2) > lam/2 is at most M^(1-q).

A frequency passes by the exact binomial test of ``frequency_verdict``,
a mean within three standard errors.  The moment constant comes from
``regularization``, lam and q from the event check's plan, and its noise
from ``synth._draw_noise``.  Every check draws from streams derived from
(seed, chunk index) with a fixed chunk size of 4096 replicates.
A check runs its chunks one after another in the calling process; each
is reduced as soon as it is drawn to a few numbers (its event counts, or
its sums for the moment check), which are added up in chunk order.
Chunks fix the streams; within a chunk the draws are made in consecutive
blocks of about 2 MiB.  A split draw continues the same stream and every
reduction is per replicate, so blocks only bound the memory and never
change a result: a check's memory does not grow with M, n_vectors, T, n
or the replicate count.  The chi-square check takes every offset x at
one T in one call, so one sample serves them all: only the cutoff T + x
differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assumptions import UNIT_DIAGONAL_TOL, gram_diagnostics
from .regularization import moment_constant
from .synth import NoiseSpec, _draw_noise

_CHUNK = 4096
_BLOCK_BYTES = 2 << 20

# The fewest replicates the tail checks (chi-square, noise event) and the
# moment check accept.
MIN_TAIL_REPLICATES = 1000
MIN_MOMENT_REPLICATES = 2


@dataclass(frozen=True)
class TailCheckReport:
    """Outcome of one Monte Carlo tail check.

    ``empirical_frequency`` holds the measured left side (a frequency for
    the tail checks, a mean squared sup-norm for the moment check) and
    ``analytic_bound`` the right side it must not exceed.  ``passed`` is
    the verdict of ``frequency_verdict`` for a frequency; for the moment
    check it is True iff the mean paired difference is at most three
    standard errors.
    """

    analytic_bound: float
    empirical_frequency: float
    replicates: int
    standard_error: float
    passed: bool


# The one-sided three-sigma level 1 - Phi(3): a frequency fails when, at
# a true rate of its limit, an outcome as far out is less likely than this.
PASS_LEVEL = 0.00135


def binomial_lower_tail(k, n, p, q):
    """P(X <= k) for X ~ Binomial(n, p); q = 1 - p is passed on its own so
    that a small p or q keeps its digits.  The terms are summed from k
    down until one no longer changes the sum: for k up to about the mean
    they fall all the way, so that takes a few standard deviations of X."""
    if k >= n or p == 0.0:
        return 1.0
    if q == 0.0:
        return 0.0
    term = math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log(q)
    )
    total, i = 0.0, k
    while i >= 0 and term > total * 1e-17:
        total += term
        term *= i * q / ((n - i + 1) * p)
        i -= 1
    return min(total, 1.0)


def frequency_verdict(count, replicates, limit, at_least):
    """(frequency, standard error, passed) of ``count`` events in
    ``replicates`` trials.  The one pass rule of every Monte Carlo
    frequency, an exact one-sided binomial test: the frequency must be at
    least (``at_least``) or at most the probability ``limit``, and fails
    when, at a true rate of ``limit``, as few (or as many) events have a
    probability below ``PASS_LEVEL``.  The standard error is reported only."""
    if not 0.0 <= limit <= 1.0:
        raise ValueError(f"limit must be a probability in [0, 1], got {limit}")
    freq = count / replicates
    se = math.sqrt(freq * (1.0 - freq) / replicates)
    # the tested tail itself, as a lower tail of the events or the non-events
    k, p, q = (count, limit, 1.0 - limit) if at_least else (
        replicates - count, 1.0 - limit, limit
    )
    # a tail holding a median, at most ceil(np) (Kaas & Buhrman 1980), passes
    passed = k >= replicates * p + 1 or binomial_lower_tail(k, replicates, p, q) >= PASS_LEVEL
    return freq, se, bool(passed)


def _freq_report(count, replicates, bound):
    freq, se, passed = frequency_verdict(count, replicates, bound, at_least=False)
    return TailCheckReport(
        analytic_bound=float(bound),
        empirical_frequency=float(freq),
        replicates=replicates,
        standard_error=float(se),
        passed=passed,
    )


def _draw_chunk(seed, index, size, row_bytes, sample):
    """The per-replicate values of chunk ``index``, ``size`` replicates.

    ``sample(rng, rows)`` draws ``rows`` replicates from ``rng`` and
    returns a tuple of k arrays of their per-replicate values; the chunk
    is their float array of shape (k, size).  The chunk's stream is
    (seed, index), sampled in consecutive blocks of about _BLOCK_BYTES
    of draws, ``row_bytes`` per replicate.  No block has a single
    replicate unless its chunk does: numpy's matmul takes a
    matrix-vector BLAS path for one row, which may round differently.
    """
    rows = max(2, _BLOCK_BYTES // row_bytes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    values = None
    lo = 0
    while lo < size:
        hi = size if size - lo <= rows + 1 else lo + rows
        block = sample(rng, hi - lo)
        if values is None:
            values = np.empty((len(block), size))
        values[:, lo:hi] = block
        lo = hi
    return values


def _chunk_totals(replicates, seed, row_bytes, sample, reduce):
    """The entry-by-entry totals of the tuples ``reduce(*values)`` of each
    chunk's per-replicate values (see ``_draw_chunk``), added one chunk at
    a time in chunk order: from Python 3.12 the builtin sum() of floats
    compensates its rounding.  Only what ``reduce`` returns outlives its
    chunk."""
    totals = None
    for index, start in enumerate(range(0, replicates, _CHUNK)):
        size = min(_CHUNK, replicates - start)
        chunk = reduce(*_draw_chunk(seed, index, size, row_bytes, sample))
        totals = chunk if totals is None else [a + b for a, b in zip(totals, chunk)]
    return totals


def chi_square_tail_bound(T, x):
    """exp(-min(x, x^2/T)/8), valid for chi-square with T degrees of freedom."""
    if T < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {T}")
    if not x > 0:
        raise ValueError(f"tail offset x must be positive, got {x}")
    return math.exp(-min(x, x * x / T) / 8.0)


def chi_square_tail_empirical(T, offsets, replicates, seed):
    """Simulate Pr(chi2_T > T + x) for each offset x and compare each with
    the analytic bound; returns one report per offset.

    One sample of ``replicates`` chi-square(T) draws, each the sum of T
    squared standard normals drawn chunk by chunk from the streams
    (seed, chunk index), serves every offset.
    """
    if replicates < MIN_TAIL_REPLICATES:
        raise ValueError(
            f"need at least {MIN_TAIL_REPLICATES} replicates, got {replicates}"
        )
    bounds = [chi_square_tail_bound(T, x) for x in offsets]

    def sample(rng, rows):
        draws = rng.standard_normal((rows, T))
        return (np.sum(draws * draws, axis=1),)

    def reduce(stats):
        return [int(np.count_nonzero(stats > T + x)) for x in offsets]

    counts = _chunk_totals(replicates, seed, 8 * T, sample, reduce)
    return [
        _freq_report(count, replicates, bound)
        for count, bound in zip(counts, bounds)
    ]


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
    if replicates < MIN_MOMENT_REPLICATES:
        raise ValueError(
            f"need at least {MIN_MOMENT_REPLICATES} replicates, got {replicates}"
        )
    if distribution not in _DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}, expected one of {_DISTRIBUTIONS}"
        )
    const = moment_constant(M)

    if distribution == "gaussian":
        def sample(rng, rows):
            y = rng.standard_normal((rows, n_vectors, M))
            left = np.max(np.abs(np.sum(y, axis=1)), axis=1) ** 2
            np.abs(y, out=y)
            return left, np.sum(np.max(y, axis=2) ** 2, axis=1)
    else:
        def sample(rng, rows):
            # Y_ij = 2 b_ij - 1 with b_ij in {0, 1}, so sum_i Y_ij is the
            # integer 2 sum_i b_ij - n_vectors and every |Y_ij| is 1.
            b = rng.integers(0, 2, size=(rows, n_vectors, M))
            sums = 2 * np.sum(b, axis=1) - n_vectors
            left = np.max(np.abs(sums), axis=1).astype(float) ** 2
            return left, np.full(rows, float(n_vectors))

    def reduce(left, right):
        diff = left - const * right
        return (
            float(np.sum(left)),
            float(np.sum(right)),
            float(np.sum(diff)),
            float(np.sum(diff * diff)),
        )

    # Both draws (float64 normals, int64 bits) take 8 bytes an entry.
    sum_l, sum_r, sum_d, sum_d2 = _chunk_totals(
        replicates, seed, 8 * n_vectors * M, sample, reduce
    )

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


def noise_correlation_violation_rate(data, plan, replicates, seed):
    """Rate at which N(0, sigma^2) noise pushes the groupwise correlation
    statistic (1/nT) max_j sqrt(sum_t (x_tj . W_t)^2) above lam/2.

    sigma, lam and q are those of ``plan``, a RegularizationPlan at the
    data's (n, T, M) whose regime has a q; the analytic rate bound is
    M^(1-q).  The noise is drawn by ``synth._draw_noise``, the law the
    datasets are drawn from.  The design must be unit-diagonal, as
    ``assumptions`` judges it.
    """
    if gram_diagnostics(data).unit_diagonal_max_deviation > UNIT_DIAGONAL_TOL:
        raise ValueError("the correlation event is stated for unit-diagonal designs")
    if replicates < MIN_TAIL_REPLICATES:
        raise ValueError(
            f"need at least {MIN_TAIL_REPLICATES} replicates, got {replicates}"
        )
    n, T, M = data.n, data.T, data.M
    if (plan.n, plan.T, plan.M) != (n, T, M) or plan.q is None:
        raise ValueError(
            f"need a plan with a q at the data's (n, T, M) = {(n, T, M)}, got a "
            f"{plan.regime} plan at {(plan.n, plan.T, plan.M)}"
        )
    noise = NoiseSpec("gaussian", plan.sigma)
    bound = M ** (1.0 - plan.q)

    # A C-ordered copy: on the design store's column-major task slices,
    # matmul's BLAS path would round differently with the block's rows.
    X = np.ascontiguousarray(data.designs)
    cutoff = plan.lam / 2.0

    def sample(rng, rows):
        w = _draw_noise(noise, (rows, T, n), rng)
        # (T, rows, M): task t's block is W_t X_t for the block's draws,
        # not a model kernel: verify-lemmas pins it byte for byte.
        corr = np.matmul(w.transpose(1, 0, 2), X)
        return (np.max(np.sqrt(np.sum(corr * corr, axis=0)), axis=1) / (n * T),)

    def reduce(stat):
        return (int(np.count_nonzero(stat > cutoff)),)

    (count,) = _chunk_totals(replicates, seed, 8 * T * n, sample, reduce)
    return _freq_report(count, replicates, bound)
