"""Design-matrix diagnostics: Gram normalisation, coherence, and
restricted-eigenvalue probes.

The per-task Grams are Psi_t = X_t^T X_t / n.  ``gram_diagnostics``
forms them one task at a time with a BLAS matmul, so it holds a single
M x M Gram at once, and takes phi_max = max_t lambda_max(Psi_t) exactly
from LAPACK ``eigvalsh`` of the smaller of X_t^T X_t / n and
X_t X_t^T / n (both share their nonzero spectrum).

The restricted eigenvalue with sparsity s is the minimum of
sqrt(D^T X^T X D / n) / ||D_J||_F over supports |J| <= s and directions
D obeying the cone condition ||D_{J^c}||_{2,1} <= 3 * ||D_J||_{2,1}.
Computing it exactly is infeasible, so this module brackets it instead:

* a certified LOWER bound sqrt(1 - 1/alpha), valid whenever all Grams
  have unit diagonal and pairwise coherence at most 1/(7*alpha*s);
* a sampled UPPER estimate, the smallest quotient seen over random
  cone-feasible probes plus local refinement.  On a wide design the
  refinement inverts every X_t X_t^T once per search and updates that
  inverse by the probe's m support columns (Woodbury), so a probe
  solves only m x m systems.  A probe's images are ``model.task_fits``.

Neither bracket ever substitutes for the other in theoretical bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroupCoefficients, SparsityPattern, task_fits

# A Gram counts as unit-diagonal when every (1/n) sum_i x_ij^2 is within
# this tolerance of 1.
UNIT_DIAGONAL_TOL = 1e-10


@dataclass(frozen=True)
class AssumptionReport:
    """Summary statistics of the per-task Grams.

    unit_diagonal_max_deviation : max_{t,j} |Psi_t[j,j] - 1|.
    max_coherence               : max_{t, j != k} |Psi_t[j,k]|.
    phi_max                     : largest Gram eigenvalue across tasks.
    c_prime                     : (1/nT) * sum_{t,i} max_j (x_ti)_j^2.
    """

    unit_diagonal_max_deviation: float
    max_coherence: float
    phi_max: float
    c_prime: float


@dataclass(frozen=True)
class REProbe:
    """One cone-feasible direction: ||D_{J^c}||_{2,1} <= 3*||D_J||_{2,1},
    D_J nonzero, and ratio = sqrt(D^T X^T X D / n) / ||D_J||_F."""

    direction: GroupCoefficients
    support: SparsityPattern
    ratio: float


def _top_eigenvalue(x, n, gram=None):
    """lambda_max(x^T x / n) of one (n, M) task design, from eigvalsh of
    the smaller of x^T x / n and x x^T / n.  ``gram`` is x^T x / n when
    the caller has it already."""
    if x.shape[1] <= x.shape[0]:
        small = x.T @ x / n if gram is None else gram
    else:
        small = x @ x.T / n
    return float(np.linalg.eigvalsh(small)[-1])


def largest_gram_eigenvalue(data):
    """phi_max = max_t lambda_max(Psi_t), exact up to LAPACK round-off."""
    return max(_top_eigenvalue(x, data.n) for x in data.designs)


def gram_diagnostics(data):
    """Compute the AssumptionReport statistics for a dataset.  A Gram
    multiplies a design by itself, so it is formed here, not in ``model``."""
    if not np.any(data.designs):
        raise ValueError("design is all zeros; Gram diagnostics are undefined")
    unit_dev = coherence = phi_max = 0.0
    # max_j (x_ti)_j^2 per (task, row): the square of the largest |entry|
    row_max_sq = np.empty((data.T, data.n))
    gram = np.empty((data.M, data.M))  # each task's Gram in turn
    for x, row_sq in zip(data.designs, row_max_sq):
        np.square(np.max(np.abs(x), axis=1), out=row_sq)
        np.matmul(x.T, x, out=gram)
        gram /= data.n
        unit_dev = max(unit_dev, float(np.max(np.abs(np.diagonal(gram) - 1.0))))
        phi_max = max(phi_max, _top_eigenvalue(x, data.n, gram))
        if data.M >= 2:
            off = np.abs(gram, out=gram)
            np.fill_diagonal(off, 0.0)
            coherence = max(coherence, float(np.max(off)))
    c_prime = float(np.mean(row_max_sq))
    return AssumptionReport(
        unit_diagonal_max_deviation=unit_dev,
        max_coherence=coherence,
        phi_max=phi_max,
        c_prime=c_prime,
    )


def _validate_slack(alpha):
    if not alpha > 1:
        raise ValueError(f"coherence slack alpha must exceed 1, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"coherence slack alpha must be finite, got {alpha}")


def coherence_limit(s, alpha):
    """The coherence condition's limit 1/(7*alpha*s) on every Gram's
    off-diagonal entries, for sparsity s >= 1 and finite alpha > 1."""
    if s < 1:
        raise ValueError(f"sparsity s must be >= 1, got {s}")
    _validate_slack(alpha)
    return 1.0 / (7.0 * alpha * s)


def coherence_admissible(report, s, alpha):
    """True iff diagonals are unit and coherence is at most
    ``coherence_limit(s, alpha)``."""
    limit = coherence_limit(s, alpha)
    if report.unit_diagonal_max_deviation > UNIT_DIAGONAL_TOL:
        return False
    return report.max_coherence <= limit


def re_lower_bound_from_coherence(alpha):
    """Certified RE lower bound kappa = sqrt(1 - 1/alpha) under
    admissible coherence (any sparsity the admissibility was checked at)."""
    _validate_slack(alpha)
    return float(np.sqrt(1.0 - 1.0 / alpha))


def _quotient(data, values, support_idx):
    img = task_fits(data.designs, values)
    num = float(np.sqrt(np.sum(img * img) / data.n))
    den = float(np.linalg.norm(values[support_idx]))
    return num / den


# Relative tolerance of the rank checks in _least_squares_completion:
# past it a normal-equation solve has lost half of its digits.
_RANK_TOL = float(np.sqrt(np.finfo(float).eps))


def _row_gram_inverse(X):
    """(X_t X_t^T)^-1 for every task of a wide design (M > n), from one
    batched LAPACK inverse; None for a tall design, or when some X_t X_t^T
    is singular.  Then X_t has rank below n, so does every wide
    off-support block X_o,t, and each completion falls back to least
    squares."""
    n, M = X.shape[1:]
    if M <= n:
        return None
    try:
        return np.linalg.inv(np.matmul(X, X.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        return None


def _off_support_image(X, others, rows):
    """X_o,t w_t for every task, (T, n), with X_o = X[:, :, others] and
    the (others, T) rows w zero-padded to (M, T), so X_o is not copied."""
    padded = np.zeros((X.shape[2], X.shape[0]))
    padded[others] = rows
    return task_fits(X, padded)


def _least_squares_completion(X, X_s, others, K_inv, u):
    """Per task, the minimum-norm w_t minimising ||u_t + X_o,t w_t|| over
    the off-support block X_o = X[:, :, others]; returns w with shape
    (others, T) and the products X_o,t w_t, (T, n).

    A wide block (others >= n) solves (X_o X_o^T) z = -u and takes
    w = X_o^T z.  X_o X_o^T = K - X_s X_s^T is K = X X^T downdated by the
    m support columns X_s, so with K_inv = K^-1 (``_row_gram_inverse``,
    once per search) the Woodbury identity
    (K - X_s X_s^T)^-1 = K^-1 + K^-1 X_s (I_m - X_s^T K^-1 X_s)^-1 X_s^T K^-1
    leaves one m x m solve per task; X^T z and ``_off_support_image``
    give w and X_o w without a copy of X_o.  A tall block solves
    (X_o^T X_o) w = -X_o^T u.  Both are the least-squares
    solution when X_o has full rank, and the solve is trusted only when
    X_o numerically has it.  A wide block of full row rank leaves no
    residual, so u + X_o w must vanish to within sqrt(eps) * ||u||.  A
    tall block's Gram must have Cholesky pivots L_ii^2 of at least
    sqrt(eps) times its largest diagonal entry; a pivot bounds the
    smallest eigenvalue from above, so a small one certifies
    near-collinear columns.  An untrusted block, a singular K or m x m
    system (LinAlgError) or a non-finite w falls back to LAPACK's SVD
    least squares per task.
    """
    rhs = -u[..., None]
    try:
        if others.size >= X.shape[1]:
            if K_inv is None:
                raise np.linalg.LinAlgError("X X^T is singular")
            X_sT = X_s.transpose(0, 2, 1)
            k_u = np.matmul(K_inv, rhs)
            k_s = np.matmul(K_inv, X_s)
            inner = np.eye(X_s.shape[2]) - np.matmul(X_sT, k_s)
            z = k_u + np.matmul(k_s, np.linalg.solve(inner, np.matmul(X_sT, k_u)))
            w = np.matmul(X.transpose(0, 2, 1), z)[:, others, 0].T
            image = _off_support_image(X, others, w)
            trusted = np.all(
                np.linalg.norm(u + image, axis=1) <= _RANK_TOL * np.linalg.norm(u, axis=1)
            )
        else:
            X_o = X[:, :, others]
            X_oT = X_o.transpose(0, 2, 1)
            gram = np.matmul(X_oT, X_o)
            pivots = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2) ** 2
            scale = np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
            trusted = np.all(pivots.min(axis=1) >= _RANK_TOL * scale)
            w = np.linalg.solve(gram, np.matmul(X_oT, rhs))[..., 0].T
            image = task_fits(X_o, w)
        if trusted and np.all(np.isfinite(w)):
            return w, image
    except np.linalg.LinAlgError:
        pass
    X_o = X[:, :, others]
    w = np.column_stack(
        [np.linalg.lstsq(x, r, rcond=None)[0] for x, r in zip(X_o, -u)]
    )
    return w, task_fits(X_o, w)


def _validate_sparsity_range(s, M):
    if not 1 <= s <= M:
        raise ValueError(f"sparsity s must be in 1..M={M}, got {s}")


def minimize_re_quotient(data, s, samples, seed):
    """Search cone-feasible probes for a small RE quotient.

    For each support size m = 1..s, ``samples`` probes are drawn from a
    stream seeded by (seed, m, probe index): a random support J, Gaussian
    D_J, and Gaussian off-support rows rescaled so the cone constraint
    holds with a uniform [0, 3] equality factor.  Each probe is refined
    two ways, both staying inside the cone: an exact line search over a
    multiplicative factor on the off-support block, and a least-squares
    resolve of the off-support block scaled back into the cone.  Returns
    the best probe found; the minimum over sizes makes the estimate
    nonincreasing in s for a fixed seed.

    The least-squares resolve is batched over all T tasks (see
    ``_least_squares_completion``).  On a wide design (M > n) the search
    inverts every X_t X_t^T once, and a probe whose off-support block is
    wide pays a rank-m Woodbury update of that inverse, an m x m solve,
    and products with the full design, never a copy of the block; a
    tall block solves on its own Gram X_o^T X_o.  Only a block whose
    solve fails or cannot be trusted (a numerically rank-deficient
    block, a singular Gram or a non-finite solution) falls back to
    LAPACK's SVD least squares, task by task.
    """
    M, T = data.M, data.T
    _validate_sparsity_range(s, M)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    X = data.designs
    n = data.n
    # (X_t X_t^T)^-1 for every task, updated per probe when X_o is wide
    K_inv = _row_gram_inverse(X)

    best_ratio = np.inf
    best = None  # (support, D_J, off-support indices, rows) of the best probe

    for m in range(1, s + 1):
        for k in range(samples):
            rng = np.random.default_rng(np.random.SeedSequence([seed, m, k]))
            support = np.sort(rng.choice(M, size=m, replace=False))
            off_support = np.ones(M, dtype=bool)
            off_support[support] = False
            others = np.flatnonzero(off_support)  # np.setdiff1d imports numpy.ma
            d_sup = rng.standard_normal((m, T))
            l21_sup = float(np.sum(np.linalg.norm(d_sup, axis=1)))
            if l21_sup == 0.0:
                continue
            X_s = X[:, :, support]
            u = task_fits(X_s, d_sup)
            a = float(np.sum(u * u))
            den = float(np.linalg.norm(d_sup))

            # (squared image norm, off-support rows or None) per candidate
            candidates = [(a, None)]
            if others.size:
                g = rng.standard_normal((others.size, T))
                factor = rng.uniform(0.0, 3.0)
                l21_off = float(np.sum(np.linalg.norm(g, axis=1)))
                if l21_off > 0.0:
                    g = g * (factor * l21_sup / l21_off)
                v = _off_support_image(X, others, g)
                b = float(np.sum(u * v))
                dq = float(np.sum(v * v))
                if dq > 0.0:
                    c_max = np.inf if factor == 0.0 else 3.0 / factor
                    c_star = float(np.clip(-b / dq, -c_max, c_max))
                    q_val = a + 2.0 * b * c_star + dq * c_star * c_star
                    candidates.append((q_val, c_star * g))

                # Least-squares polish: best off-support completion for
                # this D_J, pulled back into the cone if it overshoots.
                w, vw = _least_squares_completion(X, X_s, others, K_inv, u)
                l21_w = float(np.sum(np.linalg.norm(w, axis=1)))
                if l21_w > 0.0:
                    rho = min(1.0, 3.0 * l21_sup / l21_w)
                    diff = u + rho * vw
                    candidates.append((float(np.sum(diff * diff)), rho * w))

            for q_val, rows in candidates:
                ratio = np.sqrt(max(q_val, 0.0) / n) / den
                if ratio < best_ratio:
                    best_ratio, best = ratio, (support, d_sup, others, rows)

    support, d_sup, others, rows = best
    values = np.zeros((M, T))
    values[support] = d_sup
    if rows is not None:
        values[others] = rows
    return REProbe(
        direction=GroupCoefficients(values),
        support=SparsityPattern(tuple(int(j) for j in support)),
        ratio=float(_quotient(data, values, support)),
    )


def re_upper_estimate(data, s, samples, seed):
    """Smallest RE quotient observed over sampled cone-feasible probes.

    An UPPER estimate of the true restricted eigenvalue: the search can
    only miss bad directions, never invent them.
    """
    return minimize_re_quotient(data, s, samples, seed).ratio
