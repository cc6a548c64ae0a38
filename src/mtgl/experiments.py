"""Monte Carlo harness: generate, solve, and certify the finite-sample
error bounds, the support-recovery guarantees, and the single-task
baseline comparison.

Every replicate draws from its own streams: oracle replicate r from
(seed, r), selection replicate r its data from (seed, r, 0) and its truth
from (seed, r, 1), and comparison replicate r at T tasks from
(seed, T, r).  A result depends on its key alone, so the replicates
run on ``pool._map_in_key_order``: on as many forked workers as the
cores and the declared BLAS threads allow, merged in key order, so that
reports are bit-for-bit the same at any worker count.  Replicates whose
solver fails to converge are reported as such, never dropped.

Each replicate yields one record, a row of replicates.csv in field
order.  ``m_hat`` counts nonzero groups: both solvers return exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assumptions import (
    coherence_admissible,
    coherence_limit,
    gram_diagnostics,
    re_lower_bound_from_coherence,
)
from .model import (
    GroupCoefficients, group_support, mixed_norm, task_correlations, task_fits,
)
from .pool import _map_in_key_order
from .probability import frequency_verdict
from .regularization import (
    FINITE_VARIANCE,
    GAUSSIAN,
    RegularizationPlan,
    finite_variance_confidence,
    norm_bound_constant_c1,
)
from .selection import average_sign_estimate, score_selection, select_support
from .solver import ALGORITHMS, SolverConfig, solve_group_lasso, solve_lasso_baseline
from .synth import generate_beta_for_selection, generate_dataset

KAPPA_SOURCES = ("coherence-lemma", "user-supplied")


def p_name(prefix, p):
    """``<prefix>_<p>`` with p to 6 significant digits: the name of the
    (2,p)-norm error bound and its replicates.csv column (``err2p``) or
    of the bound's constant (``c1``)."""
    return f"{prefix}_{p:g}"


def distinct_p_names(prefix, p_values, source):
    """``p_name(prefix, p)`` for each p.  Two p values that share a name
    would report one bound twice or score it once, so they raise
    ValueError naming ``source`` and both values."""
    named = {}
    for p in p_values:
        name = p_name(prefix, p)
        if name in named:
            raise ValueError(
                f"{source} {named[name]!r} and {p!r} both name the bound {name}; "
                "give p values that differ in their first 6 significant digits"
            )
        named[name] = p
    return list(named)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo run needs.

    ``plan`` is derived: the RegularizationPlan of ``regime`` at the
    design's (n, T, M), noise level ``plan_sigma`` (None: the noise's
    sigma) and the regime's constant ``A`` or ``delta``.  So is
    ``solver``: the SolverConfig of ``algorithm``, ``max_iterations``
    and ``kkt_tolerance`` at the plan's lam.  ``T_grid`` holds a lasso
    comparison's task counts.  ``seed`` must be a non-negative integer,
    as numpy's SeedSequence takes it.
    kappa_source selects where the RE constant in the bound formulas
    comes from: "coherence-lemma" needs ``alpha``, derives kappa (and
    kappa2s, unless given) = sqrt(1 - 1/alpha) and insists every
    replicate's design passes the coherence check, at 2s too when a
    scored bound reads a derived kappa2s, before that replicate is solved
    (in oracle and selection runs alike; orthogonal designs pass it for
    every alpha); a failing run raises ValueError naming its lowest
    failing replicate and returns no report; a ``kappa`` it would not use
    is rejected.  "user-supplied" takes ``kappa`` (and optionally
    ``kappa2s``) on trust, e.g. 1.0 for exactly orthogonal designs.
    ``phi_max`` fixes the largest Gram eigenvalue used in the sparsity
    bound; leave it None to measure it per replicate.  A selection run's
    beta-min ``margin`` must be finite and exceed 2.
    ``bound_set`` (the config key ``bounds``) names the bounds to check,
    each once and with its ingredients, from those of the regime and
    ``p_values``.  The derived ``scored_bounds``, the only list the runner
    reads, is it or else every bound with its ingredients.
    """

    design: object
    signal: object
    noise: object
    replicates: int
    seed: int
    regime: str = GAUSSIAN
    plan_sigma: float | None = None
    A: float | None = None
    delta: float | None = None
    kappa_source: str = "user-supplied"
    kappa: float | None = None
    kappa2s: float | None = None
    phi_max: float | None = None
    alpha: float | None = None
    p_values: tuple = ()
    bound_set: tuple | None = None
    margin: float | None = None
    algorithm: str = ALGORITHMS[0]
    kkt_tolerance: float = SolverConfig.kkt_tolerance
    max_iterations: int = 2000
    lasso_constant: float = 3.0
    T_grid: tuple = ()
    plan: RegularizationPlan = field(init=False)
    solver: SolverConfig = field(init=False)
    scored_bounds: tuple = field(init=False)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"need at least 1 replicate, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.kappa_source not in KAPPA_SOURCES:
            raise ValueError(
                f"unknown kappa_source {self.kappa_source!r}, "
                f"expected one of {KAPPA_SOURCES}"
            )
        if self.kappa_source == "coherence-lemma" and self.kappa is not None:
            raise ValueError(
                f"kappa={self.kappa} conflicts with kappa_source='coherence-lemma', "
                "which derives kappa from alpha; drop kappa or set "
                "kappa_source='user-supplied'"
            )
        if self.kappa_source == "coherence-lemma" and self.alpha is None:
            raise ValueError("kappa_source='coherence-lemma' needs alpha > 1")
        for name in ("kappa", "kappa2s", "phi_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.alpha is not None and not 1 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and exceed 1, got {self.alpha}")
        if self.margin is not None and not 2 < self.margin < math.inf:
            raise ValueError(
                f"selection experiments need a beta-min margin > 2, got {self.margin}"
            )
        if any(not p >= 1 for p in self.p_values):
            raise ValueError(f"every p must be >= 1, got {self.p_values}")
        distinct_p_names("err2p", self.p_values, "p_values")
        sigma = self.noise.sigma if self.plan_sigma is None else self.plan_sigma
        d = self.design
        plan = RegularizationPlan(self.regime, sigma, d.n, d.T, d.M, self.A, self.delta)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "scored_bounds", self._scored_bounds())
        object.__setattr__(self, "solver", SolverConfig(
            lam=plan.lam,
            algorithm=self.algorithm,
            max_iterations=self.max_iterations,
            kkt_tolerance=self.kkt_tolerance,
        ))

    def _scored_bounds(self):
        plan, p_values, names = self.plan, self.p_values, self.bound_set
        derived = 1.0 if self.kappa_source == "coherence-lemma" else None
        given = _bound_names(plan, p_values, self.kappa2s or derived, self.alpha)
        if names is None:
            return tuple(given)
        known = _bound_names(plan, p_values)
        repeated = sorted({name for name in names if names.count(name) > 1})
        unknown = [name for name in names if name not in known]
        if not names or repeated or unknown:
            problem = (f"{repeated} more than once" if repeated
                       else f"unknown bounds {unknown}" if unknown else "no bound")
            raise ValueError(
                f"bounds names {problem}; the {plan.regime} regime at p_values "
                f"{tuple(p_values)} has {known}"
            )
        for name in names:
            if name not in given:
                key = "alpha" if name in _bound_names(plan, p_values, None) else "kappa2s"
                raise ValueError(f"bounds names {name}, which needs {key}; supply {key}")
        return tuple(names)


@dataclass(frozen=True)
class ReplicateMetrics:
    """Per-replicate error functionals of the solved estimate."""

    replicate: int
    converged: bool
    iterations: int
    kkt_residual: float
    prediction_error: float
    err_21: float
    err_2: float
    err_2inf: float
    err_2p: tuple
    m_hat: int
    correlation_stat: float
    support_exact: bool | None = None
    sign_exact: bool | None = None
    c_prime: float | None = None
    phi_max: float | None = None


@dataclass(frozen=True)
class BoundCheck:
    """Coverage of one bound (or recovery event) across replicates.

    ``rhs`` is the bound's right side; when it varies per replicate
    (measured phi_max) the largest value is recorded.  ``passed`` is the
    exact binomial verdict of ``probability.frequency_verdict``.
    """

    name: str
    rhs: float | None
    coverage: float
    required_confidence: float
    standard_error: float
    passed: bool


@dataclass(frozen=True)
class ComparisonRow:
    """Group-vs-plain summary for one task count; its fields after T are
    summary.txt's T<T>_<field> keys."""

    T: int
    lambda_group: float
    lambda_plain: float
    mean_group_error: float
    mean_plain_error: float
    ratio: float
    win_rate: float


@dataclass(frozen=True)
class ComparisonReplicate:
    T: int
    replicate: int
    group_error: float
    plain_error: float
    group_converged: bool
    plain_converged: bool


@dataclass(frozen=True)
class ExperimentReport:
    """One run's checks and records, the rows of replicates.csv: one
    ReplicateMetrics per replicate, or ComparisonReplicate per (T, r)."""

    kind: str
    replicates: int
    metrics: tuple
    bounds: tuple
    comparison: tuple = ()
    n_converged: int = 0
    required_confidence: float | None = None
    confidence_vacuous: bool = False

    def bound(self, name):
        for check in self.bounds:
            if check.name == name:
                return check
        raise KeyError(name)

    def required_pass(self):
        """True iff every evaluated coverage check passed (and, for
        comparison runs, the baseline criteria hold)."""
        if not all(check.passed for check in self.bounds):
            return False
        if self.kind == "lasso-comparison":
            if not self.comparison:
                return False
            ratios = [row.ratio for row in self.comparison]
            monotone = all(
                later <= earlier + 1e-12 for earlier, later in zip(ratios, ratios[1:])
            )
            return monotone and self.comparison[-1].win_rate >= 0.9
        return True


def oracle_bounds_rhs(plan, s, kappa, kappa2s=None, phi_max=None, alpha=None, p_values=()):
    """Right sides of the finite-sample bounds, keyed by bound name.

    gaussian regime (rate = plan.rate = 1 + A*log(M)/sqrt(T)):
      prediction  : 64*sigma^2*s*rate / (kappa^2*n)
      err21       : 32*sigma*s*sqrt(rate) / (kappa^2*sqrt(n))
      err2        : 8*sqrt(10)*sigma*sqrt(s/n)*sqrt(rate) / kappa2s^2
      supnorm     : tau = (c/sqrt(n)) * sqrt(rate)        [needs alpha]
      err2p_<p>   : c1*sigma*s^(1/p)*sqrt(rate)/sqrt(n)   [needs alpha]
      sparsity    : 64*phi_max*s / kappa^2                [needs phi_max]
      correlation : 1.5*lam

    finite-variance regime (rate = plan.rate = (log M)^(1+delta)):
      prediction  : 16*sigma^2*s*rate / (kappa^2*n)
      err21       : 16*sigma*s*sqrt(rate/n) / kappa^2
      err2_sq     : 160*sigma^2*s*rate / (kappa2s^4*n)
      supnorm     : tau = c * sqrt(rate/n)                [needs alpha]
      sparsity    : 64*phi_max*s / kappa^2                [needs phi_max]

    tau is the selection threshold at coherence slack alpha.  Bounds whose
    optional ingredient (kappa2s, phi_max, alpha) is absent are simply
    left out of the dict.
    """
    if s < 1:
        raise ValueError(f"sparsity s must be >= 1, got {s}")
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if kappa2s is not None and not kappa2s > 0:
        raise ValueError(f"kappa2s must be positive, got {kappa2s}")
    if phi_max is not None and not phi_max > 0:
        raise ValueError(f"phi_max must be positive, got {phi_max}")
    sigma, n, rate = plan.sigma, plan.n, plan.rate
    out = {}
    if plan.regime == GAUSSIAN:
        out["prediction"] = 64.0 * sigma**2 * s * rate / (kappa**2 * n)
        out["err21"] = 32.0 * sigma * s * math.sqrt(rate) / (kappa**2 * math.sqrt(n))
        if kappa2s is not None:
            out["err2"] = (
                8.0 * math.sqrt(10.0) * sigma * math.sqrt(s / n) * math.sqrt(rate)
                / kappa2s**2
            )
    else:
        out["prediction"] = 16.0 * sigma**2 * s * rate / (kappa**2 * n)
        out["err21"] = 16.0 * sigma * s * math.sqrt(rate / n) / kappa**2
        if kappa2s is not None:
            out["err2_sq"] = 160.0 * sigma**2 * s * rate / (kappa2s**4 * n)
    if alpha is not None:
        out["supnorm"] = plan.threshold(alpha)[1]
        for p in p_values if plan.regime == GAUSSIAN else ():  # c1 is gaussian-only
            c1 = norm_bound_constant_c1(alpha, p)
            out[p_name("err2p", p)] = (
                c1 * sigma * s ** (1.0 / p) * math.sqrt(rate) / math.sqrt(n)
            )
    if phi_max is not None:
        out["sparsity"] = 64.0 * phi_max * s / kappa**2
    if plan.regime == GAUSSIAN:
        out["correlation"] = 1.5 * plan.lam
    return out


def _bound_names(plan, p_values, kappa2s=1.0, alpha=2.0):
    """The bounds of a run at ``plan``, ``p_values``, kappa2s and alpha (None:
    absent): ``oracle_bounds_rhs``'s, then the gaussian sparsity_from_prediction."""
    names = list(oracle_bounds_rhs(plan, 1, 1.0, kappa2s, 1.0, alpha, p_values))
    return names + ["sparsity_from_prediction"] if plan.regime == GAUSSIAN else names


def _prediction_error(X, diff):
    """(1/(nT)) * sum_t ||X_t d_t||^2 for the coefficient error d, and
    the fits X_t d_t it is computed from."""
    fits = task_fits(X, diff)
    return float(np.sum(fits * fits) / fits.size), fits


def _error_metrics(r, dataset, beta_star, result, config, diag):
    X = dataset.designs
    diff = result.beta_hat.values - beta_star.values
    prediction, fits = _prediction_error(X, diff)
    row_norms = np.linalg.norm(diff, axis=1)
    rt = math.sqrt(dataset.T)
    gram_rows = task_correlations(X, fits) / fits.size
    correlation = float(np.max(np.linalg.norm(gram_rows, axis=1)))
    diff_groups = GroupCoefficients(diff)
    err2p = tuple(mixed_norm(diff_groups, p) / rt for p in config.p_values)
    m_hat = len(group_support(result.beta_hat))
    return ReplicateMetrics(
        replicate=r,
        converged=result.converged,
        iterations=result.iterations,
        kkt_residual=result.kkt_residual,
        prediction_error=prediction,
        err_21=float(np.sum(row_norms)) / rt,
        err_2=float(np.linalg.norm(row_norms)) / rt,
        err_2inf=float(np.max(row_norms)) / rt,
        err_2p=err2p,
        m_hat=m_hat,
        correlation_stat=correlation,
        c_prime=None if diag is None else diag.c_prime,
        phi_max=None if diag is None else diag.phi_max,
    )


def _bound_table(config, metrics, kappas):
    """``{name: (lhs, rhs)}`` of one replicate's bounds, those of
    ``config.scored_bounds`` in its order: the plan-level bounds plus the
    data-dependent sparsity-from-prediction bound
    M(beta_hat) <= 4*phi_max*prediction_error/(lambda^2*T).  phi_max is
    the configured one, else the replicate's measured one."""
    plan = config.plan
    phi = metrics.phi_max if config.phi_max is None else config.phi_max
    rhs = oracle_bounds_rhs(
        plan, config.signal.s, *kappas, phi, config.alpha, config.p_values
    )
    if plan.regime == GAUSSIAN:
        rhs["sparsity_from_prediction"] = (
            4.0 * phi * metrics.prediction_error / (plan.lam**2 * plan.T)
        )
    lhs = {
        "prediction": metrics.prediction_error,
        "err21": metrics.err_21,
        "err2": metrics.err_2,
        "err2_sq": metrics.err_2**2,
        "supnorm": metrics.err_2inf,
        "sparsity": float(metrics.m_hat),
        "sparsity_from_prediction": float(metrics.m_hat),
        "correlation": metrics.correlation_stat,
        **{p_name("err2p", p): err for p, err in zip(config.p_values, metrics.err_2p)},
    }
    return {name: (lhs[name], rhs[name]) for name in config.scored_bounds}


def _resolve_kappas(config):
    if config.kappa_source == "coherence-lemma":
        kappa = re_lower_bound_from_coherence(config.alpha)
        return kappa, kappa if config.kappa2s is None else config.kappa2s
    if config.kappa is None:
        raise ValueError("kappa_source='user-supplied' needs an explicit kappa > 0")
    return config.kappa, config.kappa2s


def _check_coherence(config, r, diag):
    """Raise unless replicate r's design certifies the coherence-lemma kappa,
    and kappa2s when that is derived too and a scored bound reads it."""
    s = config.signal.s
    if not coherence_admissible(diag, s, config.alpha):
        raise ValueError(
            f"replicate {r}: design fails the coherence condition at "
            f"(s={s}, alpha={config.alpha}); max coherence "
            f"{diag.max_coherence:.3e} exceeds {coherence_limit(s, config.alpha):.3e} "
            "or diagonals are not unit"
        )
    if config.kappa2s is None and not coherence_admissible(diag, 2 * s, config.alpha):
        without = _bound_names(config.plan, config.p_values, kappa2s=None)
        if set(config.scored_bounds) - set(without):
            raise ValueError(
                f"replicate {r}: design fails the coherence condition at sparsity "
                f"2s={2 * s} needed for the (2,2)-error bound; supply kappa2s "
                "explicitly or drop that bound"
            )


def _frequency_check(name, rhs, holds, required):
    """BoundCheck for the per-replicate outcomes ``holds``: their frequency
    must reach ``required`` by the rule of ``frequency_verdict``."""
    coverage, se, passed = frequency_verdict(
        sum(holds), len(holds), required, at_least=True
    )
    return BoundCheck(
        name=name,
        rhs=rhs,
        coverage=coverage,
        required_confidence=required,
        standard_error=se,
        passed=passed,
    )


def _required_confidence(config, metrics):
    plan = config.plan
    if plan.regime == GAUSSIAN:
        return plan.confidence, False
    worst_c_prime = max(m.c_prime for m in metrics)
    return finite_variance_confidence(plan.M, plan.delta, worst_c_prime)


def _run_bound_experiment(kind, config, draw, score=None):
    """Monte Carlo runner of the oracle and selection runs.  Replicate r
    draws ``(dataset, beta_star) = draw(r)`` and is diagnosed, certified
    when kappa comes from the coherence lemma, solved and scored; a
    selection run's ``score(metrics, beta_star, result)`` adds the
    support and sign outcomes, whose recovery rates are checked too."""
    kappas = _resolve_kappas(config)
    certify = config.kappa_source == "coherence-lemma"
    # Gram diagnostics, when replicates are certified or their bounds need
    # phi_max or c_prime
    diagnose = certify or config.plan.regime == FINITE_VARIANCE or config.phi_max is None

    def worker(r):
        dataset, beta_star = draw(r)
        diag = gram_diagnostics(dataset) if diagnose else None
        if certify:
            _check_coherence(config, r, diag)
        result = solve_group_lasso(dataset, config.solver)
        metrics = _error_metrics(r, dataset, beta_star, result, config, diag)
        if score is not None:
            metrics = score(metrics, beta_star, result)
        return metrics, _bound_table(config, metrics, kappas)

    metrics, tables = zip(*_map_in_key_order(worker, range(config.replicates)))
    required, vacuous = _required_confidence(config, metrics)
    checks = []
    for name in config.scored_bounds:
        pairs = [table[name] for table in tables]
        holds = [bool(lhs <= rhs) for lhs, rhs in pairs]
        checks.append(_frequency_check(name, max(rhs for _, rhs in pairs), holds, required))
    if score is not None:
        for name, holds in (
            ("support_recovery", [m.support_exact for m in metrics]),
            ("sign_recovery", [m.sign_exact for m in metrics]),
        ):
            checks.append(_frequency_check(name, None, holds, required))
    return ExperimentReport(
        kind=kind,
        replicates=config.replicates,
        metrics=metrics,
        bounds=tuple(checks),
        n_converged=sum(m.converged for m in metrics),
        required_confidence=required,
        confidence_vacuous=vacuous,
    )


def run_oracle_experiment(config):
    """Coverage of the estimation-error bounds over fresh replicates."""
    if config.signal.s < 1:
        raise ValueError("oracle experiments need at least one active group")

    def draw(r):
        return generate_dataset(
            config.design, config.signal, config.noise, [config.seed, r]
        )

    return _run_bound_experiment("oracle", config, draw)


def run_selection_experiment(config):
    """Support and sign recovery with the thresholded selector."""
    plan = config.plan
    if config.alpha is None:
        raise ValueError("selection experiments need alpha > 1 for the threshold")
    if config.margin is None:
        raise ValueError("selection experiments need a beta-min margin > 2, got None")
    tau = plan.threshold(config.alpha)[1]

    def draw(r):
        beta_star = generate_beta_for_selection(
            config.signal, tau, config.margin, plan.M, plan.T, [config.seed, r, 1]
        )
        dataset, _ = generate_dataset(
            config.design, config.signal, config.noise, [config.seed, r, 0],
            beta_star=beta_star,
        )
        return dataset, beta_star

    def score(metrics, beta_star, result):
        truth_pattern = group_support(beta_star, 0.0)
        selected = select_support(result.beta_hat, tau, truth_pattern)
        exact, _, _ = score_selection(selected)
        averages = average_sign_estimate(result.beta_hat, tau)
        true_signs = tuple(int(x) for x in np.sign(np.mean(beta_star.values, axis=1)))
        return replace(
            metrics, support_exact=exact, sign_exact=averages.signs == true_signs
        )

    return _run_bound_experiment("selection", config, draw, score)


def run_lasso_comparison(config):
    """Group estimator vs entrywise Lasso across the task counts of
    ``config.T_grid``.

    The grid must be strictly increasing; the group estimator is
    expected to pull ahead as tasks accumulate (nonincreasing mean-error
    ratio, and a win rate of at least 90% at the largest T).  Each T
    runs ``config`` at a design of T tasks, with that config's plan.  The
    (T, replicate) pairs are keyed in grid order, replicates within each T.

    The baseline's level at T tasks is the ``lasso_level`` lam_plain =
    c*sigma*sqrt(log(MT)/n)/T of that T's plan, c = ``lasso_constant``,
    so a bad c or regime fails before any replicate is drawn.  It
    minimises S(B) + 2*lam*sum_jt |B_jt|, where S(B) = (1/(nT)) sum_t
    ||X_t b_t - y_t||^2, so the objective is (1/T) sum_t [(1/n) ||X_t b_t
    - y_t||^2 + 2*(lam*T)*|b_t|_1]: T separate single-task Lassos at level
    lam*T = c*sigma*sqrt(log(MT)/n).
    """
    grid = config.T_grid
    if not grid or any(T < 1 for T in grid):
        raise ValueError(f"T_grid must contain task counts >= 1, got {grid}")
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise ValueError(f"T_grid must be strictly increasing, got {grid}")

    def at(T):
        """The config of T tasks and its baseline's level."""
        config_t = replace(config, design=replace(config.design, T=T))
        return config_t, config_t.plan.lasso_level(config.lasso_constant)

    configs = {T: at(T) for T in grid}

    def worker(key):
        T, r = key
        config_t, lam_plain = configs[T]
        dataset, beta_star = generate_dataset(
            config_t.design, config.signal, config.noise, [config.seed, T, r]
        )
        group = solve_group_lasso(dataset, config_t.solver)
        plain = solve_lasso_baseline(
            dataset, lam_plain,
            max_iterations=config.max_iterations,
            kkt_tolerance=config.kkt_tolerance,
        )
        X = dataset.designs
        errors = [
            _prediction_error(X, fit.beta_hat.values - beta_star.values)[0]
            for fit in (group, plain)
        ]
        return ComparisonReplicate(T, r, *errors, group.converged, plain.converged)

    R = config.replicates
    rows = _map_in_key_order(worker, [(T, r) for T in grid for r in range(R)])
    summaries = []
    for i, T in enumerate(grid):
        results = rows[i * R:(i + 1) * R]
        config_t, lam_plain = configs[T]
        mean_group = sum(row.group_error for row in results) / R
        mean_plain = sum(row.plain_error for row in results) / R
        wins = sum(row.group_error <= row.plain_error for row in results)
        summaries.append(ComparisonRow(
            T, config_t.plan.lam, lam_plain, mean_group, mean_plain,
            mean_group / mean_plain, wins / R,
        ))

    return ExperimentReport(
        kind="lasso-comparison",
        replicates=R,
        metrics=tuple(rows),
        bounds=(),
        comparison=tuple(summaries),
        n_converged=sum(row.group_converged and row.plain_converged for row in rows),
    )
