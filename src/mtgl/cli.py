"""Command-line toolkit.

Subcommands: gen, solve, select, check, bounds, verify-lemmas,
experiment.  Exit codes: 0 success, 1 invalid input (bad flags, bad
config, unreadable or malformed files), 2 a requested statistical check
failed, 3 internal error.

Config files are flat key=value text; unknown keys are rejected.
Reports are printed as key=value lines; every output file has the text
format of mtgl.dataio (floats with 17 significant digits, bools as
true/false, an absent value as an empty cell).  Every
artifact-producing run writes a run_manifest.txt beside its outputs
recording the subcommand, package version, resolved configuration, and
wall-clock duration (the manifest is metadata; all data outputs are
byte-identical across reruns with the same config and seed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .assumptions import (
    _validate_sparsity_range,
    coherence_admissible,
    coherence_limit,
    gram_diagnostics,
    re_lower_bound_from_coherence,
    re_upper_estimate,
)
from .dataio import (
    ParseError,
    format_row,
    keyvalue_lines,
    read_coefficients,
    read_dataset,
    read_keyvalue,
    record_pairs,
    write_coefficients,
    write_dataset,
    write_keyvalue,
    write_lines,
    write_records,
)
from .experiments import (
    ExperimentConfig,
    run_lasso_comparison,
    run_oracle_experiment,
    run_selection_experiment,
)
from .probability import (
    MIN_MOMENT_REPLICATES,
    MIN_TAIL_REPLICATES,
    chi_square_tail_empirical,
    nemirovski_check,
    noise_correlation_violation_rate,
)
from .regularization import (
    GAUSSIAN,
    REGIMES,
    RegularizationPlan,
    finite_variance_confidence,
    lambda_finite_variance,
    lambda_gaussian,
    norm_bound_constant_c1,
    selection_threshold,
    threshold_constant_c,
)
from .selection import average_sign_estimate, select_support
from .solver import ALGORITHMS, SolverConfig, solve_group_lasso
from .synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _report(pairs, path=None):
    """Print the key=value report, and write it to ``path`` if given."""
    lines = keyvalue_lines(pairs)
    print("\n".join(lines))
    if path is not None:
        write_lines(path, lines)


def _write_run_manifest(
    out_dir, subcommand, settings, inputs, outputs, started, timings=()
):
    pairs = [("subcommand", subcommand), ("version", __version__)]
    pairs += [(f"config_{key}", value) for key, value in settings]
    pairs += [(f"input_{i}", path) for i, path in enumerate(inputs)]
    pairs += [(f"output_{i}", path) for i, path in enumerate(outputs)]
    pairs += [(key, f"{seconds:.3f}") for key, seconds in timings]
    pairs.append(("duration_s", f"{time.monotonic() - started:.3f}"))
    path = os.path.join(out_dir, "run_manifest.txt")
    write_keyvalue(path, pairs)
    print(f"run-manifest: {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config-file helpers

_REQUIRED = object()


class _Config:
    """Typed access to a key=value file with unknown-key detection."""

    def __init__(self, path):
        self.path = path
        self.raw = read_keyvalue(path)
        self.used = set()

    def get(self, key, parse=str, default=_REQUIRED):
        if key not in self.raw:
            if default is _REQUIRED:
                raise ValueError(f"{self.path}: missing required key {key!r}")
            return default
        self.used.add(key)
        value = self.raw[key]
        try:
            return parse(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{self.path}: key {key!r} has invalid value {value!r}"
            ) from None

    def finish(self):
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            raise ValueError(f"{self.path}: unknown keys {unknown}")

    def items_used(self):
        return [(key, self.raw[key]) for key in self.raw if key in self.used]


def _parse_bool(value):
    if value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(value)


def _parse_float_list(value):
    return tuple(float(x) for x in value.split(",") if x.strip())


def _parse_int_list(value):
    return tuple(int(x) for x in value.split(",") if x.strip())


def _parse_str_list(value):
    return tuple(x.strip() for x in value.split(",") if x.strip())


def _design_from(cfg):
    return DesignSpec(
        kind=cfg.get("design_kind"),
        n=cfg.get("n", int),
        M=cfg.get("M", int),
        T=cfg.get("T", int),
        rho=cfg.get("rho", float, None),
        normalize=cfg.get("normalize", _parse_bool, True),
    )


def _signal_from(cfg):
    return SignalSpec(
        s=cfg.get("signal_s", int),
        amplitude=cfg.get("signal_amplitude", str, "constant"),
        mu=cfg.get("signal_mu", float, 1.0),
        scale=cfg.get("signal_scale", float, 1.0),
    )


def _noise_from(cfg):
    return NoiseSpec(
        kind=cfg.get("noise_kind", str, "gaussian"),
        sigma=cfg.get("noise_sigma", float, 1.0),
        nu=cfg.get("noise_nu", float, None),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args):
    started = time.monotonic()
    cfg = _Config(args.config)
    design = _design_from(cfg)
    signal = _signal_from(cfg)
    noise = _noise_from(cfg)
    seed = cfg.get("seed", int)
    cfg.finish()

    dataset, beta_star = generate_dataset(design, signal, noise, seed)
    os.makedirs(args.out, exist_ok=True)
    manifest = write_dataset(dataset, args.out)
    beta_path = os.path.join(args.out, "beta_star.csv")
    write_coefficients(beta_star, beta_path)
    _report([("manifest", manifest), ("beta_star", beta_path)])
    _write_run_manifest(
        args.out, "gen", cfg.items_used(), [args.config], [manifest, beta_path], started
    )
    return 0


def _cmd_solve(args):
    started = time.monotonic()
    config = SolverConfig(
        lam=args.lam,
        algorithm=args.algorithm,
        max_iterations=args.max_iter,
        kkt_tolerance=args.tol,
    )
    result = solve_group_lasso(read_dataset(args.data), config)

    os.makedirs(args.out, exist_ok=True)
    beta_path = os.path.join(args.out, "beta_hat.csv")
    write_coefficients(result.beta_hat, beta_path)
    report_path = os.path.join(args.out, "report.txt")
    _report([
        ("algorithm", args.algorithm),
        ("lambda", args.lam),
        ("iterations", result.iterations),
        ("kkt_residual", result.kkt_residual),
        ("objective", result.objective_trace[-1]),
        ("converged", result.converged),
    ], report_path)
    settings = [
        ("data", args.data),
        ("lambda", args.lam),
        ("algorithm", args.algorithm),
        ("tol", args.tol),
        ("max_iter", args.max_iter),
    ]
    _write_run_manifest(
        args.out, "solve", settings, [args.data], [beta_path, report_path], started
    )
    return 0


def _threshold(args):
    """(c, tau) from the flags that ``_add_threshold_flags`` registers."""
    c = threshold_constant_c(args.alpha, args.sigma, args.regime)
    tau = selection_threshold(c, args.n, args.M, args.T, args.A, args.regime, args.delta)
    return c, tau


def _resolve_tau(args):
    if args.tau is not None:
        if not 0 < args.tau < math.inf:
            raise ValueError(f"--tau must be positive and finite, got {args.tau}")
        return args.tau
    needed = [args.sigma, args.alpha, args.n, args.M]
    if any(v is None for v in needed):
        raise ValueError(
            "pass --tau directly, or --sigma --alpha --n --M "
            "(plus --T and --A for the gaussian regime, --delta for finite-variance)"
        )
    return _threshold(args)[1]


def _cmd_select(args):
    started = time.monotonic()
    beta = read_coefficients(args.beta)
    tau = _resolve_tau(args)
    result = select_support(beta, tau)
    averages = average_sign_estimate(beta, tau)

    for j in result.selected:
        print(j)
    outputs = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        sel_path = os.path.join(args.out, "selected.txt")
        write_lines(sel_path, result.selected)
        avg_path = os.path.join(args.out, "averages.csv")
        write_lines(avg_path, map(format_row, zip(
            averages.a_hat, averages.a_tilde, averages.signs
        )))
        outputs = [sel_path, avg_path]
        _write_run_manifest(
            args.out, "select",
            [("beta", args.beta), ("tau", tau)], [args.beta], outputs, started,
        )
    return 0


def _cmd_check(args):
    started = time.monotonic()
    limit = coherence_limit(args.s, args.alpha)
    if args.re_samples < 0:
        raise ValueError(
            f"--re-samples must be >= 0 (0 skips the estimate), got {args.re_samples}"
        )
    dataset = read_dataset(args.data)
    _validate_sparsity_range(args.s, dataset.M)
    read_done = time.monotonic()
    report = gram_diagnostics(dataset)
    pairs = [
        ("unit_diagonal_max_deviation", report.unit_diagonal_max_deviation),
        ("max_coherence", report.max_coherence),
        ("coherence_limit", limit),
        ("phi_max", report.phi_max),
        ("c_prime", report.c_prime),
        ("admissible", coherence_admissible(report, args.s, args.alpha)),
        ("kappa_lower", re_lower_bound_from_coherence(args.alpha)),
    ]
    diagnose_done = time.monotonic()
    if args.re_samples > 0:
        estimate = re_upper_estimate(dataset, args.s, args.re_samples, args.seed)
        pairs.append(("kappa_upper_estimate", estimate))
    timings = [
        ("read_s", read_done - started),
        ("diagnose_s", diagnose_done - read_done),
        ("re_probe_s", time.monotonic() - diagnose_done),
    ]
    report_path = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.txt")
    _report(pairs, report_path)
    if report_path:
        settings = [
            ("data", args.data), ("s", args.s), ("alpha", args.alpha),
            ("re_samples", args.re_samples), ("seed", args.seed),
        ]
        _write_run_manifest(
            args.out, "check", settings, [args.data], [report_path], started, timings
        )
    return 0


def _cmd_bounds(args):
    if args.p and args.regime != GAUSSIAN:
        raise ValueError("--p: the c1 constants are defined for the gaussian regime only")
    if args.p and args.alpha is None:
        raise ValueError("--p: the c1 constants need --alpha")
    pairs = []
    if args.regime == GAUSSIAN:
        if args.A is None:
            raise ValueError("the gaussian regime needs --A")
        lam, q, confidence = lambda_gaussian(args.sigma, args.n, args.T, args.M, args.A)
        pairs += [("lambda", lam), ("q", q), ("confidence", confidence)]
    else:
        if args.delta is None:
            raise ValueError("the finite-variance regime needs --delta")
        lam = lambda_finite_variance(args.sigma, args.n, args.T, args.M, args.delta)
        pairs.append(("lambda", lam))
        if args.c_prime is not None:
            confidence, vacuous = finite_variance_confidence(
                args.M, args.delta, args.c_prime
            )
            pairs += [("confidence", confidence), ("confidence_vacuous", vacuous)]
    if args.alpha is not None:
        c, tau = _threshold(args)
        pairs += [("c", c), ("tau", tau)]
        for p in args.p:
            pairs.append((f"c1_{p:g}", norm_bound_constant_c1(args.alpha, p)))
    _report(pairs)
    return 0


def _cmd_verify_lemmas(args):
    started = time.monotonic()
    for flag, replicates, least in (
        ("--chi-replicates", args.chi_replicates, MIN_TAIL_REPLICATES),
        ("--nem-replicates", args.nem_replicates, MIN_MOMENT_REPLICATES),
        ("--event-replicates", args.event_replicates, MIN_TAIL_REPLICATES),
    ):
        if replicates < least:
            raise ValueError(f"{flag} must be at least {least}, got {replicates}")
    lines = []
    failures = 0

    for T in (4, 16):
        offsets = (T / 2.0, float(T), 4.0 * T)
        reports = chi_square_tail_empirical(T, offsets, args.chi_replicates, args.seed)
        for x, report in zip(offsets, reports):
            failures += not report.passed
            lines.append(
                [("check", "chi-square-tail"), ("T", T), ("x", x)]
                + record_pairs(report)
            )
    for M in (3, 10, 100):
        for distribution in ("rademacher", "gaussian"):
            report = nemirovski_check(M, 20, distribution, args.nem_replicates, args.seed)
            failures += not report.passed
            lines.append(
                [("check", "sup-norm-moment"), ("M", M), ("distribution", distribution)]
                + record_pairs(report)
            )

    design = DesignSpec(kind="orthogonal", n=64, M=8, T=16)
    signal = SignalSpec(s=0)
    noise = NoiseSpec(kind="gaussian", sigma=1.0)
    dataset, _ = generate_dataset(design, signal, noise, args.seed)
    report = noise_correlation_violation_rate(
        dataset, 1.0, 9.0, args.event_replicates, args.seed
    )
    failures += not report.passed
    lines.append(
        [("check", "noise-correlation-event"), ("n", 64), ("T", 16), ("M", 8), ("A", 9.0)]
        + record_pairs(report)
    )

    text = [" ".join(keyvalue_lines(pairs)) for pairs in lines]
    print("\n".join(text))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        checks_path = os.path.join(args.out, "lemma_checks.txt")
        write_lines(checks_path, text)
        settings = [
            ("seed", args.seed),
            ("chi_replicates", args.chi_replicates),
            ("nem_replicates", args.nem_replicates),
            ("event_replicates", args.event_replicates),
        ]
        _write_run_manifest(
            args.out, "verify-lemmas", settings, [], [checks_path], started
        )
    return 2 if failures else 0


def _experiment_config(cfg):
    design = _design_from(cfg)
    signal = _signal_from(cfg)
    noise = _noise_from(cfg)
    regime = cfg.get("regime", str, GAUSSIAN)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if regime == GAUSSIAN:
        plan = RegularizationPlan.gaussian(
            sigma=cfg.get("plan_sigma", float, noise.sigma),
            n=design.n, T=design.T, M=design.M,
            A=cfg.get("A", float),
        )
    else:
        plan = RegularizationPlan.finite_variance(
            sigma=cfg.get("plan_sigma", float, noise.sigma),
            n=design.n, T=design.T, M=design.M,
            delta=cfg.get("delta", float),
        )
    return ExperimentConfig(
        design=design,
        signal=signal,
        noise=noise,
        plan=plan,
        replicates=cfg.get("replicates", int),
        seed=cfg.get("seed", int),
        kappa_source=cfg.get("kappa_source", str, "user-supplied"),
        kappa=cfg.get("kappa", float, None),
        kappa2s=cfg.get("kappa2s", float, None),
        phi_max=cfg.get("phi_max", float, None),
        alpha=cfg.get("alpha", float, None),
        p_values=cfg.get("p_values", _parse_float_list, ()),
        bound_set=cfg.get("bounds", _parse_str_list, None),
        margin=cfg.get("margin", float, None),
        algorithm=cfg.get("solver_algorithm", str, ALGORITHMS[0]),
        kkt_tolerance=cfg.get("solver_tol", float, 1e-8),
        max_iterations=cfg.get("solver_max_iter", int, 2000),
        lasso_constant=cfg.get("lasso_A", float, 3.0),
    )


def _summary_pairs(report):
    pairs = [
        ("kind", report.kind),
        ("replicates", report.replicates),
        ("n_converged", report.n_converged),
    ]
    if report.required_confidence is not None:
        pairs.append(("required_confidence", report.required_confidence))
        pairs.append(("confidence_vacuous", report.confidence_vacuous))
    for check in report.bounds:
        prefix = f"bound_{check.name}"
        if check.rhs is not None:
            pairs.append((f"{prefix}_rhs", check.rhs))
        pairs.append((f"{prefix}_coverage", check.coverage))
        pairs.append((f"{prefix}_se", check.standard_error))
        pairs.append((f"{prefix}_passed", check.passed))
    for row in report.comparison:
        prefix = f"T{row.T}"
        pairs += [
            (f"{prefix}_lambda_group", row.lam_group),
            (f"{prefix}_lambda_plain", row.lam_plain),
            (f"{prefix}_mean_group_error", row.mean_group_error),
            (f"{prefix}_mean_plain_error", row.mean_plain_error),
            (f"{prefix}_ratio", row.ratio),
            (f"{prefix}_win_rate", row.win_rate),
        ]
    pairs.append(("required_pass", report.required_pass()))
    return pairs


def _cmd_experiment(args):
    started = time.monotonic()
    cfg = _Config(args.config)
    kind = cfg.get("kind")
    if kind not in ("oracle", "selection", "lasso-comparison"):
        raise ValueError(
            f"{args.config}: kind must be oracle, selection, or lasso-comparison, "
            f"got {kind!r}"
        )
    grid = cfg.get("T_grid", _parse_int_list, ()) if kind == "lasso-comparison" else ()
    config = _experiment_config(cfg)
    cfg.finish()

    if kind == "oracle":
        report = run_oracle_experiment(config)
    elif kind == "selection":
        report = run_selection_experiment(config)
    else:
        report = run_lasso_comparison(config, grid)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "replicates.csv")
    if kind == "lasso-comparison":
        write_records(csv_path, report.comparison_rows)
    else:
        err2p = [f"err2p_{p:g}" for p in config.p_values]
        write_records(csv_path, report.metrics, {"err_2p": err2p})
    summary_path = os.path.join(args.out, "summary.txt")
    _report(_summary_pairs(report), summary_path)
    _write_run_manifest(
        args.out, "experiment", cfg.items_used(),
        [args.config], [csv_path, summary_path], started,
    )
    return 0 if report.required_pass() else 2


# ---------------------------------------------------------------------------
# parser

def _add_threshold_flags(p, required):
    """The flags ``select`` and ``bounds`` share; ``bounds`` requires the
    noise level and problem sizes."""
    p.add_argument("--regime", default=GAUSSIAN, choices=list(REGIMES))
    p.add_argument("--sigma", type=float, required=required)
    p.add_argument("--n", type=int, required=required)
    p.add_argument("--T", type=int, required=required)
    p.add_argument("--M", type=int, required=required)
    p.add_argument("--A", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--alpha", type=float)


def _build_parser():
    parser = _Parser(prog="mtgl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve the group estimator on a dataset")
    p.add_argument("--data", required=True, help="dataset manifest file")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--algorithm", default=ALGORITHMS[0], choices=ALGORITHMS)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("select", help="threshold a coefficient file")
    p.add_argument("--beta", required=True)
    p.add_argument("--tau", type=float)
    _add_threshold_flags(p, required=False)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("check", help="design-assumption diagnostics")
    p.add_argument("--data", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--re-samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="print tuning constants and thresholds")
    _add_threshold_flags(p, required=True)
    p.add_argument("--c-prime", type=float)
    p.add_argument("--p", type=_parse_float_list, default=())
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-lemmas", help="run the probability checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chi-replicates", type=int, default=100_000)
    p.add_argument("--nem-replicates", type=int, default=10_000)
    p.add_argument("--event-replicates", type=int, default=10_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        print("error: a subcommand is required (see mtgl --help)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not bad input
        print(f"internal error: LinAlgError: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
