"""Command-line toolkit.

Subcommands: gen, solve, select, check, bounds, verify-lemmas,
experiment.  Exit codes: 0 success, 1 invalid input (bad flags, bad
config, unreadable or malformed files), 2 a requested statistical check
failed or a solve did not converge, 3 internal error.

Config files are flat key=value text, read by mtgl.dataio.KeyValueFile
as dataset manifests are; unknown keys are rejected.
Reports are printed as key=value lines; every output file has the text
format of mtgl.dataio (floats with 17 significant digits, bools as
true/false, an absent value as an empty cell).  ``dispatch`` keeps one
run record per command: a command that writes into --out gets a
run_manifest.txt there once it returns with exit 0 or 2, recording the
subcommand, package version, settings (its flags, or the config keys it
used), input files, output files in write order, stage timings and
wall-clock duration.  The manifest is metadata; all data outputs are
byte-identical across reruns with the same config and seed.  A command
writes its files before it prints its report, and a reader that closes
stdout early does not stop it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    KeyValueFile,
    ParseError,
    format_row,
    keyvalue_lines,
    read_coefficients,
    read_dataset,
    record_pairs,
    write_coefficients,
    write_dataset,
    write_keyvalue,
    write_lines,
    write_records,
)
from .experiments import (
    ExperimentConfig,
    distinct_p_names,
    run_lasso_comparison,
    run_oracle_experiment,
    run_selection_experiment,
)
from .pool import _map_in_key_order
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
    check_regime_constant,
    finite_variance_confidence,
    norm_bound_constant_c1,
)
from .selection import average_sign_estimate, select_support
from .solver import ALGORITHMS, SolverConfig, solve_group_lasso
from .synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _print(text):
    """Print ``text`` to stdout.  Once the reader has closed the pipe,
    stdout goes to os.devnull (the recipe of the signal module's "Note on
    SIGPIPE"), so the command still finishes and returns its own code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(pairs, path=None):
    """Write the key=value report to ``path`` if given, then print it."""
    lines = keyvalue_lines(pairs)
    if path is not None:
        write_lines(path, lines)
    _print("\n".join(lines))


# Parsed attributes that are not settings, and the flags naming input files.
_NOT_SETTINGS = ("subcommand", "func", "out")
_INPUT_FLAGS = ("config", "data", "beta")


class _Run:
    """The record ``dispatch`` keeps of one command.

    It starts the clock, opens the --config file if the command takes
    one, and takes the settings from the parsed flags (a command can
    replace one with the value it resolved) or, with a config file, from
    the keys the command used.  Its inputs are the --config, --data and
    --beta files.  A command calls ``path(name)`` for each file it writes
    into --out, and ``stage(name)`` at the end of each stage it times.
    """

    def __init__(self, args):
        self.started = self._lap = time.monotonic()
        self.out = getattr(args, "out", None)
        self.cfg = KeyValueFile(args.config) if hasattr(args, "config") else None
        self.settings = {
            key: value for key, value in vars(args).items() if key not in _NOT_SETTINGS
        }
        self.inputs = [getattr(args, flag) for flag in _INPUT_FLAGS if hasattr(args, flag)]
        self.outputs = []
        self.timings = []

    def path(self, name):
        """The path of output ``name`` in --out, which is created."""
        os.makedirs(self.out, exist_ok=True)
        path = os.path.join(self.out, name)
        self.outputs.append(path)
        return path

    def stage(self, name):
        """Record the seconds since the last stage ended as ``<name>_s``."""
        now = time.monotonic()
        self.timings.append((f"{name}_s", now - self._lap))
        self._lap = now

    def write_manifest(self, subcommand):
        if self.cfg is not None:
            settings = self.cfg.items_used()
        else:
            settings = [(k, v) for k, v in self.settings.items() if v is not None]
        pairs = [("subcommand", subcommand), ("version", __version__)]
        pairs += [(f"config_{key}", value) for key, value in settings]
        pairs += [(f"input_{i}", path) for i, path in enumerate(self.inputs)]
        pairs += [(f"output_{i}", path) for i, path in enumerate(self.outputs)]
        pairs += [(key, f"{seconds:.3f}") for key, seconds in self.timings]
        pairs.append(("duration_s", f"{time.monotonic() - self.started:.3f}"))
        path = os.path.join(self.out, "run_manifest.txt")
        write_keyvalue(path, pairs)
        print(f"run-manifest: {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config-file helpers

def _parse_bool(value):
    if value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(value)


def _seed(value):
    """A seed, which numpy's SeedSequence takes only as an integer >= 0.
    Checked where it is read, so a negative seed names its flag or key
    before anything is drawn."""
    seed = int(value)
    if seed < 0:
        raise ValueError(value)
    return seed


# argparse names a flag's type in its error message
_seed.__name__ = "non-negative integer"


def _parse_list(parse):
    """Parser of a comma-separated list of ``parse`` values."""

    def parse_list(value):
        return tuple(parse(x.strip()) for x in value.split(",") if x.strip())

    # argparse names a flag's type in its error message
    parse_list.__name__ = f"_parse_{parse.__name__}_list"
    return parse_list


# Each spec's config keys, in the order they are read: key -> (field, parser).
_DATA_KEYS = (
    (DesignSpec, {"design_kind": ("kind", str), "n": ("n", int), "M": ("M", int),
                  "T": ("T", int), "rho": ("rho", float),
                  "normalize": ("normalize", _parse_bool)}),
    (SignalSpec, {"signal_s": ("s", int), "signal_amplitude": ("amplitude", str),
                  "signal_mu": ("mu", float), "signal_scale": ("scale", float)}),
    (NoiseSpec, {"noise_kind": ("kind", str), "noise_sigma": ("sigma", float),
                 "noise_nu": ("nu", float)}),
)
_EXPERIMENT_KEYS = {
    "replicates": ("replicates", int), "seed": ("seed", _seed),
    "solver_algorithm": ("algorithm", str), "solver_tol": ("kkt_tolerance", float),
    "solver_max_iter": ("max_iterations", int),
    "regime": ("regime", str), "plan_sigma": ("plan_sigma", float),
    "A": ("A", float), "delta": ("delta", float),
}
# The keys of the bound certificates, which a lasso comparison does not run.
_BOUND_KEYS = {
    "kappa_source": ("kappa_source", str), "kappa": ("kappa", float),
    "kappa2s": ("kappa2s", float), "phi_max": ("phi_max", float),
    "alpha": ("alpha", float), "p_values": ("p_values", _parse_list(float)),
    "bounds": ("bound_set", _parse_list(str)),
}
# The keys only some kinds of experiment read; any other kind rejects them
# as unknown.
_KIND_KEYS = {
    "oracle": _BOUND_KEYS,
    "selection": {**_BOUND_KEYS, "margin": ("margin", float)},
    "lasso-comparison": {"lasso_A": ("lasso_constant", float),
                         "T_grid": ("T_grid", _parse_list(int))},
}


def _from_config(cfg, spec, keys, **fields):
    """``spec(**fields)`` plus the fields ``keys`` maps config keys to.  A
    key the file lacks keeps its field's default; a field without one
    makes the key required."""
    optional = {
        f.name for f in dataclasses.fields(spec) if f.default is not dataclasses.MISSING
    }
    for key, (name, parse) in keys.items():
        if key in cfg or name not in optional:
            fields[name] = cfg.get(key, parse)
    return spec(**fields)


def _data_specs(cfg):
    """The (design, signal, noise) specs that ``gen`` and ``experiment`` share."""
    return [_from_config(cfg, spec, keys) for spec, keys in _DATA_KEYS]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen(args, run):
    design, signal, noise = _data_specs(run.cfg)
    seed = run.cfg.get("seed", _seed)
    run.cfg.finish()

    dataset, beta_star = generate_dataset(design, signal, noise, seed)
    manifest = run.path("manifest.txt")
    write_dataset(dataset, args.out)
    beta_path = run.path("beta_star.csv")
    write_coefficients(beta_star, beta_path)
    _report([("manifest", manifest), ("beta_star", beta_path)])
    return 0


def _cmd_solve(args, run):
    lam = getattr(args, "lambda")  # a keyword, so not args.lambda
    config = SolverConfig(
        lam=lam, algorithm=args.algorithm, max_iterations=args.max_iter, kkt_tolerance=args.tol
    )
    result = solve_group_lasso(read_dataset(args.data), config)

    write_coefficients(result.beta_hat, run.path("beta_hat.csv"))
    _report([
        ("algorithm", args.algorithm),
        ("lambda", lam),
        ("iterations", result.iterations),
        ("kkt_residual", result.kkt_residual),
        ("objective", result.objective_trace[-1]),
        ("converged", result.converged),
    ], run.path("report.txt"))
    return 0 if result.converged else 2


# The select flags that compute tau; an explicit --tau reads none of them.
_TAU_FLAGS = ("regime", "sigma", "n", "T", "M", "A", "delta", "alpha")


def _resolve_tau(args, run):
    """--tau, or the threshold the other flags compute; the regime, gaussian
    unless --regime says otherwise, joins the run's settings."""
    if args.tau is not None:
        unread = [f"--{flag}" for flag in _TAU_FLAGS if getattr(args, flag) is not None]
        if unread:
            raise ValueError(
                f"--tau is given, so {', '.join(unread)} would be ignored; "
                "pass --tau or the flags that compute it"
            )
        if not 0 < args.tau < math.inf:
            raise ValueError(f"--tau must be positive and finite, got {args.tau}")
        return args.tau
    needed = [args.sigma, args.alpha, args.n, args.M]
    if any(v is None for v in needed):
        raise ValueError(
            "pass --tau directly, or --sigma --alpha --n --M "
            "(plus --T and --A for the gaussian regime, --delta for finite-variance)"
        )
    regime = run.settings["regime"] = args.regime or GAUSSIAN
    check_regime_constant(regime, args.A, args.delta, "--")
    if args.T is None and regime == GAUSSIAN:
        raise ValueError("the gaussian threshold needs --T")
    # The finite-variance tau reads neither T nor lam, so any T gives it.
    T = 1 if args.T is None else args.T
    plan = RegularizationPlan(regime, args.sigma, args.n, T, args.M, args.A, args.delta)
    return plan.threshold(args.alpha)[1]


def _cmd_select(args, run):
    beta = read_coefficients(args.beta)
    tau = run.settings["tau"] = _resolve_tau(args, run)
    selected = select_support(beta, tau)
    averages = (column.tolist() for column in average_sign_estimate(beta, tau))

    if args.out:
        write_lines(run.path("selected.txt"), selected)
        write_lines(run.path("averages.csv"), map(format_row, zip(*averages)))
    for j in selected:
        _print(j)
    return 0


def _cmd_check(args, run):
    limit = coherence_limit(args.s, args.alpha)
    if args.re_samples < 0:
        raise ValueError(
            f"--re-samples must be >= 0 (0 skips the estimate), got {args.re_samples}"
        )
    dataset = read_dataset(args.data)
    _validate_sparsity_range(args.s, dataset.M)
    run.stage("read")
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
    run.stage("diagnose")
    if args.re_samples > 0:
        estimate = re_upper_estimate(dataset, args.s, args.re_samples, args.seed)
        pairs.append(("kappa_upper_estimate", estimate))
    run.stage("re_probe")
    _report(pairs, run.path("report.txt") if args.out else None)
    return 0


def _cmd_bounds(args, run):
    c1_names = distinct_p_names("c1", args.p, "--p")
    regime = args.regime or GAUSSIAN
    if args.p and regime != GAUSSIAN:
        raise ValueError("--p: the c1 constants are defined for the gaussian regime only")
    if args.p and args.alpha is None:
        raise ValueError("--p: the c1 constants need --alpha")
    if args.c_prime is not None and regime == GAUSSIAN:
        raise ValueError("--c-prime: only the finite-variance confidence reads c'")
    check_regime_constant(regime, args.A, args.delta, "--")
    plan = RegularizationPlan(regime, args.sigma, args.n, args.T, args.M, args.A, args.delta)
    pairs = [("lambda", plan.lam)]
    if plan.confidence is not None:
        pairs += [("q", plan.q), ("confidence", plan.confidence)]
    elif args.c_prime is not None:  # the level waits for the design statistic c'
        confidence, vacuous = finite_variance_confidence(plan.M, plan.delta, args.c_prime)
        pairs += [("confidence", confidence), ("confidence_vacuous", vacuous)]
    if args.alpha is not None:
        c, tau = plan.threshold(args.alpha)
        pairs += [("c", c), ("tau", tau)]
        pairs += [(name, norm_bound_constant_c1(args.alpha, p))
                  for name, p in zip(c1_names, args.p)]
    _report(pairs)
    return 0


def _cmd_verify_lemmas(args, run):
    for flag, replicates, least in (
        ("--chi-replicates", args.chi_replicates, MIN_TAIL_REPLICATES),
        ("--nem-replicates", args.nem_replicates, MIN_MOMENT_REPLICATES),
        ("--event-replicates", args.event_replicates, MIN_TAIL_REPLICATES),
    ):
        if replicates < least:
            raise ValueError(f"{flag} must be at least {least}, got {replicates}")

    # Each check returns its report lines as (leading pairs, report).
    def chi_square(T):
        offsets = (T / 2.0, float(T), 4.0 * T)
        reports = chi_square_tail_empirical(T, offsets, args.chi_replicates, args.seed)
        return [
            ([("check", "chi-square-tail"), ("T", T), ("x", x)], report)
            for x, report in zip(offsets, reports)
        ]

    def moment(M, distribution):
        report = nemirovski_check(M, 20, distribution, args.nem_replicates, args.seed)
        return [([("check", "sup-norm-moment"), ("M", M), ("distribution", distribution)],
                 report)]

    def noise_event():
        plan = RegularizationPlan(GAUSSIAN, 1.0, 64, 16, 8, A=9.0)
        dataset, _ = generate_dataset(
            DesignSpec(kind="orthogonal", n=plan.n, M=plan.M, T=plan.T), SignalSpec(s=0),
            NoiseSpec(kind="gaussian", sigma=plan.sigma), args.seed,
        )
        report = noise_correlation_violation_rate(
            dataset, plan, args.event_replicates, args.seed
        )
        return [([("check", "noise-correlation-event"), ("n", plan.n), ("T", plan.T),
                  ("M", plan.M), ("A", plan.A)], report)]

    checks = [functools.partial(chi_square, T) for T in (4, 16)]
    checks += [
        functools.partial(moment, M, distribution)
        for M in (3, 10, 100) for distribution in ("rademacher", "gaussian")
    ]
    checks.append(noise_event)
    # One map, one key a check; a check draws its chunks in the worker that runs it.
    # The costliest checks end the report, so they are dealt first.
    results = _map_in_key_order(lambda check: check(), checks[::-1])[::-1]
    rows = [row for lines in results for row in lines]

    text = [" ".join(keyvalue_lines(pairs + record_pairs(report))) for pairs, report in rows]
    if args.out:
        write_lines(run.path("lemma_checks.txt"), text)
    _print("\n".join(text))
    return 2 if any(not report.passed for _, report in rows) else 0


def _experiment_config(cfg, kind):
    design, signal, noise = _data_specs(cfg)
    return _from_config(
        cfg, ExperimentConfig, {**_EXPERIMENT_KEYS, **_KIND_KEYS.get(kind, {})},
        design=design, signal=signal, noise=noise,
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
        pairs += [(f"T{row.T}_{name}", value) for name, value in record_pairs(row)[1:]]
    pairs.append(("required_pass", report.required_pass()))
    return pairs


def _cmd_experiment(args, run):
    cfg = run.cfg
    kind = cfg.get("kind")
    if kind not in ("oracle", "selection", "lasso-comparison"):
        raise ValueError(
            f"{args.config}: kind must be oracle, selection, or lasso-comparison, "
            f"got {kind!r}"
        )
    config = _experiment_config(cfg, kind)
    cfg.finish()

    if kind == "oracle":
        report = run_oracle_experiment(config)
    elif kind == "selection":
        report = run_selection_experiment(config)
    else:
        report = run_lasso_comparison(config)

    err2p = distinct_p_names("err2p", config.p_values, "p_values")
    write_records(run.path("replicates.csv"), report.metrics, {"err_2p": err2p})
    _report(_summary_pairs(report), run.path("summary.txt"))
    return 0 if report.required_pass() else 2


# ---------------------------------------------------------------------------
# parser

def _add_threshold_flags(p, required):
    """The flags ``select`` and ``bounds`` share; ``bounds`` requires the
    noise level and problem sizes.  An absent --regime stays None, so that
    ``select --tau`` can tell it from an explicit one; it reads as
    gaussian."""
    p.add_argument("--regime", choices=list(REGIMES))
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
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--algorithm", default=SolverConfig.algorithm, choices=ALGORITHMS)
    p.add_argument("--tol", type=float, default=SolverConfig.kkt_tolerance)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="print tuning constants and thresholds")
    _add_threshold_flags(p, required=True)
    p.add_argument("--c-prime", type=float)
    p.add_argument("--p", type=_parse_list(float), default=())
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-lemmas", help="run the probability checks")
    p.add_argument("--seed", type=_seed, default=0)
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
        run = _Run(args)
        code = args.func(args, run)
        if run.outputs:
            run.write_manifest(args.subcommand)
        return code
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
