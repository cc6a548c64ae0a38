"""End-to-end certification of the package's advertised guarantees.

Each test prints exactly one ``ACCEPTANCE <k> (<name>): PASS|FAIL`` line
(visible even under captured output) and then asserts the criterion at
its stated tolerance.  The Monte Carlo settings and coverage targets are
the package's contract; do not loosen them to make a red check green.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mtgl
import mtgl.cli as cli
import mtgl.pool as pool
from mtgl.experiments import (
    ExperimentConfig,
    run_lasso_comparison,
    run_oracle_experiment,
    run_selection_experiment,
)
from mtgl.model import objective
from mtgl.probability import (
    chi_square_tail_empirical,
    nemirovski_check,
    noise_correlation_violation_rate,
)
from mtgl.regularization import FINITE_VARIANCE, GAUSSIAN, RegularizationPlan
from mtgl.solver import SolverConfig, block_soft_threshold, solve_group_lasso
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

SEED = 20260815

# 8^(1-q) at q = min(8 ln 8, 9*sqrt(16)/8) = 4.5 (direct evaluation)
EVENT_BOUND = 0.00069053396600248786


def _verdict(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {number} ({name}) failed: {detail}"


def _orthogonal_data(T, seed, n=64, M=32, s=0, sigma=1.0):
    design = DesignSpec(kind="orthogonal", n=n, M=M, T=T)
    return generate_dataset(design, SignalSpec(s=s), NoiseSpec(sigma=sigma), seed)


def test_01_orthogonal_exactness(capsys):
    failures = []
    for T in (1, 4, 9):
        data, _ = _orthogonal_data(T, [SEED, T])
        z = np.einsum("tnm,tn->mt", data.designs, data.responses) / data.n
        lam = 0.6 * float(np.median(np.linalg.norm(z, axis=1))) / T
        closed = np.vstack([block_soft_threshold(row, lam * T) for row in z])
        for algorithm in ("block-coordinate", "proximal-gradient"):
            start = time.perf_counter()
            result = solve_group_lasso(
                data, SolverConfig(lam=lam, algorithm=algorithm)
            )
            elapsed = time.perf_counter() - start
            gap = float(np.max(np.abs(result.beta_hat.values - closed)))
            if gap > 1e-8 or elapsed >= 1.0 or not result.converged:
                failures.append((T, algorithm, gap, elapsed))
    _verdict(capsys, 1, "orthogonal-exactness", not failures, repr(failures))


def test_02_kkt_certification(capsys):
    design = DesignSpec(kind="gaussian-iid", n=50, M=20, T=4)
    signal = SignalSpec(s=5)
    noise = NoiseSpec(sigma=1.0)
    rng = np.random.default_rng(SEED)
    n_converged = 0
    worst_kkt = 0.0
    beaten = True
    for i in range(100):
        data, _ = generate_dataset(design, signal, noise, [SEED, 2, i])
        corr = np.einsum("tnm,tn->mt", data.designs, data.responses) / (50 * 4)
        cutoff = float(np.max(np.linalg.norm(corr, axis=1)))
        lam = cutoff * 10.0 ** (-3.0 * (i + 0.5) / 100.0)  # 3 decades
        result = solve_group_lasso(
            data, SolverConfig(lam=lam, kkt_tolerance=1e-8, max_iterations=5000)
        )
        if not result.converged:
            continue
        n_converged += 1
        worst_kkt = max(worst_kkt, result.kkt_residual)
        base = objective(data, result.beta_hat, lam)
        steps = rng.standard_normal((1000, 20, 4))
        scales = 10.0 ** rng.uniform(-3, 0, size=1000)
        cand = result.beta_hat.values[None] + scales[:, None, None] * steps
        fits = np.einsum("tnm,kmt->ktn", data.designs, cand)
        loss = np.sum((fits - data.responses[None]) ** 2, axis=(1, 2)) / (50 * 4)
        pen = 2.0 * lam * np.sum(np.linalg.norm(cand, axis=2), axis=1)
        if base > float(np.min(loss + pen)) + 1e-12:
            beaten = False
    ok = n_converged == 100 and worst_kkt <= 1e-6 and beaten
    _verdict(
        capsys, 2, "kkt-certification", ok,
        f"converged={n_converged}/100 worst_kkt={worst_kkt:g} beaten={beaten}",
    )


def _oracle_config(**overrides):
    settings = dict(
        design=DesignSpec(kind="orthogonal", n=64, M=32, T=9),
        signal=SignalSpec(s=4),
        noise=NoiseSpec(sigma=1.0),
        A=9.0,
        replicates=200,
        seed=SEED,
        kappa=1.0,
        kappa2s=1.0,
        phi_max=1.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_03_oracle_bound_coverage(capsys):
    start = time.perf_counter()
    report = run_oracle_experiment(_oracle_config())
    elapsed = time.perf_counter() - start
    wanted = (
        "prediction", "err21", "err2", "sparsity",
        "correlation", "sparsity_from_prediction",
    )
    coverages = {name: report.bound(name).coverage for name in wanted}
    ok = (
        all(cov >= 0.99 for cov in coverages.values())
        and report.n_converged == 200
        and elapsed < 300.0
    )
    _verdict(
        capsys, 3, "oracle-bound-coverage", ok,
        f"coverages={coverages} elapsed={elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def selection_report():
    config = _oracle_config(alpha=8.0, margin=2.5, p_values=(1.0, 2.0, 4.0))
    return run_selection_experiment(config)


def test_04_support_recovery(capsys, selection_report):
    support = selection_report.bound("support_recovery").coverage
    supnorm = selection_report.bound("supnorm").coverage
    ok = support >= 0.99 and supnorm >= 0.99
    _verdict(
        capsys, 4, "support-recovery", ok,
        f"support={support} supnorm={supnorm}",
    )


def test_05_sign_recovery(capsys, selection_report):
    coverage = selection_report.bound("sign_recovery").coverage
    _verdict(capsys, 5, "sign-recovery", coverage >= 0.99, f"coverage={coverage}")


def test_06_group_norm_error_coverage(capsys, selection_report):
    coverages = {
        p: selection_report.bound(f"err2p_{p:g}").coverage for p in (1, 2, 4)
    }
    ok = all(cov >= 0.99 for cov in coverages.values())
    _verdict(capsys, 6, "group-norm-error-coverage", ok, f"coverages={coverages}")


def test_07_heavy_tail_coverage(capsys):
    config = ExperimentConfig(
        design=DesignSpec(kind="orthogonal", n=100, M=32, T=9),
        signal=SignalSpec(s=4),
        noise=NoiseSpec(kind="student-t", sigma=1.0, nu=3.0),
        regime=FINITE_VARIANCE,
        delta=3.0,
        replicates=200,
        seed=SEED,
        kappa=1.0,
        phi_max=1.0,
        bound_set=("prediction", "err21", "sparsity"),
    )
    report = run_oracle_experiment(config)
    checks = {name: report.bound(name) for name in config.bound_set}
    ok = (
        all(check.passed for check in checks.values())
        and report.required_confidence > 0.0
        and not report.confidence_vacuous
    )
    detail = {
        name: (check.coverage, check.required_confidence)
        for name, check in checks.items()
    }
    _verdict(capsys, 7, "heavy-tail-coverage", ok, f"(coverage, required)={detail}")


def test_08_baseline_comparison(capsys):
    config = ExperimentConfig(
        design=DesignSpec(kind="gaussian-iid", n=50, M=32, T=1),
        signal=SignalSpec(s=4),
        noise=NoiseSpec(sigma=1.0),
        A=9.0,
        replicates=100,
        seed=SEED,
        T_grid=(1, 4, 16),
    )
    report = run_lasso_comparison(config)
    ratios = [row.ratio for row in report.comparison]
    win_rate = report.comparison[-1].win_rate
    monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = win_rate >= 0.9 and monotone and report.required_pass()
    _verdict(
        capsys, 8, "baseline-comparison", ok,
        f"ratios={ratios} win_rate_at_T16={win_rate}",
    )


def test_09_quadratic_tail_bound(capsys):
    failures = []
    for T in (4, 16):
        offsets = (T / 2.0, float(T), 4.0 * T)
        reports = chi_square_tail_empirical(T, offsets, 100_000, [SEED, 9])
        for x, report in zip(offsets, reports):
            if not report.passed:
                failures.append((T, x, report.empirical_frequency, report.analytic_bound))
    _verdict(capsys, 9, "quadratic-tail-bound", not failures, repr(failures))


def test_10_max_moment_inequality(capsys):
    failures = []
    for M in (3, 10, 100):
        for distribution in ("rademacher", "gaussian"):
            report = nemirovski_check(M, 20, distribution, 10_000, [SEED, 10])
            if not report.passed:
                failures.append((M, distribution, report.empirical_frequency))
    _verdict(capsys, 10, "max-moment-inequality", not failures, repr(failures))


def test_11_noise_correlation_event(capsys):
    data, _ = _orthogonal_data(T=16, seed=[SEED, 11], n=64, M=8)
    plan = RegularizationPlan(GAUSSIAN, 1.0, 64, 16, 8, A=9.0)
    report = noise_correlation_violation_rate(data, plan, 10_000, [SEED, 11])
    ok = (
        report.passed
        and plan.q == 4.5
        and report.analytic_bound == pytest.approx(EVENT_BOUND, rel=1e-15)
    )
    _verdict(
        capsys, 11, "noise-correlation-event", ok,
        f"violations={report.empirical_frequency} bound={report.analytic_bound}",
    )


GEN_CONFIG = """\
design_kind=orthogonal
n=32
M=8
T=4
signal_s=2
signal_mu=6.0
noise_sigma=0.5
seed=3
"""

EXPERIMENT_CONFIG = """\
kind=oracle
design_kind=orthogonal
n=32
M=8
T=4
signal_s=2
noise_sigma=1.0
A=9
kappa=1.0
kappa2s=1.0
phi_max=1.0
replicates=6
seed=0
"""


# The directory holding the package this test process imported. The CLI
# children run in tmp_path, where a relative PYTHONPATH entry such as
# ``src`` no longer resolves, so this goes first on their PYTHONPATH.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mtgl.__file__)))


def _cli(tmp_path, argv):
    pythonpath = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "mtgl.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        if name == "run_manifest.txt":  # wall-clock duration differs by run
            continue
        with open(os.path.join(root, name), "rb") as handle:
            out[name] = handle.read()
    return out


def test_12_cli_determinism(capsys, tmp_path, monkeypatch):
    (tmp_path / "gen.cfg").write_text(GEN_CONFIG)
    (tmp_path / "exp.cfg").write_text(EXPERIMENT_CONFIG)

    for name in ("g1", "g2"):
        _cli(tmp_path, ["gen", "--config", "gen.cfg", "--out", name])
    gen_same = _tree_bytes(tmp_path / "g1") == _tree_bytes(tmp_path / "g2")

    for name in ("e1", "e2"):
        _cli(tmp_path, ["experiment", "--config", "exp.cfg", "--out", name])
    exp_rerun_same = _tree_bytes(tmp_path / "e1") == _tree_bytes(tmp_path / "e2")

    # the same run in this process on 1, 2 and 3 replicate workers
    workers_same = True
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "_worker_count", lambda: workers)
        out = tmp_path / f"w{workers}"
        code = cli.dispatch(
            ["experiment", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]
        )
        workers_same &= code == 0 and _tree_bytes(out) == _tree_bytes(tmp_path / "e1")

    ok = gen_same and exp_rerun_same and workers_same
    _verdict(
        capsys, 12, "cli-determinism", ok,
        f"gen={gen_same} rerun={exp_rerun_same} workers={workers_same}",
    )
