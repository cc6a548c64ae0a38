"""The mutation list: one-line faults that the tests must catch.

    python tests/mutants.py

Each entry names a file of the repository, the exact old text (which
occurs exactly once there), the new text, and the tests that should fail
once the old text is replaced.  The script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, checks that the named tests
pass there unmutated, then applies one mutant at a time, runs only that
entry's tests with pytest, one test per run, and restores the file.
Each named test must kill its mutant: the pair is killed when pytest
reports the test failing, and survives when the test passes.  The
script prints one verdict per pair and exits 1 if any pair survives or
its run errs.

pytest does not collect this file (it collects ``test_*.py`` only), so
the list costs the suite nothing; ``test_mutants.py`` checks in the
suite that every old text still occurs exactly once and every named test
exists, so the list cannot rot silently.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
# pytest's exit code when it ran the tests and some failed
TESTS_FAILED = 1


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str      # relative to the repository root
    old: str
    new: str
    tests: tuple   # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "gaussian noise drawn at 1.02 sigma",
        "src/mtgl/synth.py",
        "        return noise.sigma * rng.standard_normal(size)",
        "        return 1.02 * noise.sigma * rng.standard_normal(size)",
        # the event check draws through the same law, so its reference sees it
        ("tests/test_synth.py::test_noise_has_variance_sigma_squared",
         "tests/test_probability.py::test_noise_event_matches_whole_chunk_reference"),
    ),
    Mutant(
        "one noise stream for every task",
        "src/mtgl/synth.py",
        "np.random.default_rng(children[1 + T + t])",
        "np.random.default_rng(children[1 + T])",
        ("tests/test_synth.py::test_task_noise_is_uncorrelated_across_tasks",),
    ),
    Mutant(
        "t(nu) variance factor inverted",
        "src/mtgl/synth.py",
        "np.sqrt((noise.nu - 2.0) / noise.nu)",
        "np.sqrt(noise.nu / (noise.nu - 2.0))",
        ("tests/test_synth.py::test_noise_variance_scaling",
         "tests/test_synth.py::test_noise_has_variance_sigma_squared"),
    ),
    Mutant(
        "AR(1) innovation scale 1 - rho^2 for its square root",
        "src/mtgl/synth.py",
        "scale = np.sqrt(1.0 - spec.rho**2)",
        "scale = 1.0 - spec.rho**2",
        ("tests/test_synth.py::test_generation_is_bit_identical_to_the_per_task_loop",
         "tests/test_synth.py::"
         "test_generation_with_supplied_coefficients_matches_the_per_task_loop"),
    ),
    Mutant(
        "coherence limit 1/(6 alpha s)",
        "src/mtgl/assumptions.py",
        "return 1.0 / (7.0 * alpha * s)",
        "return 1.0 / (6.0 * alpha * s)",
        ("tests/test_assumptions.py::test_coherence_limit_is_one_over_seven_alpha_s",),
    ),
    Mutant(
        "KKT slack of zero groups against 1.01 lambda",
        "src/mtgl/solver.py",
        "slack = np.linalg.norm(corr[~active], axis=1) - lam",
        "slack = np.linalg.norm(corr[~active], axis=1) - 1.01 * lam",
        ("tests/test_solver.py::test_kkt_residual_semantics",),
    ),
    Mutant(
        "q with A sqrt(T)/4",
        "src/mtgl/regularization.py",
        "self.A * math.sqrt(T) / 8.0",
        "self.A * math.sqrt(T) / 4.0",
        ("tests/test_regularization.py::test_lambda_gaussian_frozen_values",
         "tests/test_probability.py::test_noise_event_rate_below_bound"),
    ),
    Mutant(
        "selection truth at 1.05 margin tau",
        "src/mtgl/synth.py",
        "mu=margin * tau)",
        "mu=1.05 * margin * tau)",
        ("tests/test_synth.py::test_generate_beta_for_selection",),
    ),
    Mutant(
        "sign estimate from the sum, not the mean",
        "src/mtgl/selection.py",
        "a_hat = np.mean(beta_hat.values, axis=1)",
        "a_hat = np.sum(beta_hat.values, axis=1)",
        ("tests/test_selection.py::test_average_sign_estimate_hand_cases",
         "tests/test_selection.py::test_sign_chain_for_averages"),
    ),
    Mutant(
        "sup-norm error divided by T, not sqrt(T)",
        "src/mtgl/experiments.py",
        "err_2inf=float(np.max(row_norms)) / rt,",
        "err_2inf=float(np.max(row_norms)) / dataset.T,",
        ("tests/test_experiments.py::test_err2p_at_infinity_is_the_supnorm_error",),
    ),
    Mutant(
        "PASS_LEVEL times 10",
        "src/mtgl/probability.py",
        "PASS_LEVEL = 0.00135",
        "PASS_LEVEL = 0.0135",
        ("tests/test_probability.py::test_frequency_verdict_fails_where_the_wald_rule_passed",),
    ),
    Mutant(
        "moment constant without its - e",
        "src/mtgl/regularization.py",
        "return 2.0 * math.e * math.log(M) - math.e",
        "return 2.0 * math.e * math.log(M)",
        ("tests/test_probability.py::test_nemirovski_single_rademacher_vector",
         "tests/test_regularization.py::test_finite_variance_confidence"),
    ),
    Mutant(
        "baseline level at log(M) for log(MT)",
        "src/mtgl/regularization.py",
        "math.log(self.M * self.T)",
        "math.log(self.M)",
        ("tests/test_experiments.py::test_comparison_runs_and_reports",),
    ),
    Mutant(
        "a failing key does not stop the deal",
        "src/mtgl/pool.py",
        "os.lseek(self._file.fileno(), 0, os.SEEK_END)",
        "os.lseek(self._file.fileno(), 0, os.SEEK_CUR)",
        ("tests/test_pool.py::test_a_failing_key_stops_the_deal",),
    ),
    Mutant(
        "no replicate certified",
        "src/mtgl/experiments.py",
        'certify = config.kappa_source == "coherence-lemma"',
        "certify = False",
        ("tests/test_experiments.py::test_certification_rejects_correlated_design",
         "tests/test_experiments.py::test_selection_certifies_non_orthogonal_design"),
    ),
    Mutant(
        "a worker's exception dropped",
        "src/mtgl/pool.py",
        "failures.append(failure)",
        "pass",
        ("tests/test_pool.py::test_an_exception_in_a_worker_reaches_the_caller",),
    ),
    Mutant(
        "descent slack 1e12",
        "src/mtgl/solver.py",
        "_DESCENT_SLACK = 1e-12",
        "_DESCENT_SLACK = 1e12",
        ("tests/test_solver.py::test_a_step_that_raises_the_objective_aborts_the_solve",),
    ),
    Mutant(
        "a nonzero row that shrinks to zero is left as it was",
        "src/mtgl/solver.py",
        "v[:] = 0.0",
        "continue",
        ("tests/test_solver.py::test_block_coordinate_converges_on_unnormalized_design",),
    ),
    Mutant(
        "false positives counted as the missed groups",
        "src/mtgl/selection.py",
        "fp = len(selected - truth)",
        "fp = len(truth - selected)",
        ("tests/test_selection.py::test_score_selection_counts",),
    ),
    Mutant(
        "a process without sched_getaffinity runs workers",
        "src/mtgl/pool.py",
        'if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):',
        'if not hasattr(os, "fork"):',
        ("tests/test_pool.py::test_worker_count_divides_cores_by_declared_blas_threads",),
    ),
    Mutant(
        "an all-zero column normalised",
        "src/mtgl/synth.py",
        "if np.any(norms == 0.0):",
        "if False:",
        ("tests/test_synth.py::test_normalising_an_all_zero_column_is_rejected",),
    ),
    Mutant(
        "unit-diagonal tolerance 1e-2",
        "src/mtgl/assumptions.py",
        "UNIT_DIAGONAL_TOL = 1e-10",
        "UNIT_DIAGONAL_TOL = 1e-2",
        ("tests/test_probability.py::test_noise_event_requires_unit_diagonal",),
    ),
    Mutant(
        "group shrink by 1 + tau/norm",
        "src/mtgl/solver.py",
        "1.0 - tau /",
        "1.0 + tau /",
        ("tests/test_solver.py::test_block_soft_threshold_values",),
    ),
)


def _pytest(copy, tests):
    """pytest's exit code on ``tests`` in the copy."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, stdout=subprocess.DEVNULL).returncode


def run(mutants):
    """Apply each mutant to a copy of the repository and run each of its
    tests on its own; returns the (mutant name, test) pairs in which the
    test did not kill the mutant."""
    with tempfile.TemporaryDirectory(prefix="mtgl-mutants-") as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        named = sorted({test for mutant in mutants for test in mutant.tests})
        code = _pytest(copy, named)
        if code != 0:
            raise SystemExit(f"the named tests fail unmutated (pytest exit {code})")
        alive = []
        for mutant in mutants:
            path = copy / mutant.path
            original = path.read_text()
            if original.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.name}: old text does not occur exactly once")
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                for test in mutant.tests:
                    code = _pytest(copy, [test])
                    if code == TESTS_FAILED:
                        verdict = "killed"
                    else:
                        verdict = "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
                        alive.append((mutant.name, test))
                    print(f"{verdict}: {mutant.name} by {test}", flush=True)
            finally:
                path.write_text(original)
    return alive


def main():
    alive = run(MUTANTS)
    pairs = sum(len(mutant.tests) for mutant in MUTANTS)
    print(f"{pairs - len(alive)} of {pairs} (mutant, test) pairs killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
