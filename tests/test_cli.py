import math
import os

import numpy as np
import pytest

import mtgl.cli as cli
from mtgl.dataio import read_coefficients, read_dataset, read_keyvalue
from mtgl.model import group_support
from mtgl.regularization import selection_threshold, threshold_constant_c
from mtgl.solver import SolverConfig, solve_group_lasso

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

ORACLE_CONFIG = """\
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
replicates=4
seed=0
"""


def _write(path, text):
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdout_pairs(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_help_and_version(capsys):
    assert _run(capsys, "--help")[0] == 0
    assert _run(capsys, "--version")[0] == 0


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    assert err.startswith("error:")


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = _run(capsys, "bounds", "--sigma", "1", "--wat", "3")
    assert code == 1
    assert err.startswith("error:")


def test_bounds_gaussian_frozen_values(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--sigma", "1", "--n", "100", "--T", "4",
        "--M", "10", "--A", "9",
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert pairs["lambda"] == "0.33707021402777804"
    assert pairs["q"] == "2.25"
    assert pairs["confidence"] == "0.94376586748096514"


def test_bounds_with_threshold_and_norm_constants(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--sigma", "1", "--n", "100", "--T", "4",
        "--M", "10", "--A", "9", "--alpha", "2", "--p", "1,2",
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert float(pairs["c"]) == threshold_constant_c(2.0, 1.0, "gaussian")
    assert "tau" in pairs and "c1_1" in pairs and "c1_2" in pairs


def test_bounds_gaussian_needs_A(capsys):
    code, _, err = _run(
        capsys, "bounds", "--sigma", "1", "--n", "100", "--T", "4", "--M", "10"
    )
    assert code == 1
    assert "--A" in err


def test_bounds_finite_variance(capsys):
    code, out, _ = _run(
        capsys, "bounds", "--regime", "finite-variance", "--sigma", "1",
        "--n", "100", "--T", "9", "--M", "32", "--delta", "3",
        "--c-prime", "4.0",
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert pairs["lambda"] == "0.40037751159850116"
    assert "confidence" in pairs and pairs["confidence_vacuous"] in ("true", "false")


def test_bounds_rejects_p_in_finite_variance_regime(capsys):
    # The c1 constants come from the gaussian (2,1) and (2,inf) bounds.
    code, out, err = _run(
        capsys, "bounds", "--regime", "finite-variance", "--sigma", "1",
        "--n", "100", "--T", "4", "--M", "10", "--delta", "3",
        "--alpha", "8", "--p", "1,2",
    )
    assert code == 1 and out == ""
    assert "--p" in err and "gaussian" in err


def test_bounds_rejects_p_without_alpha(capsys):
    # c1 is built from alpha, so --p alone would be ignored
    code, out, err = _run(
        capsys, "bounds", "--sigma", "1", "--n", "100", "--T", "4",
        "--M", "10", "--A", "9", "--p", "1,2",
    )
    assert code == 1 and out == ""
    assert "--p" in err and "--alpha" in err


def test_gen_writes_dataset_and_manifest(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    out_dir = tmp_path / "data"
    code, out, err = _run(capsys, "gen", "--config", config, "--out", str(out_dir))
    assert code == 0
    pairs = _stdout_pairs(out)
    data = read_dataset(pairs["manifest"])
    assert (data.n, data.M, data.T) == (32, 8, 4)
    beta = read_coefficients(pairs["beta_star"])
    assert len(group_support(beta, 0.0)) == 2
    assert "run-manifest:" in err
    manifest_pairs = read_keyvalue(out_dir / "run_manifest.txt")
    assert manifest_pairs["subcommand"] == "gen"
    assert manifest_pairs["config_seed"] == "3"


def test_gen_rerun_is_byte_identical(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    for name in ("a", "b"):
        assert _run(capsys, "gen", "--config", config, "--out", str(tmp_path / name))[0] == 0
    names_a = sorted(os.listdir(tmp_path / "a"))
    assert names_a == sorted(os.listdir(tmp_path / "b"))
    for name in names_a:
        if name == "run_manifest.txt":  # holds wall-clock duration
            continue
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_unknown_key_is_diagnosed(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG + "flavor=mint\n")
    code, _, err = _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "d"))
    assert code == 1
    assert "flavor" in err


def test_gen_missing_key_is_diagnosed(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", "design_kind=orthogonal\nn=32\nM=8\nT=4\n")
    code, _, err = _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "d"))
    assert code == 1
    assert "signal_s" in err


def test_solve_select_pipeline(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    manifest = str(data_dir / "manifest.txt")

    fit_dir = tmp_path / "fit"
    code, out, _ = _run(
        capsys, "solve", "--data", manifest, "--lambda", "0.3",
        "--out", str(fit_dir),
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert pairs["converged"] == "true"
    report = read_keyvalue(fit_dir / "report.txt")
    assert report["algorithm"] == "block-coordinate"
    assert float(report["kkt_residual"]) <= 1e-8

    # the written estimate matches an in-process solve exactly
    direct = solve_group_lasso(read_dataset(manifest), SolverConfig(lam=0.3))
    written = read_coefficients(fit_dir / "beta_hat.csv")
    np.testing.assert_array_equal(written.values, direct.beta_hat.values)

    sel_dir = tmp_path / "sel"
    code, out, _ = _run(
        capsys, "select", "--beta", str(fit_dir / "beta_hat.csv"),
        "--tau", "1.0", "--out", str(sel_dir),
    )
    assert code == 0
    selected = [int(x) for x in out.split()]
    truth = sorted(group_support(read_coefficients(data_dir / "beta_star.csv"), 0.0))
    assert selected == truth
    assert (sel_dir / "selected.txt").read_text().split() == out.split()
    averages = (sel_dir / "averages.csv").read_text().strip().splitlines()
    assert len(averages) == 8  # one row per coefficient group


def test_select_computes_threshold_from_plan(tmp_path, capsys):
    beta_path = tmp_path / "beta.csv"
    beta_path.write_text("3,3\n0,0\n")
    code, out, _ = _run(
        capsys, "select", "--beta", str(beta_path), "--sigma", "2",
        "--alpha", "2", "--n", "100", "--M", "10", "--T", "4", "--A", "9",
    )
    assert code == 0
    c = threshold_constant_c(2.0, 2.0, "gaussian")
    tau = selection_threshold(c, 100, 10, 4, 9.0, "gaussian")
    assert ([int(x) for x in out.split()] == [0]) == (3.0 > tau)


def test_select_rejects_bad_tau_and_missing_plan(tmp_path, capsys):
    beta_path = tmp_path / "beta.csv"
    beta_path.write_text("1,1\n")
    code, _, err = _run(capsys, "select", "--beta", str(beta_path), "--tau", "-1")
    assert code == 1 and "tau" in err
    code, _, err = _run(capsys, "select", "--beta", str(beta_path), "--sigma", "1")
    assert code == 1 and "--alpha" in err


def test_select_rejects_non_finite_coefficients(tmp_path, capsys):
    for bad in ("nan", "inf"):
        beta_path = tmp_path / f"beta_{bad}.csv"
        beta_path.write_text(f"3,3\n{bad},1\n")
        code, out, err = _run(capsys, "select", "--beta", str(beta_path), "--tau", "1")
        assert code == 1 and "non-finite" in err
        assert out == ""


@pytest.mark.parametrize("flags", [
    ("--lambda", "inf"),
    ("--lambda", "nan"),
    ("--lambda", "0.1", "--tol", "inf"),
    ("--lambda", "0.1", "--tol", "nan"),
])
def test_solve_rejects_non_finite_settings(tmp_path, capsys, flags):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))
    fit_dir = tmp_path / "fit"
    code, out, err = _run(
        capsys, "solve", "--data", str(tmp_path / "data" / "manifest.txt"),
        *flags, "--out", str(fit_dir),
    )
    assert code == 1 and out == ""
    assert "finite" in err
    assert not (fit_dir / "beta_hat.csv").exists()


def test_experiment_rejects_non_finite_solver_tol(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG + "solver_tol=inf\n")
    out_dir = tmp_path / "exp"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert "kkt_tolerance" in err
    assert not out_dir.exists()


def test_solve_runs_on_unnormalized_dataset(tmp_path, capsys):
    config = _write(
        tmp_path / "gen.cfg",
        GEN_CONFIG.replace("orthogonal", "gaussian-iid") + "normalize=false\n",
    )
    _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))
    manifest = str(tmp_path / "data" / "manifest.txt")
    assert not read_dataset(manifest).unit_diagonal
    objectives = {}
    for algorithm in ("block-coordinate", "proximal-gradient"):
        code, out, _ = _run(
            capsys, "solve", "--data", manifest, "--lambda", "0.1",
            "--algorithm", algorithm, "--max-iter", "20000",
            "--out", str(tmp_path / algorithm),
        )
        assert code == 0
        pairs = _stdout_pairs(out)
        assert pairs["converged"] == "true"
        objectives[algorithm] = float(pairs["objective"])
    assert objectives["block-coordinate"] == pytest.approx(
        objectives["proximal-gradient"], rel=1e-9
    )


def test_solve_rejects_malformed_dataset(tmp_path, capsys):
    bad = tmp_path / "manifest.txt"
    bad.write_text("n=4\nM=2\n")  # missing T and files
    code, _, err = _run(
        capsys, "solve", "--data", str(bad), "--lambda", "0.3",
        "--out", str(tmp_path / "fit"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_solve_rejects_unknown_algorithm(tmp_path, capsys):
    code, _, err = _run(
        capsys, "solve", "--data", "x", "--lambda", "0.3",
        "--algorithm", "newton", "--out", str(tmp_path / "fit"),
    )
    assert code == 1


def test_check_reports_orthogonal_design(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    code, out, _ = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"),
        "--s", "2", "--alpha", "2", "--re-samples", "20",
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert float(pairs["unit_diagonal_max_deviation"]) <= 1e-10
    assert float(pairs["max_coherence"]) <= 1e-10
    assert pairs["admissible"] == "true"
    assert float(pairs["kappa_lower"]) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert float(pairs["kappa_upper_estimate"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--s", "0", "error: sparsity s must be >= 1, got 0"),
        ("--alpha", "0", "error: coherence slack alpha must exceed 1, got 0.0"),
        ("--alpha", "1", "error: coherence slack alpha must exceed 1, got 1.0"),
        ("--re-samples", "-5", "error: --re-samples must be >= 0"),
    ],
)
def test_check_rejects_bad_settings(tmp_path, capsys, flag, value, message):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    settings = {"--s": "2", "--alpha": "2", "--re-samples": "5"}
    settings[flag] = value
    argv = [item for pair in settings.items() for item in pair]
    code, out, err = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"), *argv
    )
    assert code == 1
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("re_samples", ["0", "5"])
def test_check_rejects_sparsity_above_M(tmp_path, capsys, re_samples):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    code, out, err = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"),
        "--s", "9", "--alpha", "2", "--re-samples", re_samples,
        "--out", str(tmp_path / "chk"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: sparsity s must be in 1..M=8, got 9")
    assert not (tmp_path / "chk" / "report.txt").exists()


def test_check_zero_re_samples_skips_estimate(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    code, out, _ = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"),
        "--s", "2", "--alpha", "2", "--re-samples", "0",
    )
    assert code == 0
    pairs = _stdout_pairs(out)
    assert "kappa_lower" in pairs and "kappa_upper_estimate" not in pairs


def test_check_manifest_records_stage_timings(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    code, out, _ = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"),
        "--s", "2", "--alpha", "2", "--re-samples", "10",
        "--out", str(tmp_path / "chk"),
    )
    assert code == 0
    manifest = read_keyvalue(str(tmp_path / "chk" / "run_manifest.txt"))
    for key in ("read_s", "diagnose_s", "re_probe_s"):
        assert float(manifest[key]) >= 0.0
    # the timings go to the manifest only; the report is the stdout
    assert (tmp_path / "chk" / "report.txt").read_text() == out
    assert "read_s" not in out


def test_verify_lemmas_small_run(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "verify-lemmas", "--chi-replicates", "1000",
        "--nem-replicates", "1000", "--event-replicates", "1000",
        "--out", str(tmp_path / "checks"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # 6 tail + 6 moment + 1 event
    assert sum("check=chi-square-tail" in line for line in lines) == 6
    assert sum("check=sup-norm-moment" in line for line in lines) == 6
    assert sum("check=noise-correlation-event" in line for line in lines) == 1
    assert all("passed=true" in line for line in lines)
    saved = (tmp_path / "checks" / "lemma_checks.txt").read_text().strip()
    assert saved == out.strip()


def test_experiment_oracle_passes(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG)
    out_dir = tmp_path / "exp"
    code, out, _ = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 0
    summary = read_keyvalue(out_dir / "summary.txt")
    assert summary["kind"] == "oracle"
    assert summary["replicates"] == "4"
    assert summary["required_pass"] == "true"
    assert "bound_prediction_rhs" in summary
    rows = (out_dir / "replicates.csv").read_text().strip().splitlines()
    assert rows[0].startswith("replicate,converged,iterations")
    assert len(rows) == 5
    assert _stdout_pairs(out)["required_pass"] == "true"


def test_experiment_failing_bound_exits_2(tmp_path, capsys):
    # plan tuned for sigma=0.01 applied to sigma=1 noise: the residual
    # correlation blows through 1.5*lambda in every replicate
    config = _write(
        tmp_path / "exp.cfg",
        ORACLE_CONFIG + "plan_sigma=0.01\nbounds=correlation\n",
    )
    out_dir = tmp_path / "exp"
    code, _, _ = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 2
    summary = read_keyvalue(out_dir / "summary.txt")
    assert summary["bound_correlation_coverage"] == "0"
    assert summary["required_pass"] == "false"


def test_experiment_unknown_kind_and_key(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG.replace("kind=oracle", "kind=magic"))
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 1 and "magic" in err

    config = _write(tmp_path / "exp2.cfg", ORACLE_CONFIG + "T_grid=1,4\n")
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 1 and "T_grid" in err  # only lasso-comparison reads T_grid


SELECTION_CONFIG = ORACLE_CONFIG.replace("kind=oracle", "kind=selection") + """\
alpha=8
margin=2.5
p_values=1,2,4
"""

COMPARISON_CONFIG = """\
kind=lasso-comparison
design_kind=gaussian-iid
n=40
M=8
T=1
signal_s=2
A=9
replicates=3
seed=0
T_grid=1,4
"""


@pytest.mark.parametrize("text", [
    pytest.param(ORACLE_CONFIG, id="oracle"),
    pytest.param(SELECTION_CONFIG, id="selection"),
    pytest.param(COMPARISON_CONFIG, id="lasso-comparison"),
])
def test_experiment_thread_count_does_not_change_outputs(
    text, tmp_path, capsys, monkeypatch
):
    config = _write(tmp_path / "exp.cfg", text)
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MTGL_THREADS", threads)
        out_dir = tmp_path / f"t{threads}"
        assert _run(capsys, "experiment", "--config", config, "--out", str(out_dir))[0] == 0
        outputs[threads] = (
            (out_dir / "replicates.csv").read_bytes(),
            (out_dir / "summary.txt").read_bytes(),
        )
    assert outputs["1"] == outputs["2"]


def test_bad_thread_env_is_rejected(tmp_path, capsys, monkeypatch):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG)
    monkeypatch.setenv("MTGL_THREADS", "zero")
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 1 and "MTGL_THREADS" in err


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def boom(config):
        raise RuntimeError("solver went sideways")

    monkeypatch.setattr(cli, "run_oracle_experiment", boom)
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG)
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith("internal error: RuntimeError")


def test_linear_algebra_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is not bad input
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, _, err = _run(
        capsys, "check", "--data", str(data_dir / "manifest.txt"),
        "--s", "2", "--alpha", "2",
    )
    assert code == 3
    assert err.startswith("internal error: LinAlgError")
