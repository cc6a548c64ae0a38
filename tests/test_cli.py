import dataclasses
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtgl.cli as cli
import mtgl.pool as pool
from mtgl.assumptions import UNIT_DIAGONAL_TOL, gram_diagnostics
from mtgl.dataio import (
    KeyValueFile, format_float, read_coefficients, read_dataset, read_keyvalue,
)
from mtgl.model import group_support
from mtgl.regularization import RegularizationPlan, threshold_constant_c
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


def _run_record(out_dir):
    """(subcommand, settings, inputs, outputs, timing keys) of the
    manifest in ``out_dir``, each list in file order."""
    pairs = read_keyvalue(Path(out_dir) / "run_manifest.txt")
    settings = {k[len("config_"):]: v for k, v in pairs.items() if k.startswith("config_")}
    inputs = [v for k, v in pairs.items() if k.startswith("input_")]
    outputs = [v for k, v in pairs.items() if k.startswith("output_")]
    timings = [k for k in pairs if k.endswith("_s") and not k.startswith("config_")]
    assert all(float(pairs[k]) >= 0.0 for k in timings)
    return pairs["subcommand"], settings, inputs, outputs, timings


def _config_pairs(text):
    return dict(line.split("=", 1) for line in text.splitlines())


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


GAUSSIAN_BOUNDS = ("bounds", "--sigma", "1", "--n", "100", "--T", "4", "--M", "10")
FV_BOUNDS = ("bounds", "--regime", "finite-variance", "--sigma", "1", "--n", "100",
             "--T", "9", "--M", "32")


@pytest.mark.parametrize("argv, other", [
    (GAUSSIAN_BOUNDS + ("--A", "9", "--delta", "3"), "--delta"),
    (FV_BOUNDS + ("--delta", "3", "--A", "9"), "--A"),
    (FV_BOUNDS + ("--delta", "3", "--A", "9", "--alpha", "2"), "--A"),
])
def test_bounds_rejects_the_other_regimes_constant(capsys, argv, other):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"does not read {other}" in err


@pytest.mark.parametrize("argv", [
    pytest.param(("bounds", "--sigma", "inf", "--n", "100", "--T", "4", "--M", "10",
                  "--A", "9"), id="sigma"),
    pytest.param(GAUSSIAN_BOUNDS + ("--A", "inf"), id="A"),
    pytest.param(FV_BOUNDS + ("--delta", "inf"), id="delta"),
    pytest.param(FV_BOUNDS + ("--delta", "3", "--c-prime", "inf"), id="c-prime"),
    pytest.param(GAUSSIAN_BOUNDS + ("--A", "9", "--alpha", "inf", "--p", "2"),
                 id="alpha"),
])
def test_bounds_rejects_non_finite_constants(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert "finite" in err


def test_bounds_allows_p_inf(capsys):
    code, out, _ = _run(
        capsys, *GAUSSIAN_BOUNDS, "--A", "9", "--alpha", "2", "--p", "inf"
    )
    assert code == 0
    assert float(_stdout_pairs(out)["c1_inf"]) == threshold_constant_c(2.0, 1.0, "gaussian")


@pytest.mark.parametrize("regime", [(), ("--regime", "gaussian")])
def test_bounds_rejects_c_prime_in_gaussian_regime(capsys, regime):
    # the gaussian confidence needs no design statistic, so c' would be ignored
    code, out, err = _run(capsys, *GAUSSIAN_BOUNDS, *regime, "--A", "9", "--c-prime", "4")
    assert code == 1 and out == ""
    assert "--c-prime" in err


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


@pytest.mark.parametrize("p, first, second, name", [
    ("1,1.0000001", "1.0", "1.0000001", "c1_1"),
    ("4,2,2", "2.0", "2.0", "c1_2"),
])
def test_bounds_rejects_p_values_that_share_a_name(capsys, p, first, second, name):
    # Two p that agree to 6 significant digits would print one c1 name
    # twice; ExperimentConfig's p_values follow the same rule.
    code, out, err = _run(capsys, *GAUSSIAN_BOUNDS, "--A", "9", "--alpha", "2", "--p", p)
    assert code == 1 and out == ""
    assert f"--p {first} and {second} both name the bound {name}" in err


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
    assert _run_record(out_dir) == (
        "gen", _config_pairs(GEN_CONFIG), [config],
        [str(out_dir / "manifest.txt"), str(out_dir / "beta_star.csv")], ["duration_s"],
    )


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


@pytest.mark.parametrize("value, code", [("true", 0), ("false", 0), ("yes", 1)])
def test_gen_reads_normalize_as_a_boolean(value, code, tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG + f"normalize={value}\n")
    exit_code, out, err = _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "d"))
    assert exit_code == code
    if code:
        assert out == ""
        assert err == f"error: {config}: key 'normalize' has invalid value 'yes'\n"


@pytest.mark.parametrize("line, key", [
    ("rho=0.5", "rho"),       # an orthogonal design has no correlation
    ("noise_nu=3", "noise nu"),  # gaussian noise has no degrees of freedom
])
def test_gen_rejects_a_key_its_kind_does_not_read(line, key, tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG + line + "\n")
    out_dir = tmp_path / "d"
    code, out, err = _run(capsys, "gen", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {key} is read by ")
    assert not out_dir.exists()


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


def test_solve_exits_2_when_it_does_not_converge(tmp_path, capsys):
    # one sweep on a correlated design cannot reach a 1e-14 KKT residual;
    # the fit is still written, with converged=false in its report
    gen = GEN_CONFIG.replace("design_kind=orthogonal", "design_kind=ar1\nrho=0.6")
    data_dir = tmp_path / "data"
    assert _run(capsys, "gen", "--config", _write(tmp_path / "gen.cfg", gen),
                "--out", str(data_dir))[0] == 0
    fit_dir = tmp_path / "fit"
    code, out, _ = _run(
        capsys, "solve", "--data", str(data_dir / "manifest.txt"), "--lambda", "0.3",
        "--max-iter", "1", "--tol", "1e-14", "--out", str(fit_dir),
    )
    assert code == 2
    assert _stdout_pairs(out)["converged"] == "false"
    assert read_keyvalue(fit_dir / "report.txt")["converged"] == "false"
    assert sorted(os.listdir(fit_dir)) == ["beta_hat.csv", "report.txt", "run_manifest.txt"]


def test_select_writes_its_files_text_exactly(tmp_path, capsys):
    beta_path = _write(tmp_path / "beta.csv", "1,-1\n0.9,0.9\n-0.1,-0.3\n-2,-1\n")
    out_dir = tmp_path / "sel"
    code, out, _ = _run(capsys, "select", "--beta", beta_path, "--tau", "0.5",
                        "--out", str(out_dir))
    assert code == 0 and out == "0\n1\n3\n"
    assert (out_dir / "selected.txt").read_text() == "0\n1\n3\n"
    assert (out_dir / "averages.csv").read_text() == (
        "0,0,0\n"
        "0.90000000000000002,0.90000000000000002,1\n"
        "-0.20000000000000001,0,0\n"
        "-1.5,-1.5,-1\n"
    )


def test_select_computes_threshold_from_plan(tmp_path, capsys):
    beta_path = tmp_path / "beta.csv"
    beta_path.write_text("3,3\n0,0\n")
    code, out, _ = _run(
        capsys, "select", "--beta", str(beta_path), "--sigma", "2",
        "--alpha", "2", "--n", "100", "--M", "10", "--T", "4", "--A", "9",
    )
    assert code == 0
    tau = RegularizationPlan("gaussian", 2.0, 100, 4, 10, A=9.0).threshold(2.0)[1]
    assert ([int(x) for x in out.split()] == [0]) == (3.0 > tau)


def test_select_rejects_bad_tau_and_missing_plan(tmp_path, capsys):
    beta_path = tmp_path / "beta.csv"
    beta_path.write_text("1,1\n")
    code, _, err = _run(capsys, "select", "--beta", str(beta_path), "--tau", "-1")
    assert code == 1 and "tau" in err
    code, _, err = _run(capsys, "select", "--beta", str(beta_path), "--sigma", "1")
    assert code == 1 and "--alpha" in err


@pytest.mark.parametrize("flags, other", [
    (("--T", "4", "--A", "9", "--delta", "3"), "--delta"),
    (("--regime", "finite-variance", "--delta", "3", "--A", "9"), "--A"),
])
def test_select_rejects_the_other_regimes_constant(flags, other, tmp_path, capsys):
    # the computed threshold reads --A or --delta, never both
    beta_path = tmp_path / "beta.csv"
    beta_path.write_text("3,3\n0,0\n")
    code, out, err = _run(
        capsys, "select", "--beta", str(beta_path), "--sigma", "2", "--alpha", "2",
        "--n", "100", "--M", "10", *flags,
    )
    assert code == 1 and out == ""
    assert f"does not read {other}" in err


def test_select_finite_variance_tau_reads_no_T(tmp_path, capsys):
    # the finite-variance tau reads neither T nor lam, so --T may be left
    # out; an explicit one is validated as bounds validates it
    beta_path = _write(tmp_path / "beta.csv", "3,3\n0.5,0\n")
    flags = ("select", "--beta", beta_path, "--regime", "finite-variance", "--sigma", "1",
             "--alpha", "2", "--n", "100", "--M", "32", "--delta", "3")
    results = []
    for name, extra in (("no_T", ()), ("T_9", ("--T", "9"))):
        out_dir = tmp_path / name
        code, out, _ = _run(capsys, *flags, *extra, "--out", str(out_dir))
        assert code == 0 and out == "0\n"
        files = [(out_dir / f).read_bytes() for f in ("selected.txt", "averages.csv")]
        tau = read_keyvalue(str(out_dir / "run_manifest.txt"))["config_tau"]
        results.append((out, files, tau))
    assert results[0] == results[1]
    plan = RegularizationPlan("finite-variance", 1.0, 100, 1, 32, delta=3.0)
    assert results[0][2] == format_float(plan.threshold(2.0)[1])

    code, out, err = _run(capsys, *flags, "--T", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: need n >= 1 and T >= 1, got n=100, T=0")


def test_select_gaussian_tau_needs_T(tmp_path, capsys):
    beta_path = _write(tmp_path / "beta.csv", "3,3\n0,0\n")
    code, out, err = _run(
        capsys, "select", "--beta", beta_path, "--sigma", "1", "--alpha", "2",
        "--n", "100", "--M", "10", "--A", "9",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: the gaussian threshold needs --T")


@pytest.mark.parametrize("flag, value", [
    ("--regime", "gaussian"), ("--sigma", "3"), ("--n", "100"), ("--T", "4"),
    ("--M", "10"), ("--A", "9"), ("--delta", "3"), ("--alpha", "2"),
])
def test_select_rejects_tau_with_a_flag_that_computes_it(flag, value, tmp_path, capsys):
    # --tau replaces the computed threshold, so each of these would be ignored
    beta_path = _write(tmp_path / "beta.csv", "3,3\n0,0\n")
    code, out, err = _run(capsys, "select", "--beta", beta_path, "--tau", "1.5", flag, value)
    assert code == 1 and out == ""
    assert f"--tau is given, so {flag} would be ignored" in err


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
    deviation = gram_diagnostics(read_dataset(manifest)).unit_diagonal_max_deviation
    assert deviation > UNIT_DIAGONAL_TOL
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


def test_solve_rejects_oversized_manifest_as_malformed_input(tmp_path, capsys):
    # n = M = 10^9 declared for a 1 x 3 CSV: exit 1 naming the CSV, not
    # exit 3 on allocating the declared (T, n, M) array
    (tmp_path / "x.csv").write_text("1,2,3\n")
    (tmp_path / "y.csv").write_text("1\n")
    manifest = _write(
        tmp_path / "manifest.txt",
        "n=1000000000\nM=1000000000\nT=1\ndesign_0=x.csv\nresponse_0=y.csv\n",
    )
    code, out, err = _run(
        capsys, "solve", "--data", manifest, "--lambda", "0.3",
        "--out", str(tmp_path / "fit"),
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "x.csv" in err


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


def test_check_does_not_import_numpy_ma(tmp_path, capsys):
    # numpy.ma costs ~12 ms and ~0.8 MB to import; a fresh process shows
    # whether check (its RE probe included) pulls it in
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = (
        "import sys, mtgl.cli\n"
        f"code = mtgl.cli.main(['check', '--data', {str(data_dir / 'manifest.txt')!r}, "
        "'--s', '2', '--alpha', '2', '--re-samples', '20'])\n"
        "print('numpy.ma' in sys.modules, code, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=package_root), capture_output=True, text=True,
    )
    assert "kappa_upper_estimate" in proc.stdout
    assert proc.stderr.splitlines()[-1] == "False 0", proc.stderr


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
    manifest_path = str(data_dir / "manifest.txt")
    settings = {
        "data": manifest_path, "s": "2", "alpha": "2", "re_samples": "10", "seed": "0"
    }
    assert _run_record(tmp_path / "chk") == (
        "check", settings, [manifest_path], [str(tmp_path / "chk" / "report.txt")],
        ["read_s", "diagnose_s", "re_probe_s", "duration_s"],
    )


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


def test_verify_lemmas_worker_count_does_not_change_outputs(tmp_path, capsys, use_workers):
    # replicate counts that end each check in a partial chunk
    outputs = {}
    for workers in (1, 2, 3):
        use_workers(workers)
        out_dir = tmp_path / f"w{workers}"
        code, out, _ = _run(
            capsys, "verify-lemmas", "--chi-replicates", "8193",
            "--nem-replicates", "4097", "--event-replicates", "4500",
            "--out", str(out_dir),
        )
        assert code == 0
        outputs[workers] = (out, (out_dir / "lemma_checks.txt").read_bytes())
    assert outputs[1] == outputs[2] == outputs[3]


def test_verify_lemmas_forks_once(monkeypatch, capsys, use_workers):
    # the nine checks are one map; each check's chunks run in its worker
    forks = []
    fork = pool.os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(pool.os, "fork", counted)
    use_workers(2)
    code, out, _ = _run(
        capsys, "verify-lemmas", "--chi-replicates", "8193",
        "--nem-replicates", "4097", "--event-replicates", "4500",
    )
    assert code == 0 and len(out.splitlines()) == 13
    assert len(forks) == 1


@pytest.mark.parametrize(
    "flag, value, least",
    [("--chi-replicates", "999", 1000), ("--nem-replicates", "1", 2),
     ("--event-replicates", "5", 1000)],
)
def test_verify_lemmas_checks_replicate_counts_before_drawing(
    flag, value, least, tmp_path, capsys, monkeypatch
):
    def no_draws(*args, **kwargs):
        raise AssertionError("a check ran before the replicate counts were checked")

    for name in ("chi_square_tail_empirical", "nemirovski_check",
                 "noise_correlation_violation_rate", "generate_dataset"):
        monkeypatch.setattr(cli, name, no_draws)
    out_dir = tmp_path / "checks"
    code, out, err = _run(
        capsys, "verify-lemmas", flag, value, "--out", str(out_dir)
    )
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be at least {least}, got {value}\n"
    assert not out_dir.exists()


def _forbid_draws(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    for name in ("generate_dataset", "read_dataset", "run_oracle_experiment",
                 "chi_square_tail_empirical", "nemirovski_check",
                 "noise_correlation_violation_rate", "re_upper_estimate"):
        monkeypatch.setattr(cli, name, no_draws)


@pytest.mark.parametrize("command, template, old", [
    ("gen", GEN_CONFIG, "seed=3"), ("experiment", ORACLE_CONFIG, "seed=0"),
], ids=["gen", "experiment"])
def test_negative_config_seed_is_rejected_by_its_key(
    command, template, old, tmp_path, capsys, monkeypatch
):
    # numpy's SeedSequence takes no negative seed; its own message
    # ("expected non-negative integer") named neither the key nor the file.
    config = _write(tmp_path / "run.cfg", template.replace(old, "seed=-1"))
    _forbid_draws(monkeypatch)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, command, "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == f"error: {config}: key 'seed' has invalid value '-1'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["check", "verify-lemmas"])
def test_negative_seed_flag_is_rejected_by_its_flag(command, tmp_path, capsys, monkeypatch):
    # check rejects it even when --re-samples 0 would not draw with it.
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    assert _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))[0] == 0
    flags = {
        "check": ("--data", str(tmp_path / "data" / "manifest.txt"), "--s", "2",
                  "--alpha", "2", "--re-samples", "0"),
        "verify-lemmas": ("--chi-replicates", "1000", "--nem-replicates", "2",
                          "--event-replicates", "1000"),
    }[command]
    _forbid_draws(monkeypatch)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, command, *flags, "--seed", "-1", "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err == "error: argument --seed: invalid non-negative integer value: '-1'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["experiment", "solve", "check", "verify-lemmas"])
def test_a_closed_stdout_loses_no_output_file(command, tmp_path, capsys):
    # `mtgl ... | head -1`: once the reader has gone, the command still
    # writes every file and its manifest and returns its own exit code.
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    assert _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))[0] == 0
    manifest = str(tmp_path / "data" / "manifest.txt")
    argv = {
        "experiment": ("experiment", "--config", _write(tmp_path / "exp.cfg", ORACLE_CONFIG)),
        "solve": ("solve", "--data", manifest, "--lambda", "0.3"),
        "check": ("check", "--data", manifest, "--s", "2", "--alpha", "2",
                  "--re-samples", "5"),
        "verify-lemmas": ("verify-lemmas", "--chi-replicates", "1000",
                          "--nem-replicates", "2", "--event-replicates", "1000"),
    }[command]
    expected = _run(capsys, *argv, "--out", str(tmp_path / "reference"))[0]

    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mtgl.cli", *argv, "--out", str(tmp_path / "piped")],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=package_root),
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert "error:" not in proc.stderr
    reference = sorted(os.listdir(tmp_path / "reference"))
    assert sorted(os.listdir(tmp_path / "piped")) == reference
    assert "run_manifest.txt" in reference
    for name in reference:
        if name != "run_manifest.txt":  # paths and timings differ
            piped = (tmp_path / "piped" / name).read_bytes()
            assert piped == (tmp_path / "reference" / name).read_bytes(), name


def test_verify_lemmas_writes_run_manifest(tmp_path, capsys):
    out_dir = tmp_path / "checks"
    code, _, err = _run(
        capsys, "verify-lemmas", "--seed", "3", "--chi-replicates", "1000",
        "--nem-replicates", "1001", "--event-replicates", "1002",
        "--out", str(out_dir),
    )
    assert code == 0
    assert "run-manifest:" in err
    manifest = read_keyvalue(str(out_dir / "run_manifest.txt"))
    assert manifest["subcommand"] == "verify-lemmas"
    assert manifest["config_seed"] == "3"
    assert manifest["config_chi_replicates"] == "1000"
    assert manifest["config_nem_replicates"] == "1001"
    assert manifest["config_event_replicates"] == "1002"
    assert manifest["output_0"] == str(out_dir / "lemma_checks.txt")
    assert float(manifest["duration_s"]) >= 0.0
    settings = {
        "seed": "3", "chi_replicates": "1000", "nem_replicates": "1001",
        "event_replicates": "1002",
    }
    assert _run_record(out_dir) == (
        "verify-lemmas", settings, [], [str(out_dir / "lemma_checks.txt")], ["duration_s"],
    )


# ---------------------------------------------------------------------------
# run records: what run_manifest.txt says about a run

def test_run_record_of_solve_holds_every_flag(tmp_path, capsys):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))
    manifest = str(tmp_path / "data" / "manifest.txt")
    out = tmp_path / "fit"
    assert _run(
        capsys, "solve", "--data", manifest, "--lambda", "0.3", "--out", str(out)
    )[0] == 0
    # the flags left at their defaults read SolverConfig's
    settings = {
        "data": manifest,
        "lambda": format_float(0.3),
        "algorithm": SolverConfig.algorithm,
        "tol": format_float(SolverConfig.kkt_tolerance),
        "max_iter": str(SolverConfig.max_iterations),
    }
    assert _run_record(out) == (
        "solve", settings, [manifest],
        [str(out / "beta_hat.csv"), str(out / "report.txt")], ["duration_s"],
    )


def test_run_record_of_select_holds_the_resolved_tau(tmp_path, capsys):
    beta_path = _write(tmp_path / "beta.csv", "3,3\n0,0\n")
    out = tmp_path / "sel"
    plan = ("--sigma", "2", "--alpha", "2", "--n", "100", "--M", "10", "--T", "4",
            "--A", "9")
    assert _run(capsys, "select", "--beta", beta_path, *plan, "--out", str(out))[0] == 0
    tau = RegularizationPlan("gaussian", 2.0, 100, 4, 10, A=9.0).threshold(2.0)[1]
    settings = {
        "beta": beta_path, "tau": format_float(tau), "regime": "gaussian",
        "sigma": "2", "n": "100", "T": "4", "M": "10", "A": "9", "alpha": "2",
    }
    assert _run_record(out) == (
        "select", settings, [beta_path],
        [str(out / "selected.txt"), str(out / "averages.csv")], ["duration_s"],
    )


def test_run_record_of_experiment_is_written_on_exit_2(tmp_path, capsys):
    for name, text, code in (
        ("pass", ORACLE_CONFIG, 0),
        ("fail", ORACLE_CONFIG + "plan_sigma=0.01\nbounds=correlation\n", 2),
    ):
        config = _write(tmp_path / f"{name}.cfg", text)
        out = tmp_path / name
        assert _run(capsys, "experiment", "--config", config, "--out", str(out))[0] == code
        assert _run_record(out) == (
            "experiment", _config_pairs(text), [config],
            [str(out / "replicates.csv"), str(out / "summary.txt")], ["duration_s"],
        )


@pytest.mark.parametrize("error, code", [(OSError("disk full"), 1),
                                         (RuntimeError("went sideways"), 3)])
def test_no_run_record_after_a_failure(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    _run(capsys, "gen", "--config", config, "--out", str(tmp_path / "data"))
    monkeypatch.setattr(cli, "write_coefficients", fail)
    out = tmp_path / "fit"
    assert _run(
        capsys, "solve", "--data", str(tmp_path / "data" / "manifest.txt"),
        "--lambda", "0.3", "--out", str(out),
    )[0] == code
    assert out.is_dir() and not (out / "run_manifest.txt").exists()


def test_absent_config_keys_keep_the_library_defaults(tmp_path):
    required = "kind=oracle\ndesign_kind=orthogonal\nn=32\nM=8\nT=4\nsignal_s=2\n" \
        "A=9\nreplicates=4\nseed=0\n"
    for kind in ("oracle", "selection", "lasso-comparison"):
        config = cli._experiment_config(
            KeyValueFile(_write(tmp_path / "exp.cfg", required)), kind
        )
        for spec in (config, config.design, config.signal, config.noise):
            for field in dataclasses.fields(spec):
                # A is the one field with a default that the file sets
                if field.default is not dataclasses.MISSING and field.name != "A":
                    assert getattr(spec, field.name) == field.default, field.name


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


@pytest.mark.parametrize("key", ["phi_max", "kappa", "kappa2s", "alpha"])
def test_experiment_rejects_non_finite_constants(tmp_path, capsys, key):
    lines = [line for line in ORACLE_CONFIG.splitlines() if not line.startswith(key + "=")]
    config = _write(tmp_path / "exp.cfg", "\n".join(lines + [f"{key}=inf"]) + "\n")
    out_dir = tmp_path / "exp"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert key in err and "finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind, key, message", [
    ("selection", "margin", "beta-min margin > 2, got inf"),
    ("lasso-comparison", "lasso_A", "plain-Lasso constant must exceed 2*sqrt(2)"),
], ids=["margin", "lasso_A"])
def test_experiment_rejects_an_infinite_margin_or_lasso_A(kind, key, message, tmp_path,
                                                          capsys):
    # inf passes a bare "> 2" test; either key must also be finite, and
    # fails before any replicate is drawn
    text = SELECTION_CONFIG if kind == "selection" else COMPARISON_CONFIG
    lines = [line for line in text.splitlines() if not line.startswith(key + "=")]
    config = _write(tmp_path / "exp.cfg", "\n".join(lines + [f"{key}=inf"]) + "\n")
    out_dir = tmp_path / "exp"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert message in err and "got inf" in err
    assert not out_dir.exists()


def test_experiment_rejects_infinite_signal_mu_before_drawing(tmp_path):
    # A fresh process, so numpy's warnings reach stderr as a user sees
    # them instead of being raised by this suite's warning filter.
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG + "signal_mu=inf\n")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-m", "mtgl.cli", "experiment", "--config", config,
         "--out", str(tmp_path / "exp")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "signal mu must be finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("bounds, message", [
    ("", "bounds names no bound"),
    (",", "bounds names no bound"),
    ("prediction,prediction", "bounds names ['prediction'] more than once"),
    ("predicton", "bounds names unknown bounds ['predicton']; the gaussian regime"),
    ("prediction,supnorm", "bounds names supnorm, which needs alpha; supply alpha"),
], ids=["empty", "comma", "repeated", "typo", "no-alpha"])
def test_experiment_rejects_a_bound_set_that_certifies_nothing(
    bounds, message, tmp_path, capsys
):
    # rejected before replicate 0 is drawn: no stdout and no --out files
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG + f"bounds={bounds}\n")
    out_dir = tmp_path / "exp"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}")
    assert not out_dir.exists()


def test_experiment_unknown_kind_and_key(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG.replace("kind=oracle", "kind=magic"))
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 1 and "magic" in err

    config = _write(tmp_path / "exp2.cfg", ORACLE_CONFIG + "T_grid=1,4\n")
    code, _, err = _run(capsys, "experiment", "--config", config, "--out", str(tmp_path / "o"))
    assert code == 1 and "T_grid" in err  # only lasso-comparison reads T_grid


@pytest.mark.parametrize("kind, key", [
    ("oracle", "margin=2.5"),
    ("lasso-comparison", "margin=2.5"),
    ("oracle", "lasso_A=3"),
    ("selection", "lasso_A=3"),
    *[("lasso-comparison", key) for key in (
        "kappa_source=user-supplied", "kappa=1", "kappa2s=1", "phi_max=1", "alpha=8",
        "p_values=1,2", "bounds=prediction",
    )],
])
def test_experiment_rejects_a_key_its_kind_does_not_read(kind, key, tmp_path, capsys):
    # margin is read only by selection runs, lasso_A only by comparisons;
    # a comparison certifies no bound, so it reads no bound key either
    text = {
        "oracle": ORACLE_CONFIG,
        "selection": SELECTION_CONFIG,
        "lasso-comparison": COMPARISON_CONFIG,
    }[kind]
    config = _write(tmp_path / "exp.cfg", text + key + "\n")
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert f"unknown keys ['{key.split('=')[0]}']" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra, other", [
    ("delta=3\n", "delta"),
    ("regime=finite-variance\ndelta=3\n", "A"),
])
def test_experiment_rejects_the_other_regimes_constant(extra, other, tmp_path, capsys):
    # ORACLE_CONFIG sets A, which only the gaussian regime reads
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG + extra)
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert f"does not read {other}" in err
    assert not out_dir.exists()


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
# The comparison's verdict on COMPARISON_CONFIG: at n=40, A=9 the group
# estimator is close to the zero fit, and the entrywise baseline at its
# single-task level wins every replicate at T=4, so the run exits 2.
COMPARISON_EXIT = 2


@pytest.mark.parametrize("text, exit_code", [
    pytest.param(ORACLE_CONFIG, 0, id="oracle"),
    pytest.param(SELECTION_CONFIG, 0, id="selection"),
    pytest.param(COMPARISON_CONFIG, COMPARISON_EXIT, id="lasso-comparison"),
])
def test_experiment_worker_count_does_not_change_outputs(
    text, exit_code, tmp_path, capsys, monkeypatch
):
    config = _write(tmp_path / "exp.cfg", text)
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "_worker_count", lambda: workers)
        out_dir = tmp_path / f"w{workers}"
        code, out, _ = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
        assert code == exit_code
        outputs[workers] = (
            out,
            (out_dir / "replicates.csv").read_bytes(),
            (out_dir / "summary.txt").read_bytes(),
        )
    assert outputs[1] == outputs[2] == outputs[3]


def test_experiment_rejects_p_values_that_share_a_column(tmp_path, capsys):
    config = _write(
        tmp_path / "exp.cfg", ORACLE_CONFIG + "alpha=8\np_values=1.0000001,1.0000002\n"
    )
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert "1.0000001 and 1.0000002" in err and "err2p_1" in err
    assert not out_dir.exists()


def test_experiment_outputs_ignore_thread_env(tmp_path, capsys, monkeypatch):
    # MTGL_THREADS is not read: the worker count comes from the usable
    # cores and the BLAS thread count
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG)
    outputs = {}
    for value in (None, "zero"):
        if value is None:
            monkeypatch.delenv("MTGL_THREADS", raising=False)
        else:
            monkeypatch.setenv("MTGL_THREADS", value)
        out_dir = tmp_path / f"run-{value}"
        assert _run(capsys, "experiment", "--config", config, "--out", str(out_dir))[0] == 0
        outputs[value] = (
            (out_dir / "replicates.csv").read_bytes(),
            (out_dir / "summary.txt").read_bytes(),
        )
    assert outputs[None] == outputs["zero"]


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


def test_tracer_hooks_resolve_to_callables():
    # perfbench/tracer.py wraps these attributes after `import mtgl.cli`;
    # a rename in the package must fail here, not only in traced rounds
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attribute in tracer.LAYERS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def test_dispatch_calls_the_hooked_functions_through_the_cli_module(
    tmp_path, capsys, monkeypatch
):
    # the tracer replaces these mtgl.cli attributes after import; a command
    # that held the functions from before (a dispatch table built at import,
    # say) would leave a traced round without their spans
    names = (
        "generate_dataset", "read_dataset", "solve_group_lasso",
        "run_oracle_experiment", "run_selection_experiment", "run_lasso_comparison",
        "chi_square_tail_empirical", "nemirovski_check", "noise_correlation_violation_rate",
    )
    # every call, in this process or a worker, appends its name to one log
    log = tmp_path / "calls.log"
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with open(log, "a") as handle:
                handle.write(_name + "\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    data_dir = tmp_path / "data"
    gen = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    assert _run(capsys, "gen", "--config", gen, "--out", str(data_dir))[0] == 0
    assert _run(
        capsys, "solve", "--data", str(data_dir / "manifest.txt"), "--lambda", "0.3",
        "--out", str(tmp_path / "fit"),
    )[0] == 0
    for kind, text, exit_code in (
        ("oracle", ORACLE_CONFIG, 0),
        ("selection", SELECTION_CONFIG, 0),
        ("comparison", COMPARISON_CONFIG, COMPARISON_EXIT),
    ):
        config = _write(tmp_path / f"{kind}.cfg", text)
        assert _run(
            capsys, "experiment", "--config", config, "--out", str(tmp_path / kind)
        )[0] == exit_code
    assert _run(
        capsys, "verify-lemmas", "--chi-replicates", "1000",
        "--nem-replicates", "1000", "--event-replicates", "1000",
    )[0] == 0
    calls = log.read_text().split()
    assert {name: calls.count(name) for name in names} == {
        **dict.fromkeys(names, 1), "generate_dataset": 2,
        "chi_square_tail_empirical": 2, "nemirovski_check": 6,
    }


# ---------------------------------------------------------------------------
# pinned output formats: the exact text of the files a user reads

def test_replicates_csv_header_for_oracle_with_p_values(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", ORACLE_CONFIG + "p_values=1,2,4\n")
    out_dir = tmp_path / "exp"
    assert _run(capsys, "experiment", "--config", config, "--out", str(out_dir))[0] == 0
    rows = (out_dir / "replicates.csv").read_text().splitlines()
    assert rows[0] == (
        "replicate,converged,iterations,kkt_residual,prediction_error,"
        "err_21,err_2,err_2inf,err2p_1,err2p_2,err2p_4,m_hat,"
        "correlation_stat,support_exact,sign_exact,c_prime,phi_max"
    )
    # phi_max is fixed, so no replicate is diagnosed: the last four
    # cells are empty
    assert all(row.startswith(f"{r},true,") for r, row in enumerate(rows[1:]))
    assert all(row.endswith(",,,,") for row in rows[1:])


def test_replicates_csv_header_for_lasso_comparison(tmp_path, capsys):
    config = _write(tmp_path / "exp.cfg", COMPARISON_CONFIG)
    out_dir = tmp_path / "exp"
    code = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))[0]
    assert code == COMPARISON_EXIT
    rows = (out_dir / "replicates.csv").read_text().splitlines()
    assert rows[0] == "T,replicate,group_error,plain_error,group_converged,plain_converged"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        [str(T), str(r)] for T in (1, 4) for r in range(3)
    ]
    assert all(row.endswith(",true,true") for row in rows[1:])


def test_lemma_checks_line_is_pinned(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "verify-lemmas", "--chi-replicates", "1000",
        "--nem-replicates", "1000", "--event-replicates", "1000",
        "--out", str(tmp_path / "checks"),
    )
    assert code == 0
    first = (tmp_path / "checks" / "lemma_checks.txt").read_text().splitlines()[0]
    assert first == (
        "check=chi-square-tail T=4 x=2 analytic_bound=0.88249690258459546 "
        "empirical_frequency=0.20300000000000001 replicates=1000 "
        "standard_error=0.012719709116170857 passed=true"
    )


def test_experiment_rejects_repeated_task_count(tmp_path, capsys):
    # T_grid=1,1 used to pass and write summary.txt with duplicate T1_*
    # keys, which read_keyvalue refuses
    text = COMPARISON_CONFIG.replace("T_grid=1,4", "T_grid=1,1")
    config = _write(tmp_path / "exp.cfg", text)
    out_dir = tmp_path / "exp"
    code, out, err = _run(capsys, "experiment", "--config", config, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert "T_grid must be strictly increasing" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--alpha", "inf"),
    ("check", "--alpha", "nan"),
    ("select", "--tau", "inf"),
    ("select", "--tau", "nan"),
])
def test_non_finite_thresholds_exit_1(tmp_path, capsys, command, flag, value):
    config = _write(tmp_path / "gen.cfg", GEN_CONFIG)
    data_dir = tmp_path / "data"
    _run(capsys, "gen", "--config", config, "--out", str(data_dir))
    if command == "check":
        argv = ["check", "--data", str(data_dir / "manifest.txt"), "--s", "2"]
    else:
        argv = ["select", "--beta", str(data_dir / "beta_star.csv")]
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, *argv, flag, value, "--out", str(out_dir))
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag.lstrip("-") in err
    assert not out_dir.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(intro):
    """The fenced block that follows the first README line starting with
    ``intro``, as text."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(intro))
    opening = lines.index("```", start)
    closing = lines.index("```", opening + 1)
    return "\n".join(lines[opening + 1:closing]) + "\n"


def _uncommented(block):
    """``block`` with every commented-out key=value line switched on."""
    return re.sub(r"(?m)^# (?=[A-Za-z_]\w*=)", "", block)


def test_readme_gen_config_runs_as_written(tmp_path, capsys):
    block = _readme_block("`gen.cfg` is a")
    for name, text in (("as-written", block), ("uncommented", _uncommented(block))):
        config = _write(tmp_path / f"{name}.cfg", text)
        code, _, err = _run(capsys, "gen", "--config", config, "--out", str(tmp_path / name))
        assert code == 0, (name, err)


def test_readme_experiment_config_values_hold_no_comment(tmp_path):
    # A '#' after a value is part of it, so a copied line must hold none.
    block = _readme_block("`exp.cfg` extends")
    as_written = read_keyvalue(_write(tmp_path / "as-written.cfg", block))
    uncommented = read_keyvalue(_write(tmp_path / "uncommented.cfg", _uncommented(block)))
    assert set(as_written) < set(uncommented)
    for values in (as_written, uncommented):
        assert [value for value in values.values() if "#" in value] == []
