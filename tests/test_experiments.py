import math
from dataclasses import replace

import numpy as np
import pytest

from mtgl import experiments
from mtgl.experiments import (
    BoundCheck,
    ComparisonRow,
    ExperimentConfig,
    ExperimentReport,
    ReplicateMetrics,
    oracle_bounds_rhs,
    run_lasso_comparison,
    run_oracle_experiment,
    run_selection_experiment,
)
from mtgl.model import GroupCoefficients, MultiTaskDataset
from mtgl.regularization import FINITE_VARIANCE, GAUSSIAN, RegularizationPlan
from mtgl.solver import (
    SolverConfig,
    lasso_kkt_residual,
    solve_group_lasso,
    solve_lasso_baseline,
)
from mtgl.synth import DesignSpec, NoiseSpec, SignalSpec, generate_dataset

# Oracle for the frozen values below: direct evaluation of the stated
# closed-form right sides (sigma=1, n=64, M=32, T=9, A=9, s=4, all
# curvature constants 1, alpha=8).
PREDICTION_RHS = 45.58883083359672
ERR21_RHS = 54.01560120326525
ERR2_RHS = 21.351541123206243
SPARSITY_RHS = 256.0
CORRELATION_RHS = 0.42199688440050975
SUPNORM_RHS = 1.541580455259005
ERR2P2_RHS = 9.75525617114141
FV_PREDICTION_RHS = 92.33403943323337
FV_ERR21_RHS = 76.87248222691223
FV_ERR2SQ_RHS = 923.3403943323339


def _gaussian_plan(sigma=1.0, n=64, T=9, M=32, A=9.0):
    return RegularizationPlan(GAUSSIAN, sigma, n, T, M, A=A)


def _small_config(**overrides):
    settings = dict(
        design=DesignSpec(kind="orthogonal", n=32, M=8, T=4),
        signal=SignalSpec(s=2),
        noise=NoiseSpec(sigma=1.0),
        A=9.0,
        replicates=6,
        seed=0,
        kappa=1.0,
        kappa2s=1.0,
        phi_max=1.0,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_gaussian_rhs_frozen_values():
    rhs = oracle_bounds_rhs(
        _gaussian_plan(), s=4, kappa=1.0, kappa2s=1.0, phi_max=1.0,
        alpha=8.0, p_values=(2.0,),
    )
    assert rhs["prediction"] == pytest.approx(PREDICTION_RHS, rel=1e-15)
    assert rhs["err21"] == pytest.approx(ERR21_RHS, rel=1e-15)
    assert rhs["err2"] == pytest.approx(ERR2_RHS, rel=1e-15)
    assert rhs["sparsity"] == SPARSITY_RHS
    assert rhs["correlation"] == pytest.approx(CORRELATION_RHS, rel=1e-15)
    assert rhs["supnorm"] == pytest.approx(SUPNORM_RHS, rel=1e-15)
    assert rhs["err2p_2"] == pytest.approx(ERR2P2_RHS, rel=1e-15)


def test_finite_variance_rhs_frozen_values():
    plan = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    rhs = oracle_bounds_rhs(plan, s=4, kappa=1.0, kappa2s=1.0)
    assert rhs["prediction"] == pytest.approx(FV_PREDICTION_RHS, rel=1e-15)
    assert rhs["err21"] == pytest.approx(FV_ERR21_RHS, rel=1e-15)
    assert rhs["err2_sq"] == pytest.approx(FV_ERR2SQ_RHS, rel=1e-15)
    assert "correlation" not in rhs
    assert "err2" not in rhs


def test_rhs_optional_ingredients_control_keys():
    plan = _gaussian_plan()
    bare = oracle_bounds_rhs(plan, s=4, kappa=1.0)
    assert set(bare) == {"prediction", "err21", "correlation"}
    with_alpha = oracle_bounds_rhs(plan, s=4, kappa=1.0, alpha=8.0, p_values=(1.0, 4.0))
    assert set(with_alpha) == {
        "prediction", "err21", "correlation", "supnorm", "err2p_1", "err2p_4",
    }
    fv = RegularizationPlan(FINITE_VARIANCE, 1.0, 100, 9, 32, delta=3.0)
    fv_full = oracle_bounds_rhs(fv, s=4, kappa=1.0, kappa2s=1.0, phi_max=2.0, alpha=4.0)
    assert set(fv_full) == {"prediction", "err21", "err2_sq", "supnorm", "sparsity"}


def test_rhs_sigma_homogeneity():
    lo = oracle_bounds_rhs(_gaussian_plan(sigma=1e-6), s=4, kappa=1.0, kappa2s=1.0)
    assert lo["prediction"] == pytest.approx(PREDICTION_RHS * 1e-12, rel=1e-12)
    assert lo["err21"] == pytest.approx(ERR21_RHS * 1e-6, rel=1e-12)
    assert lo["err2"] == pytest.approx(ERR2_RHS * 1e-6, rel=1e-12)


def test_rhs_validation_errors():
    plan = _gaussian_plan()
    with pytest.raises(ValueError):
        oracle_bounds_rhs(plan, s=0, kappa=1.0)
    with pytest.raises(ValueError):
        oracle_bounds_rhs(plan, s=4, kappa=0.0)
    with pytest.raises(ValueError):
        oracle_bounds_rhs(plan, s=4, kappa=1.0, kappa2s=-1.0)
    with pytest.raises(ValueError):
        oracle_bounds_rhs(plan, s=4, kappa=1.0, phi_max=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(replicates=0)
    with pytest.raises(ValueError):
        _small_config(kappa_source="folklore")
    with pytest.raises(ValueError):
        _small_config(kappa=-1.0)
    with pytest.raises(ValueError):
        _small_config(alpha=1.0)
    with pytest.raises(ValueError):
        _small_config(p_values=(0.5,))
    with pytest.raises(ValueError, match="does not read delta"):
        _small_config(delta=3.0)
    with pytest.raises(ValueError, match="needs A"):
        _small_config(A=None)


def test_config_derives_its_plan_from_its_own_design():
    config = _small_config(design=DesignSpec(kind="orthogonal", n=64, M=8, T=4))
    assert config.plan == _gaussian_plan(n=64, T=4, M=8)
    assert replace(config, design=replace(config.design, T=9)).plan == _gaussian_plan(
        n=64, T=9, M=8
    )
    # plan_sigma, when given, replaces the noise's sigma
    assert _small_config(plan_sigma=0.5).plan == _gaussian_plan(sigma=0.5, n=32, T=4, M=8)
    fv = _small_config(regime=FINITE_VARIANCE, A=None, delta=3.0)
    assert fv.plan == RegularizationPlan(FINITE_VARIANCE, 1.0, 32, 4, 8, delta=3.0)


def test_config_rejects_a_negative_seed():
    # numpy's SeedSequence takes only integers >= 0; the config says so
    # at construction, naming the field, before any replicate draws
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        _small_config(seed=-1)


def test_config_builds_its_solver_settings_at_construction():
    config = _small_config(algorithm="proximal-gradient", max_iterations=7, kkt_tolerance=1e-6)
    assert config.solver == SolverConfig(
        lam=config.plan.lam, algorithm="proximal-gradient", max_iterations=7,
        kkt_tolerance=1e-6,
    )
    at_9 = replace(config, design=replace(config.design, T=9))
    assert at_9.solver.lam == at_9.plan.lam
    # bad settings fail when the config is built, with SolverConfig's
    # messages, for a lasso comparison as for the other runs
    for overrides, message in (
        ({"algorithm": "newton"}, "unknown algorithm 'newton'"),
        ({"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        ({"kkt_tolerance": math.inf}, "kkt_tolerance"),
    ):
        for grid in ((), (1, 4)):
            with pytest.raises(ValueError, match=message):
                _small_config(T_grid=grid, **overrides)


def test_config_rejects_p_values_that_share_a_bound_name():
    # both print as err2p_1, so one column would shadow the other
    with pytest.raises(ValueError, match="1.0000001 and 1.0000002 both name the bound err2p_1"):
        _small_config(alpha=8.0, p_values=(1.0000001, 1.0000002))
    with pytest.raises(ValueError, match="2.0 and 2.0 both name the bound err2p_2"):
        _small_config(alpha=8.0, p_values=(2.0, 2.0))
    assert _small_config(alpha=8.0, p_values=(1.0, 1.00001)).p_values == (1.0, 1.00001)


def test_oracle_experiment_shapes_and_coverage():
    config = _small_config()
    report = run_oracle_experiment(config)
    assert report.kind == "oracle"
    assert report.replicates == 6
    assert len(report.metrics) == 6
    assert report.n_converged == 6
    names = {check.name for check in report.bounds}
    assert names == {
        "prediction", "err21", "err2", "sparsity", "correlation",
        "sparsity_from_prediction",
    }
    assert report.required_confidence == config.plan.confidence
    assert not report.confidence_vacuous
    # orthogonal design, generous bounds: every replicate inside
    for check in report.bounds:
        assert check.coverage == 1.0
        assert check.passed
    with pytest.raises(KeyError):
        report.bound("no-such-bound")


def test_oracle_experiment_noiseless_coverage():
    # sigma=0 data, plan tuned for sigma=1: the only error left is the
    # shrinkage bias, so every bound holds and the support is exact
    config = _small_config(
        noise=NoiseSpec(sigma=0.0),
        plan_sigma=1.0,
        signal=SignalSpec(s=2, mu=10.0),
        replicates=3,
    )
    report = run_oracle_experiment(config)
    lam = config.plan.lam
    for m in report.metrics:
        assert m.m_hat == 2
        # orthogonal KKT at equality: residual correlation is exactly lam
        assert m.correlation_stat == pytest.approx(lam, rel=1e-10)
        assert m.err_21 == pytest.approx(2 * lam * math.sqrt(config.plan.T), rel=1e-10)
    assert all(check.coverage == 1.0 for check in report.bounds)


def test_err2p_at_infinity_is_the_supnorm_error():
    # p = inf is the largest group error, not the limit of the finite-p
    # formula sum(g**p)**(1/p), which reads 1/sqrt(T) whatever the estimate
    report = run_oracle_experiment(_small_config(p_values=(2.0, math.inf)))
    for m in report.metrics:
        assert m.err_2p[1] == m.err_2inf
        assert m.err_2p[0] == pytest.approx(m.err_2, rel=1e-12)
    assert report.metrics[0].err_2inf != 1.0 / math.sqrt(4)


def test_oracle_experiment_deterministic_at_any_worker_count(use_workers):
    base = _small_config()
    use_workers(1)
    serial = run_oracle_experiment(base)
    assert run_oracle_experiment(base) == serial
    for count in (2, 3, 8):  # 8 workers for 6 replicates: one each
        use_workers(count)
        assert run_oracle_experiment(base) == serial


def test_coherence_failure_in_a_worker_names_the_lowest_replicate(
    monkeypatch, use_workers, assert_no_children
):
    # replicates 3 and 5 draw a correlated design; with 2 or 3 workers
    # they may run in any worker, and replicate 3's error is raised
    draw = experiments.generate_dataset
    correlated = DesignSpec(kind="ar1", n=32, M=8, T=4, rho=0.6)

    def planted(design, signal, noise, seed, **kwargs):
        if seed[-1] in (3, 5):
            design = correlated
        return draw(design, signal, noise, seed, **kwargs)

    monkeypatch.setattr(experiments, "generate_dataset", planted)
    config = _small_config(
        kappa_source="coherence-lemma", kappa=None, kappa2s=None,
        phi_max=None, alpha=8.0,
    )
    for count in (1, 2, 3):
        use_workers(count)
        with pytest.raises(ValueError, match="^replicate 3: .*coherence"):
            run_oracle_experiment(config)
        assert_no_children()


def test_oracle_experiment_measures_phi_when_unset():
    config = _small_config(phi_max=None, design=DesignSpec(kind="gaussian-iid", n=32, M=8, T=4))
    report = run_oracle_experiment(config)
    assert all(m.phi_max is not None and m.phi_max > 0 for m in report.metrics)
    sparsity = report.bound("sparsity")
    assert sparsity.rhs >= 64.0 * 2 * min(m.phi_max for m in report.metrics)


def test_bound_set_filter_and_missing_ingredient():
    only = run_oracle_experiment(_small_config(bound_set=("prediction",)))
    assert [check.name for check in only.bounds] == ["prediction"]
    # a named bound without its ingredient fails at construction, naming both
    with pytest.raises(ValueError, match="^bounds names err2, which needs kappa2s"):
        _small_config(kappa2s=None, bound_set=("err2",))


@pytest.mark.parametrize("regime, bound, key", [
    (GAUSSIAN, "err2", "kappa2s"),
    (GAUSSIAN, "supnorm", "alpha"),
    (GAUSSIAN, "err2p_2", "alpha"),
    (FINITE_VARIANCE, "err2_sq", "kappa2s"),
    (FINITE_VARIANCE, "supnorm", "alpha"),
])
def test_bound_set_needs_its_ingredients(regime, bound, key):
    constants = {"A": 9.0} if regime == GAUSSIAN else {"A": None, "delta": 3.0}
    given = {"kappa2s": 1.0, "alpha": 8.0, key: None}
    with pytest.raises(ValueError, match=f"^bounds names {bound}, which needs {key}; "):
        _small_config(
            regime=regime, p_values=(2.0,), bound_set=("prediction", bound),
            **constants, **given,
        )
    # the coherence lemma derives kappa2s, so only alpha can be missing there
    if key == "kappa2s":
        config = _small_config(
            regime=regime, bound_set=(bound,), kappa_source="coherence-lemma",
            kappa=None, **constants, **given,
        )
        assert config.scored_bounds == (bound,)


@pytest.mark.parametrize("kappa2s, alpha, kappa_source, scored", [
    (1.0, 8.0, "user-supplied", ("prediction", "err21", "err2", "supnorm", "err2p_2",
                                 "sparsity", "correlation", "sparsity_from_prediction")),
    (None, None, "user-supplied", ("prediction", "err21", "sparsity", "correlation",
                                   "sparsity_from_prediction")),
    (None, 8.0, "coherence-lemma", ("prediction", "err21", "err2", "supnorm", "err2p_2",
                                    "sparsity", "correlation", "sparsity_from_prediction")),
], ids=["given", "bare", "derived"])
def test_scored_bounds_default_to_every_bound_with_its_ingredients(
    kappa2s, alpha, kappa_source, scored
):
    kappa = 1.0 if kappa_source == "user-supplied" else None
    config = _small_config(
        kappa=kappa, kappa2s=kappa2s, alpha=alpha, kappa_source=kappa_source,
        p_values=(2.0,),
    )
    assert config.scored_bounds == scored


@pytest.mark.parametrize("regime, bound_set, message", [
    (GAUSSIAN, (), "names no bound"),
    (GAUSSIAN, ("prediction", "err21", "prediction"), r"\['prediction'\] more than once"),
    (GAUSSIAN, ("predicton",), r"unknown bounds \['predicton'\]; the gaussian"),
    (GAUSSIAN, ("err2_sq",), r"unknown bounds \['err2_sq'\]; the gaussian"),
    (GAUSSIAN, ("err2p_3",), r"\['err2p_3'\]; the gaussian regime at p_values \(1.0, 2.0\)"),
    (FINITE_VARIANCE, ("correlation",), r"\['correlation'\]; the finite-variance"),
    (FINITE_VARIANCE, ("err2p_2",), r"\['err2p_2'\]; the finite-variance"),
], ids=["empty", "repeated", "typo", "other-regime", "other-p", "fv-correlation", "fv-c1"])
def test_bound_set_is_checked_at_construction(regime, bound_set, message):
    # an empty, repeated or unknown name fails before anything is drawn
    constants = {"A": 9.0} if regime == GAUSSIAN else {"A": None, "delta": 3.0}
    with pytest.raises(ValueError, match=message):
        _small_config(regime=regime, p_values=(1.0, 2.0), bound_set=bound_set, **constants)
    # and every name of the regime is accepted
    names = {
        GAUSSIAN: ("prediction", "err21", "err2", "supnorm", "err2p_1", "err2p_2",
                   "sparsity", "correlation", "sparsity_from_prediction"),
        FINITE_VARIANCE: ("prediction", "err21", "err2_sq", "supnorm", "sparsity"),
    }[regime]
    config = _small_config(
        regime=regime, p_values=(1.0, 2.0), bound_set=names, alpha=8.0, **constants
    )
    assert config.bound_set == config.scored_bounds == names


def test_kappa_resolution_errors():
    with pytest.raises(ValueError, match="kappa"):
        run_oracle_experiment(_small_config(kappa=None))
    # the lemma's missing alpha fails at construction
    with pytest.raises(ValueError, match="coherence-lemma' needs alpha"):
        _small_config(kappa_source="coherence-lemma", kappa=None, alpha=None)


def test_kappa_is_rejected_under_the_coherence_lemma():
    # the lemma derives kappa from alpha, so a supplied one would be ignored
    with pytest.raises(ValueError, match="kappa=0.01 conflicts with kappa_source"):
        _small_config(kappa_source="coherence-lemma", kappa=0.01, alpha=8.0)
    config = _small_config(kappa_source="coherence-lemma", kappa=None, alpha=8.0)
    assert config.kappa is None


# Every ingredient of the bound table: kappa2s, phi_max measured per
# replicate (so sparsity_from_prediction is scored too), alpha, and p
# values including a fractional one and infinity.
_ALL_INGREDIENTS = dict(
    kappa2s=1.0, phi_max=None, alpha=8.0, p_values=(1.0, 1.5, 2.0, math.inf)
)


@pytest.mark.parametrize("regime", ["gaussian", "finite-variance"])
def test_every_bound_has_one_left_side(regime):
    if regime == "gaussian":
        config = _small_config(replicates=2, **_ALL_INGREDIENTS)
    else:
        config = _small_config(
            design=DesignSpec(kind="orthogonal", n=100, M=32, T=4),
            noise=NoiseSpec(kind="student-t", sigma=1.0, nu=3.0),
            regime=FINITE_VARIANCE,
            A=None,
            delta=3.0,
            replicates=2,
            **_ALL_INGREDIENTS,
        )
    plan = config.plan
    rhs = oracle_bounds_rhs(
        plan, config.signal.s, 1.0, 1.0, 2.0, config.alpha, config.p_values
    )
    if regime == "gaussian":
        rhs["sparsity_from_prediction"] = 4.0 * 2.0 * 2.0 / (plan.lam**2 * plan.T)
    # distinct values per error functional, so each left side is pinned
    metrics = ReplicateMetrics(
        replicate=0, converged=True, iterations=1, kkt_residual=0.0,
        prediction_error=2.0, err_21=3.0, err_2=5.0, err_2inf=7.0,
        err_2p=(11.0, 13.0, 17.0, 19.0), m_hat=23, correlation_stat=29.0,
        phi_max=2.0,
    )
    lhs = {
        "prediction": 2.0, "err21": 3.0, "err2": 5.0, "err2_sq": 25.0,
        "supnorm": 7.0, "err2p_1": 11.0, "err2p_1.5": 13.0, "err2p_2": 17.0,
        "err2p_inf": 19.0, "sparsity": 23.0, "sparsity_from_prediction": 23.0,
        "correlation": 29.0,
    }
    table = experiments._bound_table(config, metrics, (1.0, 1.0))
    assert list(table) == list(rhs)
    assert table == {name: (lhs[name], rhs[name]) for name in rhs}
    # and a run scores each of them, alone or all together
    report = run_oracle_experiment(config)
    assert [check.name for check in report.bounds] == list(rhs)
    for name in rhs:
        only = run_oracle_experiment(replace(config, bound_set=(name,), replicates=1))
        assert [check.name for check in only.bounds] == [name]


def test_kappa_from_coherence_lemma():
    alpha = 8.0
    config = _small_config(
        kappa_source="coherence-lemma", kappa=None, kappa2s=None,
        alpha=alpha, replicates=2,
    )
    report = run_oracle_experiment(config)
    kappa_sq = 1.0 - 1.0 / alpha
    expected = 64.0 * config.plan.sigma**2 * 2 * (
        1.0 + config.plan.A * math.log(config.plan.M) / math.sqrt(config.plan.T)
    ) / (kappa_sq * config.plan.n)
    assert report.bound("prediction").rhs == pytest.approx(expected, rel=1e-12)


def test_certification_rejects_correlated_design():
    # AR(1) with rho=0.6 violates max coherence <= 1/(7*alpha*s) by a mile;
    # the run stops at the first replicate, which fails
    config = _small_config(
        design=DesignSpec(kind="ar1", n=32, M=8, T=4, rho=0.6),
        kappa_source="coherence-lemma", kappa=None, kappa2s=None,
        alpha=8.0, replicates=2,
    )
    with pytest.raises(ValueError, match="replicate 0: .*coherence"):
        run_oracle_experiment(config)


def test_certified_run_generates_and_diagnoses_once_per_replicate(
    monkeypatch, tmp_path, use_workers
):
    # every call, in this process or a worker, appends its name to one log
    log = tmp_path / "calls.log"
    names = ("gram_diagnostics", "generate_dataset")
    for name in names:
        original = getattr(experiments, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with open(log, "a") as handle:
                handle.write(_name + "\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    config = _small_config(
        kappa_source="coherence-lemma", kappa=None, kappa2s=None,
        phi_max=None, alpha=8.0, replicates=3,
    )
    use_workers(3)
    report = run_oracle_experiment(config)
    assert report.n_converged == 3
    calls = log.read_text().split()
    assert {name: calls.count(name) for name in names} == {
        "gram_diagnostics": 3, "generate_dataset": 3,
    }


def test_certification_at_2s_only_for_a_scored_bound_that_reads_kappa2s():
    # max coherence 0.063 on this design is under the limit 0.095 at s=1
    # but over 0.048 at 2s: the derived kappa is certified, kappa2s is not
    config = _small_config(
        design=DesignSpec(kind="gaussian-iid", n=1000, M=4, T=2),
        signal=SignalSpec(s=1),
        kappa_source="coherence-lemma", kappa=None, kappa2s=None, phi_max=None,
        alpha=1.5, replicates=5, bound_set=("prediction",),
    )
    report = run_oracle_experiment(config)
    assert [check.name for check in report.bounds] == ["prediction"]
    assert report.bound("prediction").coverage == 1.0
    for bound_set in (("prediction", "err2"), None):
        with pytest.raises(ValueError, match="^replicate 0: .* 2s=2 needed for"):
            run_oracle_experiment(replace(config, bound_set=bound_set))


def test_selection_certifies_non_orthogonal_design():
    config = _small_config(
        design=DesignSpec(kind="ar1", n=32, M=8, T=4, rho=0.6),
        kappa_source="coherence-lemma", kappa=None, kappa2s=None,
        alpha=8.0, margin=3.0, replicates=2,
    )
    with pytest.raises(ValueError, match="replicate 0: .*coherence"):
        run_selection_experiment(config)


def test_finite_variance_experiment_confidence():
    config = _small_config(
        design=DesignSpec(kind="orthogonal", n=100, M=32, T=4),
        noise=NoiseSpec(kind="student-t", sigma=1.0, nu=3.0),
        regime=FINITE_VARIANCE,
        A=None,
        delta=3.0,
        replicates=4,
        kappa2s=None,
        phi_max=None,
    )
    report = run_oracle_experiment(config)
    assert all(m.c_prime is not None for m in report.metrics)
    assert 0.0 <= report.required_confidence < 1.0
    assert not report.confidence_vacuous
    names = {check.name for check in report.bounds}
    assert names == {"prediction", "err21", "sparsity"}


def test_selection_experiment_validation_and_recovery():
    with pytest.raises(ValueError, match="alpha"):
        run_selection_experiment(_small_config(margin=3.0))
    with pytest.raises(ValueError, match="margin"):
        run_selection_experiment(_small_config(alpha=8.0, margin=2.0))

    config = _small_config(alpha=8.0, margin=3.0, replicates=5)
    report = run_selection_experiment(config)
    assert report.kind == "selection"
    support = report.bound("support_recovery")
    signs = report.bound("sign_recovery")
    assert support.rhs is None and signs.rhs is None
    assert support.coverage == 1.0 and signs.coverage == 1.0
    assert all(m.support_exact and m.sign_exact for m in report.metrics)
    assert report.required_pass()


def test_selection_experiment_fails_when_the_plan_understates_the_noise():
    # tau is set for sigma = 0.02 while sigma = 1 noise is drawn, so the
    # selector keeps noise groups and neither recovery event occurs
    report = run_selection_experiment(
        _small_config(alpha=8.0, margin=3.0, replicates=6, plan_sigma=0.02)
    )
    assert not any(m.support_exact or m.sign_exact for m in report.metrics)
    for name in ("support_recovery", "sign_recovery"):
        check = report.bound(name)
        assert check.coverage == 0.0 and not check.passed
    assert not report.required_pass()


def test_comparison_grid_validation():
    config = _small_config(design=DesignSpec(kind="gaussian-iid", n=32, M=8, T=1))
    with pytest.raises(ValueError):
        run_lasso_comparison(config)  # no T_grid
    with pytest.raises(ValueError):
        run_lasso_comparison(replace(config, T_grid=(4, 1)))
    with pytest.raises(ValueError):
        run_lasso_comparison(replace(config, T_grid=(0, 4)))
    with pytest.raises(ValueError, match="constant"):
        run_lasso_comparison(_small_config(lasso_constant=2.0, T_grid=(1, 4)))
    fv = _small_config(regime=FINITE_VARIANCE, A=None, delta=3.0, T_grid=(1, 4))
    with pytest.raises(ValueError, match="gaussian"):
        run_lasso_comparison(fv)


_IID = DesignSpec(kind="gaussian-iid", n=32, M=8, T=1)


@pytest.mark.parametrize("run, overrides, message", [
    (run_oracle_experiment, {"kappa2s": None, "bound_set": ("err2",)}, "needs kappa2s"),
    (run_oracle_experiment, {"bound_set": ("supnorm",)}, "needs alpha"),
    (run_oracle_experiment, {"kappa_source": "coherence-lemma", "kappa": None},
     "coherence-lemma' needs alpha"),
    (run_oracle_experiment, {"kappa": None}, "user-supplied' needs an explicit kappa"),
    (run_selection_experiment, {"alpha": 8.0}, "margin"),
    (run_selection_experiment, {"margin": 3.0}, "alpha"),
    (run_lasso_comparison, {"design": _IID, "T_grid": (4, 1)}, "strictly increasing"),
    (run_lasso_comparison, {"design": _IID}, "T_grid must contain"),
    (run_lasso_comparison, {"design": _IID, "T_grid": (1, 4),
                            "lasso_constant": 2.0 * math.sqrt(2.0)}, "exceed 2\\*sqrt"),
    (run_lasso_comparison, {"design": _IID, "T_grid": (1, 4), "regime": FINITE_VARIANCE,
                            "A": None, "delta": 3.0}, "gaussian regime"),
    (run_oracle_experiment, {"signal": SignalSpec(s=0)},
     "oracle experiments need at least one active group"),
    (run_lasso_comparison, {"design": _IID, "T_grid": (1, 4), "lasso_constant": math.inf},
     "exceed 2\\*sqrt\\(2\\) ~= 2.8284, got inf"),
    (run_selection_experiment, {"alpha": 8.0, "margin": math.inf},
     "beta-min margin > 2, got inf"),
], ids=["kappa2s", "alpha", "lemma-alpha", "kappa", "margin", "selection-alpha",
        "grid-order", "grid-empty", "lasso-constant", "regime", "oracle-s",
        "lasso-constant-inf", "margin-inf"])
@pytest.mark.parametrize("workers", [1, 2])
def test_config_errors_surface_before_the_first_draw(
    run, overrides, message, workers, monkeypatch, use_workers
):
    def drawn(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    for name in ("generate_dataset", "generate_beta_for_selection"):
        monkeypatch.setattr(experiments, name, drawn)
    use_workers(workers)
    with pytest.raises(ValueError, match=message):
        run(_small_config(**overrides))


def test_comparison_rejects_repeated_task_counts():
    # A repeated T would rerun the same [seed, T, r] streams and write
    # duplicate T<k>_* summary keys.
    config = _small_config(design=DesignSpec(kind="gaussian-iid", n=32, M=8, T=1))
    for grid in ((1, 1), (1, 4, 4)):
        with pytest.raises(ValueError, match="strictly increasing"):
            run_lasso_comparison(replace(config, T_grid=grid))


def test_comparison_runs_and_reports():
    config = _small_config(
        design=DesignSpec(kind="gaussian-iid", n=40, M=8, T=1),
        replicates=5,
        kappa=None,  # never needed for the baseline comparison
        kappa2s=None,
        phi_max=None,
        T_grid=(1, 4),
    )
    report = run_lasso_comparison(config)
    assert report.kind == "lasso-comparison"
    assert [row.T for row in report.comparison] == [1, 4]
    for row in report.comparison:
        expected_plain = 3.0 * math.sqrt(math.log(8 * row.T) / 40) / row.T
        assert row.lambda_plain == pytest.approx(expected_plain, rel=1e-12)
        assert row.ratio == pytest.approx(
            row.mean_group_error / row.mean_plain_error, rel=1e-12
        )
        assert 0.0 <= row.win_rate <= 1.0
    for row in report.comparison:
        # each T's group lambda is the plan of the config at T tasks
        at_T = replace(config, design=replace(config.design, T=row.T))
        assert row.lambda_group == at_T.plan.lam
    assert len(report.metrics) == 10
    assert report.n_converged == 10
    # rerun is bit-identical
    assert run_lasso_comparison(config) == report


def test_comparison_builds_each_task_counts_config_once(monkeypatch):
    # one config (and plan) per T of the grid, before the replicates
    # run, however many replicates each T has
    config = _small_config(
        design=DesignSpec(kind="gaussian-iid", n=40, M=8, T=1),
        replicates=3, kappa=None, kappa2s=None, phi_max=None, T_grid=(1, 2, 4),
    )
    built = []
    plan = experiments.RegularizationPlan

    def counted(*args):
        built.append(args[3])  # T
        return plan(*args)

    monkeypatch.setattr(experiments, "RegularizationPlan", counted)
    run_lasso_comparison(config)
    assert built == [1, 2, 4]


def test_comparison_baseline_is_one_single_task_lasso_per_task():
    # The T-task baseline at lam_plain separates into T single-task
    # Lassos at lam_plain * T = c*sigma*sqrt(log(MT)/n).
    T = 4
    config = _small_config(
        design=DesignSpec(kind="gaussian-iid", n=40, M=8, T=1),
        replicates=1,
        T_grid=(T,),
    )
    report = run_lasso_comparison(config)
    lam_plain = report.comparison[0].lambda_plain
    single_level = 3.0 * math.sqrt(math.log(8 * T) / 40)
    assert lam_plain * T == pytest.approx(single_level, rel=1e-15)

    dataset, beta_star = generate_dataset(
        DesignSpec(kind="gaussian-iid", n=40, M=8, T=T), config.signal,
        config.noise, [0, T, 0],
    )
    joint = solve_lasso_baseline(dataset, lam_plain)
    assert joint.converged
    separate = np.column_stack([
        solve_lasso_baseline(
            MultiTaskDataset(dataset.designs[t:t + 1], dataset.responses[t:t + 1]),
            lam_plain * T,
        ).beta_hat.values[:, 0]
        for t in range(T)
    ])
    tol = SolverConfig.kkt_tolerance
    assert lasso_kkt_residual(dataset, GroupCoefficients(separate), lam_plain) <= tol
    np.testing.assert_allclose(joint.beta_hat.values, separate, rtol=0, atol=tol)
    fits = np.einsum("tnm,mt->tn", dataset.designs, joint.beta_hat.values - beta_star.values)
    assert report.metrics[0].plain_error == np.sum(fits * fits) / (40 * T)


def test_comparison_baseline_is_not_the_zero_fit_at_many_tasks():
    # Strong signal at T=64: the baseline must track it.  Over-regularised
    # by sqrt(T), it returned B = 0, whose error is s * mu^2 = 36.
    config = ExperimentConfig(
        design=DesignSpec(kind="gaussian-iid", n=50, M=32, T=1),
        signal=SignalSpec(s=4, mu=3.0),
        noise=NoiseSpec(sigma=1.0),
        A=9.0,
        replicates=2,
        seed=0,
        T_grid=(64,),
    )
    report = run_lasso_comparison(config)
    zero_fit = 4 * 3.0**2
    assert report.comparison[0].mean_plain_error < zero_fit / 2


def test_comparison_replicates_draw_from_task_count_keyed_streams():
    config = _small_config(
        design=DesignSpec(kind="gaussian-iid", n=40, M=8, T=1),
        replicates=3,
        seed=5,
        T_grid=(1, 4),
    )
    report = run_lasso_comparison(config)
    assert [(row.T, row.replicate) for row in report.metrics] == [
        (T, r) for T in (1, 4) for r in range(3)
    ]
    row = report.metrics[4]
    dataset, beta_star = generate_dataset(
        DesignSpec(kind="gaussian-iid", n=40, M=8, T=4), config.signal,
        config.noise, [5, 4, 1],
    )
    lam = report.comparison[1].lambda_group
    beta_hat = solve_group_lasso(dataset, SolverConfig(lam=lam)).beta_hat
    fits = np.einsum("tnm,mt->tn", dataset.designs, beta_hat.values - beta_star.values)
    assert row.group_error == np.sum(fits * fits) / (40 * 4)


def _comparison_report(rows):
    return ExperimentReport(
        kind="lasso-comparison", replicates=1, metrics=(), bounds=(),
        comparison=tuple(rows),
    )


def _row(T, ratio, win_rate):
    return ComparisonRow(
        T=T, lambda_group=0.1, lambda_plain=0.1, mean_group_error=ratio,
        mean_plain_error=1.0, ratio=ratio, win_rate=win_rate,
    )


def test_required_pass_logic():
    good = _comparison_report([_row(1, 1.5, 0.2), _row(4, 0.8, 0.95)])
    assert good.required_pass()
    rising = _comparison_report([_row(1, 0.8, 0.95), _row(4, 0.9, 0.95)])
    assert not rising.required_pass()
    weak_wins = _comparison_report([_row(1, 1.5, 0.2), _row(4, 0.8, 0.85)])
    assert not weak_wins.required_pass()
    empty = _comparison_report([])
    assert not empty.required_pass()

    failed_bound = ExperimentReport(
        kind="oracle", replicates=1, metrics=(),
        bounds=(BoundCheck("prediction", 1.0, 0.5, 0.99, 0.05, False),),
    )
    assert not failed_bound.required_pass()


def test_proximal_gradient_reports_the_block_coordinate_m_hat():
    # Both solvers return exact zeros for inactive groups, so m_hat
    # counts the same support without a tolerance.
    config = _small_config(signal=SignalSpec(s=2, mu=1.2), replicates=8)
    bcd = run_oracle_experiment(config)
    pg = run_oracle_experiment(replace(config, algorithm="proximal-gradient"))
    m_hat = [m.m_hat for m in bcd.metrics]
    assert [m.m_hat for m in pg.metrics] == m_hat
    assert len(set(m_hat)) > 1  # a borderline signal: some groups missed
