"""Multi-task group-sparse regression toolkit.

Estimation of a jointly sparse coefficient matrix across T related
regression tasks by penalizing the per-variable Euclidean norms taken
across tasks.  The package bundles the solvers, the theory-driven
tuning and thresholding formulas, design diagnostics, probability-lemma
verifiers, synthetic data generation, and a Monte Carlo harness that
checks the finite-sample guarantees empirically.
"""

__version__ = "0.1.0"

from .model import (
    GroupCoefficients,
    MultiTaskDataset,
    fitted_responses,
    group_support,
    mixed_norm,
    objective,
    residual_error,
)
from .solver import (
    SolveResult,
    SolverConfig,
    block_soft_threshold,
    kkt_residual,
    lasso_kkt_residual,
    solve_group_lasso,
    solve_lasso_baseline,
)
from .regularization import (
    FINITE_VARIANCE,
    GAUSSIAN,
    RegularizationPlan,
    finite_variance_confidence,
    norm_bound_constant_c1,
    threshold_constant_c,
)
from .assumptions import (
    AssumptionReport,
    coherence_admissible,
    coherence_limit,
    gram_diagnostics,
    largest_gram_eigenvalue,
    minimize_re_quotient,
    re_lower_bound_from_coherence,
    re_upper_estimate,
)
from .selection import (
    average_sign_estimate,
    score_selection,
    select_support,
)
from .probability import (
    TailCheckReport,
    chi_square_tail_bound,
    chi_square_tail_empirical,
    nemirovski_check,
    noise_correlation_violation_rate,
)
from .synth import (
    DesignSpec,
    NoiseSpec,
    SignalSpec,
    generate_beta_for_selection,
    generate_dataset,
)
from .experiments import (
    BoundCheck,
    ExperimentConfig,
    ExperimentReport,
    ReplicateMetrics,
    oracle_bounds_rhs,
    run_lasso_comparison,
    run_oracle_experiment,
    run_selection_experiment,
)
from .dataio import (
    ParseError,
    format_float,
    read_coefficients,
    read_dataset,
    read_keyvalue,
    read_matrix_csv,
    write_coefficients,
    write_dataset,
    write_keyvalue,
    write_matrix_csv,
)
