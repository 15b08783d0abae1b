"""Variance-reduced cubic-regularized Newton methods for finite-sum problems.

The package finds points where both the gradient is small and the Hessian has
no strongly negative eigenvalue, touching as few component derivatives as it
can.  Rough map:

* finite_sum   -- problem container, batch oracle kernels, evaluation counters.
* objectives   -- logistic regression (binary/multiclass) and synthetic tasks.
* cubic        -- cubic-model subproblem solvers (exact and matvec-only).
* estimators   -- recursive variance-reduced gradient/Hessian estimators.
* drivers      -- one outer loop behind run_srvrc and run_srvrc_free;
                  run_cr and run_scr are batch-rule wrappers over run_srvrc.
* diagnostics  -- second-order stationarity certification.
* cli          -- JSON-config experiment runner (`vrcubic run|check|compare`).
"""

from .cubic import (
    BudgetExceededError,
    CubicModel,
    CubicSolution,
    SolverDivergenceError,
    cauchy_point,
    cubic_finalsolver,
    cubic_function,
    cubic_gradient,
    cubic_subsolver,
    solve_exact,
)
from .diagnostics import (
    EigensolverError,
    LocalMinCertificate,
    certify_local_min,
    finite_diff_grad_check,
    min_eigenvalue,
    mu_criterion,
)
from .drivers import (
    AdaptivePenalty,
    FixedPenalty,
    IterationSnapshot,
    RunResult,
    SolverConfig,
    TheoreticalPenalty,
    TraceRow,
    adaptive_penalty_update,
    budget_from_gap,
    run_cr,
    run_scr,
    run_srvrc,
    run_srvrc_free,
)
from .estimators import (
    EstimatorState,
    PracticalBatchRule,
    TheoreticalBatchRule,
    default_epochs,
    practical_batch,
    theoretical_batch_g,
    theoretical_batch_h,
    update_gradient_estimator,
    update_hessian_estimator,
)
from .finite_sum import (
    FiniteSumProblem,
    OracleCounter,
    batch_gradient,
    batch_hessian,
    batch_hvp,
    batch_value,
    full_index,
    sample_multiset,
)
from .objectives import (
    LibsvmDataset,
    LibsvmParseError,
    binary_logreg_from_arrays,
    make_binary_logreg,
    make_multiclass_logreg,
    make_synthetic,
    multiclass_logreg_from_arrays,
    parse_libsvm,
    scale_columns_unit,
    serialize_libsvm,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptivePenalty",
    "BudgetExceededError",
    "CubicModel",
    "CubicSolution",
    "EigensolverError",
    "EstimatorState",
    "FiniteSumProblem",
    "FixedPenalty",
    "IterationSnapshot",
    "LibsvmDataset",
    "LibsvmParseError",
    "LocalMinCertificate",
    "OracleCounter",
    "PracticalBatchRule",
    "RunResult",
    "SolverConfig",
    "SolverDivergenceError",
    "TheoreticalBatchRule",
    "TheoreticalPenalty",
    "TraceRow",
    "adaptive_penalty_update",
    "batch_gradient",
    "batch_hessian",
    "batch_hvp",
    "batch_value",
    "binary_logreg_from_arrays",
    "budget_from_gap",
    "cauchy_point",
    "certify_local_min",
    "cubic_finalsolver",
    "cubic_function",
    "cubic_gradient",
    "cubic_subsolver",
    "default_epochs",
    "finite_diff_grad_check",
    "full_index",
    "make_binary_logreg",
    "make_multiclass_logreg",
    "make_synthetic",
    "min_eigenvalue",
    "mu_criterion",
    "multiclass_logreg_from_arrays",
    "parse_libsvm",
    "practical_batch",
    "run_cr",
    "run_scr",
    "run_srvrc",
    "run_srvrc_free",
    "sample_multiset",
    "scale_columns_unit",
    "serialize_libsvm",
    "solve_exact",
    "theoretical_batch_g",
    "theoretical_batch_h",
    "update_gradient_estimator",
    "update_hessian_estimator",
    "__version__",
]
