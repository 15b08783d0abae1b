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

# Each module's __all__ is its public surface; the package republishes them all.
from . import cubic, diagnostics, drivers, estimators, finite_sum, objectives
from .cubic import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .drivers import *  # noqa: F403
from .estimators import *  # noqa: F403
from .finite_sum import *  # noqa: F403
from .objectives import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    cubic.__all__ + diagnostics.__all__ + drivers.__all__ + estimators.__all__
    + finite_sum.__all__ + objectives.__all__
) + ["__version__"]
