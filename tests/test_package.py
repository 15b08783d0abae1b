import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import vrcubic
from vrcubic import cubic, diagnostics, drivers, estimators, finite_sum, objectives

MODULES = (cubic, diagnostics, drivers, estimators, finite_sum, objectives)


def test_package_republishes_every_module_export():
    exported = set().union(*(module.__all__ for module in MODULES))
    assert set(vrcubic.__all__) == exported | {"__version__"}
    assert len(vrcubic.__all__) == len(set(vrcubic.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vrcubic, name) is getattr(module, name), name
    # the four cubic solvers: the Lanczos solver the free driver uses, the
    # exact one, and the paper's two gradient solvers kept as references
    for name in ("cubic_krylov", "solve_exact", "cubic_subsolver", "cubic_finalsolver"):
        assert name in cubic.__all__ and getattr(vrcubic, name) is getattr(cubic, name)


def test_cli_stays_out_of_the_package_namespace():
    from vrcubic import cli

    for name in cli.__all__:
        assert name not in vrcubic.__all__ and not hasattr(vrcubic, name), name


NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now raises ImportError
import numpy as np
import vrcubic
D = np.array([0.5, 1.0, 2.0])
problem = vrcubic.from_components(
    n=2, dim=3, value=lambda i, x: 0.5 * float(x @ (D * x)), grad=lambda i, x: D * x,
    hvp=lambda i, x, v: D * v,
)
assert problem.batch_hess_fn is None
counter = vrcubic.OracleCounter()
ok, cert = vrcubic.certify_local_min(problem, np.zeros(3), eps=1e-2, rho=1.0, counter=counter)
print(vrcubic.mu_criterion(problem, np.zeros(3), rho=1.0), ok, cert.lambda_min, counter.hvp_calls)
"""


def test_package_needs_no_scipy():
    # numpy is the one runtime dependency; scipy is a test extra for the benchmark's
    # environment record, so a scipy import in the package must fail here
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    mu, ok, lam, products = run.stdout.split()
    assert (float(mu), ok) == (0.0, "True")
    assert float(lam) == pytest.approx(0.5, rel=1e-12)
    assert 0 < int(products) <= 3 * 2


COMPILE_STEP_TOKENS = 4096


def test_every_module_stays_below_the_compile_step():
    """Every src/vrcubic module stays below 4096 parser tokens (tokenize's
    tokens less COMMENT, NL and ENCODING).

    Near that count CPython's compile peak steps up: on Python 3.11.7,
    compiling _libsvm padded to 4088 tokens peaked at 1.37 MiB under
    tracemalloc, and at 4100 tokens at 1.59 MiB.  A benchmark process
    without cached bytecode compiles src/, so the step shows in
    peak_rss_mb; a module that outgrows the limit is split instead.
    """
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    for path in sorted(Path(vrcubic.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:
            count = sum(tok.type not in skip for tok in tokenize.tokenize(fh.readline))
        assert count < COMPILE_STEP_TOKENS, f"{path.name}: {count} tokens"
