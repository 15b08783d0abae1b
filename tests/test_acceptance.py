"""End-to-end acceptance checks.

One test per criterion; every test prints a single summary line on success
so the -v log doubles as the acceptance report.  Shared runs are module
fixtures so the certification run is executed once and reused.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from vrcubic.cli import main
from vrcubic.cubic import (
    CubicModel,
    cubic_function,
    cubic_gradient,
    cubic_subsolver,
    cubic_finalsolver,
    solve_exact,
)
from vrcubic.diagnostics import mu_criterion
from vrcubic.drivers import (
    FixedPenalty,
    SolverConfig,
    run_scr,
    run_srvrc,
    run_srvrc_free,
)
from vrcubic.estimators import PracticalBatchRule
from vrcubic.finite_sum import OracleCounter, batch_gradient, batch_hessian, batch_hvp, full_index
from vrcubic.objectives import (
    binary_logreg_from_arrays,
    make_synthetic,
    multiclass_logreg_from_arrays,
)

EPS_CERT = 1e-2
X0_CERT = 2.0 * np.ones(10) / math.sqrt(10.0)


def random_model(rng, d, tau_range=(0.5, 4.0)):
    S = rng.standard_normal((d, d))
    A = 0.5 * (S + S.T)
    b = rng.standard_normal(d)
    tau = float(rng.uniform(*tau_range))
    return CubicModel(b=b, A=A, penalty=tau, hess_norm_bound=float(np.linalg.norm(A, 2)))


@pytest.fixture(scope="module")
def cert_problem():
    return make_synthetic(seed=0, n=500, d=10)


@pytest.fixture(scope="module")
def cert_run(cert_problem):
    config = SolverConfig(eps=EPS_CERT, xi=0.1, T=100, x0=X0_CERT)
    start = time.perf_counter()
    result = run_srvrc(cert_problem, config)
    elapsed = time.perf_counter() - start
    mu = mu_criterion(cert_problem, result.x_out, cert_problem.lipschitz_hess)
    return result, mu, elapsed


def test_criterion_01_exact_solver_matches_grid_search():
    """100 seeded d=2 models: m(h*) at or below the 4001^2 grid minimum + 1e-6."""
    start = time.perf_counter()
    pts = 4001
    u64 = np.linspace(-1.0, 1.0, pts)
    u32 = u64.astype(np.float32)
    sq32 = u32 * u32
    UV = np.outer(u32, u32)
    R3 = (np.add.outer(sq32, sq32)) ** np.float32(1.5)
    val = np.empty((pts, pts), dtype=np.float32)
    block = 32  # rows evaluated at a time, so each row's temporaries stay in cache

    rng = np.random.default_rng(7)
    worst_gap = -math.inf
    for _ in range(100):
        m = random_model(rng, 2)
        b, A, tau = m.b, m.A, m.penalty
        beta = m.hess_norm_bound
        R = 2.0 * (beta / tau + math.sqrt(np.linalg.norm(b) / tau))

        # fast float32 pass over the scaled unit mesh
        col = (np.float32(b[0] * R) * u32 + np.float32(0.5 * A[0, 0] * R * R) * sq32)[:, None]
        row = (np.float32(b[1] * R) * u32 + np.float32(0.5 * A[1, 1] * R * R) * sq32)[None, :]
        cross, cubic = np.float32(A[0, 1] * R * R), np.float32(tau / 6.0 * R**3)
        for k in range(0, pts, block):
            rows = val[k:k + block]
            np.add(col[k:k + block], row, out=rows)
            rows += cross * UV[k:k + block]
            rows += cubic * R3[k:k + block]
        min32 = float(val.min())
        margin = 4e-5 * max(1.0, -min32, float(val.max()))  # max(1, max |val|)
        ii, jj = np.nonzero(val <= np.float32(min32 + margin))

        # exact re-evaluation of every near-minimal cell
        xs, ys = R * u64[ii], R * u64[jj]
        exact = (
            b[0] * xs
            + b[1] * ys
            + 0.5 * (A[0, 0] * xs * xs + 2.0 * A[0, 1] * xs * ys + A[1, 1] * ys * ys)
            + tau / 6.0 * (xs * xs + ys * ys) ** 1.5
        )
        grid_min = float(exact.min())

        sol = solve_exact(m)
        value = float(cubic_function(m, sol.h))
        worst_gap = max(worst_gap, value - grid_min)
        assert value <= grid_min + 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: worst value-minus-grid gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_stationarity_and_optimality_conditions():
    """100 d=10 models (5 hard-case): gradient ~0 and shifted curvature >= 0."""
    rng = np.random.default_rng(3)
    models = [random_model(rng, 10) for _ in range(95)]
    for _ in range(5):
        S = rng.standard_normal((10, 10))
        A = 0.5 * (S + S.T)
        vmin = np.linalg.eigh(A)[1][:, 0]
        b = rng.standard_normal(10)
        b -= (b @ vmin) * vmin
        b *= 0.01 / np.linalg.norm(b)
        models.append(CubicModel(b=b, A=A, penalty=1.0,
                                 hess_norm_bound=float(np.linalg.norm(A, 2))))

    worst_grad, worst_curv = 0.0, math.inf
    for m in models:
        sol = solve_exact(m)
        gn = float(np.linalg.norm(cubic_gradient(m, sol.h)))
        rel = gn / (1.0 + float(np.linalg.norm(m.b)))
        lam_min = float(np.linalg.eigvalsh(m.A)[0])
        shifted = lam_min + m.penalty * float(np.linalg.norm(sol.h)) / 2.0
        worst_grad = max(worst_grad, rel)
        worst_curv = min(worst_curv, shifted)
        assert gn <= 1e-8 * (1.0 + float(np.linalg.norm(m.b)))
        assert shifted >= -1e-8
    print(f"criterion 2 PASS: worst rel gradient {worst_grad:.2e}, "
          f"worst shifted curvature {worst_curv:.2e}")


def test_criterion_03_subsolver_decrease_guarantee():
    """Fixed saddle model, 50 seeds: >= 45 reach -(1-eps')*tau*zeta^3/12."""
    start = time.perf_counter()
    model = CubicModel(
        b=np.array([0.0, 1e-3]),
        A=np.diag([-1.0, 1.0]),
        penalty=1.0,
        hess_norm_bound=1.0,
    )
    zeta, eps_quality = 0.5, 0.5
    assert float(np.linalg.norm(solve_exact(model).h)) >= zeta
    target = -(1.0 - eps_quality) * model.penalty * zeta**3 / 12.0

    hits = 0
    for seed in range(50):
        sol = cubic_subsolver(
            model,
            eta=1.0 / 16.0,
            zeta=zeta,
            eps_quality=eps_quality,
            fail_prob=0.1,
            rng=np.random.default_rng(seed),
        )
        if float(cubic_function(model, sol.h)) <= target:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 45
    assert elapsed < 10.0
    print(f"criterion 3 PASS: {hits}/50 seeds hit the decrease bound, {elapsed:.1f}s")


def test_criterion_04_finalsolver_gradient_postcondition():
    """100 d=5 models: polishing solver leaves the model gradient <= 1e-6."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = random_model(rng, 5)
        beta, tau = m.hess_norm_bound, m.penalty
        R = beta / (2 * tau) + math.sqrt((beta / (2 * tau)) ** 2 + np.linalg.norm(m.b) / tau)
        sol = cubic_finalsolver(m, eta=0.9 / (4.0 * (beta + tau * R)), grad_tol=1e-6)
        gn = float(np.linalg.norm(cubic_gradient(m, sol.h)))
        worst = max(worst, gn)
        assert gn <= 1e-6
    print(f"criterion 4 PASS: worst polished gradient norm {worst:.2e}")


def test_criterion_05_estimators_exact_under_full_batches():
    """All batches = n for 50 iterations: estimates track full derivatives."""
    problem = make_synthetic(seed=2, n=200, d=10)
    config = SolverConfig(
        eps=1e-12,
        T=50,
        penalty=FixedPenalty(1e6),
        x0=1.5 * np.ones(10) / math.sqrt(10.0),
        batch=PracticalBatchRule(B_g=1000, B_h=1000, S=5),
    )
    snaps = []
    result = run_srvrc(problem, config, callback=snaps.append)
    assert result.iterations == 50

    scratch = OracleCounter()
    full = full_index(problem)
    worst_g, worst_h = 0.0, 0.0
    for s in snaps:
        g = batch_gradient(problem, s.x, full, scratch)
        H = batch_hessian(problem, s.x, full, scratch)
        dev_g = float(np.linalg.norm(s.v - g)) / (1.0 + float(np.linalg.norm(g)))
        dev_h = float(np.linalg.norm(s.U - H, 2)) / (1.0 + float(np.linalg.norm(H, 2)))
        worst_g, worst_h = max(worst_g, dev_g), max(worst_h, dev_h)
        assert dev_g <= 1e-10
        assert dev_h <= 1e-10
    print(f"criterion 5 PASS: worst gradient deviation {worst_g:.2e}, "
          f"worst Hessian deviation {worst_h:.2e} over 50 iterations")


def test_criterion_06_logreg_derivative_correctness():
    """FD gradient <= 1e-5 and HVP-vs-dense <= 1e-10 at 10 points per model."""
    from vrcubic.diagnostics import finite_diff_grad_check

    data_rng = np.random.default_rng(21)
    Xb = data_rng.standard_normal((30, 6)) / math.sqrt(6.0)
    yb = (data_rng.uniform(size=30) < 0.5).astype(float)
    binary = binary_logreg_from_arrays(Xb, yb, lam=0.1)

    Xm = data_rng.standard_normal((24, 4)) / 2.0
    ids = data_rng.integers(0, 3, size=24)
    multi = multiclass_logreg_from_arrays(Xm, ids, num_classes=3, lam=0.05)

    worst_fd, worst_hvp = 0.0, 0.0
    for problem in (binary, multi):
        rng = np.random.default_rng(5)
        full = full_index(problem)
        scratch = OracleCounter()
        for _ in range(10):
            x = 0.5 * rng.standard_normal(problem.dim)
            v = rng.standard_normal(problem.dim)
            fd = finite_diff_grad_check(problem, x)
            H = batch_hessian(problem, x, full, scratch)
            hv = batch_hvp(problem, x, full, scratch)(v)
            hvp_err = float(np.linalg.norm(hv - H @ v)) / (1.0 + float(np.linalg.norm(H @ v)))
            worst_fd, worst_hvp = max(worst_fd, fd), max(worst_hvp, hvp_err)
            assert fd <= 1e-5
            assert hvp_err <= 1e-10
    print(f"criterion 6 PASS: worst FD gradient error {worst_fd:.2e}, "
          f"worst HVP error {worst_hvp:.2e}")


def test_criterion_07_end_to_end_certification(cert_problem, cert_run):
    """Theoretical schedules land below the certification thresholds."""
    result, mu, elapsed = cert_run
    bound = 600.0 * EPS_CERT**1.5
    assert result.exit == "converged"
    assert mu <= bound
    assert elapsed < 60.0

    config = SolverConfig(eps=EPS_CERT, xi=0.1, T=100, x0=X0_CERT)
    start = time.perf_counter()
    free = run_srvrc_free(cert_problem, config)
    free_elapsed = time.perf_counter() - start
    mu_free = mu_criterion(cert_problem, free.x_out, cert_problem.lipschitz_hess)
    free_bound = 1300.0 * EPS_CERT**1.5
    assert free.exit == "converged"
    assert mu_free <= free_bound
    assert elapsed + free_elapsed < 60.0
    print(f"criterion 7 PASS: mu={mu:.3e} <= {bound} (recursive), "
          f"mu={mu_free:.3e} <= {free_bound} (matvec), "
          f"{elapsed + free_elapsed:.1f}s total")


def test_criterion_08_iteration_budget_consistency(cert_problem, cert_run):
    """Observed T* obeys the 40 * gap * sqrt(rho) / eps^{3/2} budget."""
    result, _, _ = cert_run
    f0 = result.trace[0].f
    f_best = min([row.f for row in result.trace] + [result.f_out])
    gap = f0 - f_best
    rho = cert_problem.lipschitz_hess
    bound = 40.0 * gap * math.sqrt(rho) / EPS_CERT**1.5
    assert result.iterations <= bound
    print(f"criterion 8 PASS: T*={result.iterations} <= {bound:.0f} "
          f"(observed gap {gap:.3f})")


def test_criterion_09_oracle_complexity_ordering(cert_problem):
    """Matched certification quality: recursion beats fresh subsampling."""
    problem = cert_problem
    rho = problem.lipschitz_hess
    mu_bound = 600.0 * EPS_CERT**1.5

    def run_seeds(runner, rule, require_converged=True, **extra):
        counts = []
        for seed in range(5):
            config = SolverConfig(
                eps=EPS_CERT, T=60, x0=X0_CERT, batch=rule, seed=seed, **extra
            )
            result = runner(problem, config)
            mu = mu_criterion(problem, result.x_out, rho)
            if require_converged:
                assert result.exit == "converged"
            # matched quality: every run must certify at the same mu bound
            assert mu <= mu_bound
            counts.append(result)
        return counts

    pair_rule = PracticalBatchRule(B_g=250, B_h=250, S=5)
    srvrc_hess = [r.counters.hess_calls for r in run_seeds(run_srvrc, pair_rule)]
    scr_hess = [r.counters.hess_calls for r in run_seeds(run_scr, pair_rule)]
    med_srvrc = statistics.median(srvrc_hess)
    med_scr = statistics.median(scr_hess)
    assert med_srvrc < med_scr

    free_rule = PracticalBatchRule(B_g=250, B_h=100, S=5)
    free_hvp = [
        r.counters.hvp_calls for r in run_seeds(run_srvrc_free, free_rule)
    ]
    ablation_hvp = [
        r.counters.hvp_calls
        for r in run_seeds(
            run_srvrc_free, free_rule, require_converged=False, gradient_recursion=False
        )
    ]
    med_free = statistics.median(free_hvp)
    med_ablation = statistics.median(ablation_hvp)
    assert med_free < med_ablation
    print(f"criterion 9 PASS: median hess_calls {med_srvrc:.0f} < {med_scr:.0f} "
          f"(recursive vs fresh), median hvp_calls {med_free:.0f} < {med_ablation:.0f} "
          f"(recursive vs per-step resampling)")


def test_criterion_10_trace_determinism(tmp_path):
    """The certification config reruns byte-identically modulo wall_ms."""
    cfg = {
        "algorithm": "srvrc",
        "problem": {"synthetic": {"seed": 0, "n": 500, "d": 10}},
        "solver": {"eps": EPS_CERT, "xi": 0.1, "T": 100, "x0": list(X0_CERT)},
        "output": None,
    }

    def run_once(tag):
        cfg["output"] = str(tmp_path / tag)
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        rows = (tmp_path / f"{tag}.trace.csv").read_text().splitlines()
        cols = rows[0].split(",")
        keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
        return ["\x1f".join(r.split(",")[i] for i in keep) for r in rows]

    first = run_once("a")
    second = run_once("b")
    assert first == second
    assert len(first) > 1
    print(f"criterion 10 PASS: {len(first) - 1} trace rows reproduced exactly")
