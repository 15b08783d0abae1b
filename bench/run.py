"""vrcubic benchmark: time to a certified local minimum and its oracle bill.

    python3 bench/run.py --workload logreg-exact --seed 0 --seconds 30 --trace 0

Each run builds the workload's problems through the public path that
``vrcubic run`` takes (``cli.build_problem``, ``cli.build_solver_config``,
``cli.run_algorithm``, then ``diagnostics.mu_criterion`` with the CLI's
certify constant) and solves the workload's seeded starting points in turn,
in this one process, until ``--seconds`` have passed.  Every solve must
certify, compute lambda_min, and repeat its start's oracle bill exactly; the
first start is also checked once against ``cli.execute_config``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves every
start twice in turn, untraced and then with span wrappers installed (see
tracing.py), and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; a full record
(environment, every solve) and, when traced, the spans are written under
.bench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3  # set-ups before the first cycle
SETUP_BURST_S = 0.3  # set-ups before every later cycle: at least one, and this long
BLAS_THREADS = 2
# Seeds used while the benchmark was tuned; hold-out checks use others (>= 1000).
TUNING_SEEDS = range(0, 20)


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS pool before numpy loads; returns (nproc, threads)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def import_vrcubic():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vrcubic

    if Path(vrcubic.__file__).resolve().parent != src / "vrcubic":
        raise ImportError(f"vrcubic imported from {vrcubic.__file__}, not from {src}")
    from vrcubic import cli, diagnostics

    return cli, diagnostics


def environment(seed: int, nproc: int, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "blas_threads": threads,
        "machine": platform.machine(),
        "seed": seed,
        "holdout_seed": seed not in TUNING_SEEDS,
    }


def bill(result) -> dict:
    c, d = result.counters, result.diag_counters
    return {
        "counters": {"grad_calls": c.grad_calls, "hess_calls": c.hess_calls,
                     "hvp_calls": c.hvp_calls, "value_calls": c.value_calls},
        "diag_counters": {"grad_calls": d.grad_calls, "hess_calls": d.hess_calls,
                          "hvp_calls": d.hvp_calls, "value_calls": d.value_calls},
    }


class Bench:
    """One workload at one seed: set-up, solves, and their checks."""

    def __init__(self, cli, diagnostics, workload, inputs):
        self.cli = cli
        self.diagnostics = diagnostics
        self.inputs = inputs
        self.algorithm = workload.algorithm
        self.certify_c = cli.certify_constant(self.algorithm)
        self.problems = []
        self.configs = []
        self.references: dict[int, dict] = {}
        self.failures: list[str] = []

    def setup(self) -> float:
        """cli.build_problem for every problem, cli.build_solver_config for every start."""
        self.problems, self.configs = [], []  # one set of problems in memory at a time
        start = time.perf_counter()
        problems = [self.cli.build_problem(cfg) for cfg in self.inputs.problem_cfgs]
        configs = [
            self.cli.build_solver_config(cfg, self.algorithm, problems[p])
            for p, cfg in self.inputs.solver_cfgs
        ]
        elapsed = time.perf_counter() - start
        self.problems, self.configs = problems, configs
        return elapsed

    def solve(self, k: int) -> dict | None:
        """Time start k from the driver call to the certify verdict and check it."""
        sc, problem = self.configs[k], self.problem(k)
        try:
            start = time.perf_counter()
            result = self.cli.run_algorithm(self.algorithm, problem, sc)
            rho = sc.rho if sc.rho is not None else problem.lipschitz_hess
            mu = self.diagnostics.mu_criterion(problem, result.x_out, rho, counter=result.diag_counters)
            certified = bool(mu <= self.certify_c * sc.eps**1.5)
            seconds = time.perf_counter() - start
        except Exception:  # a failed solve is counted and reported, the run goes on
            self.failures.append(f"start {k}: {traceback.format_exc()}")
            return None
        record = {"start": k, "seconds": seconds, "iterations": result.iterations,
                  "exit": result.exit, "mu": mu, "certified": certified,
                  "mu_ratio": mu / (self.certify_c * sc.eps**1.5), **bill(result)}
        diag = result.diag_counters
        lambda_computed = diag.hess_calls >= problem.n or diag.hvp_calls >= problem.n
        reference = self.references.setdefault(k, record)
        issues = []
        if not certified:
            issues.append(f"not certified (mu={mu:.3e})")
        if not lambda_computed:
            issues.append("lambda_min was not computed")
        for key in ("counters", "diag_counters", "iterations", "mu"):
            if record[key] != reference[key]:
                issues.append(f"{key} {record[key]} differs from the reference {reference[key]}")
        if issues:
            self.failures.append(f"start {k}: " + "; ".join(issues))
            return None
        return record

    def problem(self, k: int):
        return self.problems[self.inputs.solver_cfgs[k][0]]

    def setup_burst(self, min_reps: int) -> list[float]:
        """Set up at least min_reps times and for at least SETUP_BURST_S."""
        times = []
        while len(times) < min_reps or (sum(times) < SETUP_BURST_S and len(times) < 100):
            times.append(self.setup())
        return times

    def cycles(self, budget_s: float, whole_cycles: bool):
        """Yield start indices in turn until budget_s has passed (at least one cycle).

        With whole_cycles the run stops only at the end of a cycle, so every
        start is solved equally often.
        """
        deadline = time.perf_counter() + budget_s
        first = True
        while first or time.perf_counter() < deadline:
            for k in range(len(self.inputs.solver_cfgs)):
                yield k
                if not (first or whole_cycles) and time.perf_counter() >= deadline:
                    return
            first = False

    def check_user_path(self) -> dict:
        """Run start 0 through cli.execute_config; returns its summary."""
        p, solver = self.inputs.solver_cfgs[0]
        cfg = {"algorithm": self.algorithm, "problem": self.inputs.problem_cfgs[p], "solver": solver}
        return self.cli.execute_config(cfg)[1]

    def user_path_matches(self, summary: dict) -> bool:
        ref = self.references.get(0)
        same = (
            ref is not None
            and summary["counters"] == ref["counters"]
            and summary["diag_counters"] == ref["diag_counters"]
            and summary["mu"] == ref["mu"]
            and summary["certified"]
        )
        if not same:
            self.failures.append(f"execute_config disagrees with the benchmark: {summary}")
        return same


def time_to_cert(solves: list[dict]) -> float:
    """Median solve time of each start, averaged over the starts."""
    by_start: dict[int, list[float]] = {}
    for r in solves:
        by_start.setdefault(r["start"], []).append(r["seconds"])
    return statistics.fmean(statistics.median(v) for v in by_start.values())


def per_start_mean(references: dict[int, dict], section: str, keys) -> float:
    return statistics.fmean(
        sum(ref[section][key] for key in keys) for ref in references.values()
    )


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full record (result line under "result")."""
    from workloads import WORKLOADS, make_inputs

    cli, diagnostics = import_vrcubic()
    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, seed, out_dir, tiny=tiny)
    try:
        bench = Bench(cli, diagnostics, workload, inputs)
        record: dict = {"workload": workload_name, "seed": seed, "trace": int(trace)}
        if trace:
            metrics = _measure_traced(bench, seconds, record, out_dir)
        else:
            metrics = _measure_untraced(bench, seconds, record)
    finally:
        for path in inputs.data_files:
            path.unlink(missing_ok=True)
    failed = len(bench.failures)
    attempted = record.pop("attempted")
    record["failures"] = bench.failures
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record


def _measure_untraced(bench: Bench, seconds: float, record: dict) -> dict:
    summary = bench.check_user_path()
    setup_times, solves, attempts = [], [], 0
    for k in bench.cycles(seconds, whole_cycles=False):
        # Set-ups are spread over the run, so a slow spell of the machine at
        # its start does not decide setup_s.
        if k == 0:
            setup_times += bench.setup_burst(1 if setup_times else SETUP_REPEATS)
        attempts += 1
        record_k = bench.solve(k)
        if record_k is not None:
            solves.append(record_k)
    bench.user_path_matches(summary)
    record.update(attempted=attempts + 1, setup_times=setup_times, solves=solves)
    if not solves:
        raise RuntimeError("no solve succeeded:\n" + "\n".join(bench.failures))
    refs = bench.references
    return {
        "time_to_cert_s": (time_to_cert(solves), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "grad_calls": (per_start_mean(refs, "counters", ["grad_calls"]), "count"),
        "diag_calls": (per_start_mean(refs, "diag_counters",
                                      ["grad_calls", "hess_calls", "hvp_calls", "value_calls"]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _measure_traced(bench: Bench, seconds: float, record: dict, out_dir: Path) -> dict:
    """Solve each start untraced and then traced, in turn, for whole cycles."""
    from tracing import Tracer, layer_metrics, traced, write_spans

    summary = bench.check_user_path()
    tracer = Tracer()
    with traced(tracer):
        setups = len(bench.setup_burst(SETUP_REPEATS))
    plain, solves, attempts = [], [], 0
    for k in bench.cycles(seconds, whole_cycles=True):
        untraced = bench.solve(k)
        tracer.solve = attempts
        with traced(tracer, bench.problem(k)):
            traced_k = bench.solve(k)
        attempts += 2
        plain += [untraced] if untraced else []
        solves += [traced_k] if traced_k else []
    bench.user_path_matches(summary)
    record.update(attempted=attempts + 1, solves=solves, untraced_solves=plain)
    if not solves or not plain:
        raise RuntimeError("no solve succeeded:\n" + "\n".join(bench.failures))
    metrics = layer_metrics(tracer.spans, solves, setups, bench.inputs.component_bytes)
    for name in ("hess_calls", "hvp_calls"):
        metrics[name] = (statistics.fmean(r["counters"][name] for r in solves), "count")
    untraced = time_to_cert(plain)
    metrics["trace.overhead_frac"] = ((time_to_cert(solves) - untraced) / untraced, "fraction")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spans(out_dir / f"{record['workload']}-seed{record['seed']}.spans.jsonl", tracer.spans)
    return metrics


def main(argv=None) -> int:
    nproc, threads = pin_blas_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed, nproc, threads)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = env
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(f"{args.workload}: {result['attempted']} solves attempted, {result['failed']} failed "
          f"(fail_rate {result['failed'] / result['attempted']:.3f})")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
