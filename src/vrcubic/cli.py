"""Configuration-driven experiment runner.

Subcommands:

* run <config.json>     -- one optimization run; writes <output>.trace.csv and
                           <output>.summary.json.  Exit 0 converged, 2 budget
                           exhausted, 1 error.
* check <config.json>   -- derivative sanity checks on the configured problem
                           at seeded points.  Exit 0 iff every error <= 1e-4.
* compare <dir>         -- runs every *.json config in the directory and
                           writes compare.csv with one row per run.

Configs are single JSON documents.  Unknown keys anywhere in the document are
an error: tuning runs die loudly on typos instead of silently using defaults.
Dataset paths resolve against VRCUBIC_DATA_ROOT when set and not absolute;
files ending in .gz are transparently decompressed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import typing
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .diagnostics import mu_criterion
from .drivers import (
    AdaptivePenalty,
    FixedPenalty,
    RunResult,
    SolverConfig,
    TheoreticalPenalty,
    TraceRow,
    budget_from_gap,
    run_cr,
    run_scr,
    run_srvrc,
    run_srvrc_free,
)
from .estimators import PracticalBatchRule
from .finite_sum import (
    FiniteSumProblem,
    OracleCounter,
    batch_hessian,
    batch_hvp,
    full_index,
)
from .objectives import (
    binary_logreg_from_arrays,
    make_synthetic,
    multiclass_logreg_from_arrays,
    parse_libsvm,
    scale_columns_unit,
)

__all__ = [
    "ConfigError",
    "load_config",
    "execute_config",
    "check_problem",
    "cmd_run",
    "cmd_check",
    "cmd_compare",
    "main",
]

TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))

_ALGORITHMS = ("srvrc", "srvrc_free", "cr", "scr")

# Every solver key but budget_gap names a SolverConfig field, and every
# penalty or batch key names a field of its mode's class, so the dataclasses
# hold the only list of keys, their types and the only defaults.  The
# theoretical batch schedule is derived from the problem and takes no keys.
_SOLVER_TYPES = typing.get_type_hints(SolverConfig)
_SOLVER_KEYS = set(_SOLVER_TYPES) | {"budget_gap"}
_SOLVER_SCALARS = {k: v for k, v in _SOLVER_TYPES.items() if k not in ("penalty", "batch")}
_SOLVER_SCALARS["budget_gap"] = float
_PENALTIES = {"fixed": FixedPenalty, "theoretical": TheoreticalPenalty, "adaptive": AdaptivePenalty}
_PENALTY_KEYS = {mode: {"mode"} | {f.name for f in fields(cls)} for mode, cls in _PENALTIES.items()}
_BATCH_KEYS = {
    "theoretical": {"mode"},
    "practical": {"mode"} | {f.name for f in fields(PracticalBatchRule)},
}
_SYNTHETIC_TYPES = {"seed": int, "n": int, "d": int, "difficulty": str}
_DATASET_TYPES = {"path": str, "objective": str, "lam": float, "num_classes": int,
                  "scale_features": bool}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string",
               np.ndarray: "a list of numbers"}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _required(cls) -> set[str]:
    return {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}


def _check_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    missing = sorted(required - set(section))
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {missing}")


def _fits(value, declared) -> bool:
    """Whether a JSON value has the declared type; an integer is a number, a bool is neither."""
    kinds = typing.get_args(declared) or (declared,)
    if value is None:
        return type(None) in kinds
    kind = kinds[0]
    if kind is np.ndarray:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(section: dict, types: dict, where: str) -> None:
    for key, value in section.items():
        if key in types and not _fits(value, types[key]):
            kinds = typing.get_args(types[key]) or (types[key],)
            expected = _TYPE_NAMES[kinds[0]] + (" or null" if type(None) in kinds else "")
            raise ConfigError(f"{where}.{key}: expected {expected}, got {json.dumps(value)}")


def load_config(path: str | Path) -> dict:
    """Parse and structurally validate a config file; returns the raw dict."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    validate_config(cfg, where=str(path))
    return cfg


def validate_config(cfg: dict, where: str = "config") -> None:
    _check_keys(
        cfg,
        {"algorithm", "problem", "solver", "output", "trace_format"},
        {"algorithm", "problem", "solver"},
        where,
    )
    if cfg["algorithm"] not in _ALGORITHMS:
        raise ConfigError(f"{where}.algorithm: must be one of {_ALGORITHMS}")
    if cfg.get("trace_format", "csv") != "csv":
        raise ConfigError(f"{where}.trace_format: only 'csv' is supported")

    prob = cfg["problem"]
    _check_keys(prob, {"synthetic", "dataset"}, set(), f"{where}.problem")
    if ("synthetic" in prob) == ("dataset" in prob):
        raise ConfigError(f"{where}.problem: give exactly one of 'synthetic' or 'dataset'")
    if "synthetic" in prob:
        synthetic = prob["synthetic"]
        _check_keys(synthetic, set(_SYNTHETIC_TYPES), {"n", "d"}, f"{where}.problem.synthetic")
        _check_types(synthetic, _SYNTHETIC_TYPES, f"{where}.problem.synthetic")
    else:
        ds = prob["dataset"]
        _check_keys(ds, set(_DATASET_TYPES), {"path", "objective"}, f"{where}.problem.dataset")
        _check_types(ds, _DATASET_TYPES, f"{where}.problem.dataset")
        if ds["objective"] not in ("binary_logreg", "multiclass_logreg"):
            raise ConfigError(
                f"{where}.problem.dataset.objective: "
                "must be 'binary_logreg' or 'multiclass_logreg'"
            )
        if ds["objective"] == "multiclass_logreg" and "num_classes" not in ds:
            raise ConfigError(f"{where}.problem.dataset: multiclass_logreg needs num_classes")

    solver = cfg["solver"]
    _check_keys(solver, _SOLVER_KEYS, _required(SolverConfig), f"{where}.solver")
    _check_types(solver, _SOLVER_SCALARS, f"{where}.solver")
    if "T" in solver and "budget_gap" in solver:
        raise ConfigError(f"{where}.solver: give at most one of 'T' and 'budget_gap'")
    if "penalty" in solver:
        pen = solver["penalty"]
        _check_keys(pen, set().union(*_PENALTY_KEYS.values()), {"mode"},
                    f"{where}.solver.penalty")
        mode = pen["mode"]
        if not isinstance(mode, str) or mode not in _PENALTIES:
            raise ConfigError(f"{where}.solver.penalty.mode: must be one of "
                              f"{sorted(_PENALTIES)}")
        extra = sorted(set(pen) - _PENALTY_KEYS[mode])
        if extra:
            raise ConfigError(f"{where}.solver.penalty: key(s) {extra} not valid for "
                              f"mode '{mode}'")
        missing = sorted(_required(_PENALTIES[mode]) - set(pen))
        if missing:
            raise ConfigError(f"{where}.solver.penalty: {mode} mode needs "
                              + ", ".join(repr(k) for k in missing))
        _check_types(pen, typing.get_type_hints(_PENALTIES[mode]), f"{where}.solver.penalty")
    if "batch" in solver:
        batch = solver["batch"]
        if not isinstance(batch, dict) or "mode" not in batch:
            raise ConfigError(f"{where}.solver.batch: expected an object with a 'mode'")
        if not isinstance(batch["mode"], str) or batch["mode"] not in _BATCH_KEYS:
            raise ConfigError(f"{where}.solver.batch.mode: must be 'theoretical' or 'practical'")
        if batch["mode"] == "practical" and not _BATCH_KEYS["practical"] <= set(batch):
            raise ConfigError(f"{where}.solver.batch: practical mode needs B_g, B_h, S")
        extra = sorted(set(batch) - _BATCH_KEYS[batch["mode"]])
        if extra:
            raise ConfigError(f"{where}.solver.batch: key(s) {extra} not valid for mode "
                              f"'{batch['mode']}'")
        _check_types(batch, typing.get_type_hints(PracticalBatchRule), f"{where}.solver.batch")


def _resolve_dataset_path(raw: str) -> Path:
    p = Path(raw)
    if not p.is_absolute():
        root = os.environ.get("VRCUBIC_DATA_ROOT")
        if root:
            p = Path(root) / p
    return p


def _read_maybe_gzip(path: Path) -> str:
    if path.suffix == ".gz":
        with gzip.open(path, "rt") as fh:
            return fh.read()
    return path.read_text()


def build_problem(prob_cfg: dict) -> FiniteSumProblem:
    if "synthetic" in prob_cfg:
        s = prob_cfg["synthetic"]
        return make_synthetic(
            seed=int(s.get("seed", 0)),
            n=int(s["n"]),
            d=int(s["d"]),
            difficulty=s.get("difficulty", "nonconvex"),
        )
    ds = prob_cfg["dataset"]
    path = _resolve_dataset_path(ds["path"])
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    data = parse_libsvm(_read_maybe_gzip(path))
    X = data.to_dense()
    if ds.get("scale_features", False):
        X = scale_columns_unit(X)
    lam = float(ds.get("lam", 1e-3))
    if ds["objective"] == "binary_logreg":
        return binary_logreg_from_arrays(X, data.binary_labels(), lam)
    return multiclass_logreg_from_arrays(
        X, data.class_ids(int(ds["num_classes"])), int(ds["num_classes"]), lam
    )


def _solver_field(name: str, value):
    """A validated JSON value converted to the type the SolverConfig field declares."""
    kinds = typing.get_args(_SOLVER_TYPES[name]) or (_SOLVER_TYPES[name],)
    if value is None and type(None) in kinds:
        return None
    if kinds[0] is np.ndarray:
        return np.asarray(value, dtype=float)
    return kinds[0](value)


def build_solver_config(solver_cfg: dict, algorithm: str, problem: FiniteSumProblem) -> SolverConfig:
    """A SolverConfig from a validated section; absent keys take the dataclass defaults.

    Batch mode "theoretical" is the default, batch=None: the driver derives
    the schedule from the problem.
    """
    sc = SolverConfig(**{
        name: _solver_field(name, value)
        for name, value in solver_cfg.items()
        if name not in ("budget_gap", "penalty", "batch")
    })
    if "budget_gap" in solver_cfg:
        rho = sc.rho if sc.rho is not None else problem.lipschitz_hess
        sc.T = budget_from_gap(float(solver_cfg["budget_gap"]), sc.eps, rho, algorithm)
    pen_cfg = solver_cfg.get("penalty")
    if pen_cfg is not None:
        params = {k: float(v) for k, v in pen_cfg.items() if k != "mode"}
        sc.penalty = _PENALTIES[pen_cfg["mode"]](**params)
    batch_cfg = solver_cfg.get("batch")
    if batch_cfg is not None and batch_cfg["mode"] == "practical":
        sc.batch = PracticalBatchRule(**{k: int(v) for k, v in batch_cfg.items() if k != "mode"})
    return sc


def run_algorithm(algorithm: str, problem: FiniteSumProblem, sc: SolverConfig) -> RunResult:
    if algorithm == "srvrc":
        return run_srvrc(problem, sc)
    if algorithm == "srvrc_free":
        return run_srvrc_free(problem, sc)
    if algorithm == "cr":
        return run_cr(problem, sc)
    if algorithm == "scr":
        return run_scr(problem, sc)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv(path: Path, trace) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for row in trace:
        lines.append(",".join(_fmt(getattr(row, col)) for col in TRACE_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def certify_constant(algorithm: str) -> float:
    return 1300.0 if algorithm == "srvrc_free" else 600.0


def execute_config(cfg: dict) -> tuple[RunResult, dict]:
    """Build the problem, run the algorithm, measure mu; returns (result, summary)."""
    algorithm = cfg["algorithm"]
    problem = build_problem(cfg["problem"])
    sc = build_solver_config(cfg["solver"], algorithm, problem)
    result = run_algorithm(algorithm, problem, sc)
    rho_eff = sc.rho if sc.rho is not None else problem.lipschitz_hess
    mu = mu_criterion(problem, result.x_out, rho_eff, counter=result.diag_counters)
    c = certify_constant(algorithm)
    summary = {
        "algorithm": algorithm,
        "problem": problem.name,
        "exit": result.exit,
        "exit_code": 0 if result.exit == "converged" else 2,
        "iterations": result.iterations,
        "f_out": result.f_out,
        "mu": mu,
        "eps": sc.eps,
        "rho": rho_eff,
        "certify_c": c,
        "certified": bool(mu <= c * sc.eps**1.5),
        "counters": asdict(result.counters),
        "diag_counters": asdict(result.diag_counters),
        "wall_ms_total": result.wall_ms_total,
    }
    return result, summary


def _write_outputs(cfg: dict, result: RunResult, summary: dict) -> None:
    if "output" not in cfg:
        return
    stem = Path(cfg["output"])
    stem.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(stem.with_name(stem.name + ".trace.csv"), result.trace)
    with open(stem.with_name(stem.name + ".summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        if "output" not in cfg:
            raise ConfigError(f"{config_path}: 'output' is required for the run command")
        result, summary = execute_config(cfg)
        _write_outputs(cfg, result, summary)
    except Exception as exc:  # config, IO, or solver failure: report and exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{summary['algorithm']}: {summary['exit']} after {summary['iterations']} iterations, "
        f"f={summary['f_out']:.6g}, mu={summary['mu']:.3e}"
    )
    return summary["exit_code"]


def check_problem(problem: FiniteSumProblem) -> tuple[bool, dict]:
    """Derivative consistency at 5 seeded points; returns (every error <= 1e-4, report).

    Checks the analytic gradient against central differences and, when both
    oracles exist, Hessian-vector products against dense Hessian columns.
    """
    from .diagnostics import finite_diff_grad_check

    points = 5
    rng = np.random.default_rng(0)
    counter = OracleCounter()
    full = full_index(problem)
    max_grad_err = 0.0
    max_hvp_err = 0.0
    for _ in range(points):
        x = 0.5 * rng.standard_normal(problem.dim)
        max_grad_err = max(max_grad_err, finite_diff_grad_check(problem, x, step=1e-5))
        if problem.batch_hess_fn is not None and problem.batch_hvp_fn is not None:
            v = rng.standard_normal(problem.dim)
            H = batch_hessian(problem, x, full, counter)
            hv = batch_hvp(problem, x, full, v, counter)
            denom = 1.0 + float(np.linalg.norm(H @ v))
            max_hvp_err = max(max_hvp_err, float(np.linalg.norm(hv - H @ v)) / denom)
    report = {"max_grad_err": max_grad_err, "max_hvp_err": max_hvp_err, "points": points}
    return (max_grad_err <= 1e-4 and max_hvp_err <= 1e-4), report


def cmd_check(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        problem = build_problem(cfg["problem"])
        ok, report = check_problem(problem)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{problem.name}: max gradient error {report['max_grad_err']:.3e}, "
        f"max HVP error {report['max_hvp_err']:.3e} over {report['points']} points"
    )
    return 0 if ok else 1


def cmd_compare(config_dir: str) -> int:
    directory = Path(config_dir)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 1
    config_paths = sorted(directory.glob("*.json"))
    if not config_paths:
        print(f"error: no *.json configs in {directory}", file=sys.stderr)
        return 1

    rows = []
    any_failed = False
    for path in config_paths:
        name = path.stem
        try:
            cfg = load_config(path)
            result, summary = execute_config(cfg)
            _write_outputs(cfg, result, summary)
            best_f = min([summary["f_out"]] + [r.f for r in result.trace])
            rows.append(
                {
                    "config": name,
                    "algorithm": summary["algorithm"],
                    "status": summary["exit"],
                    "f_out": summary["f_out"],
                    "best_f": best_f,
                    "mu": summary["mu"],
                    "grad_calls": summary["counters"]["grad_calls"],
                    "hess_calls": summary["counters"]["hess_calls"],
                    "hvp_calls": summary["counters"]["hvp_calls"],
                    "wall_ms": summary["wall_ms_total"],
                }
            )
        except Exception as exc:
            any_failed = True
            print(f"error in {path.name}: {exc}", file=sys.stderr)
            rows.append({"config": name, "algorithm": "", "status": "failed"})

    finite_best = [r["best_f"] for r in rows if r["status"] != "failed"]
    baseline = min(finite_best) if finite_best else 0.0
    header = "config,algorithm,status,f_gap,mu,grad_calls,hess_calls,hvp_calls,wall_ms"
    lines = [header]
    for r in rows:
        if r["status"] == "failed":
            lines.append(f"{r['config']},,failed,,,,,,")
            continue
        lines.append(
            ",".join(
                [
                    r["config"],
                    r["algorithm"],
                    r["status"],
                    repr(r["f_out"] - baseline),
                    repr(r["mu"]),
                    str(r["grad_calls"]),
                    str(r["hess_calls"]),
                    str(r["hvp_calls"]),
                    repr(r["wall_ms"]),
                ]
            )
        )
    out = directory / "compare.csv"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(rows)} runs)")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vrcubic",
        description="Variance-reduced cubic-regularized Newton experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_check = sub.add_parser("check", help="derivative sanity checks for a config's problem")
    p_check.add_argument("config", help="path to a JSON experiment config")
    p_cmp = sub.add_parser("compare", help="run every config in a directory")
    p_cmp.add_argument("dir", help="directory of JSON experiment configs")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "check":
        return cmd_check(args.config)
    return cmd_compare(args.dir)


if __name__ == "__main__":
    sys.exit(main())
