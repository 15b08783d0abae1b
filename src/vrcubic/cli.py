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
Each section has one reader that checks its keys and JSON types and returns
its values converted; validate_config, build_problem and build_solver_config
all go through these readers, so every entry point rejects the same configs.
The readers also build the solver settings and call the library's own
argument checks, so a value the library rejects (a negative eps, a zero batch
size or synthetic n, a num_classes of 0) is reported at load, with its section.
Dataset paths resolve against VRCUBIC_DATA_ROOT when set and not absolute.
A dataset file is read in two passes over windows of whole lines
(``_libsvm.read_libsvm_dense``): a scan for the number of rows and the
largest feature index, then a parse straight into the dense X allocated at
that shape, so a build holds X and one window, not the file's bytes or a CSR
copy.  Every file is read once per pass, whatever its size, and files ending
in .gz are decompressed as they are read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from ._libsvm import binary_labels, class_ids, read_libsvm_dense
from .diagnostics import mu_criterion
from .drivers import (
    AdaptivePenalty,
    FixedPenalty,
    RunResult,
    SolverConfig,
    TheoreticalPenalty,
    TraceRow,
    _ALGORITHMS,
    _rho,
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
    _check_integer,
    _check_nonnegative,
    batch_hessian,
    batch_hvp,
    full_index,
)
from .objectives import (
    _check_synthetic,
    _unit_column_scales,
    binary_logreg_from_arrays,
    make_synthetic,
    multiclass_logreg_from_arrays,
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
COMPARE_COLUMNS = ("config", "algorithm", "status", "f_gap", "mu", "grad_calls", "hess_calls",
                   "hvp_calls", "wall_ms")

# Every solver key but budget_gap names a SolverConfig field, and every
# penalty or batch key names a field of its mode's class, so the dataclasses
# hold the only list of keys, their types and the only defaults.  A mode
# section's type is its {mode: class} table; the theoretical penalty (4*rho)
# and batch schedule are derived from the problem and take no keys.
_PENALTIES = {"fixed": FixedPenalty, "theoretical": TheoreticalPenalty, "adaptive": AdaptivePenalty}
_BATCHES = {"theoretical": None, "practical": PracticalBatchRule}
_SOLVER_TYPES = {**typing.get_type_hints(SolverConfig), "budget_gap": float,
                 "penalty": _PENALTIES, "batch": _BATCHES}
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


def _fits(value, kind) -> bool:
    """Whether a JSON value has the declared type; an integer is a number, a bool, NaN or inf is not."""
    if kind is np.ndarray:
        return isinstance(value, list) and all(_fits(v, float) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _read(section: dict, types: dict, required: set[str], where: str) -> dict:
    """A section's values, each checked against its declared type; a number becomes a float."""
    _check_keys(section, set(types), required, where)
    values = {}
    for key, value in section.items():
        if isinstance(types[key], dict):
            values[key] = _mode(value, types[key], f"{where}.{key}")
            continue
        kinds = typing.get_args(types[key]) or (types[key],)
        if value is None and type(None) in kinds:
            values[key] = None
        elif _fits(value, kinds[0]):
            values[key] = float(value) if kinds[0] is float else value
        else:
            expected = _TYPE_NAMES[kinds[0]] + (" or null" if type(None) in kinds else "")
            raise ConfigError(f"{where}.{key}: expected {expected}, got {json.dumps(value)}")
    return values


def _mode(section: dict, modes: dict, where: str):
    """What a {"mode": ..., **fields of that mode's class} section builds; None if no class."""
    if not isinstance(section, dict) or "mode" not in section:
        raise ConfigError(f"{where}: expected an object with a 'mode'")
    mode = section["mode"]
    if not isinstance(mode, str) or mode not in modes:
        raise ConfigError(f"{where}.mode: must be one of {sorted(modes)}")
    cls = modes[mode]
    types = typing.get_type_hints(cls) if cls else {}
    extra = sorted(set(section) - {"mode"} - set(types))
    if extra:
        raise ConfigError(f"{where}: key(s) {extra} not valid for mode '{mode}'")
    required = sorted(_required(cls)) if cls else []
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(f"{where}: needs {', '.join(map(repr, missing))} "
                          f"({mode} mode needs {', '.join(required)})")
    values = _read({k: v for k, v in section.items() if k != "mode"}, types, set(), where)
    return _construct(cls, where, **values) if cls else None


def _construct(build, where: str, *args, **kwargs):
    """build(*args, **kwargs), with the ValueError of a value it rejects named by its section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _problem(prob: dict, where: str) -> tuple[str, dict]:
    """("synthetic" or "dataset", that section's checked values, the seed and lam defaulted)."""
    _check_keys(prob, {"synthetic", "dataset"}, set(), where)
    if ("synthetic" in prob) == ("dataset" in prob):
        raise ConfigError(f"{where}: give exactly one of 'synthetic' or 'dataset'")
    if "synthetic" in prob:
        where = f"{where}.synthetic"
        syn = {"seed": 0, **_read(prob["synthetic"], _SYNTHETIC_TYPES, {"n", "d"}, where)}
        _construct(_check_synthetic, where, **syn)
        return "synthetic", syn
    where = f"{where}.dataset"
    ds = {"lam": 1e-3, **_read(prob["dataset"], _DATASET_TYPES, {"path", "objective"}, where)}
    if ds["objective"] not in ("binary_logreg", "multiclass_logreg"):
        raise ConfigError(f"{where}.objective: must be 'binary_logreg' or 'multiclass_logreg'")
    if ds["objective"] == "multiclass_logreg" and "num_classes" not in ds:
        raise ConfigError(f"{where}: multiclass_logreg needs num_classes")
    _construct(_check_nonnegative, where, lam=ds["lam"])
    if "num_classes" in ds:
        _construct(_check_integer, where, "num_classes", ds["num_classes"], 1)
    return "dataset", ds


def _solver(solver: dict, where: str) -> tuple[SolverConfig, float | None]:
    """(the SolverConfig a solver section gives, its budget_gap or None)."""
    values = _read(solver, _SOLVER_TYPES, _required(SolverConfig), where)
    if "T" in values and "budget_gap" in values:
        raise ConfigError(f"{where}: give at most one of 'T' and 'budget_gap'")
    gap = values.pop("budget_gap", None)
    if gap is not None:
        _construct(_check_nonnegative, where, budget_gap=gap)
    return _construct(SolverConfig, where, **values), gap


def load_config(path: str | Path) -> dict:
    """Parse and validate a config file; returns the raw dict."""
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


def _top(cfg: dict, where: str) -> None:
    """The document's own keys and its algorithm, checked before any section is built."""
    _check_keys(cfg, {"algorithm", "problem", "solver", "output"},
                {"algorithm", "problem", "solver"}, where)
    _check_algorithm(cfg["algorithm"], where)


def _check_algorithm(algorithm, where: str = "config") -> None:
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"{where}.algorithm: must be one of {_ALGORITHMS}")


def validate_config(cfg: dict, where: str = "config") -> None:
    _top(cfg, where)
    _problem(cfg["problem"], f"{where}.problem")
    _solver(cfg["solver"], f"{where}.solver")


def _resolve_dataset_path(raw: str) -> Path:
    p = Path(raw)
    if not p.is_absolute():
        root = os.environ.get("VRCUBIC_DATA_ROOT")
        if root:
            p = Path(root) / p
    return p


def build_problem(prob_cfg: dict) -> FiniteSumProblem:
    """The problem a problem section describes, checked as validate_config checks it."""
    source, spec = _problem(prob_cfg, "config.problem")
    if source == "synthetic":
        return make_synthetic(**spec)
    path = _resolve_dataset_path(spec["path"])
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    X, labels = read_libsvm_dense(path)
    if spec.get("scale_features", False):
        X /= _unit_column_scales(X)  # in place: X is the reader's own array
    if spec["objective"] == "binary_logreg":
        return binary_logreg_from_arrays(X, binary_labels(labels), spec["lam"])
    m = spec["num_classes"]
    return multiclass_logreg_from_arrays(X, class_ids(labels, m), m, spec["lam"])


def build_solver_config(solver_cfg: dict, algorithm: str, problem: FiniteSumProblem) -> SolverConfig:
    """A SolverConfig from a solver section, checked as validate_config checks it.

    Absent keys take the dataclass defaults.  Batch mode "theoretical" is the
    default, batch=None: the driver derives the schedule from the problem.
    """
    sc, gap = _solver(solver_cfg, "config.solver")
    if gap is not None:
        sc.T = budget_from_gap(gap, sc.eps, _rho(problem, sc), algorithm)
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


def _write_csv(path: Path, columns, rows) -> None:
    """A header line, then one line per dict in rows; a cell a row lacks is written empty."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row.get(c, "") for c in columns)
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in cells))
    path.write_text("\n".join(lines) + "\n")


def write_trace_csv(path: Path, trace) -> None:
    _write_csv(path, TRACE_COLUMNS, [vars(row) for row in trace])


def certify_constant(algorithm: str) -> float:
    _check_algorithm(algorithm)
    return 1300.0 if algorithm == "srvrc_free" else 600.0


def execute_config(cfg: dict) -> tuple[RunResult, dict]:
    """Build the problem, run the algorithm, measure mu; returns (result, summary)."""
    _top(cfg, "config")
    algorithm = cfg["algorithm"]
    problem = build_problem(cfg["problem"])
    sc = build_solver_config(cfg["solver"], algorithm, problem)
    result = run_algorithm(algorithm, problem, sc)
    rho_eff = _rho(problem, sc)
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
    oracles exist, Hessian-vector products against dense Hessian columns
    (without a Hessian oracle the HVP error is None: that check does not run).
    """
    from .diagnostics import finite_diff_grad_check

    points = 5
    rng = np.random.default_rng(0)
    counter = OracleCounter()
    full = full_index(problem)
    max_grad_err = 0.0
    max_hvp_err = None if problem.batch_hess_fn is None else 0.0
    for _ in range(points):
        x = 0.5 * rng.standard_normal(problem.dim)
        max_grad_err = max(max_grad_err, finite_diff_grad_check(problem, x, step=1e-5))
        if max_hvp_err is not None:
            v = rng.standard_normal(problem.dim)
            H = batch_hessian(problem, x, full, counter)
            hv = batch_hvp(problem, x, full, counter)(v)
            denom = 1.0 + float(np.linalg.norm(H @ v))
            max_hvp_err = max(max_hvp_err, float(np.linalg.norm(hv - H @ v)) / denom)
    report = {"max_grad_err": max_grad_err, "max_hvp_err": max_hvp_err, "points": points}
    return (max_grad_err <= 1e-4 and (max_hvp_err is None or max_hvp_err <= 1e-4)), report


def cmd_check(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
        problem = build_problem(cfg["problem"])
        ok, report = check_problem(problem)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    hvp = ("HVP check not run (no Hessian oracle)" if report["max_hvp_err"] is None
           else f"max HVP error {report['max_hvp_err']:.3e}")
    print(f"{problem.name}: max gradient error {report['max_grad_err']:.3e}, {hvp} "
          f"over {report['points']} points")
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
    for path in config_paths:
        try:
            cfg = load_config(path)
            result, summary = execute_config(cfg)
            _write_outputs(cfg, result, summary)
        except Exception as exc:
            print(f"error in {path.name}: {exc}", file=sys.stderr)
            rows.append({"config": path.stem, "status": "failed"})
            continue
        rows.append({
            "config": path.stem,
            "algorithm": summary["algorithm"],
            "status": summary["exit"],
            "f_out": summary["f_out"],
            "best_f": min([summary["f_out"]] + [r.f for r in result.trace]),
            "mu": summary["mu"],
            **summary["counters"],
            "wall_ms": summary["wall_ms_total"],
        })

    finished = [r for r in rows if r["status"] != "failed"]
    baseline = min((r["best_f"] for r in finished), default=0.0)
    for r in finished:
        r["f_gap"] = r["f_out"] - baseline
    out = directory / "compare.csv"
    _write_csv(out, COMPARE_COLUMNS, rows)
    print(f"wrote {out} ({len(rows)} runs)")
    return 1 if len(finished) < len(rows) else 0


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
