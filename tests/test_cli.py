import dataclasses
import gzip
import inspect
import json

import numpy as np
import pytest

from vrcubic import cli, drivers
from vrcubic.cli import (
    TRACE_COLUMNS,
    ConfigError,
    build_problem,
    build_solver_config,
    certify_constant,
    check_problem,
    load_config,
    main,
    validate_config,
)
from vrcubic.finite_sum import from_components
from vrcubic.objectives import LibsvmParseError, make_synthetic

LIBSVM_BINARY = "\n".join(
    [
        "+1 1:0.9 2:-0.3 3:0.2",
        "-1 1:-0.7 2:0.4 3:-0.1",
        "+1 2:1.2 3:0.5",
        "-1 1:0.1 2:-1.1",
        "+1 1:0.5 2:0.5 3:0.6",
        "-1 1:-1.0 3:-0.4",
        "+1 1:0.2 2:0.9",
        "-1 2:-0.8 3:0.3",
    ]
)

LIBSVM_MULTI = "\n".join(
    [
        "1 1:0.9 2:-0.3",
        "2 1:-0.7 2:0.4",
        "3 1:0.2 2:1.1",
        "1 1:0.5 2:0.5",
        "2 1:-1.0 2:0.1",
        "3 1:0.3 2:-0.9",
    ]
)


def base_config(**overrides):
    cfg = {
        "algorithm": "srvrc",
        "problem": {"synthetic": {"seed": 0, "n": 40, "d": 4}},
        "solver": {"eps": 1e-2, "T": 50, "x0": [1.0, 1.0, 1.0, 1.0]},
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    path.write_text(json.dumps(cfg) + "\n")
    return str(path)


class TestValidateConfig:
    def test_minimal_config_passes(self):
        validate_config(base_config())
        cfg = base_config()
        # every scalar solver key with a value of its JSON type; an integer is a number
        cfg["solver"].update(eps=1, rho=None, xi=0.2, seed=3, x0=[1, 0.5, 0, -1],
                             subsolver_max_iters=None, finalsolver_eps_g=1e-8,
                             gradient_recursion=False)
        validate_config(cfg)
        cfg["solver"].update(rho=2, subsolver_max_iters=50, x0=None)
        validate_config(cfg)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"config: unknown key\(s\) \['extra'\]"):
            validate_config(base_config(extra=1))

    def test_missing_required_sections(self):
        with pytest.raises(ConfigError, match=r"missing required key\(s\) \['solver'\]"):
            validate_config({"algorithm": "cr", "problem": {"synthetic": {"n": 2, "d": 2}}})

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            validate_config(base_config(algorithm="sgd"))

    def test_trace_format_must_be_csv(self):
        with pytest.raises(ConfigError, match="trace_format"):
            validate_config(base_config(trace_format="parquet"))

    def test_problem_requires_exactly_one_source(self):
        cfg = base_config()
        cfg["problem"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(cfg)
        cfg["problem"] = {
            "synthetic": {"n": 4, "d": 2},
            "dataset": {"path": "x", "objective": "binary_logreg"},
        }
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(cfg)

    def test_unknown_key_error_names_the_path(self):
        # stepsize never was a key; the others are derived or fixed, not set
        for key in ("stepsize", "L", "M", "subsolver_eta", "subsolver_quality",
                    "subsolver_fail_prob", "finalsolver_max_iters"):
            cfg = base_config()
            cfg["solver"][key] = 0.1
            with pytest.raises(ConfigError, match=rf"config\.solver: unknown key\(s\) \['{key}'\]"):
                validate_config(cfg)
        # a value of the wrong JSON type is named by its path too
        for key, value in (("gradient_recursion", "false"), ("T", 2.9), ("seed", True),
                           ("eps", "0.001"), ("rho", False), ("x0", [1.0, "1", 1.0, 1.0]),
                           ("x0", 1.0), ("subsolver_max_iters", 300.0),
                           ("finalsolver_eps_g", "1e-8"), ("budget_gap", None), ("T", None)):
            cfg = base_config()
            cfg["solver"].pop("T")
            cfg["solver"][key] = value
            with pytest.raises(ConfigError, match=rf"config\.solver\.{key}: expected "):
                validate_config(cfg)

    def test_synthetic_section_checked(self):
        cfg = base_config()
        cfg["problem"] = {"synthetic": {"n": 4}}
        with pytest.raises(ConfigError, match=r"synthetic: missing required key\(s\) \['d'\]"):
            validate_config(cfg)
        for key, value in (("seed", True), ("n", "40"), ("d", 4.0), ("difficulty", 1)):
            cfg["problem"] = {"synthetic": {"n": 40, "d": 4, key: value}}
            with pytest.raises(ConfigError, match=rf"config\.problem\.synthetic\.{key}: expected "):
                validate_config(cfg)
        # well-typed values make_synthetic would refuse are refused at load too
        for key, value, message in (("difficulty", "hard", "one of"), ("n", 0, "at least 1"),
                                    ("d", 0, "at least 1"), ("seed", -1, "nonnegative")):
            cfg["problem"] = {"synthetic": {"n": 40, "d": 4, key: value}}
            with pytest.raises(ConfigError,
                               match=rf"config\.problem\.synthetic: {key} must be {message}"):
                validate_config(cfg)

    def test_dataset_objective_checked(self):
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": "x", "objective": "svm"}}
        with pytest.raises(ConfigError, match="binary_logreg"):
            validate_config(cfg)
        for key, value in (("lam", "0.1"), ("scale_features", 1), ("path", 3), ("num_classes", 3.0)):
            cfg["problem"] = {"dataset": {"path": "x", "objective": "binary_logreg", key: value}}
            with pytest.raises(ConfigError, match=rf"config\.problem\.dataset\.{key}: expected "):
                validate_config(cfg)

    def test_negative_lam_is_refused_before_the_file_is_read(self):
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": "missing.svm", "objective": "binary_logreg",
                                      "lam": -0.01}}
        message = r"config\.problem\.dataset: lam must be nonnegative and finite, got -0\.01$"
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
        with pytest.raises(ConfigError, match=message):
            build_problem(cfg["problem"])  # not "dataset file not found"
        cfg["problem"]["dataset"]["lam"] = 0
        validate_config(cfg)

    @pytest.mark.parametrize("objective", ["binary_logreg", "multiclass_logreg"])
    def test_zero_classes_are_refused_before_the_file_is_read(self, objective):
        # once refused only after the file was read, as "label out of range for 0 classes"
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": "missing.svm", "objective": objective,
                                      "num_classes": 0}}
        message = r"^config\.problem\.dataset: num_classes must be at least 1, got 0$"
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)
        with pytest.raises(ConfigError, match=message):
            build_problem(cfg["problem"])  # not "dataset file not found"

    def test_multiclass_needs_num_classes(self):
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": "x", "objective": "multiclass_logreg"}}
        with pytest.raises(ConfigError, match="num_classes"):
            validate_config(cfg)

    def test_iteration_budget_sources_are_exclusive(self):
        cfg = base_config()
        cfg["solver"]["budget_gap"] = 1.0
        with pytest.raises(ConfigError, match="at most one"):
            validate_config(cfg)

    def test_penalty_mode_keys(self):
        cfg = base_config()
        cfg["solver"]["penalty"] = {"mode": "fixed"}
        with pytest.raises(ConfigError, match="needs 'value'"):
            validate_config(cfg)
        cfg["solver"]["penalty"] = {"mode": "adaptive", "value": 2.0}
        with pytest.raises(ConfigError, match="not valid for"):
            validate_config(cfg)
        for mode in ("annealed", ["fixed"]):
            cfg["solver"]["penalty"] = {"mode": mode}
            with pytest.raises(ConfigError, match="penalty.mode"):
                validate_config(cfg)
        for pen in ({"mode": "fixed", "value": "2"}, {"mode": "adaptive", "m0": None}):
            cfg["solver"]["penalty"] = pen
            key = sorted(set(pen) - {"mode"})[0]
            with pytest.raises(ConfigError, match=rf"config\.solver\.penalty\.{key}: expected "):
                validate_config(cfg)
        cfg["solver"]["penalty"] = {"mode": "fixed", "value": -1}
        with pytest.raises(ConfigError, match=r"config\.solver\.penalty: fixed penalty must be"):
            validate_config(cfg)
        cfg["solver"]["penalty"] = {"mode": "fixed", "value": 2}
        validate_config(cfg)

    def test_batch_mode_keys(self):
        cfg = base_config()
        cfg["solver"]["batch"] = {"mode": "practical", "B_g": 10}
        with pytest.raises(ConfigError, match="needs B_g, B_h, S"):
            validate_config(cfg)
        # the theoretical schedule is derived from the problem and takes no keys
        for key in ("B_g", "S_g", "S_h"):
            cfg["solver"]["batch"] = {"mode": "theoretical", key: 3}
            with pytest.raises(ConfigError, match="not valid for mode"):
                validate_config(cfg)
        cfg["solver"]["batch"] = {"mode": "practical", "B_g": 10, "B_h": 10.5, "S": 2}
        with pytest.raises(ConfigError, match=r"config\.solver\.batch\.B_h: expected an integer"):
            validate_config(cfg)
        cfg["solver"]["batch"] = {"mode": "practical", "B_g": 10, "B_h": 10, "S": "2"}
        with pytest.raises(ConfigError, match=r"config\.solver\.batch\.S: expected an integer"):
            validate_config(cfg)
        cfg["solver"]["batch"] = {"mode": "practical", "B_g": 0, "B_h": 10, "S": 2}
        with pytest.raises(ConfigError, match=r"config\.solver\.batch: B_g must be at least 1, got 0$"):
            validate_config(cfg)
        for mode in ("auto", ["practical"]):
            cfg["solver"]["batch"] = {"mode": mode}
            with pytest.raises(ConfigError, match="theoretical"):
                validate_config(cfg)

    def test_section_must_be_object(self):
        cfg = base_config()
        cfg["solver"] = [1, 2]
        with pytest.raises(ConfigError, match="expected an object"):
            validate_config(cfg)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "ok.json"
        cfg = base_config()
        write_config(p, cfg)
        assert load_config(p) == cfg


class TestBuildProblem:
    def test_synthetic(self):
        problem = build_problem({"synthetic": {"seed": 1, "n": 12, "d": 3}})
        assert (problem.n, problem.dim) == (12, 3)

    def test_missing_dataset_file(self):
        with pytest.raises(ConfigError, match="dataset file not found"):
            build_problem(
                {"dataset": {"path": "/nonexistent/a.libsvm", "objective": "binary_logreg"}}
            )

    def test_dataset_from_file(self, tmp_path):
        p = tmp_path / "tiny.libsvm"
        p.write_text(LIBSVM_BINARY + "\n")
        problem = build_problem(
            {"dataset": {"path": str(p), "objective": "binary_logreg", "lam": 0.1}}
        )
        assert problem.n == 8
        assert problem.dim == 3

    def test_gzip_dataset(self, tmp_path):
        p = tmp_path / "tiny.libsvm.gz"
        with gzip.open(p, "wt") as fh:
            fh.write(LIBSVM_BINARY + "\n")
        problem = build_problem(
            {"dataset": {"path": str(p), "objective": "binary_logreg"}}
        )
        assert problem.n == 8

    @pytest.mark.parametrize("name", ["bad.libsvm", "bad.libsvm.gz"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, name):
        p = tmp_path / name
        data = b"+1 1:0.9 2:-0.3\n-1 1:-0.7 2:\xff\n"
        p.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        with pytest.raises(LibsvmParseError, match=r"^line 2: non-ASCII character b'\\xff'$"):
            build_problem({"dataset": {"path": str(p), "objective": "binary_logreg"}})

    def test_data_root_resolves_relative_paths(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "rel.libsvm").write_text(LIBSVM_BINARY + "\n")
        monkeypatch.setenv("VRCUBIC_DATA_ROOT", str(tmp_path / "data"))
        problem = build_problem(
            {"dataset": {"path": "rel.libsvm", "objective": "binary_logreg"}}
        )
        assert problem.n == 8

    def test_multiclass_dataset(self, tmp_path):
        p = tmp_path / "multi.libsvm"
        p.write_text(LIBSVM_MULTI + "\n")
        problem = build_problem(
            {
                "dataset": {
                    "path": str(p),
                    "objective": "multiclass_logreg",
                    "num_classes": 3,
                    "scale_features": True,
                }
            }
        )
        assert problem.n == 6
        assert problem.dim == 2 * 3


class TestRunCommand:
    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        cfg = base_config(output=str(tmp_path / "out" / "exp"))
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out

        trace_lines = (tmp_path / "out" / "exp.trace.csv").read_text().splitlines()
        assert trace_lines[0] == ",".join(TRACE_COLUMNS)
        summary = json.loads((tmp_path / "out" / "exp.summary.json").read_text())
        assert summary["exit"] == "converged"
        assert summary["exit_code"] == 0
        assert len(trace_lines) - 1 == summary["iterations"]
        assert summary["certified"] is True
        assert set(summary["counters"]) == {
            "grad_calls", "hess_calls", "hvp_calls", "value_calls",
        }

    def test_zero_budget_exits_two(self, tmp_path):
        cfg = base_config(output=str(tmp_path / "exp"))
        cfg["solver"]["T"] = 0
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 2
        summary = json.loads((tmp_path / "exp.summary.json").read_text())
        assert summary["exit"] == "budget-exhausted"
        assert summary["iterations"] == 0

    def test_missing_output_key_fails(self, tmp_path, capsys):
        code = main(["run", write_config(tmp_path / "c.json", base_config())])
        assert code == 1
        assert "output" in capsys.readouterr().err

    def test_missing_dataset_fails(self, tmp_path, capsys):
        cfg = base_config(output=str(tmp_path / "exp"))
        cfg["problem"] = {
            "dataset": {"path": str(tmp_path / "absent.libsvm"), "objective": "binary_logreg"}
        }
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        assert "dataset file not found" in capsys.readouterr().err

    def test_bad_config_fails(self, tmp_path, capsys):
        cfg = base_config(output=str(tmp_path / "exp"))
        cfg["solver"]["nonsense"] = True
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_budget_gap_accepted(self, tmp_path):
        cfg = base_config(output=str(tmp_path / "exp"))
        del cfg["solver"]["T"]
        cfg["solver"]["budget_gap"] = 0.5
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code in (0, 2)
        assert (tmp_path / "exp.summary.json").exists()

    def test_rerun_is_reproducible_modulo_timing(self, tmp_path):
        def run_once(tag):
            cfg = base_config(output=str(tmp_path / tag))
            assert main(["run", write_config(tmp_path / f"{tag}.json", cfg)]) == 0
            rows = (tmp_path / f"{tag}.trace.csv").read_text().splitlines()
            cols = rows[0].split(",")
            keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
            stripped = ["\x1f".join(r.split(",")[i] for i in keep) for r in rows]
            summary = json.loads((tmp_path / f"{tag}.summary.json").read_text())
            del summary["wall_ms_total"]
            return stripped, summary

        first = run_once("a")
        second = run_once("b")
        assert first == second

    def test_numpy_float_cells_are_written_as_numbers(self, tmp_path):
        # numpy 2 reprs np.float64(5.0) as "np.float64(5.0)"
        problem = make_synthetic(0, 50, 3)
        path = tmp_path / "trace.csv"
        for penalty in (drivers.FixedPenalty(np.float64(5.0)),
                        drivers.AdaptivePenalty(np.float64(4.0))):
            sc = drivers.SolverConfig(eps=1e-2, T=2, x0=np.full(3, 0.5), penalty=penalty)
            cli.write_trace_csv(path, drivers.run_srvrc(problem, sc).trace)
            header, *rows = path.read_text().splitlines()
            assert rows and "np." not in "".join(rows)
            mt = {row.split(",")[header.split(",").index("Mt")] for row in rows}
            if isinstance(penalty, drivers.FixedPenalty):
                assert mt == {"5.0"}

    def test_free_variant_runs(self, tmp_path):
        cfg = base_config(algorithm="srvrc_free", output=str(tmp_path / "free"))
        code = main(["run", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        summary = json.loads((tmp_path / "free.summary.json").read_text())
        assert summary["counters"]["hvp_calls"] > 0
        assert summary["certify_c"] == 1300.0


class TestCheckCommand:
    def test_synthetic_passes(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path / "c.json", base_config())])
        assert code == 0
        assert "max gradient error" in capsys.readouterr().out

    def test_dataset_passes(self, tmp_path):
        data = tmp_path / "tiny.libsvm"
        data.write_text(LIBSVM_BINARY + "\n")
        cfg = base_config()
        cfg["problem"] = {
            "dataset": {"path": str(data), "objective": "binary_logreg", "lam": 0.05}
        }
        assert main(["check", write_config(tmp_path / "c.json", cfg)]) == 0

    def test_corrupted_gradient_detected(self):
        problem = from_components(
            n=3,
            dim=2,
            value=lambda i, x: 0.5 * float(x @ x),
            grad=lambda i, x: 2.0 * x,  # wrong by a factor of two
            lipschitz_grad=1.0,
            lipschitz_hess=1.0,
        )
        ok, report = check_problem(problem)
        assert not ok
        assert report["max_grad_err"] > 1e-2

    def test_consistent_problem_passes(self):
        problem = build_problem({"synthetic": {"seed": 2, "n": 10, "d": 3}})
        ok, report = check_problem(problem)
        assert ok
        assert report["max_grad_err"] <= 1e-4
        assert report["max_hvp_err"] <= 1e-10

    def test_hvp_check_without_hessian_oracle_is_not_reported(self, tmp_path, capsys):
        # above DENSE_LIMIT there is no Hessian to compare products with
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 1:0.9 2001:-0.3\n-1 2:0.4 2000:0.1\n+1 3:1.2\n-1 1:-0.5 2001:0.7\n")
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": str(data), "objective": "binary_logreg", "lam": 0.05}}
        problem = build_problem(cfg["problem"])
        assert problem.dim == 2001 and problem.batch_hess_fn is None
        ok, report = check_problem(problem)
        assert ok
        assert report["max_hvp_err"] is None
        assert main(["check", write_config(tmp_path / "c.json", cfg)]) == 0
        out = capsys.readouterr().out
        assert "HVP check not run (no Hessian oracle)" in out
        assert "max HVP error" not in out

    def test_negative_lam_fails_with_its_key(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": str(tmp_path / "missing.svm"),
                                      "objective": "binary_logreg", "lam": -0.01}}
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["check", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}.problem.dataset: lam must be nonnegative and finite, got -0.01\n")

    def test_bad_config_fails(self, tmp_path, capsys):
        cfg = base_config(algorithm="sgd")
        code = main(["check", write_config(tmp_path / "c.json", cfg)])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_not_a_directory(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path)]) == 1
        assert "no *.json configs" in capsys.readouterr().err

    def test_single_config(self, tmp_path):
        cfg = base_config(output=str(tmp_path / "runs" / "solo"))
        write_config(tmp_path / "solo.json", cfg)
        assert main(["compare", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == (
            "config,algorithm,status,f_gap,mu,grad_calls,hess_calls,hvp_calls,wall_ms"
        )
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "solo"
        assert fields[1] == "srvrc"
        assert fields[2] == "converged"
        assert float(fields[3]) >= 0.0

    def test_two_algorithms_share_baseline(self, tmp_path):
        a = base_config(output=str(tmp_path / "runs" / "a"))
        b = base_config(algorithm="cr", output=str(tmp_path / "runs" / "b"))
        write_config(tmp_path / "a.json", a)
        write_config(tmp_path / "b.json", b)
        assert main(["compare", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert len(lines) == 3
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert min(gaps) >= 0.0
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)

    def test_config_without_output_writes_only_the_table(self, tmp_path):
        write_config(tmp_path / "solo.json", base_config())
        assert main(["compare", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["compare.csv", "solo.json"]
        assert (tmp_path / "compare.csv").read_text().splitlines()[1].startswith("solo,srvrc,")

    def test_failed_config_reported(self, tmp_path, capsys):
        good = base_config(output=str(tmp_path / "runs" / "good"))
        write_config(tmp_path / "good.json", good)
        bad = base_config(algorithm="sgd", output=str(tmp_path / "runs" / "bad"))
        write_config(tmp_path / "bad.json", bad)
        assert main(["compare", str(tmp_path)]) == 1
        assert "error in bad.json" in capsys.readouterr().err
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert "bad,,failed,,,,,," in lines
        assert any(line.startswith("good,srvrc,") for line in lines)


class TestSettingSurface:
    def test_solver_fields_and_cli_keys_are_pinned(self):
        # a new setting has to be added here as well, so that it is seen
        fields = {f.name for f in dataclasses.fields(drivers.SolverConfig)}
        assert fields == {
            "eps", "rho", "xi", "T", "penalty", "batch", "seed", "x0",
            "subsolver_max_iters", "finalsolver_eps_g", "gradient_recursion",
        }
        assert set(cli._SOLVER_TYPES) == fields | {"budget_gap"}
        for key in sorted(fields - {"eps"}):
            cfg = base_config()
            cfg["solver"][key] = "?"
            with pytest.raises(ConfigError) as info:
                validate_config(cfg)
            assert "unknown key" not in str(info.value)

    def test_driver_parameters_are_pinned(self):
        # a run's generator is default_rng(config.seed); no driver takes another
        for driver in (drivers.run_srvrc, drivers.run_srvrc_free, drivers.run_cr, drivers.run_scr):
            assert list(inspect.signature(driver).parameters) == ["problem", "config", "callback"]
        assert list(inspect.signature(drivers.adaptive_penalty_update).parameters) == [
            "penalty", "rho_ratio"]

    @pytest.mark.parametrize("mode, key", [
        ("theoretical", "factor"),
        *(("adaptive", key) for key in ("gamma_inc", "gamma_dec", "eta1", "eta2", "floor", "cap")),
    ])
    def test_removed_penalty_keys_are_refused(self, mode, key):
        cfg = base_config()
        cfg["solver"]["penalty"] = {"mode": mode, key: 0.5}
        with pytest.raises(ConfigError, match=rf"\['{key}'\] not valid for mode '{mode}'"):
            validate_config(cfg)

    def test_penalty_and_batch_mode_keys_are_pinned(self):
        # a new mode or mode field has to be added here as well
        penalty = {mode: {f.name for f in dataclasses.fields(cls)}
                   for mode, cls in cli._PENALTIES.items()}
        assert penalty == {
            "fixed": {"value"},
            "theoretical": set(),
            "adaptive": {"m0"},
        }
        batch = {mode: {f.name for f in dataclasses.fields(cls)} if cls else set()
                 for mode, cls in cli._BATCHES.items()}
        assert batch == {"theoretical": set(), "practical": {"B_g", "B_h", "S"}}
        # validation reads exactly those keys: each is type-checked, any other is refused
        for section, modes in (("penalty", penalty), ("batch", batch)):
            for mode, keys in modes.items():
                cfg = base_config()
                for key in keys:
                    cfg["solver"][section] = {"mode": mode, **dict.fromkeys(keys, 1), key: "?"}
                    with pytest.raises(ConfigError, match=rf"\.{section}\.{key}: expected "):
                        validate_config(cfg)
                cfg["solver"][section] = {"mode": mode, **dict.fromkeys(keys, 1), "extra": 1}
                with pytest.raises(ConfigError, match="not valid for mode"):
                    validate_config(cfg)


class TestEntryPointsAgree:
    """build_problem, build_solver_config and execute_config refuse what
    validate_config refuses, with the same message."""

    SOLVER_FAULTS = {
        "recursion-string": ({"gradient_recursion": "false"},
                             r"solver\.gradient_recursion: expected true or false"),
        "T-fraction": ({"T": 2.9}, r"solver\.T: expected an integer"),
        "seed-bool": ({"seed": True}, r"solver\.seed: expected an integer"),
        "penalty-string": ({"penalty": {"mode": "fixed", "value": "2"}},
                           r"solver\.penalty\.value: expected a number"),
        "batch-fraction": ({"batch": {"mode": "practical", "B_g": 5.7, "B_h": 5, "S": 1}},
                           r"solver\.batch\.B_g: expected an integer"),
        "eps-negative": ({"eps": -1.0}, r"config\.solver: eps must be positive"),
        "penalty-negative": ({"penalty": {"mode": "fixed", "value": -1}},
                             r"config\.solver\.penalty: fixed penalty must be positive"),
        "gap-negative": ({"budget_gap": -1.0},
                         r"config\.solver: budget_gap must be nonnegative and finite, got -1\.0$"),
        "seed-negative": ({"seed": -1}, r"config\.solver: seed must be nonnegative"),
        "rho-negative": ({"rho": -1}, r"config\.solver: rho must be positive"),
        "gap-nan": ({"budget_gap": float("nan")}, r"solver\.budget_gap: expected a number, got NaN"),
        "gap-infinite": ({"budget_gap": float("inf")},
                         r"solver\.budget_gap: expected a number, got Infinity"),
        "eps-infinite": ({"eps": float("inf")}, r"solver\.eps: expected a number, got Infinity"),
        "x0-nan": ({"x0": [float("nan"), 0, 0, 0]}, r"solver\.x0: expected a list of numbers"),
    }
    PROBLEM_FAULTS = {
        "n-zero": ({"n": 0}, r"config\.problem\.synthetic: n must be at least 1, got 0$"),
        "d-zero": ({"d": 0}, r"config\.problem\.synthetic: d must be at least 1, got 0$"),
        "seed-negative": ({"seed": -1},
                          r"config\.problem\.synthetic: seed must be nonnegative, got -1$"),
        "difficulty-unknown": ({"difficulty": "hard"},
                               r"config\.problem\.synthetic: difficulty must be one of"),
    }

    @staticmethod
    def refusals(cfg):
        with pytest.raises(ConfigError) as validated:
            validate_config(cfg)
        with pytest.raises(ConfigError) as executed:
            cli.execute_config(cfg)
        return str(validated.value), str(executed.value)

    @pytest.mark.parametrize("name", sorted(SOLVER_FAULTS))
    def test_solver_section(self, name):
        fault, message = self.SOLVER_FAULTS[name]
        cfg = base_config()
        cfg["solver"].update(fault)
        if "budget_gap" in fault:
            del cfg["solver"]["T"]  # the two iteration budget sources are exclusive
        problem = build_problem(cfg["problem"])
        with pytest.raises(ConfigError, match=message) as built:
            build_solver_config(cfg["solver"], cfg["algorithm"], problem)
        assert self.refusals(cfg) == (str(built.value), str(built.value))

    def test_problem_section(self):
        cfg = base_config()
        cfg["problem"]["synthetic"]["n"] = "20"
        with pytest.raises(ConfigError, match=r"synthetic\.n: expected an integer") as built:
            build_problem(cfg["problem"])
        assert self.refusals(cfg) == (str(built.value), str(built.value))

    @pytest.mark.parametrize("name", sorted(PROBLEM_FAULTS))
    def test_problem_values(self, name):
        fault, message = self.PROBLEM_FAULTS[name]
        cfg = base_config()
        cfg["problem"]["synthetic"].update(fault)
        with pytest.raises(ConfigError, match=message) as built:
            build_problem(cfg["problem"])
        assert self.refusals(cfg) == (str(built.value), str(built.value))

    @pytest.mark.parametrize("top", [{"trace_format": "csv"}, {"algorithm": "nope"}],
                             ids=["unknown-key", "unknown-algorithm"])
    def test_document_keys(self, top):
        validated, executed = self.refusals(base_config(**top))
        assert validated == executed

    def test_algorithm_checked_before_the_problem_is_built(self, tmp_path):
        cfg = base_config(algorithm="nope")
        missing = tmp_path / "missing.libsvm"
        cfg["problem"] = {"dataset": {"path": str(missing), "objective": "binary_logreg"}}
        with pytest.raises(ConfigError, match=r"^config\.algorithm: must be one of"):
            cli.execute_config(cfg)


class TestCertifyConstant:
    def test_values(self):
        assert certify_constant("srvrc") == 600.0
        assert certify_constant("cr") == 600.0
        assert certify_constant("scr") == 600.0
        assert certify_constant("srvrc_free") == 1300.0
        # a misspelt name used to get 600
        with pytest.raises(ConfigError, match=r"^config\.algorithm: must be one of \("):
            certify_constant("srvcr")


class TestTracedImportSites:
    """The benchmark traces a run by replacing functions where they are looked
    up: the drivers as vrcubic.cli globals, the layers below as vrcubic.drivers
    globals.  A replaced function has to be the one the run calls."""

    SITES = (
        "update_gradient_estimator",
        "update_hessian_estimator",
        "solve_exact",
        "cubic_krylov",
        "adaptive_penalty_update",
        "sample_multiset",
        "batch_value",
    )
    CALLED = {
        "srvrc": {
            "run_srvrc",
            "update_gradient_estimator",
            "update_hessian_estimator",
            "solve_exact",
            "adaptive_penalty_update",
            "batch_value",
        },
        "srvrc_free": {
            "run_srvrc_free",
            "update_gradient_estimator",
            "sample_multiset",
            "cubic_krylov",
            "adaptive_penalty_update",
            "batch_value",
        },
        "scr": {
            "run_scr",
            "update_gradient_estimator",
            "update_hessian_estimator",
            "solve_exact",
            "adaptive_penalty_update",
            "batch_value",
        },
        "srvcr": set(),  # a misspelt name is refused before anything runs
    }

    @pytest.mark.parametrize("algorithm", sorted(CALLED))
    def test_every_wrapper_is_called(self, algorithm, monkeypatch):
        called = set()

        def wrap(module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                called.add(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for name in ("run_srvrc", "run_srvrc_free", "run_scr"):
            wrap(cli, name)
        for name in self.SITES:
            wrap(drivers, name)
        cfg = base_config()
        cfg["solver"].update(penalty={"mode": "adaptive"}, subsolver_max_iters=300)
        if algorithm == "scr":  # fixed sample sizes come from a practical rule
            cfg["solver"]["batch"] = {"mode": "practical", "B_g": 40, "B_h": 20, "S": 1}
        problem = build_problem(cfg["problem"])
        config = build_solver_config(cfg["solver"], algorithm, problem)
        if self.CALLED[algorithm]:
            assert cli.run_algorithm(algorithm, problem, config).exit == "converged"
        else:
            with pytest.raises(ConfigError, match=f"^unknown algorithm '{algorithm}'$"):
                cli.run_algorithm(algorithm, problem, config)
        assert called == self.CALLED[algorithm]

    @pytest.mark.parametrize("source", ["synthetic", "dataset"])
    def test_set_up_sites_are_called(self, source, tmp_path, monkeypatch):
        # the benchmark's set-up spans (cli.build_problem, objectives.make_synthetic, ...)
        # time vrcubic.cli globals, so a user-path run has to call each of these
        names = ("build_problem", "build_solver_config", "make_synthetic", "read_libsvm_dense",
                 "mu_criterion")
        called = set()
        for name in names:
            original = getattr(cli, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                called.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        cfg = base_config()
        if source == "dataset":
            data = tmp_path / "tiny.libsvm"
            data.write_text(LIBSVM_BINARY + "\n")
            cfg["problem"] = {"dataset": {"path": str(data), "objective": "binary_logreg"}}
            del cfg["solver"]["x0"]
        cli.execute_config(cfg)
        loader = "make_synthetic" if source == "synthetic" else "read_libsvm_dense"
        assert called == {"build_problem", "build_solver_config", loader, "mu_criterion"}
