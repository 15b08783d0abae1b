import gzip
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
from vrcubic.finite_sum import FiniteSumProblem

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
        cfg = base_config()
        cfg["solver"]["stepsize"] = 0.1
        with pytest.raises(ConfigError, match=r"config\.solver: unknown key\(s\) \['stepsize'\]"):
            validate_config(cfg)

    def test_synthetic_section_checked(self):
        cfg = base_config()
        cfg["problem"] = {"synthetic": {"n": 4}}
        with pytest.raises(ConfigError, match=r"synthetic: missing required key\(s\) \['d'\]"):
            validate_config(cfg)

    def test_dataset_objective_checked(self):
        cfg = base_config()
        cfg["problem"] = {"dataset": {"path": "x", "objective": "svm"}}
        with pytest.raises(ConfigError, match="binary_logreg"):
            validate_config(cfg)

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
        cfg["solver"]["penalty"] = {"mode": "annealed"}
        with pytest.raises(ConfigError, match="penalty.mode"):
            validate_config(cfg)

    def test_batch_mode_keys(self):
        cfg = base_config()
        cfg["solver"]["batch"] = {"mode": "practical", "B_g": 10}
        with pytest.raises(ConfigError, match="needs B_g, B_h, S"):
            validate_config(cfg)
        cfg["solver"]["batch"] = {"mode": "theoretical", "B_g": 10}
        with pytest.raises(ConfigError, match="not valid for mode"):
            validate_config(cfg)
        cfg["solver"]["batch"] = {"mode": "auto"}
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
        problem = FiniteSumProblem(
            n=3,
            dim=2,
            component_value=lambda i, x: 0.5 * float(x @ x),
            component_grad=lambda i, x: 2.0 * x,  # wrong by a factor of two
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


class TestCertifyConstant:
    def test_values(self):
        assert certify_constant("srvrc") == 600.0
        assert certify_constant("cr") == 600.0
        assert certify_constant("scr") == 600.0
        assert certify_constant("srvrc_free") == 1300.0


class TestTracedImportSites:
    """The benchmark traces a run by replacing functions where they are looked
    up: the drivers as vrcubic.cli globals, the layers below as vrcubic.drivers
    globals.  A replaced function has to be the one the run calls."""

    SITES = (
        "update_gradient_estimator",
        "update_hessian_estimator",
        "solve_exact",
        "cubic_subsolver",
        "cubic_finalsolver",
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
            "cubic_subsolver",
            "cubic_finalsolver",
            "adaptive_penalty_update",
            "batch_value",
        },
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

        for name in ("run_srvrc", "run_srvrc_free"):
            wrap(cli, name)
        for name in self.SITES:
            wrap(drivers, name)
        cfg = base_config()
        cfg["solver"].update(penalty={"mode": "adaptive"}, subsolver_max_iters=300)
        problem = build_problem(cfg["problem"])
        result = cli.run_algorithm(algorithm, problem, build_solver_config(cfg["solver"], algorithm, problem))
        assert result.exit == "converged"
        assert called == self.CALLED[algorithm]
