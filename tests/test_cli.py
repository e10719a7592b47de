"""Black-box CLI tests: worked examples, JSON schema validity, exit codes,
file outputs and determinism."""

import csv
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from rmbayes import SimulationConfig, run_cell
from rmbayes.bayes import _saturating_exp
from rmbayes.cli import main

from conftest import assert_schema_valid, build_two_condition_matrix


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def write_csv(path, matrix):
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"c{j + 1}" for j in range(matrix.shape[1])) + "\n")
        for row in matrix:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def json_without_timestamp(text):
    payload = json.loads(text)
    payload["manifest"].pop("timestamp")
    # runs under comparison write to distinct directories by construction
    payload["manifest"]["params"].pop("out_dir", None)
    return payload


class TestBf:
    def test_worked_example_human(self, runner):
        result = invoke(runner, ["bf", "--f", "1.336", "--n", "23", "--k", "2"])
        assert result.exit_code == 0
        assert "BF01        : 2.435" in result.output
        assert "p(H0 | y)   : 0.709" in result.output

    def test_worked_example_json(self, runner):
        result = invoke(runner, ["bf", "--f", "1.336", "--n", "23", "--k", "2", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert_schema_valid(payload)
        assert payload["manifest"]["command"] == "bf"
        assert payload["evidence"]["bf01"] == pytest.approx(2.435, abs=0.001)
        assert payload["evidence"]["method"] == "minimal_rm"

    def test_json_evidence_fields(self, runner):
        result = invoke(runner, ["bf", "--f", "1.336", "--n", "23", "--k", "2", "--json"])
        evidence = json.loads(result.output)["evidence"]
        assert evidence["method"] == "minimal_rm"
        assert set(evidence) == {
            "method", "log_bf01", "bf01", "bf10", "delta_bic10",
            "posterior_h0", "posterior_h1", "prior_h0", "saturated",
        }

    def test_zero_f_closed_form(self, runner):
        result = invoke(runner, ["bf", "--f", "0", "--n", "23", "--k", "2", "--json"])
        assert json.loads(result.output)["evidence"]["bf01"] == pytest.approx(4.796, abs=0.001)

    def test_custom_prior(self, runner):
        result = invoke(runner, ["bf", "--f", "1.336", "--n", "23", "--k", "2",
                                 "--prior-h0", "0.25", "--json"])
        assert json.loads(result.output)["evidence"]["posterior_h0"] == pytest.approx(0.448, abs=0.001)

    @pytest.mark.parametrize("args", [
        ["bf", "--f", "-1", "--n", "23", "--k", "2"],
        ["bf", "--f", "1.0", "--n", "1", "--k", "2"],
        ["bf", "--f", "1.0", "--n", "23", "--k", "1"],
        ["bf", "--f", "1.0", "--n", "23", "--k", "2", "--prior-h0", "1.0"],
        ["bf", "--n", "23", "--k", "2"],
    ])
    def test_validation_failures_exit_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr


class TestBfSs:
    def test_worked_example_human(self, runner):
        result = invoke(runner, ["bf-ss", "--sst", "116399", "--ssa", "739",
                                 "--ssb", "103984", "--n", "23", "--k", "2"])
        assert result.exit_code == 0
        assert "BF01        : 2.474" in result.output
        assert "p(H0 | y)   : 0.712" in result.output

    def test_worked_example_json(self, runner):
        result = invoke(runner, ["bf-ss", "--sst", "116399", "--ssa", "739",
                                 "--ssb", "103984", "--n", "23", "--k", "2", "--json"])
        payload = json.loads(result.output)
        assert_schema_valid(payload)
        assert payload["evidence"]["delta_bic10"] == pytest.approx(1.812, abs=0.002)
        assert payload["evidence"]["method"] == "nathoo_masson"

    def test_zero_treatment_notes_null_effect(self, runner):
        result = invoke(runner, ["bf-ss", "--sst", "100", "--ssa", "0",
                                 "--ssb", "50", "--n", "10", "--k", "2", "--json"])
        payload = json.loads(result.output)
        assert payload["evidence"]["bf01"] > 1.0
        human = invoke(runner, ["bf-ss", "--sst", "100", "--ssa", "0",
                                "--ssb", "50", "--n", "10", "--k", "2"])
        assert "treatment explains nothing" in human.output

    def test_shared_evidence_schema_across_subcommands(self, runner):
        via_f = json.loads(invoke(runner, ["bf", "--f", "1.336", "--n", "23",
                                           "--k", "2", "--json"]).output)
        via_ss = json.loads(invoke(runner, ["bf-ss", "--sst", "116399", "--ssa", "739",
                                            "--ssb", "103984", "--n", "23", "--k", "2",
                                            "--json"]).output)
        assert set(via_f["evidence"]) == set(via_ss["evidence"])

    def test_degenerate_sums_exit_2(self, runner):
        result = runner.invoke(main, ["bf-ss", "--sst", "100", "--ssa", "10",
                                      "--ssb", "0", "--n", "10", "--k", "2"])
        assert result.exit_code == 2


class TestAnova:
    def test_reported_dataset_rendering(self, runner, tmp_path):
        path = tmp_path / "shift.csv"
        write_csv(path, build_two_condition_matrix(739.0, 103984.0, 12176.0, n=23))
        result = invoke(runner, ["anova", str(path)])
        assert result.exit_code == 0
        assert "Treatment" in result.output and "Subjects" in result.output
        assert "739.000" in result.output
        assert "103984.000" in result.output
        assert "1.335" in result.output          # F to three decimals
        assert "0.260" in result.output          # p to three decimals

    def test_reported_dataset_json_values(self, runner, tmp_path):
        path = tmp_path / "shift.csv"
        write_csv(path, build_two_condition_matrix(739.0, 103984.0, 12176.0, n=23))
        payload = json.loads(invoke(runner, ["anova", str(path), "--json"]).output)
        assert_schema_valid(payload)
        anova = payload["anova"]
        assert round(anova["ss_subjects"] / anova["df_subjects"]) == 4727
        assert round(anova["ms_residual"]) == 553
        assert anova["f_stat"] == pytest.approx(1.336, abs=0.001)
        assert anova["p_value"] == pytest.approx(0.26, abs=0.005)
        assert payload["evidence"] is None

    def test_flat_two_by_two(self, runner, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, [[0.0, 0.0], [1.0, 1.0]])
        payload = json.loads(invoke(runner, ["anova", str(path), "--json"]).output)
        assert payload["anova"]["ss_treatment"] == 0.0
        assert payload["anova"]["f_stat"] == 0.0

    def test_hand_computed_3x2(self, runner, tmp_path):
        path = tmp_path / "small.csv"
        write_csv(path, [[1, 2], [2, 4], [3, 3]])
        payload = json.loads(invoke(runner, ["anova", str(path), "--json"]).output)
        anova = payload["anova"]
        assert anova["ss_treatment"] == pytest.approx(1.5, abs=1e-10)
        assert anova["ss_subjects"] == pytest.approx(3.0, abs=1e-10)
        assert anova["ss_residual"] == pytest.approx(1.0, abs=1e-10)
        assert anova["f_stat"] == pytest.approx(3.0, abs=1e-10)

    def test_bf_flag_matches_bf_subcommand(self, runner, tmp_path):
        path = tmp_path / "shift.csv"
        write_csv(path, build_two_condition_matrix(739.0, 103984.0, 12176.0, n=23))
        payload = json.loads(invoke(runner, ["anova", str(path), "--bf", "--json"]).output)
        assert_schema_valid(payload)
        evidence = payload["evidence"]["minimal_rm"]
        f_stat = payload["anova"]["f_stat"]
        direct = json.loads(invoke(runner, [
            "bf", "--f", repr(f_stat), "--n", "23", "--k", "2", "--json",
        ]).output)["evidence"]
        assert evidence["log_bf01"] == pytest.approx(direct["log_bf01"], rel=1e-9)
        assert payload["evidence"]["nathoo_masson"]["method"] == "nathoo_masson"

    def test_ragged_rows_exit_2(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        assert runner.invoke(main, ["anova", str(path)]).exit_code == 2

    def test_non_numeric_cell_exit_2(self, runner, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("a,b\n1,2\n3,four\n", encoding="utf-8")
        assert runner.invoke(main, ["anova", str(path)]).exit_code == 2

    def test_too_few_rows_exit_2(self, runner, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        assert runner.invoke(main, ["anova", str(path)]).exit_code == 2

    def test_single_column_exit_2(self, runner, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("a\n1\n2\n3\n", encoding="utf-8")
        assert runner.invoke(main, ["anova", str(path)]).exit_code == 2

    def test_missing_file_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["anova", str(tmp_path / "absent.csv")])
        assert result.exit_code == 3


class TestSimulate:
    def run_smoke(self, runner, out_dir, extra=()):
        args = ["simulate", "--reps", "10", "--seed", "42",
                "--out-dir", str(out_dir), *extra]
        return invoke(runner, args)

    def test_smoke_run_writes_all_files_quickly(self, runner, tmp_path):
        started = time.monotonic()
        result = self.run_smoke(runner, tmp_path / "out")
        elapsed = time.monotonic() - started
        assert result.exit_code == 0
        assert elapsed < 5.0
        names = {"grid_report.json", "table2.csv", "table3.csv", "table4.csv",
                 "boxplot_data.csv", "scatter_data.csv"}
        assert {p.name for p in (tmp_path / "out").iterdir()} == names
        report = json.loads((tmp_path / "out" / "grid_report.json").read_text())
        assert_schema_valid(report)
        assert len(report["cells"]) == 18
        table2 = (tmp_path / "out" / "table2.csv").read_text().splitlines()
        assert table2[0] == "delta,rho,n,accuracy_min,accuracy_nm"
        assert len(table2) == 19

    def test_determinism_and_hex_seed(self, runner, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        hexed = tmp_path / "c"
        self.run_smoke(runner, first)
        self.run_smoke(runner, second)
        invoke(runner, ["simulate", "--reps", "10", "--seed", "0x2a",
                        "--out-dir", str(hexed)])
        for name in ("table2.csv", "table3.csv", "table4.csv",
                     "boxplot_data.csv", "scatter_data.csv"):
            reference = (first / name).read_bytes()
            assert (second / name).read_bytes() == reference
            assert (hexed / name).read_bytes() == reference
        parsed = [json_without_timestamp((d / "grid_report.json").read_text())
                  for d in (first, second, hexed)]
        assert parsed[0] == parsed[1] == parsed[2]

    def test_parallel_workers_identical(self, runner, tmp_path):
        self.run_smoke(runner, tmp_path / "seq")
        self.run_smoke(runner, tmp_path / "par", extra=["--workers", "2"])
        assert (tmp_path / "seq" / "table2.csv").read_bytes() == \
            (tmp_path / "par" / "table2.csv").read_bytes()

    def test_per_rep_emission(self, runner, tmp_path):
        self.run_smoke(runner, tmp_path / "out", extra=["--emit-per-rep"])
        lines = (tmp_path / "out" / "per_rep.csv").read_text().splitlines()
        assert lines[0] == ("cell_id,rep,f_stat,bf01_min,bf01_nm,"
                            "posterior_min,posterior_nm,choice_min,choice_nm")
        assert len(lines) == 1 + 18 * 10

    def test_per_rep_rows_match_series(self, runner, tmp_path):
        invoke(runner, ["simulate", "--n", "20", "--rho", "0.8", "--delta", "0.2",
                        "--reps", "120", "--seed", "42", "--emit-per-rep",
                        "--out-dir", str(tmp_path)])
        config = SimulationConfig(n=20, rho=0.8, delta=0.2, reps=120, master_seed=42)
        series = run_cell(config).series
        with open(tmp_path / "per_rep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == config.reps
        assert {row["choice_min"] for row in rows} == {"H0", "H1"}
        for rep, row in enumerate(rows):
            assert row["cell_id"] == config.cell_id
            assert int(row["rep"]) == rep
            assert float(row["f_stat"]) == series.f_stat[rep]
            for method in ("min", "nm"):
                log_bf01 = float(getattr(series, f"log_bf01_{method}")[rep])
                bf01 = float(row[f"bf01_{method}"])
                # math.exp, as the file is written, not np.exp: they may differ by an ulp
                assert bf01 == _saturating_exp(log_bf01)[0]
                assert float(row[f"posterior_{method}"]) == \
                    getattr(series, f"posterior_{method}")[rep]
                choice = row[f"choice_{method}"]
                assert choice == ("H0" if log_bf01 >= 0 else "H1")
                assert (bf01 >= 1.0) == (choice == "H0")

    def test_grid_report_shape(self, runner, tmp_path):
        invoke(runner, ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0",
                        "--reps", "2", "--seed", "3", "--emit-per-rep",
                        "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "grid_report.json").read_text())
        assert set(payload) == {"manifest", "grid", "cells"}
        assert payload["grid"]["reps"] == 2
        assert "per_rep_records" not in payload["cells"][0]
        assert len((tmp_path / "per_rep.csv").read_text().splitlines()) == 1 + 2

    def test_out_dir_env_override(self, runner, tmp_path):
        target = tmp_path / "from_env"
        result = runner.invoke(main, ["simulate", "--reps", "5", "--seed", "1"],
                               env={"RMBAYES_OUT_DIR": str(target)},
                               catch_exceptions=False)
        assert result.exit_code == 0
        assert (target / "grid_report.json").exists()

    def test_invalid_grid_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--rho", "1.5", "--reps", "2",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        result = runner.invoke(main, ["simulate", "--n", "", "--reps", "2",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        result = runner.invoke(main, ["simulate", "--workers", "0", "--reps", "2",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "workers must be an integer >= 1" in result.stderr

    def test_io_failure_exit_3(self, runner, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        result = runner.invoke(main, ["simulate", "--reps", "2",
                                      "--out-dir", str(blocker)])
        assert result.exit_code == 3

    def test_bad_seed_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--seed", "banana",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2


class TestParse:
    def test_full_pipeline_from_file(self, runner, tmp_path):
        path = tmp_path / "snippet.txt"
        path.write_text("the shift effect was absent, F(1, 22) = 1.336, p = .26",
                        encoding="utf-8")
        result = invoke(runner, ["parse", str(path)])
        assert result.exit_code == 0
        assert "n=23" in result.output
        assert "BF01 = 2.435" in result.output

    def test_stdin_and_uninferable_listing(self, runner):
        text = "F(1, 22) = 1.336 and F(2, 39) = 3.1"
        result = invoke(runner, ["parse"], input=text)
        assert result.exit_code == 0
        assert "BF01 = 2.435" in result.output
        assert "not inferable" in result.output
        assert "divisible" in result.output

    def test_upper_bound_report_is_lower_bound_on_bf(self, runner):
        result = invoke(runner, ["parse"], input="F(2,38)<1")
        assert "BF01 >= " in result.output
        assert "lower bound" in result.output

    def test_empty_input(self, runner):
        result = invoke(runner, ["parse"], input="")
        assert result.exit_code == 0
        assert "no F reports found" in result.output

    def test_json_report(self, runner):
        text = "F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02"
        result = invoke(runner, ["parse", "--json"], input=text)
        payload = json.loads(result.output)
        assert_schema_valid(payload)
        first, second, third = payload["reports"]
        assert first["design"] == {"n": 23, "k": 2}
        assert first["evidence"]["bf01"] == pytest.approx(2.435, abs=0.001)
        assert second["design"] is None and "divisible" in second["error"]
        assert third["design"] is None and "sphericity" in third["error"]

    def test_no_assume_rm_lists_raw_reports(self, runner):
        result = invoke(runner, ["parse", "--no-assume-rm", "--json"],
                        input="F(1, 22) = 1.336")
        payload = json.loads(result.output)
        entry = payload["reports"][0]
        assert entry["design"] is None
        assert entry["evidence"] is None
        assert entry["error"] is None

    def test_prior_flows_through(self, runner):
        result = invoke(runner, ["parse", "--prior-h0", "0.25", "--json"],
                        input="F(1, 22) = 1.336")
        posterior = json.loads(result.output)["reports"][0]["evidence"]["posterior_h0"]
        assert posterior == pytest.approx(0.448, abs=0.001)

    def test_missing_file_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["parse", str(tmp_path / "absent.txt")])
        assert result.exit_code == 3
