"""Black-box CLI tests: worked examples, JSON schema validity, exit codes,
file outputs and determinism."""

import csv
import json
import time
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rmbayes import SimulationConfig, run_cell
from rmbayes.apa import ReportedStat, infer_rm_design, parse_reports
from rmbayes.bayes import EvidenceResult, _saturating_exp, bf01_minimal_rm
from rmbayes.cli import _EVIDENCE_KEYS, _REPORT_KEYS, main
from rmbayes.errors import DomainError

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


def reference_parse_json(text, manifest, assume_rm=True, prior_h0=0.5):
    """``parse --json`` as one ``json.dumps`` of the whole report: the
    reference the streamed report-v1 writer must match byte for byte."""
    entries = []
    for stat in parse_reports(text):
        entry = {**vars(stat), "design": None, "evidence": None, "error": None}
        if assume_rm:
            try:
                design = infer_rm_design(stat)
                result = bf01_minimal_rm(stat.f_value, design, prior_h0=prior_h0)
                entry["design"] = {"n": design.n, "k": design.k}
                entry["evidence"] = vars(result)
            except DomainError as exc:
                entry["error"] = str(exc)
        entries.append(entry)
    return json.dumps({"manifest": manifest, "reports": entries}, indent=2, sort_keys=True) + "\n"


def assert_parse_json_matches_reference(runner, text, options=()):
    result = runner.invoke(main, ["parse", "--json", *options], input=text,
                           catch_exceptions=False)
    assert result.exit_code == 0
    # the manifest, timestamp included, is taken from the output itself
    manifest = json.loads(result.stdout)["manifest"]
    params = manifest["params"]
    assert result.stdout == reference_parse_json(text, manifest, params["assume_rm"],
                                                 params["prior_h0"])


_REPORT_NUMBER = st.one_of(
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.floats(min_value=0, max_value=1e6).map(lambda value: f"{value:.3f}"),
    st.sampled_from(["1e400", "1.3e2", ".5", "2.", "1E-3", "1e5", "100000", "0"]),
)
_RELATION = st.sampled_from(["=", "<"])
# the dfs of a one-factor repeated-measures design, which invert into (n, k)
_RM_DFS = st.builds(lambda n, k: (k - 1, (n - 1) * (k - 1)),
                    st.integers(min_value=2, max_value=200), st.integers(min_value=2, max_value=6))
_P_VALUE = st.floats(min_value=0, max_value=1).map("{:.3f}".format)
_REPORT = st.builds(  # F(df1, df2) relation F, then an optional p clause
    "F({0[0]}, {0[1]}) {1} {2}{3}".format,
    st.one_of(_RM_DFS, st.tuples(_REPORT_NUMBER, _REPORT_NUMBER)), _RELATION, _REPORT_NUMBER,
    st.one_of(st.just(""), st.builds(", p {} {}".format, _RELATION,
                                     st.one_of(_P_VALUE, _REPORT_NUMBER))))
# no carriage return: the test runner's stdin would translate it and move the spans
_FILLER = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
                  max_size=8)
_REPORT_TEXT = st.lists(st.tuples(_FILLER, _REPORT), max_size=6).map(
    lambda parts: " ".join(filler + report for filler, report in parts))


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

    def test_text_output_exact(self, runner):
        result = invoke(runner, ["bf", "--f", "1.336", "--n", "23", "--k", "2"])
        assert result.exit_code == 0
        assert result.stdout == (
            "F = 1.336, n = 23, k = 2\n"
            "method      : minimal BIC (repeated measures)\n"
            "BF01        : 2.435\n"
            "BF10        : 0.411\n"
            "dBIC10      : 1.780\n"
            "p(H0 | y)   : 0.709\n"
            "p(H1 | y)   : 0.291   (prior p(H0) = 0.5)\n")

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

    def test_zero_treatment_text_output_exact(self, runner):
        result = invoke(runner, ["bf-ss", "--sst", "100", "--ssa", "0",
                                 "--ssb", "50", "--n", "10", "--k", "2"])
        assert result.exit_code == 0
        assert result.stdout == (
            "SST = 100, SSA = 0, SSB = 50, n = 10, k = 2\n"
            "method      : Nathoo-Masson (sums of squares)\n"
            "BF01        : 4.472\n"
            "BF10        : 0.224\n"
            "dBIC10      : 2.996\n"
            "p(H0 | y)   : 0.817\n"
            "p(H1 | y)   : 0.183   (prior p(H0) = 0.5)\n"
            "note: the treatment sum of squares is 0; the treatment explains nothing\n")

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

    def test_bf_text_output_exact(self, runner, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,c\n1,2,4\n2,4,5\n3,3,7\n4,6,6\n", encoding="utf-8")
        result = invoke(runner, ["anova", str(path), "--bf"])
        assert result.exit_code == 0
        assert result.stdout == (
            "n = 4 subjects, k = 3 conditions\n"
            "Source         SS  df     MS       F      p\n"
            "Subjects   14.250   3  4.750\n"
            "Treatment  18.167   2  9.083  12.111  0.008\n"
            "Residual    4.500   6  0.750\n"
            "Total      36.917  11\n"
            "\n"
            "method      : minimal BIC (repeated measures)\n"
            "BF01        : 0.012\n"
            "BF10        : 80.466\n"
            "dBIC10      : -8.776\n"
            "p(H0 | y)   : 0.012\n"
            "p(H1 | y)   : 0.988   (prior p(H0) = 0.5)\n"
            "\n"
            "method      : Nathoo-Masson (sums of squares)\n"
            "BF01        : 0.003\n"
            "BF10        : 337.898\n"
            "dBIC10      : -11.645\n"
            "p(H0 | y)   : 0.003\n"
            "p(H1 | y)   : 0.997   (prior p(H0) = 0.5)\n")

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

    def test_non_utf8_exit_2_names_byte_offset(self, runner, tmp_path):
        # past the first 8 KiB, so the error comes from a later decoded chunk
        head = b"a,b\n" + b"1.25,2.5\n" * 2000
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"3,\xff\n")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}: ")
        assert f"byte {len(head) + 2} " in result.stderr


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

    @pytest.mark.parametrize("n_list,rho_list", [("20,20", "0.2"), ("20", "0.2,0.2000001")])
    def test_cells_sharing_an_id_exit_2(self, runner, tmp_path, n_list, rho_list):
        result = runner.invoke(main, ["simulate", "--n", n_list, "--rho", rho_list,
                                      "--delta", "0", "--reps", "3",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "share the id n20_k3_rho0.2_delta0" in result.stderr
        assert not (tmp_path / "out").exists()

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

    def test_two_rep_correlation_stays_in_schema(self, runner, tmp_path):
        # two replications correlate at exactly +-1; rounding once wrote -1.0000000000000002
        invoke(runner, ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0", "--reps", "2",
                        "--seed", "3", "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "grid_report.json").read_text())
        assert_schema_valid(report)
        assert report["cells"][0]["posterior_correlation"] == -1.0

    @pytest.mark.parametrize("reps", [1, 10])
    def test_tables_match_grid_report_cells(self, runner, tmp_path, reps):
        # one replication leaves the correlation undefined: an empty CSV cell, a JSON null
        invoke(runner, ["simulate", "--reps", str(reps), "--seed", "42",
                        "--out-dir", str(tmp_path)])
        cells = json.loads((tmp_path / "grid_report.json").read_text())["cells"]
        assert (reps == 1) == all(cell["posterior_correlation"] is None for cell in cells)

        def value(column, text):
            if column == "method":
                return text
            return None if text == "" else float(text)

        def rows(name):
            with open(tmp_path / name, newline="", encoding="utf-8") as handle:
                return [{column: value(column, text) for column, text in row.items()}
                        for row in csv.DictReader(handle)]

        key = ["delta", "rho", "n"]
        for name, columns in (("table2.csv", ["accuracy_min", "accuracy_nm"]),
                              ("table3.csv", ["consistency"]),
                              ("table4.csv", ["posterior_correlation"])):
            assert rows(name) == [{column: cell[column] for column in key + columns}
                                  for cell in cells]
        assert rows("boxplot_data.csv") == [
            {**{column: cell[column] for column in key}, "method": method,
             **cell[f"posterior_quantiles_{suffix}"]}
            for cell in cells
            for method, suffix in (("minimal_rm", "min"), ("nathoo_masson", "nm"))]

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
        # exact bytes: the text report does not move with the JSON writer
        for text, expected in [
            ("F(1, 22) = 1.336 and F(2, 39) = 3.1",
             "F(1, 22) = 1.336             n=23  k=2  BF01 = 2.435  p(H0|y) = 0.709\n"
             "F(2, 39) = 3.1               not inferable: df2=39 is not divisible by df1=2\n"),
            ("F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02 and "
             "F(2,38)<1",
             "F(1, 22) = 1.336             n=23  k=2  BF01 = 2.435  p(H0|y) = 0.709\n"
             "F(2, 39) = 3.1               not inferable: df2=39 is not divisible by df1=2\n"
             "F(1.46, 32.1) = 5.02         not inferable: decimal degrees of freedom "
             "(1.46, 32.1) suggest a sphericity correction; the uncorrected integer dfs "
             "are required\n"
             "F(2, 38) < 1                 n=20  k=3  BF01 >= 14.339  p(H0|y) = 0.935  "
             "(lower bound: F reported as an upper bound)\n"),
        ]:
            result = invoke(runner, ["parse"], input=text)
            assert result.exit_code == 0
            assert "BF01 = 2.435" in result.output
            assert "not inferable" in result.output
            assert "divisible" in result.output
            assert result.output == expected

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

    @pytest.mark.parametrize("options", [(), ("--no-assume-rm",), ("--json",)])
    @pytest.mark.parametrize("prior", ["2", "0", "1", "nan"])
    def test_invalid_prior_exit_2(self, runner, prior, options):
        # the dfs invert into a design, so only the prior is wrong; nothing may be written
        result = runner.invoke(main, ["parse", "--prior-h0", prior, *options],
                               input="F(1, 22) = 1.336, p = .26")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: prior_h0 must lie strictly between 0 and 1, "
                                 f"got {float(prior)!r}\n")

    def test_missing_file_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["parse", str(tmp_path / "absent.txt")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_non_utf8_exit_2_names_byte_offset(self, runner, tmp_path, from_stdin):
        raw = "F(1, 22) = 1.336, p = .26 – ".encode("utf-8") + b"\xff F(2, 38) = 3.1"
        path = tmp_path / "latin1.txt"
        path.write_bytes(raw)
        if from_stdin:
            result = runner.invoke(main, ["parse", "--json"], input=raw)
        else:
            result = runner.invoke(main, ["parse", "--json", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        name = "-" if from_stdin else str(path)
        offset = raw.index(b"\xff")
        assert result.stderr == (f"error: {name}: not valid UTF-8 at byte {offset} "
                                 "(invalid start byte)\n")

    @pytest.mark.parametrize("text, options", [
        pytest.param("", (), id="no-reports"),
        pytest.param("no reports here, only t(38) = 2.1 and F = 3.20", (), id="distractors"),
        pytest.param("F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02",
                     ("--no-assume-rm",), id="no-assume-rm"),
        pytest.param("F(1, 22) = 1.336, p = .26 and F(2, 38) = 0.4, p < .001",
                     ("--prior-h0", "0.25"), id="prior-0.25"),
        pytest.param("F(1, 22) = 1e400, p < .001", (), id="infinite-f"),
        pytest.param("F(1, 100000) = 1e5", (), id="saturated-bf"),
        pytest.param("F(2, 38) < 1 and F(2,38)<1, p < .5", (), id="f-bounds"),
        pytest.param("F(1, 22) = 1.336 and F(1, 22) = 1.336, p = 1.5", (), id="p-missing-or-out"),
        pytest.param("F(1.46, 32.1) = 5.02, p = .03 and F(2, 39) = 3.1", (),
                     id="decimal-and-non-divisible-dfs"),
        pytest.param("F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1; " * 1001, (),
                     id="more-than-one-write-batch"),
    ])
    def test_json_bytes_match_reference_edge_cases(self, runner, text, options):
        assert_parse_json_matches_reference(runner, text, options)

    @settings(max_examples=150, deadline=None)
    @given(text=_REPORT_TEXT, options=st.sampled_from([
        (), ("--no-assume-rm",), ("--prior-h0", "0.25")]))
    def test_json_bytes_match_reference(self, text, options):
        assert_parse_json_matches_reference(CliRunner(), text, options)

    def test_json_writer_keys_track_the_dataclasses(self):
        """A new result field fails here instead of silently missing from the JSON."""
        stat_keys = [field.name for field in fields(ReportedStat)]
        assert _REPORT_KEYS == tuple(sorted(stat_keys + ["design", "evidence", "error"]))
        assert _EVIDENCE_KEYS == tuple(sorted(field.name for field in fields(EvidenceResult)))
