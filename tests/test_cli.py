"""Black-box CLI tests: worked examples, JSON schema validity, exit codes,
file outputs and determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rmbayes import SimulationConfig, run_cell, run_grid
from rmbayes import cli
from rmbayes.anova import AnovaTable
from rmbayes.apa import ReportedStat, infer_rm_design, parse_reports
from rmbayes.bayes import DesignSpec, EvidenceResult, _saturating_exp, bf01_minimal_rm
from rmbayes.cli import _report_entry_json, main
from rmbayes.errors import DomainError
from rmbayes.simulate import CellResult, FiveNumberSummary, GridReport

from conftest import (assert_nothing_left, assert_schema_valid, build_two_condition_matrix,
                      count_forks, decimal_log_bf01_between, fake_cpus, fresh_env,
                      load_report_schema, open_fds, refuse)


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


def reference_parse_text(text, assume_rm=True, prior_h0=0.5):
    """The text listing of ``parse``, built from the public dataclass chain."""
    lines = []
    for stat in parse_reports(text):
        relation = "<" if stat.f_is_upper_bound else "="
        line = f"F({stat.df1:g}, {stat.df2:g}) {relation} {stat.f_value:g}"
        if assume_rm:
            try:
                design = infer_rm_design(stat)
                result = bf01_minimal_rm(stat.f_value, design, prior_h0=prior_h0)
            except DomainError as exc:
                line = f"{line:<28} not inferable: {exc}"
            else:
                bound, note = ((">=", "  (lower bound: F reported as an upper bound)")
                               if stat.f_is_upper_bound else ("=", ""))
                # 3 decimals at 0 and from 0.001 up to 1e6, 4 significant digits elsewhere
                bf01 = (f"{result.bf01:.3f}" if result.bf01 == 0 or 0.001 <= result.bf01 < 1e6
                        else f"{result.bf01:.3e}")
                if result.saturated and result.bf01 == sys.float_info.max:
                    bf01 += " (saturated)"
                line = (f"{line:<28} n={design.n}  k={design.k}  BF01 {bound} "
                        f"{bf01}  p(H0|y) {bound} {result.posterior_h0:.3f}{note}")
        lines.append(line)
    return "".join(f"{line}\n" for line in lines) if lines else "no F reports found\n"


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

    def test_saturated_bf10_is_marked(self, runner):
        # BF10 is clamped to the largest float: once printed as its 309 digits
        result = invoke(runner, ["bf", "--f", "9e307", "--n", "10", "--k", "3"])
        assert result.exit_code == 0
        assert result.stdout == (
            "F = 9e+307, n = 10, k = 3\n"
            "method      : minimal BIC (repeated measures)\n"
            "BF01        : 0.000\n"
            "BF10        : 1.798e+308 (saturated)\n"
            "dBIC10      : -14131.881\n"
            "p(H0 | y)   : 0.000\n"
            "p(H1 | y)   : 1.000   (prior p(H0) = 0.5)\n")

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

    def test_saturated_bf10_is_marked(self, runner):
        result = invoke(runner, ["bf-ss", "--sst", "1000", "--ssa", "998.99", "--ssb", "1",
                                 "--n", "100", "--k", "3"])
        assert result.exit_code == 0
        assert result.stdout == (
            "SST = 1000, SSA = 998.99, SSB = 1, n = 100, k = 3\n"
            "method      : Nathoo-Masson (sums of squares)\n"
            "BF01        : 0.000\n"
            "BF10        : 1.798e+308 (saturated)\n"
            "dBIC10      : -2313.848\n"
            "p(H0 | y)   : 0.000\n"
            "p(H1 | y)   : 1.000   (prior p(H0) = 0.5)\n")

    def test_shared_evidence_schema_across_subcommands(self, runner):
        via_f = json.loads(invoke(runner, ["bf", "--f", "1.336", "--n", "23",
                                           "--k", "2", "--json"]).output)
        via_ss = json.loads(invoke(runner, ["bf-ss", "--sst", "116399", "--ssa", "739",
                                            "--ssb", "103984", "--n", "23", "--k", "2",
                                            "--json"]).output)
        assert set(via_f["evidence"]) == set(via_ss["evidence"])

    def test_sums_past_the_float_range_exit_2(self, runner):
        result = runner.invoke(main, ["bf-ss", "--sst", "1e308", "--ssa", "1",
                                      "--ssb", "1e-300", "--n", "10", "--k", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: n*ss_total/ss_subjects lies beyond the float range "
                                 "(n=10, ss_total=1e+308, ss_subjects=1e-300)\n")

    def test_degenerate_sums_exit_2(self, runner):
        result = runner.invoke(main, ["bf-ss", "--sst", "100", "--ssa", "10",
                                      "--ssb", "0", "--n", "10", "--k", "2"])
        assert result.exit_code == 2


@pytest.mark.parametrize("command", [
    ["bf", "--f", "2"], ["bf-ss", "--sst", "100", "--ssa", "10", "--ssb", "50"],
], ids=["bf", "bf-ss"])
def test_design_past_the_float_range_exit_2(runner, command):
    result = runner.invoke(main, [*command, "--n", "1" + "0" * 400, "--k", "3"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: n*(k-1) = 2e+400 lies beyond the float range\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_overflowing_log_bf_exit_2(runner, as_json):
    # (k-1) ln(n(k-1)) overflows: the report once printed p(H0 | y) : nan, or NaN in JSON
    result = runner.invoke(main, ["bf", "--f", "0", "--n", "2", "--k", "1" + "0" * 306,
                                  *["--json"] * as_json])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: log BF01 is inf: a BIC term overflows the float range\n"


@pytest.mark.parametrize("command", [["bf", "--f", "9e307", "--n", "10", "--k", "3", "--json"],
                                     ["parse", "--json", "-"]], ids=["bf", "parse"])
def test_f_above_float_max_over_df1_evaluates(runner, command):
    # F * df1 overflows, while the log BF01 is finite: once a false "BIC term overflows"
    result = invoke(runner, command, input="F(2, 18) = 9e307")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    evidence = payload["reports"][0]["evidence"] if "reports" in payload else payload["evidence"]
    assert evidence["log_bf01"] == pytest.approx(decimal_log_bf01_between(9e307, 2, 18, 20),
                                                 rel=1e-12)
    assert evidence["posterior_h0"] == 0.0


def test_f_above_float_max_over_df1_is_listed_with_its_design(runner):
    result = invoke(runner, ["parse"], input="F(2, 18) = 1e308")
    assert result.exit_code == 0
    assert result.output == "F(2, 18) = 1e+308            n=10  k=3  BF01 = 0.000  p(H0|y) = 0.000\n"


def test_posterior_of_an_upper_bound_f_is_listed_as_a_lower_bound(runner):
    # BF01 decreases in F and p(H0|y) increases in BF01: F < 1 bounds both from below
    result = invoke(runner, ["parse", "-"], input="F(2, 38) < 1\n")
    assert result.exit_code == 0
    assert result.stdout == (
        "F(2, 38) < 1                 n=20  k=3  BF01 >= 14.339  p(H0|y) >= 0.935  "
        "(lower bound: F reported as an upper bound)\n")


def test_saturated_bf01_is_marked_in_the_parse_listing(runner):
    # log BF01 is about 716, past ln(float max); the upper bound keeps its ">="
    result = invoke(runner, ["parse", "-"], input="F(200, 2000) = 0.5 and F(200, 2000) < 0.5")
    assert result.exit_code == 0
    assert result.stdout == (
        "F(200, 2000) = 0.5           n=11  k=201  BF01 = 1.798e+308 (saturated)  "
        "p(H0|y) = 1.000\n"
        "F(200, 2000) < 0.5           n=11  k=201  BF01 >= 1.798e+308 (saturated)  "
        "p(H0|y) >= 1.000  (lower bound: F reported as an upper bound)\n")
    evidence = json.loads(invoke(runner, ["parse", "-", "--json"],
                                 input="F(200, 2000) = 0.5").stdout)["reports"][0]["evidence"]
    assert evidence["bf01"] == sys.float_info.max and evidence["saturated"]


@pytest.mark.parametrize("value,saturated,text", [
    (0.0, False, "0.000"),
    (math.nextafter(0.001, 0), False, "1.000e-03"),
    (0.001, False, "0.001"),
    (2.435, False, "2.435"),
    (math.nextafter(1e6, 0), False, "1000000.000"),
    (1e6, False, "1.000e+06"),
    (sys.float_info.max, False, "1.798e+308"),
    (sys.float_info.max, True, "1.798e+308 (saturated)"),
])
def test_bf_text_has_3_decimals_from_0_001_up_to_1e6(value, saturated, text):
    assert cli._fmt_bf(value, saturated) == text


def test_bf_text_outside_the_decimal_range_keeps_its_digits(runner):
    # once 224 digits in parse's listing, and BF01 : 0.000 in bf's
    result = invoke(runner, ["parse", "-"], input="F(150, 1500) = 0.5\n")
    assert result.stdout == ("F(150, 1500) = 0.5           n=11  k=151  BF01 = 6.763e+223  "
                             "p(H0|y) = 1.000\n")
    result = invoke(runner, ["bf", "--f", "100", "--n", "20", "--k", "3"])
    assert "BF01        : 4.637e-15\nBF10        : 2.157e+14\n" in result.stdout
    evidence = json.loads(invoke(runner, ["bf", "--f", "100", "--n", "20", "--k", "3",
                                          "--json"]).stdout)["evidence"]
    assert f"{evidence['bf01']:.3e}" == "4.637e-15"


@pytest.mark.parametrize("value,text", [
    (0.0, "0.000"),
    (math.nextafter(1e6, 0), "1000000.000"),
    (1e6, "1.000e+06"),
    (-math.nextafter(1e6, 0), "-1000000.000"),
    (-1e6, "-1.000e+06"),
    (math.inf, "inf"),
])
def test_text_has_3_decimals_below_a_magnitude_of_1e6(value, text):
    assert cli._fmt(value) == text


def test_large_values_in_text_keep_4_significant_digits(runner, tmp_path):
    # dBIC10 was once printed with 24 digits, and these SS and MS with about 300 each
    result = invoke(runner, ["bf", "--f", "1e300", "--n", "100000000000000000000", "--k", "3"])
    assert result.stdout == (
        "F = 1e+300, n = 100000000000000000000, k = 3\n"
        "method      : minimal BIC (repeated measures)\n"
        "BF01        : 0.000\n"
        "BF10        : 1.798e+308 (saturated)\n"
        "dBIC10      : -1.289e+23\n"
        "p(H0 | y)   : 0.000\n"
        "p(H1 | y)   : 1.000   (prior p(H0) = 0.5)\n")
    path = tmp_path / "large.csv"
    write_csv(path, 1e150 * np.array([[1, 2, 4], [2, 3, 7], [3, 5, 5], [4, 4, 9]]))
    result = invoke(runner, ["anova", str(path)])
    assert result.stdout == (
        "n = 4 subjects, k = 3 conditions\n"
        "Source             SS  df          MS       F      p\n"
        "Subjects   1.692e+301   3  5.639e+300\n"
        "Treatment  3.017e+301   2  1.508e+301  11.553  0.009\n"
        "Residual   7.833e+300   6  1.306e+300\n"
        "Total      5.492e+301  11\n")


@pytest.mark.parametrize("args", [
    ["bf", "--f", "4", "--n", "20", "--k", "3", "--json"],
    ["bf-ss", "--sst", "100", "--ssa", "20", "--ssb", "30", "--n", "10", "--k", "3", "--json"],
    ["anova", "DATA", "--json"],
    ["parse", "TEXT", "--json"],
    ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0", "--reps", "3", "--out-dir", "OUT"],
], ids=["bf", "bf-ss", "anova", "parse", "simulate"])
def test_manifest_records_every_parameter(runner, tmp_path, args):
    # an option added later cannot be left out of the manifest
    write_csv(tmp_path / "data.csv", [[1, 2], [2, 4], [3, 5]])
    (tmp_path / "text.txt").write_text("F(1, 22) = 1.336, p = .26", encoding="utf-8")
    paths = {"DATA": tmp_path / "data.csv", "TEXT": tmp_path / "text.txt", "OUT": tmp_path}
    output = invoke(runner, [str(paths.get(arg, arg)) for arg in args]).output
    report = json.loads((tmp_path / "grid_report.json").read_text() if args[0] == "simulate"
                        else output)
    names = {param.name for param in main.commands[args[0]].params} - {"as_json", "seed"}
    assert report["manifest"]["command"] == args[0]
    assert set(report["manifest"]["params"]) == names


_WIDE_TEXT = "a,b,c\n1,2,4\n2,4,5\n3,3,7\n4,6,6\n"


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

    def test_overflowing_sums_of_squares_exit_2_without_warnings(self, runner, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,b,c\n1e200,2e200,3e200\n4e200,1e200,5e200\n2e200,6e200,1e200\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["anova", str(path), "--bf"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: the sums of squares overflow the float range; "
                                 "rescale the data matrix\n")

    def test_ragged_rows_exit_2(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        assert runner.invoke(main, ["anova", str(path)]).exit_code == 2

    def test_ragged_row_after_blank_lines_names_its_file_line(self, runner, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n\n\n3\n", encoding="utf-8")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert result.stderr == "error: line 5 has 1 cells, expected 2\n"

    def test_oversized_cell_exit_2_names_its_line(self, runner, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n", encoding="utf-8")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert result.stderr == "error: line 3 contains a non-numeric cell\n"

    def test_nul_byte_exit_2_names_its_line(self, runner, tmp_path):
        # Python 3.10's csv reader raises "line contains NUL", a csv.Error; 3.11 and
        # later read the NUL into the cell, which is then not numeric
        path = tmp_path / "nul.csv"
        path.write_text("a,b\n1,2\n3,4\x00\n5,6\n", encoding="utf-8")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert re.match(r"error: line 3\b", result.stderr)

    @pytest.mark.parametrize("source", ["file", "-"])
    def test_nul_byte_in_the_row_reader_exit_2_names_its_line(self, runner, tmp_path, source):
        # the NUL is mid-cell, so both readers meet it: a file after loadtxt rejects it,
        # and standard input at once; Python 3.10's csv raises there, 3.11 and later
        # read the cell as not numeric
        text = "a,b\n1,2\n3,\x004\n5,6\n"
        path = tmp_path / "nul.csv"
        path.write_text(text, encoding="utf-8")
        arg = str(path) if source == "file" else "-"
        result = runner.invoke(main, ["anova", arg], input=text)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("error: line 3")

    def test_digits_do_not_follow_the_blas_thread_count(self, tmp_path):
        # OpenBLAS would split a dot product of 20 000 values across its threads,
        # and round by its CPU kernel, both fixed when numpy loads: so each run is
        # a fresh interpreter. Prescott is the one kernel every x86-64 CPU runs
        path = tmp_path / "wide.csv"
        write_csv(path, 500.0 + np.random.default_rng(20).normal(size=(20_000, 3)))
        out_dir = tmp_path / "cell"
        commands = {
            "anova": ["anova", str(path), "--bf", "--json"],
            "simulate": ["simulate", "--n", "80", "--rho", "0.2", "--delta", "0.5",
                         "--reps", "50", "--seed", "12345", "--emit-per-rep",
                         "--out-dir", str(out_dir)],
        }
        variants = [{}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
        if platform.machine() in ("x86_64", "AMD64"):
            variants.append({"OPENBLAS_CORETYPE": "Prescott"})
        env = fresh_env(OPENBLAS_NUM_THREADS=None, OPENBLAS_CORETYPE=None)
        for command, args in commands.items():
            outputs = set()
            for variant in variants:
                out = subprocess.run([sys.executable, "-m", "rmbayes.cli", *args],
                                     env={**env, **variant}, capture_output=True, text=True,
                                     check=True).stdout
                if command == "simulate":
                    out = "".join(f"{file.name}\n{file.read_text(encoding='utf-8')}"
                                  for file in sorted(out_dir.iterdir()))
                outputs.add(re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out))
            assert len(outputs) == 1, command

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

    @staticmethod
    def cli(args, **kwargs):
        """``rmbayes args`` in a fresh interpreter, killed after 10 s."""
        return subprocess.run([sys.executable, "-m", "rmbayes.cli", *args], env=fresh_env(),
                              capture_output=True, text=True, timeout=10, **kwargs)

    def assert_reads_as_the_file(self, runner, tmp_path, result):
        path = tmp_path / "wide.csv"
        path.write_text(_WIDE_TEXT, encoding="utf-8")
        expected = json.loads(invoke(runner, ["anova", str(path), "--bf", "--json"]).stdout)
        assert (result.returncode, result.stderr) == (0, "")
        payload = json.loads(result.stdout)
        assert payload["anova"] == expected["anova"]
        assert payload["evidence"] == expected["evidence"]

    def test_dash_reads_standard_input(self, runner, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(_WIDE_TEXT, encoding="utf-8")
        expected = json.loads(invoke(runner, ["anova", str(path), "--bf", "--json"]).stdout)
        result = runner.invoke(main, ["anova", "-", "--bf", "--json"], input=_WIDE_TEXT)
        assert (result.exit_code, result.stderr) == (0, "")
        payload = json.loads(result.stdout)
        assert payload["anova"] == expected["anova"]
        assert payload["evidence"] == expected["evidence"]

    # a pipe or FIFO holds its bytes once: a second open of the path finds none, or waits
    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_stdin_device_reads_as_the_file(self, runner, tmp_path):
        result = self.cli(["anova", "/dev/stdin", "--bf", "--json"], input=_WIDE_TEXT)
        self.assert_reads_as_the_file(runner, tmp_path, result)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_reads_as_the_file(self, runner, tmp_path):
        fifo = tmp_path / "wide.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w", encoding="utf-8") as writer:
                writer.write(_WIDE_TEXT)
        writer = threading.Thread(target=feed)
        writer.start()
        try:
            result = self.cli(["anova", str(fifo), "--bf", "--json"])
        finally:  # a reader frees the writer if the CLI never opened the FIFO
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join()
            os.close(reader)
        self.assert_reads_as_the_file(runner, tmp_path, result)

    def test_non_utf8_exit_2_names_byte_offset(self, runner, tmp_path):
        # past the first 8 KiB: the offset counts from the file's start, not a buffer's
        head = b"a,b\n" + b"1.25,2.5\n" * 2000
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"3,\xff\n")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}: ")
        assert f"byte {len(head) + 2} " in result.stderr

    def test_non_utf8_offset_counts_crlf_as_two_bytes(self, runner, tmp_path):
        # the offset counts the file's bytes, a CRLF as two, not the decoded text's
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\n" + b"1.25,2.5\r\n" * 2000 + b"3,\xff\r\n")
        result = runner.invoke(main, ["anova", str(path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: {path}: not valid UTF-8 at byte 20007 "
                                 "(invalid start byte)\n")


class TestSimulate:
    def run_smoke(self, runner, out_dir, extra=()):
        args = ["simulate", "--reps", "10", "--seed", "42",
                "--out-dir", str(out_dir), *extra]
        return invoke(runner, args)

    NAMES = ["grid_report.json", "table2.csv", "table3.csv", "table4.csv", "boxplot_data.csv",
             "scatter_data.csv"]

    def assert_wrote(self, result, out_dir, names):
        """stdout's first line names exactly the files in ``out_dir``, in the order written."""
        assert result.stdout.splitlines()[0] == f"wrote {', '.join(names)} in {out_dir}"
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(names)

    def test_smoke_run_writes_all_files_quickly(self, runner, tmp_path):
        started = time.monotonic()
        result = self.run_smoke(runner, tmp_path / "out")
        elapsed = time.monotonic() - started
        assert result.exit_code == 0
        assert elapsed < 5.0
        self.assert_wrote(result, tmp_path / "out", self.NAMES)
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

    def test_seed_is_an_unsigned_64_bit_integer_in_the_schema(self, runner, tmp_path):
        import jsonschema

        invoke(runner, ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0", "--reps", "2",
                        "--seed", "0xFFFFFFFFFFFFFFFF", "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "grid_report.json").read_text())
        assert report["manifest"]["seed"] == report["grid"]["master_seed"] == 2 ** 64 - 1
        assert_schema_valid(report)
        for member, key in ((report["manifest"], "seed"), (report["grid"], "master_seed")):
            for seed in (None, 2 ** 64, -1):
                member[key] = seed
                with pytest.raises(jsonschema.ValidationError):
                    assert_schema_valid(report)
            member[key] = 2 ** 64 - 1

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

    @pytest.mark.parametrize("option,value,message", [
        ("--n", ",", "subject-count list is empty"),
        ("--rho", "0.2,abc", "could not parse correlation list '0.2,abc'"),
    ])
    def test_bad_list_exit_2(self, runner, tmp_path, option, value, message):
        result = runner.invoke(main, ["simulate", option, value, "--reps", "3",
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_per_rep_emission(self, runner, tmp_path):
        result = self.run_smoke(runner, tmp_path / "out", extra=["--emit-per-rep"])
        self.assert_wrote(result, tmp_path / "out", [*self.NAMES, "per_rep.csv"])
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
                assert bf01 == _saturating_exp(log_bf01)[0]
                assert float(row[f"posterior_{method}"]) == \
                    getattr(series, f"posterior_{method}")[rep]
                choice = row[f"choice_{method}"]
                assert choice == ("H0" if log_bf01 >= 0 else "H1")
                assert (bf01 >= 1.0) == (choice == "H0")

    def test_csv_writer_holds_one_cell_at_a_time(self, tmp_path):
        # the writer's peak must not grow with the number of cells
        def write_peak(report, out_dir) -> int:
            tracemalloc.start()
            try:
                with click.Context(cli.cmd_simulate, info_name="simulate"):
                    cli._write_grid_outputs(report, str(out_dir), emit_per_rep=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_cell = run_grid((20,), (0.2,), (0.0,), reps=3000)
        eight_cells = run_grid((20, 30), (0.2, 0.8), (0.0, 0.5), reps=3000)
        ratio = write_peak(eight_cells, tmp_path / "8") / write_peak(one_cell, tmp_path / "1")
        assert ratio < 1.5

    def test_scatter_rows_match_series(self, runner, tmp_path):
        # rho 0.123456789 is written in full in the rho column, as 0.123457 in the cell id
        invoke(runner, ["simulate", "--n", "20", "--rho", "0.123456789,0.8",
                        "--delta", "0,0.3", "--reps", "40", "--seed", "42",
                        "--out-dir", str(tmp_path)])
        header = ["cell_id", "delta", "rho", "n", "rep", "posterior_min", "posterior_nm"]
        expected = []
        for delta in (0.0, 0.3):
            for rho in (0.123456789, 0.8):
                config = SimulationConfig(n=20, rho=rho, delta=delta, reps=40, master_seed=42)
                series = run_cell(config).series
                expected += [[config.cell_id, delta, rho, 20, rep, posterior_min, posterior_nm]
                             for rep, (posterior_min, posterior_nm) in enumerate(zip(
                                 series.posterior_min.tolist(),
                                 series.posterior_nm.tolist()))]
        assert expected[0][0] == "n20_k3_rho0.123457_delta0"

        with open(tmp_path / "scatter_data.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == header
        assert len(rows) == 1 + len(expected)
        for row, (cell_id, delta, rho, n, rep, posterior_min, posterior_nm) in zip(
                rows[1:], expected):
            assert row[0] == cell_id
            assert (float(row[1]), float(row[2]), int(row[3]), int(row[4])) == \
                (delta, rho, n, rep)
            assert (float(row[5]), float(row[6])) == (posterior_min, posterior_nm)

        rendered = io.StringIO()
        writer = csv.writer(rendered, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(expected)
        assert (tmp_path / "scatter_data.csv").read_bytes() == rendered.getvalue().encode()

    def test_numpy_arguments_give_a_plain_report_that_writes(self, tmp_path):
        # the report holds the axes and settings as its cells do, so json writes them
        report = run_grid(np.array([20, 30]), np.array([0.2]), np.array([0.0]),
                          k=np.int64(3), reps=np.int64(3), master_seed=np.uint64(5))
        assert cli._members(report, "cells") == {
            "n_values": (20, 30), "rho_values": (0.2,), "delta_values": (0.0,), "k": 3,
            "reps": 3, "master_seed": 5, "spacing": "uniform"}
        assert {type(value) for value in (*report.n_values, report.k, report.reps,
                                          report.master_seed)} == {int}
        assert {type(value) for value in (*report.rho_values, *report.delta_values)} == {float}
        with click.Context(cli.cmd_simulate, info_name="simulate"):
            cli._write_grid_outputs(report, str(tmp_path), emit_per_rep=False)
        payload = json.loads((tmp_path / "grid_report.json").read_text(encoding="utf-8"))
        assert payload["grid"]["n_values"] == [20, 30] and payload["grid"]["master_seed"] == 5

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

    def test_tiny_posteriors_correlate_in_table4(self, runner, tmp_path):
        # at delta=20 the posteriors lie near 1e-170 and still vary; at delta=200 the
        # Nathoo-Masson ones are all 0.0, so that cell has no correlation
        invoke(runner, ["simulate", "--n", "80", "--rho", "0.2", "--delta", "20,200",
                        "--reps", "50", "--seed", "1", "--out-dir", str(tmp_path)])
        assert (tmp_path / "table4.csv").read_text().splitlines()[1:] == [
            "20.0,0.2,80,0.9999616182442798", "200.0,0.2,80,"]
        cells = json.loads((tmp_path / "grid_report.json").read_text())["cells"]
        assert [cell["posterior_correlation"] for cell in cells] == [0.9999616182442798, None]

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

    def test_overflowing_cell_prints_only_the_error(self, tmp_path):
        # a fresh interpreter, whose default warning filters would print any
        # numpy RuntimeWarning to stderr
        env = fresh_env(PYTHONUNBUFFERED=None)  # a buffered stdout, as in a plain shell
        result = subprocess.run(
            [sys.executable, "-m", "rmbayes.cli", "simulate", "--n", "20", "--rho", "0.2",
             "--delta", "1e155", "--reps", "3", "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr == (
            "error: cell n20_k3_rho0.2_delta1e+155, replication 0: degenerate sums of "
            "squares SSA=inf, SSB=0, SST=inf (no residual or no subject variability, or an "
            "overflow)\n")

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
        assert result.stderr.splitlines()[-1] == (
            "Error: Invalid value for '--seed': 'banana' is not a decimal or 0x-hex integer")
        help_text = invoke(runner, ["simulate", "--help"]).stdout
        assert re.search(r"^ *--seed UINT64 .*\[default: 0\]$", help_text, re.MULTILINE)

    def test_seed_with_leading_zeros_is_decimal(self, runner, tmp_path):
        for seed in ("10", "010"):
            invoke(runner, ["simulate", "--n", "6", "--rho", "0.2", "--delta", "0,0.5",
                            "--reps", "5", "--seed", seed, "--out-dir", str(tmp_path / seed)])
        for name in ("table2.csv", "table3.csv", "table4.csv", "boxplot_data.csv",
                     "scatter_data.csv"):
            assert (tmp_path / "010" / name).read_bytes() == (tmp_path / "10" / name).read_bytes()
        assert json.loads((tmp_path / "010" / "grid_report.json").read_text())[
            "manifest"]["seed"] == 10

    # forms int() reads that the help does not name, and a bare prefix; U+0663 is an
    # Arabic-Indic 3
    @pytest.mark.parametrize("seed", ["0b11", "0o17", "1_0", " 10", "+10", "0x", "\u0663"])
    def test_seed_neither_decimal_nor_hex_exit_2(self, runner, tmp_path, seed):
        result = runner.invoke(main, ["simulate", "--seed", seed, "--reps", "1",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "is not a decimal or 0x-hex integer" in result.stderr
        assert not list(tmp_path.iterdir())

    def test_seed_of_many_digits_does_not_fit(self, runner, tmp_path):
        # more digits than int() reads from text, and still no traceback
        result = runner.invoke(main, ["simulate", "--seed", "1" * 5000, "--reps", "1",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "does not fit in an unsigned 64-bit integer" in result.stderr


class TestSeededOutputBytes:
    """Every file of a few seeded ``simulate --reps 50`` runs, pinned by its
    SHA-256: uniform spacing at k = 3 and k = 5 with delta > 0 (one and three
    profile draws per replication), k = 2, equal spacing, delta = 0, and rho = 0,
    where the -0.0 effects of a null profile meet zero subject effects. Each run
    is a fresh interpreter."""

    RUNS = {
        "k3-uniform": ["--k", "3", "--n", "10,20", "--rho", "0.2,0.8", "--delta", "0,0.5",
                       "--seed", "12345"],
        "k5-uniform": ["--k", "5", "--n", "10", "--rho", "0.5", "--delta", "0,0.3",
                       "--seed", "7"],
        "k2": ["--k", "2", "--n", "12", "--rho", "0.5", "--delta", "0.5", "--seed", "3"],
        "k4-equal": ["--k", "4", "--spacing", "equal", "--n", "15", "--rho", "0.3",
                     "--delta", "0,0.4", "--seed", "99"],
        "k3-rho0": ["--k", "3", "--n", "10", "--rho", "0", "--delta", "0,0.3", "--seed", "5"],
    }
    DIGESTS = {
    "k3-uniform": {
        "boxplot_data.csv": "f6021272a30d80f4fd329c6846cc433655e2fd5a840287c7c425cd9a8825846c",
        "grid_report.json": "453024dc7bb332cdd8cb35fdaefee7e97518612b853123827ed746fb4d296ea6",
        "per_rep.csv": "2aa5398618148acdf601353248fd5251edb5db08943d23a3d29f718c77e34f1a",
        "scatter_data.csv": "59b5b6cb3aee53f0886b15e06ca547963b84399e0aa0257d6000d72b42b719d6",
        "table2.csv": "719d7a98e781c09b5bf654f7d8384697914dbc1c9008f287d7d47a423667190d",
        "table3.csv": "2f8dc71fd4a4ded091d2f6809bbc6ec9ef85a4dc5ef235728cf464ac014928bb",
        "table4.csv": "d0ce25f2060123e4859b682607ca725a9e32c115d70cf5d0b798f445904f3075",
    },
    "k5-uniform": {
        "boxplot_data.csv": "38a49417f8fb81f285a7f6be6c2a248ae463f8d090aac7c36e29e9b0149d1ec0",
        "grid_report.json": "59c42dfd3bb450fcc73953c21d314e074c7671d130dc654b636a27407c43cbc0",
        "per_rep.csv": "38730f423ae40b9c12903c4555431a8591193ddda82812a32de4c77095ad4906",
        "scatter_data.csv": "cb051295eaca2c9a8c96105c1829e0ac072edcde8196c86491a153a2d2970294",
        "table2.csv": "45e02f6564c7e7fddf5326abbc2d23d557d75ef4662c652fcb883c73edf00c77",
        "table3.csv": "028bbf858109bb2cd822588692969b2918e6e95517820d3d2f96ec2a650e685a",
        "table4.csv": "f58d95baafce3b9eedbb23c75cbd429c0104fa65ff0630491d41982e4cca0d83",
    },
    "k2": {
        "boxplot_data.csv": "3e2f5819bdfac5e64a60542fe348776648c79cc40ba9aace2ad7879d38ee47c1",
        "grid_report.json": "6f366191208902a61375d978ae6bbc60ff9236a1c5b1c1393b171999266eefe3",
        "per_rep.csv": "1f500fa09492b3cf21f422a895a66c2d9751d8e307a920db34fab7629b19ce79",
        "scatter_data.csv": "fbf27bf65e66a74e792dc06f474499c29b42f327de172593fbe9bf27df5ef21b",
        "table2.csv": "91bcf8b917489ffd09d450dc89c98514f2cbbf65ddf3d167bdd8f8ad3a0a8bd5",
        "table3.csv": "c26fe4f049a1521379f7b8e2e714c782833c79719b4cce38fd4dc2ddb46580c5",
        "table4.csv": "e65066c4ec78cc0dd1136133cbf6169812bc6644b51de4f60716915a62630456",
    },
    "k4-equal": {
        "boxplot_data.csv": "fb1874389befb2f8663cc362ec84780bb02574d901dd45429bb3031c82029f12",
        "grid_report.json": "5748ba15809a75ae121944bbb76cc9e48de9e60d0a21b657c2e5bb96a73ac524",
        "per_rep.csv": "d8a9a76de3ebf234bd7b29fcdf8b50285e5e1cf62aa3b57ab908bb6ad2a6ffcb",
        "scatter_data.csv": "582a0afbcb0b487ef902d461c4e4ecf9eaa27f9bba0ebd278c35129e55d723f5",
        "table2.csv": "6b91900de7fd1122d2a9984fd3128061a28ab7f8f13a605d4cd78509ad7dbd49",
        "table3.csv": "fcb384882c1a3107721e6f96d3bd47a78c576144aecae34e78eceaa731a50825",
        "table4.csv": "2771217817fca8ba3ba6ab1a21f5535bce24c494a54deea06a0d3724941859a9",
    },
    "k3-rho0": {
        "boxplot_data.csv": "f39c50e50f2acfe02830f320ce7b806139e5d28660f001238e842bbe69105ef8",
        "grid_report.json": "791ef0d1758e4af0f393a492df0940a35b393f3f86250a031300db93ad23df29",
        "per_rep.csv": "39cfefb4495f0ee0da5d88c3b81d35c07da8520893d76a2895eda5d521272710",
        "scatter_data.csv": "b81354f79bf07fc9c2a389082f07839a98a54e51a7a6c894e18f36f36540d15e",
        "table2.csv": "4850102742d68bd3b4097a9166582490fa60eed02c78e3ea552bf91fde0362a0",
        "table3.csv": "428f0d8e924a80ef03a304be7f5116b1ec90cd5e19f86768570b52257ae5d911",
        "table4.csv": "95611db74fe3cfc8d4c60f9db19d1b84d57e9df33577bba226e8e7447ecb8f48",
    },
    }
    # the manifest's run-dependent values
    VOLATILE = re.compile(r'("(?:timestamp|out_dir)": )"[^"]*"')

    @pytest.mark.parametrize("run", RUNS)
    def test_output_digests(self, tmp_path, run):
        env = fresh_env(OPENBLAS_NUM_THREADS="1")  # numpy loads before the CLI sets it
        result = subprocess.run(
            [sys.executable, "-m", "rmbayes.cli", "simulate", "--reps", "50", *self.RUNS[run],
             "--emit-per-rep", "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests = {}
        for path in sorted(tmp_path.iterdir()):
            data = path.read_bytes()
            if path.name == "grid_report.json":
                data = self.VOLATILE.sub(r'\1""', data.decode()).encode()
            digests[path.name] = hashlib.sha256(data).hexdigest()
        assert digests == self.DIGESTS[run], (
            "seeded simulate output changed. If that is meant, re-capture these digests "
            "and say so; a numpy upgrade may also change the Generator streams behind "
            "them, which NEP 19 does not keep stable across versions")


class TestReportOutputBytes:
    """The ``--json`` report of ``bf``, ``bf-ss``, ``anova --bf`` and ``parse`` on fixed
    input, pinned by its SHA-256 with the timestamp masked, so that a change to how a
    report is built keeps every byte of it."""

    CSV = "a,b,c\n1,2,3.5\n2,2.5,4\n1.5,3,3.9\n0.5,1.25,2\n"
    TEXT = ("Means differed, F(2, 38) = 3.5, p = .04; the null F(1, 22) = 1.336, p = .26; "
            "F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02 and F(2,38)<1, p > .5.\n")
    RUNS = {
        "bf": (["bf", "--f", "4.2", "--n", "20", "--k", "3"], None),
        "bf-ss": (["bf-ss", "--sst", "100", "--ssa", "12", "--ssb", "40", "--n", "20",
                   "--k", "3", "--prior-h0", "0.3"], None),
        "anova": (["anova", "-", "--bf"], CSV),
        "parse": (["parse", "-"], TEXT),
    }
    DIGESTS = {
        "bf": "bd9a93d882984380ee3d8a4388d49b96eb30bdc76ee80527587c027be4dd5638",
        "bf-ss": "bb49214f97c130ca35d5e504d631460e9d5b5e2fd34110d9be5c8074cc974111",
        "anova": "ed22cb47cc5e3e9be2f5c73aa8ca203738538664f34b309a6354fc0779bc2ac1",
        "parse": "410b126123be8dc1e52b8c001f81e4ad8d19513793f3644e9b95e57b0b014f54",
    }

    @pytest.mark.parametrize("run", RUNS)
    def test_output_digest(self, runner, run):
        args, stdin = self.RUNS[run]
        result = invoke(runner, [*args, "--json"], input=stdin)
        assert result.exit_code == 0
        data = without_timestamp(result.stdout).encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[run]


class TestParse:
    def test_full_pipeline_from_file(self, runner, tmp_path):
        path = tmp_path / "snippet.txt"
        path.write_text("the shift effect was absent, F(1, 22) = 1.336, p = .26",
                        encoding="utf-8")
        result = invoke(runner, ["parse", str(path)])
        assert result.exit_code == 0
        assert "n=23" in result.output
        assert "BF01 = 2.435" in result.output

    def test_json_of_a_path_spelt_like_the_entry_slot(self, runner, tmp_path, monkeypatch):
        # the entries go in place of the report's last "%s" string, after text_path's
        text = "F(1, 22) = 1.336 and F(2, 39) = 3.1"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "%s").write_text(text, encoding="utf-8")
        result = invoke(runner, ["parse", "--json", "%s"])
        manifest = json.loads(result.stdout)["manifest"]
        assert manifest["params"]["text_path"] == "%s"
        assert result.stdout == reference_parse_json(text, manifest)

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
             "F(2, 38) < 1                 n=20  k=3  BF01 >= 14.339  p(H0|y) >= 0.935  "
             "(lower bound: F reported as an upper bound)\n"),
            # more lines than one write batch holds
            ("F(1, 22) = 1.336 and F(2, 39) = 3.1; " * 1001,
             ("F(1, 22) = 1.336             n=23  k=2  BF01 = 2.435  p(H0|y) = 0.709\n"
              "F(2, 39) = 3.1               not inferable: df2=39 is not divisible by df1=2\n")
             * 1001),
        ]:
            result = invoke(runner, ["parse"], input=text)
            assert result.exit_code == 0
            assert "BF01 = 2.435" in result.output
            assert "not inferable" in result.output
            assert "divisible" in result.output
            assert result.output == expected

    def test_design_past_the_float_range_is_not_inferable(self, runner):
        # n*(k-1) = df1 + df2 rounds past the largest float; the next report is kept
        result = invoke(runner, ["parse"], input="F(9.9792015476736e+291, "
                        "1.7976931348623157e+308) = 1 and F(1, 22) = 1.336")
        assert result.exit_code == 0
        assert result.output == (
            "F(9.9792e+291, 1.79769e+308) = 1 not inferable: "
            "n*(k-1) = 1.7976931348623158e+308 lies beyond the float range\n"
            "F(1, 22) = 1.336             n=23  k=2  BF01 = 2.435  p(H0|y) = 0.709\n")

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

    @pytest.mark.parametrize("from_stdin, raw", [
        (from_stdin, raw) for raw in (
            "F(1, 22) = 1.336, p = .26 – ".encode("utf-8") + b"\xff F(2, 38) = 3.1",
            # the offset counts the input's bytes, a CRLF as two, not the decoded text's
            b"Means: F(2, 38) = 3.5, p = .04.\r\n" * 400 + b"\xff F(1, 20) = 2\r\n")
        for from_stdin in (False, True)], ids=["file", "stdin", "crlf-file", "crlf-stdin"])
    def test_non_utf8_exit_2_names_byte_offset(self, runner, tmp_path, from_stdin, raw):
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

    @pytest.mark.parametrize("options", [[], ["--json"]])
    def test_stdin_is_read_as_a_file_is_under_any_locale(self, tmp_path, options):
        # a latin-1 stdin once read these bytes as other characters, and moved the spans
        raw = "Résumé: F(2, 38) = 3.5, p = .04\r\nthen F(1, 22) = 1.3e\u22122\r\n".encode()
        path = tmp_path / "text.txt"
        path.write_bytes(raw)
        from_file, from_stdin = (
            self.cli_latin1([*args, *options], raw) for args in (["parse", str(path)], ["parse"]))
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_file.stderr == from_stdin.stderr == b""
        assert b"0.013" in from_stdin.stdout  # the second F, as its minus sign was read
        assert (without_timestamp(from_stdin.stdout.decode()).replace('"-"', '"PATH"')
                == without_timestamp(from_file.stdout.decode()).replace(
                    json.dumps(str(path)), '"PATH"'))

    def test_stdin_not_utf8_exit_2_under_any_locale(self):
        raw = b"F(2, 38) = 3.5 \xff\n"
        result = self.cli_latin1(["parse", "-"], raw)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr == b"error: -: not valid UTF-8 at byte 15 (invalid start byte)\n"

    @staticmethod
    def cli_latin1(args, stdin: bytes):
        """``rmbayes args`` in a fresh interpreter whose standard streams are latin-1."""
        return subprocess.run([sys.executable, "-m", "rmbayes.cli", *args], input=stdin,
                              env=fresh_env(PYTHONIOENCODING="latin-1"), capture_output=True,
                              timeout=60)

    @pytest.mark.parametrize("text, options", [
        pytest.param("", (), id="no-reports"),
        pytest.param("no reports here, only t(38) = 2.1 and F = 3.20", (), id="distractors"),
        pytest.param("F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02",
                     ("--no-assume-rm",), id="no-assume-rm"),
        pytest.param("F(1, 22) = 1.336, p = .26 and F(2, 38) = 0.4, p < .001",
                     ("--prior-h0", "0.25"), id="prior-0.25"),
        pytest.param("F(1, 22) = 1e400, p < .001", (), id="infinite-f"),
        pytest.param("F(1, 100000) = 1e5", (), id="saturated-bf"),
        pytest.param("F(2, 38) = 1.7e308", (), id="infinite-log-bf"),
        pytest.param("F(1e400, 2) = 3", (), id="infinite-df1"),
        pytest.param("F(9.9792015476736e+291, 1.7976931348623157e+308) = 1", (),
                     id="design-past-the-float-range"),
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

    @settings(max_examples=150, deadline=None)
    @given(text=_REPORT_TEXT, options=st.sampled_from([
        (), ("--no-assume-rm",), ("--prior-h0", "0.25")]))
    def test_text_listing_matches_reference(self, text, options):
        result = CliRunner().invoke(main, ["parse", *options], input=text,
                                    catch_exceptions=False)
        assert result.exit_code == 0
        assert result.stdout == reference_parse_text(
            text, assume_rm="--no-assume-rm" not in options,
            prior_h0=0.25 if "--prior-h0" in options else 0.5)

    def test_reports_are_evaluated_without_the_result_dataclasses(self, runner, monkeypatch):
        """parse runs on field tuples; ReportedStat, DesignSpec and EvidenceResult
        are the public view, built for none of the reports."""
        text = ("F(1, 22) = 1.336, p = .26 and F(2, 39) = 3.1 and F(1.46, 32.1) = 5.02 "
                "and F(2,38)<1 and F(1, 22) = 1e400 and F(9.9792015476736e+291, "
                "1.7976931348623157e+308) = 1")
        usual = {options: invoke(runner, ["parse", *options], input=text).stdout
                 for options in [(), ("--json",)]}

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built by parse")

        for cls in (ReportedStat, DesignSpec, EvidenceResult):
            monkeypatch.setattr(cls, "__init__", refuse)
        result = invoke(runner, ["parse"], input=text)
        assert result.exit_code == 0
        assert result.stdout == usual[()]
        result = invoke(runner, ["parse", "--json"], input=text)
        assert result.exit_code == 0
        assert json_without_timestamp(result.stdout) == json_without_timestamp(usual[("--json",)])

    def test_json_writer_keys_track_the_dataclasses(self):
        """A new result field fails here instead of silently missing from the JSON: the
        entry templates gain its slot, which the writer's values then leave unfilled."""
        stat = (1.0, 2.0, 38.0, 0.5, True, False, (3, 15))
        evidence = (2.6, 14.3, 0.07, 5.2, 0.93, 0.07, 0.5, False)
        evaluated = json.loads(_report_entry_json(stat, (20, 3), evidence, None))
        unevaluated = json.loads(_report_entry_json(stat, None, None, "no design"))
        entry_keys = {field.name for field in fields(ReportedStat)} | {
            "design", "error", "evidence"}
        assert set(evaluated) == set(unevaluated) == entry_keys
        assert set(evaluated["evidence"]) == {field.name for field in fields(EvidenceResult)}
        assert evaluated["design"] == {"n": 20, "k": 3} and evaluated["span"] == [3, 15]
        assert unevaluated["error"] == "no design" and unevaluated["evidence"] is None


class TestSchemaKeys:
    """Each report-v1 object that a writer builds from dataclass fields lists those
    fields' members, every one required: a new field fails here until the schema has
    it, and a schema member that no field writes fails too."""

    @pytest.mark.parametrize("path", ["evidence", "anova_table", "design", "five_number",
                                      "cell", "grid_report.grid", "parsed_report_entry"])
    def test_schema_objects_track_the_dataclasses(self, path):
        def members(cls, *left_out):
            return {field.name for field in fields(cls) if field.name not in left_out}

        expected = {
            "evidence": members(EvidenceResult),
            "anova_table": members(AnovaTable),
            "design": members(DesignSpec),
            "five_number": members(FiveNumberSummary),
            "cell": {"cell_id"} | members(SimulationConfig, "master_seed", "spacing")
                    | members(CellResult, "config", "series"),
            "grid_report.grid": members(GridReport, "cells"),
            "parsed_report_entry": members(ReportedStat) | {"design", "error", "evidence"},
        }[path]
        name, *nested = path.split(".")
        schema_object = load_report_schema()["$defs"][name]
        for member in nested:
            schema_object = schema_object["properties"][member]
        assert set(schema_object["properties"]) == set(schema_object["required"]) == expected
        assert schema_object["additionalProperties"] is False


# Cut into 5 parts, this text is cut inside a report, between an F and its "(", and
# around a part without a report; its exponents are signed with U+2212
_SPLIT_TEXT = ("F(2, 38) = 4.1, p = .03; " * 12 + "no report here. " * 25 + "F" + " \n" * 20
               + "(1, 22) = 1.3e\u22122, p < 1e\u22123; " + "F(2, 38) = 9.1, p < .001; " * 6)
_NO_REPORT_TEXT = "no report here. " * 60


def without_timestamp(output):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', output)


class TestParseSplit:
    """``parse`` on a text cut into parts, each part after the first rendered by a
    forked child, writes the bytes of a run on one part and leaves no child behind."""

    @staticmethod
    def split(monkeypatch, cpus, part_chars=1):
        """Cut every text of ``part_chars`` or more characters into as many parts as
        ``cpus``; the pids forked, as a list."""
        monkeypatch.setattr(cli, "_PART_CHARS", part_chars)
        fake_cpus(monkeypatch, cpus)
        return count_forks(monkeypatch)

    open_fds = staticmethod(open_fds)
    assert_nothing_left = staticmethod(assert_nothing_left)

    def test_the_text_is_cut_where_it_should_be(self):
        text = _SPLIT_TEXT.replace("\u2212", "-")
        spans = [stat.span for stat in parse_reports(_SPLIT_TEXT)]
        nominal = [len(text) * part // 5 for part in range(1, 5)]
        assert any(start < nominal[0] < end for start, end in spans)
        assert text[:nominal[3]].rstrip().endswith("F")
        assert text[nominal[3]:].lstrip().startswith("(1, 22)")
        assert "\u2212" in _SPLIT_TEXT and not parse_reports(_NO_REPORT_TEXT)

    @pytest.mark.parametrize("options", [[], ["--json"], ["--no-assume-rm"]])
    @pytest.mark.parametrize("text", [_SPLIT_TEXT, _NO_REPORT_TEXT], ids=["reports", "none"])
    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_output_is_the_bytes_of_one_part(self, runner, monkeypatch, tmp_path, cpus, text,
                                             options):
        path = tmp_path / "text.txt"
        path.write_text(text, encoding="utf-8")
        args = ["parse", str(path), *options]
        whole = invoke(runner, args)
        pids, fds = self.split(monkeypatch, cpus), self.open_fds()
        parts = invoke(runner, args)
        assert len(pids) == cpus - 1
        assert whole.exit_code == parts.exit_code == 0
        assert without_timestamp(parts.stdout) == without_timestamp(whole.stdout)
        self.assert_nothing_left(fds)

    @pytest.mark.parametrize("options", [[], ["--json"]])
    @pytest.mark.parametrize("part_chars,cpus", [(cli._PART_CHARS, 2), (1, 1)],
                             ids=["short-text", "one-cpu"])
    def test_a_text_of_one_part_forks_no_child(self, runner, monkeypatch, tmp_path, part_chars,
                                               cpus, options):
        path = tmp_path / "text.txt"
        path.write_text(_SPLIT_TEXT, encoding="utf-8")
        args = ["parse", str(path), *options]
        whole = invoke(runner, args)
        pids, fds = self.split(monkeypatch, cpus, part_chars), self.open_fds()
        one = invoke(runner, args)
        assert pids == []
        assert whole.exit_code == one.exit_code == 0
        assert without_timestamp(one.stdout) == without_timestamp(whole.stdout)
        self.assert_nothing_left(fds)

    @pytest.mark.parametrize("options", [[], ["--json"]])
    def test_a_running_thread_forks_no_child(self, runner, monkeypatch, tmp_path,
                                             running_thread, options):
        path = tmp_path / "text.txt"
        path.write_text(_SPLIT_TEXT, encoding="utf-8")
        args = ["parse", str(path), *options]
        whole = invoke(runner, args)
        scans, scan = [], cli._scan

        def recorded_scan(text, start, end):
            scans.append((start, end))
            return scan(text, start, end)
        monkeypatch.setattr(cli, "_scan", recorded_scan)
        pids, fds = self.split(monkeypatch, 3), self.open_fds()
        parts = invoke(runner, args)
        assert pids == []
        assert scans == [(0, len(_SPLIT_TEXT))]  # one part, scanned once, whole
        assert whole.exit_code == parts.exit_code == 0
        assert without_timestamp(parts.stdout) == without_timestamp(whole.stdout)
        self.assert_nothing_left(fds)

    def test_the_part_of_a_failed_child_is_rendered_by_the_parent(self, runner, monkeypatch,
                                                                  tmp_path):
        path = tmp_path / "text.txt"
        path.write_text(_SPLIT_TEXT, encoding="utf-8")
        whole = invoke(runner, ["parse", str(path)])
        parent, scan = os.getpid(), cli._scan

        def scan_in_parent_only(*args):
            if os.getpid() != parent:
                raise RuntimeError("a failing child")
            return scan(*args)
        monkeypatch.setattr(cli, "_scan", scan_in_parent_only)
        pids, fds = self.split(monkeypatch, 3), self.open_fds()
        parts = invoke(runner, ["parse", str(path)])
        assert len(pids) == 2
        assert parts.exit_code == 0
        assert parts.stdout == whole.stdout
        self.assert_nothing_left(fds)

    @pytest.mark.parametrize("target", ["pipe", "fork"])
    def test_a_failed_pipe_or_fork_renders_its_part_here(self, runner, monkeypatch, tmp_path,
                                                          target):
        path = tmp_path / "text.txt"
        path.write_text(_SPLIT_TEXT, encoding="utf-8")
        args = ["parse", str(path), "--json"]
        whole = invoke(runner, args)
        monkeypatch.setattr(cli, "_PART_CHARS", 1)
        fake_cpus(monkeypatch, 3)
        refuse(monkeypatch, target)
        fds = self.open_fds()
        parts = invoke(runner, args)
        assert parts.exit_code == 0
        assert without_timestamp(parts.stdout) == without_timestamp(whole.stdout)
        self.assert_nothing_left(fds)

    @pytest.mark.parametrize("target,code", [("pipe", 1), ("full", 3)])
    def test_a_failed_write_kills_every_child(self, monkeypatch, tmp_path, target, code):
        if target == "full" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        path = tmp_path / "text.txt"
        path.write_text(_SPLIT_TEXT, encoding="utf-8")
        parent, scan = os.getpid(), cli._scan

        def slow_in_children(*args):
            if os.getpid() != parent:
                time.sleep(60)  # still running when the parent's first write fails
            return scan(*args)
        monkeypatch.setattr(cli, "_scan", slow_in_children)
        fds = self.open_fds()
        if target == "pipe":
            read_fd, write_fd = os.pipe()
            os.close(read_fd)
            stream = open(write_fd, "w", encoding="utf-8")
        else:
            stream = open("/dev/full", "w", encoding="utf-8")
        # click and the error boundary swap these for wrappers that do not flush
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(sys, "stderr", sys.stderr)
        pids = self.split(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exit_info:
            main.main(["parse", str(path), "--json"], standalone_mode=False)
        assert time.perf_counter() - start < 30
        assert exit_info.value.code == code
        assert len(pids) == 2
        with contextlib.suppress(OSError):  # the failed write is still in its buffer
            stream.close()
        self.assert_nothing_left(fds)


class TestErrorBoundary:
    """``main`` alone turns errors into exit codes: 2 for a DomainError, 3 for an
    OSError, and click's quiet 1 for a closed stdout pipe."""

    @staticmethod
    def cli(args, **kwargs):
        """``rmbayes args`` in a fresh interpreter, with real stdout and stderr."""
        env = fresh_env(PYTHONUNBUFFERED=None)  # a buffered stdout, as in a plain shell
        return subprocess.Popen([sys.executable, "-m", "rmbayes.cli", *args], env=env,
                                stderr=subprocess.PIPE, text=True, **kwargs)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        ["bf", "--f", "1", "--n", "10", "--k", "3"],
        ["parse", "--json", "-"],
    ], ids=["bf", "parse-json"])
    def test_stdout_write_failure_exit_3_with_one_line(self, args):
        with open("/dev/full", "w") as full:
            process = self.cli(args, stdin=subprocess.PIPE, stdout=full)
            _, stderr = process.communicate("F(1, 22) = 1.336, p = .26")
        assert process.returncode == 3
        assert stderr.startswith("error: ")
        assert len(stderr.splitlines()) == 1

    def test_closed_stdout_pipe_exit_1_without_error_line(self, tmp_path):
        # well past a pipe's buffer, so parse is still writing when the pipe closes
        path = tmp_path / "many.txt"
        path.write_text("F(1, 22) = 1.336, p = .26\n" * 5000, encoding="utf-8")
        process = self.cli(["parse", str(path)], stdout=subprocess.PIPE)
        assert process.stdout.readline().startswith("F(1, 22) = 1.336")
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait() == 1
        assert "error:" not in stderr

    def test_validation_failure_raises_system_exit_2_without_standalone_mode(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main.main(["bf", "--f", "1", "--n", "1", "--k", "3"], standalone_mode=False)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: n must be an integer >= 2, got 1\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_write_failure_in_process_exits_3_and_leaves_stdout_restored(self, capsys):
        full = open("/dev/full", "w", encoding="utf-8")
        stdout = sys.stdout
        with contextlib.redirect_stdout(full), pytest.raises(SystemExit) as exit_info:
            main.main(["bf", "--f", "1", "--n", "10", "--k", "3"], standalone_mode=False)
        assert exit_info.value.code == 3
        assert sys.stdout is stdout
        assert capsys.readouterr().err.startswith("error: [Errno 28]")
        with pytest.raises(OSError):  # the failed write is still in the file's own buffer
            full.close()

    def test_io_failure_with_stdout_closed_exits_3(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(sys, "stdout", None)  # as Python sets it for `>&-`
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exit_info:
            main.main(["anova", missing], standalone_mode=False)
        assert exit_info.value.code == 3
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("args", [
        ["bf", "--f", "1", "--n", "10", "--k", "3"],
        ["bf-ss", "--sst", "100", "--ssa", "10", "--ssb", "30", "--n", "10", "--k", "3"],
        ["anova", "DATA"],
        ["parse", "TEXT", "--json"],
        ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0", "--reps", "5", "--out-dir",
         "OUT"],
    ], ids=["bf", "bf-ss", "anova", "parse", "simulate"])
    def test_closed_stdout_exits_3_with_one_line(self, monkeypatch, capsys, tmp_path, args):
        # click.echo drops what it is given for a None stdout: the report is lost
        write_csv(tmp_path / "data.csv", [[1, 2], [2, 4], [3, 5]])
        (tmp_path / "text.txt").write_text("F(1, 22) = 1.336, p = .26", encoding="utf-8")
        paths = {"DATA": tmp_path / "data.csv", "TEXT": tmp_path / "text.txt", "OUT": tmp_path}
        monkeypatch.setattr(sys, "stdout", None)  # as Python sets it for `>&-`
        with pytest.raises(SystemExit) as exit_info:
            main.main([str(paths.get(arg, arg)) for arg in args], standalone_mode=False)
        assert exit_info.value.code == 3
        assert capsys.readouterr().err == "error: [Errno 9] stdout is closed\n"

    def test_closed_stdout_in_a_shell_exits_3(self):
        result = subprocess.run(
            ["sh", "-c", 'exec "$0" -m rmbayes.cli bf --f 1 --n 10 --k 3 >&-', sys.executable],
            env=fresh_env(), stderr=subprocess.PIPE, text=True)
        assert result.returncode == 3
        assert result.stderr == "error: [Errno 9] stdout is closed\n"

    @pytest.mark.parametrize("args, status", [
        (["bf", "--f", "1", "--n", "10", "--k", "3"], 0),
        (["bf", "--f", "1", "--n", "1", "--k", "3"], 2),
        (["anova", "MISSING"], 3),
    ], ids=["ok", "domain-error", "io-error"])
    def test_run_exits_with_mains_status_and_skips_atexit(self, tmp_path, args, status):
        # run() leaves by os._exit once stdout and stderr are flushed: no teardown.
        # The line printed first stays in stdout's buffer unless something flushes it
        code = ("import atexit, sys\n"
                "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
                "from rmbayes.cli import run\n"
                "sys.argv[0] = 'rmbayes'\n"
                "print('before run')\n"
                "run()\n")
        args = [str(tmp_path / "missing.csv") if arg == "MISSING" else arg for arg in args]
        env = fresh_env(PYTHONUNBUFFERED=None)  # run() itself must flush a buffered stdout
        result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                capture_output=True, text=True)
        expected = invoke(CliRunner(), args) if status == 0 else None
        assert result.returncode == status
        assert "atexit ran" not in result.stderr
        if expected is not None:
            assert result.stdout == "before run\n" + expected.stdout and result.stderr == ""
        else:
            assert result.stdout == "before run\n" and len(result.stderr.splitlines()) == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_run_with_workers_leaves_no_process_and_writes_the_sequential_bytes(self,
                                                                                 tmp_path):
        def simulate(workers):
            out = tmp_path / f"workers{workers}"
            process = self.cli(["simulate", "--reps", "30", "--workers", str(workers),
                                "--out-dir", str(out)], stdout=subprocess.DEVNULL,
                               start_new_session=True)  # its own group: pgid == pid
            _, stderr = process.communicate(timeout=60)  # a leftover holds stderr open
            assert (process.returncode, stderr) == (0, "")
            return process.pid, {
                path.name: re.sub(rb'"(timestamp|out_dir|workers)": [^\n]*', rb"\1",
                                  path.read_bytes())
                for path in out.iterdir()}

        group, parallel = simulate(2)
        left = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            with contextlib.suppress(OSError):  # a process that ended while listed
                if os.getpgid(int(pid)) == group:
                    left.append(pid)
        assert left == []
        assert parallel == simulate(1)[1]

    @pytest.mark.parametrize("reps", [10 ** 19, 2 ** 63 - 1])
    def test_unallocatable_reps_exit_2_with_one_line(self, runner, tmp_path, reps):
        result = runner.invoke(main, ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0",
                                      "--reps", str(reps), "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: cell n20_k3_rho0.2_delta0: reps={reps} replications "
                                 "do not fit in memory\n")

    def test_unallocatable_design_exit_2_with_one_line(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--n", str(2 ** 50), "--rho", "0.2",
                                      "--delta", "0", "--reps", "1", "--out-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: cell n{2 ** 50}_k3_rho0.2_delta0: its n-by-k design "
                                 "does not fit in memory\n")
