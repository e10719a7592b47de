"""Output oracles for the benchmark workloads.

None of them imports the package under test.  Each returns a ``Tally`` of
expected results that matched, failed, or missed on an input form the
program is known to get wrong (counted, so the defect stays visible, but not
treated as a regression).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from gen import KNOWN_MISPARSED, PlantedReport

# Relative tolerance for posteriors and sums of squares: far above the
# few-ulp differences a reordered but equivalent computation gives, far
# below any real change in the numbers.
REL_TOL = 1e-9
# Absolute tolerance on log BF01 for the anova-csv workload: the
# Nathoo-Masson term multiplies a log ratio by n(k-1) = 2e5.
LOG_BF_ABS_TOL = 1e-6
# f_cdf's docstring claims an absolute error well below 1e-10; p is held to
# that.  At this workload's df2 = 199 998 the error reaches ~9e-11 (shown as
# anova.p_abs_err); at df2 = 200 000 the same F values miss it by up to 3.4x.
P_CLAIM_ABS = 1e-10


@dataclass
class Tally:
    passed: int = 0
    failed: int = 0
    known: int = 0
    failures: list[str] = field(default_factory=list)
    # parse-corpus: planted reports not parsed exactly, plus reports found
    # where none was planted
    mismatched: int = 0
    # anova-csv: |p - scipy| of the reported p-value
    p_abs_err: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def add(self, other: "Tally") -> None:
        self.passed += other.passed
        self.failed += other.failed
        self.known += other.known
        self.mismatched = max(self.mismatched, other.mismatched)
        self.p_abs_err = max(self.p_abs_err, other.p_abs_err)
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])

    @property
    def total(self) -> int:
        return self.passed + self.failed + self.known

    @property
    def ok_ratio(self) -> float:
        return self.passed / self.total if self.total else 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.total > 0


def _close(a, b, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --------------------------------------------------------------- sim-grid

def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _cell_key(delta, rho, n) -> str:
    return f"delta={float(delta)!r} rho={float(rho)!r} n={int(n)}"


def summarize_grid(out_dir: str) -> dict:
    """Per-cell aggregates of a ``simulate`` output directory.

    Accuracies come three ways: from grid_report.json, from table2.csv, and
    recomputed from the per-replication posteriors in scatter_data.csv
    (H0 is chosen when p(H0|y) >= 0.5, i.e. BF01 >= 1 at prior 0.5).
    """
    with open(os.path.join(out_dir, "grid_report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    cells = {}
    for cell in report["cells"]:
        qmin, qnm = cell["posterior_quantiles_min"], cell["posterior_quantiles_nm"]
        cells[_cell_key(cell["delta"], cell["rho"], cell["n"])] = {
            "accuracy_min": cell["accuracy_min"],
            "accuracy_nm": cell["accuracy_nm"],
            "consistency": cell["consistency"],
            "posterior_correlation": cell["posterior_correlation"],
            "quantiles_min": [qmin[q] for q in ("min", "q1", "median", "q3", "max")],
            "quantiles_nm": [qnm[q] for q in ("min", "q1", "median", "q3", "max")],
        }
    for row in _read_csv(os.path.join(out_dir, "table2.csv")):
        cell = cells.setdefault(_cell_key(row["delta"], row["rho"], row["n"]), {})
        cell["table2_accuracy_min"] = float(row["accuracy_min"])
        cell["table2_accuracy_nm"] = float(row["accuracy_nm"])
    series: dict[str, tuple[bool, list, list]] = {}
    for row in _read_csv(os.path.join(out_dir, "scatter_data.csv")):
        key = _cell_key(row["delta"], row["rho"], row["n"])
        _, pmin, pnm = series.setdefault(key, (float(row["delta"]) == 0.0, [], []))
        pmin.append(float(row["posterior_min"]))
        pnm.append(float(row["posterior_nm"]))
    for key, (true_h0, pmin, pnm) in series.items():
        cell = cells.setdefault(key, {})
        a, b = np.array(pmin), np.array(pnm)
        cell["reps"] = len(pmin)
        cell["scatter_accuracy_min"] = float(np.mean((a >= 0.5) == true_h0))
        cell["scatter_accuracy_nm"] = float(np.mean((b >= 0.5) == true_h0))
        cell["posterior_moments"] = [float(a.sum()), float((a * a).sum()),
                                     float(b.sum()), float((b * b).sum())]
    return cells


_EXACT = ("accuracy_min", "accuracy_nm", "consistency", "table2_accuracy_min",
          "table2_accuracy_nm", "scatter_accuracy_min", "scatter_accuracy_nm", "reps")
_APPROX = ("quantiles_min", "quantiles_nm", "posterior_moments")


def check_grid(out_dir: str, golden: dict) -> Tally:
    """Model-choice aggregates must equal the golden copy exactly; posterior
    summaries must agree within ``REL_TOL``."""
    tally = Tally()
    try:
        cells = summarize_grid(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        tally.failed += 1
        tally.failures.append(f"unreadable simulate output: {exc}")
        return tally
    for key, want in golden.items():
        got = cells.get(key, {})
        for name in _EXACT:
            tally.check(got.get(name) == want[name], f"{key} {name}")
        tally.check("posterior_correlation" in got
                    and _close(got["posterior_correlation"], want["posterior_correlation"]),
                    f"{key} posterior_correlation")
        for name in _APPROX:
            values = got.get(name) or []
            for i, expected in enumerate(want[name]):
                tally.check(i < len(values) and _close(values[i], expected), f"{key} {name}[{i}]")
    for key in cells.keys() - golden.keys():
        tally.check(False, f"unexpected cell {key}")
    return tally


# ------------------------------------------------------------ parse-corpus

def log_bf01_minimal(f_value: float, n: int, k: int) -> float:
    """Closed form of the minimal-BIC repeated-measures Bayes factor."""
    return 0.5 * ((k - 1) * math.log(n * k - n) + (n - n * k) * math.log(1.0 + f_value / (n - 1)))


def _report_matches(entry: dict, want: PlantedReport) -> bool:
    if (entry["df1"], entry["df2"], entry["f_value"], entry["p_reported"],
            entry["f_is_upper_bound"], entry["p_is_upper_bound"]) != (
            want.df1, want.df2, want.f_value, want.p_reported,
            want.f_is_upper_bound, want.p_is_upper_bound):
        return False
    if want.design is None:
        return entry["design"] is None and entry["evidence"] is None and bool(entry["error"])
    n, k = want.design
    evidence = entry["evidence"]
    return (entry["design"] == {"n": n, "k": k} and entry["error"] is None
            and evidence is not None
            and _close(evidence["log_bf01"], log_bf01_minimal(want.f_value, n, k),
                       abs_tol=1e-12))


def check_parse(stdout_path: str, planted: list[PlantedReport]) -> Tally:
    """Each planted report's dfs, F, p and bound flags must parse exactly,
    and its BF01 match the closed form; a report found where none was
    planted is a failure."""
    tally = Tally()
    try:
        with open(stdout_path, encoding="utf-8") as handle:
            entries = json.load(handle)["reports"]
    except (OSError, KeyError, ValueError) as exc:
        tally.failed += len(planted) or 1
        tally.failures.append(f"unreadable parse output: {exc}")
        return tally
    by_start = {entry["span"][0]: entry for entry in entries}
    for want in planted:
        entry = by_start.pop(want.offset, None)
        ok = entry is not None and _report_matches(entry, want)
        if not ok and want.kind in KNOWN_MISPARSED:
            tally.known += 1
        else:
            tally.check(ok, f"{want.kind} report at offset {want.offset}")
    for start in by_start:
        tally.check(False, f"report found at offset {start}, none planted there")
    tally.mismatched = tally.known + tally.failed
    return tally


# --------------------------------------------------------------- anova-csv

def anova_expected(values) -> dict:
    """Two-pass sums of squares (grand mean first, then deviations) and the
    statistics the CLI derives from them."""
    x = np.asarray(values, dtype=float)
    n, k = x.shape
    grand = x.mean()
    dev = x - grand
    ss_total = float((dev * dev).sum())
    col = dev.mean(axis=0)
    row = dev.mean(axis=1)
    ss_treatment = float(n * (col @ col))
    ss_subjects = float(k * (row @ row))
    ss_residual = ss_total - ss_treatment - ss_subjects
    f_stat = ss_treatment / ss_residual * (n - 1)
    nm_dbic = ((n * (k - 1)) * math.log(ss_residual / (ss_total - ss_subjects))
               + (k + 2) * math.log(n * (ss_total - ss_treatment) / ss_subjects)
               - 3.0 * math.log(n * ss_total / ss_subjects))
    return {
        "n": n, "k": k,
        "ss_treatment": ss_treatment, "ss_subjects": ss_subjects,
        "ss_residual": ss_residual, "ss_total": ss_total,
        "df_treatment": k - 1, "df_subjects": n - 1, "df_residual": (k - 1) * (n - 1),
        "f_stat": f_stat,
        "log_bf01_minimal": log_bf01_minimal(f_stat, n, k),
        "log_bf01_nathoo": 0.5 * nm_dbic,
    }


def f_sf(f_stat, df1, df2):
    """Upper-tail F probability from scipy, the repository's test oracle."""
    from scipy.stats import f as f_dist
    return f_dist.sf(f_stat, df1, df2)


def check_anova(stdout_path: str, expected: dict) -> Tally:
    """SS, dfs, F and both log BF01 against ``expected``; p against scipy."""
    tally = Tally()
    try:
        with open(stdout_path, encoding="utf-8") as handle:
            report = json.load(handle)
        table = report["anova"]
        evidence = report["evidence"]
        got_min = evidence["minimal_rm"]["log_bf01"]
        got_nm = evidence["nathoo_masson"]["log_bf01"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        tally.failed += 1
        tally.failures.append(f"unreadable anova output: {exc}")
        return tally
    tally.check(report.get("design") == {"n": expected["n"], "k": expected["k"]}, "design")
    for name in ("df_treatment", "df_subjects", "df_residual"):
        tally.check(table.get(name) == expected[name], name)
    for name in ("ss_treatment", "ss_subjects", "ss_total"):
        tally.check(_close(table.get(name), expected[name]), name)
    tally.check(_close(table.get("ss_residual"), expected["ss_residual"],
                       abs_tol=REL_TOL * expected["ss_total"]), "ss_residual")
    tally.check(_close(table.get("f_stat"), expected["f_stat"]), "f_stat")
    tally.check(_close(got_min, expected["log_bf01_minimal"], rel=0.0, abs_tol=LOG_BF_ABS_TOL),
                "log_bf01 minimal_rm")
    tally.check(_close(got_nm, expected["log_bf01_nathoo"], rel=0.0, abs_tol=LOG_BF_ABS_TOL),
                "log_bf01 nathoo_masson")
    tally.p_abs_err = abs(table["p_value"] - float(f_sf(
        table["f_stat"], table["df_treatment"], table["df_residual"])))
    tally.check(tally.p_abs_err <= P_CLAIM_ABS, f"p_value off scipy by {tally.p_abs_err:.3g}")
    return tally
