"""Acceptance suite: worked examples, the simulation grid against its
reference tables, and the cross-cutting property checks.

Each criterion prints one PASS/FAIL line; run

    pytest tests/test_acceptance.py -v -s

to see them alongside the test names.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from rmbayes import (
    DesignSpec,
    bf01_between,
    bf01_minimal_rm,
    delta_bic_nathoo,
    parse_reports,
    infer_rm_design,
    rm_anova,
    run_grid,
    SummaryStats,
)
from rmbayes.cli import main as cli_main
from rmbayes.errors import DegenerateResidualError

from conftest import build_two_condition_matrix, definitional_anova

ACCEPTANCE_SEED = 12345

# reference values the simulation is calibrated against: model-choice
# accuracy (minimal BIC, Nathoo-Masson), keyed by (delta, rho, n)
REF_ACCURACY = {
    (0.0, 0.2, 20): (.969, .968), (0.0, 0.2, 50): (.989, .988), (0.0, 0.2, 80): (.992, .992),
    (0.0, 0.8, 20): (.979, .954), (0.0, 0.8, 50): (.991, .981), (0.0, 0.8, 80): (.992, .985),
    (0.2, 0.2, 20): (.068, .072), (0.2, 0.2, 50): (.058, .056), (0.2, 0.2, 80): (.062, .062),
    (0.2, 0.8, 20): (.148, .218), (0.2, 0.8, 50): (.307, .374), (0.2, 0.8, 80): (.485, .550),
    (0.5, 0.2, 20): (.259, .266), (0.5, 0.2, 50): (.526, .530), (0.5, 0.2, 80): (.760, .756),
    (0.5, 0.8, 20): (.867, .910), (0.5, 0.8, 50): (.997, .999), (0.5, 0.8, 80): (1.0, 1.0),
}
# reference model-choice consistency between the methods
REF_CONSISTENCY = {
    (0.0, 0.2, 20): .997, (0.0, 0.2, 50): .999, (0.0, 0.2, 80): 1.0,
    (0.2, 0.2, 20): .994, (0.2, 0.2, 50): .994, (0.2, 0.2, 80): .998,
    (0.5, 0.2, 20): .977, (0.5, 0.2, 50): .984, (0.5, 0.2, 80): .994,
    (0.0, 0.8, 20): .975, (0.0, 0.8, 50): .990, (0.0, 0.8, 80): .993,
    (0.2, 0.8, 20): .930, (0.2, 0.8, 50): .933, (0.2, 0.8, 80): .935,
    (0.5, 0.8, 20): .957, (0.5, 0.8, 50): .998, (0.5, 0.8, 80): 1.0,
}
# reference correlations between the two posterior-probability series
REF_CORRELATION = {
    (0.0, 0.2, 20): .993, (0.0, 0.2, 50): .997, (0.0, 0.2, 80): .998,
    (0.2, 0.2, 20): .994, (0.2, 0.2, 50): .998, (0.2, 0.2, 80): .999,
    (0.5, 0.2, 20): .995, (0.5, 0.2, 50): .999, (0.5, 0.2, 80): .999,
    (0.0, 0.8, 20): .987, (0.0, 0.8, 50): .990, (0.0, 0.8, 80): .988,
    (0.2, 0.8, 20): .989, (0.2, 0.8, 50): .991, (0.2, 0.8, 80): .991,
    (0.5, 0.8, 20): .990, (0.5, 0.8, 50): .995, (0.5, 0.8, 80): .999,
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_grid():
    started = time.perf_counter()
    grid = run_grid((20, 50, 80), (0.2, 0.8), (0.0, 0.2, 0.5), k=3, reps=1000,
                    master_seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - started
    cells = {(c.config.delta, c.config.rho, c.config.n): c for c in grid.cells}
    return cells, elapsed


def best_call_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_criterion_01_minimal_bf_worked_example():
    result = CliRunner().invoke(cli_main, ["bf", "--f", "1.336", "--n", "23",
                                           "--k", "2", "--json"],
                                catch_exceptions=False)
    payload = json.loads(result.output)["evidence"]
    design = DesignSpec(n=23, k=2)
    runtime = best_call_time(lambda: bf01_minimal_rm(1.336, design))
    ok = (result.exit_code == 0
          and abs(payload["bf01"] - 2.435) <= 0.001
          and abs(payload["posterior_h0"] - 0.709) <= 0.001
          and runtime < 0.010)
    report(1, ok, f"bf01={payload['bf01']:.4f} (target 2.435±0.001), "
                  f"p(H0|y)={payload['posterior_h0']:.4f} (target 0.709±0.001), "
                  f"runtime {runtime * 1e3:.3f} ms")


def test_criterion_02_nathoo_masson_worked_example():
    result = CliRunner().invoke(cli_main, ["bf-ss", "--sst", "116399", "--ssa", "739",
                                           "--ssb", "103984", "--n", "23", "--k", "2",
                                           "--json"],
                                catch_exceptions=False)
    payload = json.loads(result.output)["evidence"]
    stats = SummaryStats(ss_treatment=739.0, ss_subjects=103984.0,
                         ss_total=116399.0, design=DesignSpec(n=23, k=2))
    runtime = best_call_time(lambda: delta_bic_nathoo(stats))
    ok = (result.exit_code == 0
          and abs(payload["delta_bic10"] - 1.812) <= 0.002
          and abs(payload["bf01"] - 2.474) <= 0.002
          and abs(payload["posterior_h0"] - 0.712) <= 0.001
          and runtime < 0.010)
    report(2, ok, f"dBIC10={payload['delta_bic10']:.4f} (target 1.812±0.002), "
                  f"bf01={payload['bf01']:.4f} (target 2.474±0.002), "
                  f"p(H0|y)={payload['posterior_h0']:.4f} (target 0.712±0.001), "
                  f"runtime {runtime * 1e3:.3f} ms")


def test_criterion_03_between_subjects_worked_example():
    value = bf01_between(2.76, 3, 96, 100).bf01
    ok = abs(value - 15.98) <= 0.02
    report(3, ok, f"bf01={value:.4f} (target 15.98±0.02)")


def test_criterion_04_reported_anova_table_reproduction():
    table = rm_anova(build_two_condition_matrix(739.0, 103984.0, 12176.0, n=23))
    ms_subjects = table.ss_subjects / table.df_subjects
    ok = (round(ms_subjects) == 4727
          and round(table.ms_residual) == 553
          and abs(table.f_stat - 1.336) <= 0.001
          and abs(table.p_value - 0.26) <= 0.005)
    report(4, ok, f"MS subjects={ms_subjects:.1f} (renders 4727), "
                  f"MS residual={table.ms_residual:.1f} (renders 553), "
                  f"F={table.f_stat:.4f} (target 1.336±0.001), "
                  f"p={table.p_value:.4f} (target 0.26±0.005)")


def test_criterion_05_null_effect_accuracy(reference_grid):
    cells, elapsed = reference_grid
    worst = 0.0
    for (delta, rho, n), (acc_min, acc_nm) in REF_ACCURACY.items():
        if delta != 0.0:
            continue
        cell = cells[(delta, rho, n)]
        worst = max(worst, abs(cell.accuracy_min - acc_min), abs(cell.accuracy_nm - acc_nm))
    ok = worst <= 0.02 and elapsed < 120.0
    report(5, ok, f"null rows: max |accuracy - reference| = {worst:.4f} "
                  f"(tolerance 0.02); 18-cell grid took {elapsed:.1f}s (< 120s)")


def test_criterion_06_small_and_medium_effect_accuracy(reference_grid):
    cells, _ = reference_grid
    worst = 0.0
    for (delta, rho, n), (acc_min, acc_nm) in REF_ACCURACY.items():
        if delta == 0.0:
            continue
        cell = cells[(delta, rho, n)]
        worst = max(worst, abs(cell.accuracy_min - acc_min), abs(cell.accuracy_nm - acc_nm))
    medium = cells[(0.5, 0.8, 80)]
    ok = worst <= 0.05 and medium.accuracy_min >= 0.99 and medium.accuracy_nm >= 0.99
    report(6, ok, f"effect rows: max |accuracy - reference| = {worst:.4f} "
                  f"(tolerance 0.05); medium effect rho=0.8 n=80 accuracies "
                  f"({medium.accuracy_min:.3f}, {medium.accuracy_nm:.3f}) >= 0.99")


def test_criterion_07_consistency(reference_grid):
    cells, _ = reference_grid
    worst = 0.0
    minimum = 1.0
    for key, reference in REF_CONSISTENCY.items():
        cell = cells[key]
        worst = max(worst, abs(cell.consistency - reference))
        minimum = min(minimum, cell.consistency)
    ok = worst <= 0.05 and minimum >= 0.90
    report(7, ok, f"consistency: max |value - reference| = {worst:.4f} "
                  f"(tolerance 0.05), minimum cell = {minimum:.3f} (floor 0.90)")


def test_criterion_08_posterior_correlations(reference_grid):
    cells, _ = reference_grid
    worst = 0.0
    minimum = 1.0
    for key, reference in REF_CORRELATION.items():
        cell = cells[key]
        worst = max(worst, abs(cell.posterior_correlation - reference))
        minimum = min(minimum, cell.posterior_correlation)
    ok = worst <= 0.02 and minimum >= 0.98
    report(8, ok, f"correlations: max |value - reference| = {worst:.4f} "
                  f"(tolerance 0.02), minimum cell = {minimum:.4f} (floor 0.98)")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(8675309)
    failures = []

    # reduction identity: repeated-measures form vs independent-groups form
    worst_identity = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 1000))
        k = int(rng.integers(2, 13))
        f = float(rng.uniform(0.0, 80.0))
        a = bf01_minimal_rm(f, DesignSpec(n=n, k=k)).log_bf01
        b = bf01_between(f, k - 1, (n - 1) * (k - 1), n * (k - 1)).log_bf01
        denom = max(abs(a), abs(b), 1e-300)
        worst_identity = max(worst_identity, abs(a - b) / denom)
    if worst_identity > 1e-12:
        failures.append(f"reduction identity rel dev {worst_identity:.2e}")

    # partition identity on random matrices
    for _ in range(60):
        matrix = 100.0 * rng.normal() + rng.normal(size=(int(rng.integers(2, 60)),
                                                         int(rng.integers(2, 10))))
        table = rm_anova(matrix)
        total = table.ss_treatment + table.ss_subjects + table.ss_residual
        if abs(total - table.ss_total) > 1e-9 * table.ss_total:
            failures.append("partition identity")
            break

    # brute-force oracle on small-integer matrices, every shape up to 4x4
    for n in (2, 3, 4):
        for k in (2, 3, 4):
            for _ in range(60):
                matrix = rng.integers(-3, 4, size=(n, k)).astype(float)
                ssa, ssb, ssr, sst = definitional_anova(matrix)
                if ssr <= 1e-12 * max(sst, 1.0):
                    try:
                        table = rm_anova(matrix)
                        ok_here = ssa <= 1e-12 * max(sst, 1.0) and table.f_stat == 0.0
                    except DegenerateResidualError:
                        ok_here = ssa > 1e-12 * max(sst, 1.0)
                    if not ok_here:
                        failures.append("degenerate-matrix handling")
                    continue
                table = rm_anova(matrix)
                if not math.isclose(table.ss_treatment, ssa, rel_tol=1e-12, abs_tol=1e-12) \
                        or not math.isclose(table.f_stat, (ssa / ssr) * (n - 1), rel_tol=1e-12):
                    failures.append("brute-force oracle")

    # Bayes factor monotone decreasing in F, and reciprocity
    for _ in range(300):
        n = int(rng.integers(2, 200))
        k = int(rng.integers(2, 8))
        design = DesignSpec(n=n, k=k)
        f1 = float(rng.uniform(0.0, 20.0))
        f2 = f1 + float(rng.uniform(1e-6, 10.0))
        r1, r2 = bf01_minimal_rm(f1, design), bf01_minimal_rm(f2, design)
        if not r1.log_bf01 > r2.log_bf01:
            failures.append("monotonicity in F")
        if abs(r1.bf01 * r1.bf10 - 1.0) > 1e-12:
            failures.append("reciprocity")

    # grid determinism: parallel == sequential
    kwargs = dict(n_values=(20, 50), rho_values=(0.2, 0.8), delta_values=(0.0, 0.5),
                  reps=50, master_seed=ACCEPTANCE_SEED)
    if run_grid(workers=2, **kwargs) != run_grid(workers=1, **kwargs):
        failures.append("parallel determinism")

    # parser round trip and fuzz totality
    for _ in range(300):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(2, 15))
        design = infer_rm_design(parse_reports(f"F({k - 1}, {(n - 1) * (k - 1)}) = 1.00")[0])
        if (design.n, design.k) != (n, k):
            failures.append("parser round trip")
    for _ in range(400):
        length = int(rng.integers(0, 120))
        codepoints = rng.integers(1, 0xD7FF, size=length)
        text = "".join(chr(int(c)) for c in codepoints)
        stats = parse_reports(text)  # must never raise
        spans = [s.span for s in stats]
        if spans != sorted(spans):
            failures.append("parser span order")

    ok = not failures
    report(9, ok, "property suites (reduction identity, partition identity, "
                  "brute-force oracle, monotonicity, reciprocity, parallel "
                  "determinism, parser round-trip/fuzz) all hold"
                  if ok else f"failed: {sorted(set(failures))}")


def test_simulation_invariants_on_reference_grid(reference_grid):
    """Stated distributional invariants, checked on the same grid run."""
    cells, _ = reference_grid
    for (delta, rho, n), cell in cells.items():
        assert cell.posterior_correlation >= 0.95
        if delta == 0.0:
            assert cell.posterior_quantiles_min.median > 0.5
            assert cell.posterior_quantiles_nm.median > 0.5
    for rho in (0.2, 0.8):
        by_n = [cells[(0.5, rho, n)].accuracy_min for n in (20, 50, 80)]
        assert by_n == sorted(by_n)

    # null-row reproduction is not tied to the frozen seed: spot-check another
    null_grid = run_grid((20, 50, 80), (0.2, 0.8), (0.0,), k=3, reps=1000,
                         master_seed=0xC0FFEE)
    for cell in null_grid.cells:
        acc_min, acc_nm = REF_ACCURACY[(0.0, cell.config.rho, cell.config.n)]
        assert abs(cell.accuracy_min - acc_min) <= 0.02
        assert abs(cell.accuracy_nm - acc_nm) <= 0.02


def test_criterion_10_minimal_posterior_dominates_at_high_correlation(reference_grid):
    cells, _ = reference_grid
    medians = {}
    for (delta, rho, n), cell in cells.items():
        if rho != 0.8:
            continue
        diffs = cell.series.posterior_min - cell.series.posterior_nm
        medians[(delta, rho, n)] = float(np.median(diffs))
    worst = min(medians.values())
    ok = worst >= 0.0
    report(10, ok, f"rho=0.8 cells: min over cells of median(p_min - p_nm) = "
                   f"{worst:.6f} (must be >= 0)")
