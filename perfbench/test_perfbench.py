"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(*argv: str, stdout_path: str | None = None) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(stdout_path or os.devnull, "wb") as out:
        subprocess.run([sys.executable, "-m", "rmbayes.cli", *argv], env=env, check=True,
                       stdout=out)


def test_generators_are_byte_stable():
    assert gen.corpus(7, n_reports=300) == gen.corpus(7, n_reports=300)
    assert gen.corpus(8, n_reports=300)[0] != gen.corpus(7, n_reports=300)[0]
    assert gen.wide_matrix(7, rows=500) == gen.wide_matrix(7, rows=500)
    assert gen.wide_matrix(8, rows=500)[0] != gen.wide_matrix(7, rows=500)[0]


def test_corpus_plants_the_stated_mix_at_the_stated_offsets():
    text, planted = gen.corpus(3, n_reports=1000)
    assert Counter(p.kind for p in planted) == {kind: 10 * share for kind, share in gen.REPORT_MIX}
    assert all(text[p.offset] == "F" for p in planted)


def test_parse_oracle_counts_known_misparses_and_catches_a_dropped_report(tmp_path):
    prepared = workloads.parse_corpus(5, str(tmp_path), n_reports=400)
    _cli(*prepared.argv, stdout_path=prepared.stdout_path)
    tally = prepared.check()
    exponent = 400 * dict(gen.REPORT_MIX)["exponent"] // 100
    assert tally.correct
    assert tally.known == tally.mismatched == exponent
    assert tally.ok_ratio == (400 - exponent) / 400

    with open(prepared.stdout_path, encoding="utf-8") as handle:
        report = json.load(handle)
    dropped = next(i for i, e in enumerate(report["reports"]) if e["evidence"] is not None)
    del report["reports"][dropped]
    with open(prepared.stdout_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    corrupted = prepared.check()
    assert not corrupted.correct
    assert corrupted.ok_ratio < tally.ok_ratio


def test_grid_oracle_catches_one_flipped_accuracy(tmp_path):
    out_dir = str(tmp_path / "grid")
    _cli("simulate", "--n", "10", "--rho", "0.5", "--delta", "0,0.5", "--reps", "40",
         "--seed", "3", "--out-dir", out_dir)
    golden = oracle.summarize_grid(out_dir)
    tally = oracle.check_grid(out_dir, golden)
    assert tally.correct and tally.ok_ratio == 1.0

    table = os.path.join(out_dir, "table2.csv")
    with open(table, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[1][3] = repr(1.0 - float(rows[1][3]))
    with open(table, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    corrupted = oracle.check_grid(out_dir, golden)
    assert not corrupted.correct
    assert corrupted.ok_ratio < 1.0


def test_anova_oracle_matches_the_cli_and_catches_a_wrong_f(tmp_path):
    prepared = workloads.anova_csv(2, str(tmp_path), rows=300)
    _cli(*prepared.argv, stdout_path=prepared.stdout_path)
    tally = prepared.check()
    assert tally.correct and tally.ok_ratio == 1.0

    with open(prepared.stdout_path, encoding="utf-8") as handle:
        report = json.load(handle)
    report["anova"]["f_stat"] *= 1.001
    with open(prepared.stdout_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    assert prepared.check().ok_ratio < 1.0


def test_golden_copy_covers_every_master_seed():
    golden = json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(str(s) for s in workloads.GOLDEN_MASTER_SEEDS)
    for cells in golden.values():
        assert len(cells) == 18
        assert sum(cell["reps"] for cell in cells.values()) == 18_000


def test_importtime_parse_takes_the_rmbayes_cli_subtree():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | site",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |        170 |   rmbayes",
        "import time:         5 |        175 | rmbayes.cli",
    ])
    assert run._parse_importtime(text) == {
        "import.rmbayes_cli_ms": 0.175, "import.numpy_ms": 0.15, "import.modules": 4,
    }


def test_traced_run_names_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    prepared = workloads.anova_csv(4, str(tmp_path), rows=300)
    result = run.traced(prepared, str(tmp_path), seconds=0)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["anova.rm_anova.calls"] == 1
    assert result["metrics"]["simulate.generate_dataset.calls"] == 0


def _bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "anova-csv", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "sim-grid", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_workload_exists(name):
    assert name in workloads.WORKLOADS
