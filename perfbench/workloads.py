"""The three benchmark workloads: inputs from the seed, the CLI arguments
that process them, and the check that reads back what the CLI wrote.

* ``sim-grid`` runs the paper's Monte Carlo grid: 18 000 small
  simulate -> anova -> bayes chains.
* ``parse-corpus`` scans a ~10.8 MB text for 28 000 planted F reports: apa
  and the scalar bayes path, plus a ~17 MB JSON dump; no simulate, no
  ANOVA numerics.
* ``anova-csv`` runs one 10^5 x 3 ANOVA with both Bayes factors: CSV
  reading in cli, one large matrix in anova and f_cdf at df2 = 2e5 --
  the opposite shape to sim-grid's many small matrices.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen
import oracle

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_sim_grid.json"

# Master seeds of the simulate runs captured in golden_sim_grid.json; the
# workload seed picks one.  12345 is the reference seed.
GOLDEN_MASTER_SEEDS = (12345, 12346, 12347, 12348)
SIM_ARGS = ("--reps", "1000", "--k", "3", "--spacing", "uniform", "--workers", "1")


@dataclass
class Prepared:
    """One workload instance: CLI arguments, where its output goes, how many
    items one run processes, and the oracle for that output."""

    name: str
    argv: list[str]
    items: int
    stdout_path: str
    out_dir: Optional[str]
    check: Callable[[], oracle.Tally]

    def reset_outputs(self) -> None:
        """Remove what a previous run wrote, so a failed run cannot pass on
        stale output."""
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        if os.path.exists(self.stdout_path):
            os.remove(self.stdout_path)

    def bytes_out(self) -> int:
        total = os.path.getsize(self.stdout_path) if os.path.exists(self.stdout_path) else 0
        if self.out_dir is not None and os.path.isdir(self.out_dir):
            total += sum(entry.stat().st_size for entry in os.scandir(self.out_dir))
        return total


def _write_input(path: str, text: str) -> None:
    """Write an input file and wait for it to reach the disk, so its
    writeback does not overlap the timed runs."""
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def sim_grid(seed: int, workdir: str) -> Prepared:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden_by_seed = json.load(handle)
    master = GOLDEN_MASTER_SEEDS[seed % len(GOLDEN_MASTER_SEEDS)]
    golden = golden_by_seed[str(master)]
    out_dir = os.path.join(workdir, "grid")
    return Prepared(
        name="sim-grid",
        argv=["simulate", "--seed", str(master), *SIM_ARGS, "--out-dir", out_dir],
        items=sum(cell["reps"] for cell in golden.values()),
        stdout_path=os.path.join(workdir, "stdout.txt"),
        out_dir=out_dir,
        check=lambda: oracle.check_grid(out_dir, golden),
    )


def parse_corpus(seed: int, workdir: str, n_reports: int = 28000) -> Prepared:
    text, planted = gen.corpus(seed, n_reports=n_reports)
    text_path = os.path.join(workdir, "corpus.txt")
    _write_input(text_path, text)
    stdout_path = os.path.join(workdir, "stdout.json")
    return Prepared(
        name="parse-corpus",
        argv=["parse", text_path, "--json"],
        items=len(planted),
        stdout_path=stdout_path,
        out_dir=None,
        check=lambda: oracle.check_parse(stdout_path, planted),
    )


def anova_csv(seed: int, workdir: str, rows: int = 100_000) -> Prepared:
    text, values = gen.wide_matrix(seed, rows=rows)
    csv_path = os.path.join(workdir, "wide.csv")
    _write_input(csv_path, text)
    expected = oracle.anova_expected(values)
    stdout_path = os.path.join(workdir, "stdout.json")
    return Prepared(
        name="anova-csv",
        argv=["anova", csv_path, "--bf", "--json"],
        items=rows,
        stdout_path=stdout_path,
        out_dir=None,
        check=lambda: oracle.check_anova(stdout_path, expected),
    )


WORKLOADS = {"sim-grid": sim_grid, "parse-corpus": parse_corpus, "anova-csv": anova_csv}
