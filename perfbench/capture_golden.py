"""Capture golden_sim_grid.json: the sim-grid aggregates of the current code.

Run from the repository root, only when the simulation's seeded outputs are
meant to change:

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import oracle
import workloads


def main() -> None:
    os.makedirs(".perfbench-work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=".perfbench-work")
    env = {**os.environ, "PYTHONPATH": os.path.abspath("src")}
    golden = {}
    try:
        for master in workloads.GOLDEN_MASTER_SEEDS:
            out_dir = os.path.join(workdir, str(master))
            subprocess.run([sys.executable, "-m", "rmbayes.cli", "simulate", "--seed", str(master),
                            *workloads.SIM_ARGS, "--out-dir", out_dir],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            golden[str(master)] = oracle.summarize_grid(out_dir)
            print(f"captured master seed {master}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
