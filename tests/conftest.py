"""Shared test helpers: independent ANOVA oracle, matrix constructors, and
JSON schema loading."""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmbayes

SRC = str(Path(rmbayes.__file__).resolve().parents[1])


def fresh_python(code: str, args=(), stdin: str = "") -> str:
    """The last stdout line of ``code`` run in a new interpreter that imports
    this package's source, so nothing is loaded beforehand."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def definitional_anova(matrix) -> tuple[float, float, float, float]:
    """Brute-force evaluation of the defining double sums with plain Python
    loops and fsum; independent of the package's numpy path.

    Returns (ssa, ssb, ssr, sst).
    """
    rows = [[float(v) for v in row] for row in np.asarray(matrix)]
    n, k = len(rows), len(rows[0])
    grand = math.fsum(math.fsum(r) for r in rows) / (n * k)
    col_means = [math.fsum(rows[i][j] for i in range(n)) / n for j in range(k)]
    row_means = [math.fsum(rows[i]) / k for i in range(n)]
    ssa = n * math.fsum((m - grand) ** 2 for m in col_means)
    ssb = k * math.fsum((m - grand) ** 2 for m in row_means)
    sst = math.fsum((rows[i][j] - grand) ** 2 for i in range(n) for j in range(k))
    return ssa, ssb, sst - ssa - ssb, sst


def build_two_condition_matrix(ss_treatment: float, ss_subjects: float,
                               ss_residual: float, n: int,
                               grand: float = 500.0) -> np.ndarray:
    """n-by-2 matrix hitting the requested sums of squares exactly.

    Row means carry the subject sum of squares, the mean condition difference
    carries the treatment sum of squares, and the spread of the differences
    around their mean carries the residual.
    """
    ramp = np.arange(1, n + 1) - (n + 1) / 2.0
    ramp_ss = float(ramp @ ramp)
    row_means = grand + math.sqrt(ss_subjects / (2.0 * ramp_ss)) * ramp
    diffs = math.sqrt(2.0 * ss_treatment / n) + math.sqrt(2.0 * ss_residual / ramp_ss) * ramp
    return np.column_stack([row_means + diffs / 2.0, row_means - diffs / 2.0])


@pytest.fixture()
def table1_matrix() -> np.ndarray:
    """23x2 dataset whose decomposition reproduces SSA=739, SSB=103984,
    SSR=12176 (SST=116399)."""
    return build_two_condition_matrix(739.0, 103984.0, 12176.0, n=23)


def load_report_schema() -> dict:
    resource = importlib.resources.files("rmbayes").joinpath("schemas/report-v1.schema.json")
    with resource.open(encoding="utf-8") as handle:
        return json.load(handle)


def assert_schema_valid(payload: dict) -> None:
    import jsonschema

    jsonschema.Draft202012Validator(load_report_schema()).validate(payload)
