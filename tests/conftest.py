"""Shared test helpers: independent ANOVA oracle, the reference F-report
scanner, the reference simulation sampler, matrix constructors, and JSON
schema loading."""

from __future__ import annotations

import csv
import errno
import importlib.resources
import json
import math
import operator
import os
import re
import subprocess
import sys
import threading
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import rmbayes
from rmbayes.apa import ReportedStat
from rmbayes.errors import DomainError
from rmbayes.simulate import _MASK64, _PROFILE_STREAM_TAG, _cell_seed, _splitmix64

SRC = str(Path(rmbayes.__file__).resolve().parents[1])


def fresh_env(**changes: str | None) -> dict[str, str]:
    """This process's environment for a new interpreter that imports this
    package's source: SRC first on PYTHONPATH, then ``changes``, where None
    removes a variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])), **changes}
    return {name: value for name, value in env.items() if value is not None}


def fresh_python(code: str, args=(), stdin: str = "", timeout: float | None = None) -> str:
    """The last stdout line of ``code`` run in a new interpreter that imports
    this package's source, so nothing is loaded beforehand; past ``timeout``
    seconds the interpreter is killed and TimeoutExpired raised."""
    out = subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=fresh_env(),
                         capture_output=True, text=True, check=True, timeout=timeout).stdout
    return out.splitlines()[-1]


def decimal_log_bf01_between(f: float, df1: int, df2: int, n_obs: int) -> float:
    """[df1 ln N - N ln(1 + F df1/df2)] / 2 in 50-digit decimal arithmetic, where
    the float product F df1 would overflow."""
    with localcontext() as ctx:
        ctx.prec = 50
        f, df1, df2, n_obs = map(Decimal, (f, df1, df2, n_obs))
        return float((df1 * n_obs.ln() - n_obs * (1 + f * df1 / df2).ln()) / 2)


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


def reference_read_wide_csv(path) -> list[list[float]]:
    """The CLI's wide-CSV reader written row by row with ``csv`` and ``float``:
    the reference its numpy-backed reader must match value for value and error
    for error. Blank rows are skipped and errors name the file line."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        limit = csv.field_size_limit(sys.maxsize)  # a cell of any length, as loadtxt reads
        try:
            rows = [(reader.line_num, row) for row in reader
                    if any(cell.strip() for cell in row)]
        except UnicodeDecodeError as exc:
            # exc.object is the chunk being decoded; it ends where the buffer stands
            offset = handle.buffer.tell() - len(exc.object) + exc.start
            raise DomainError(f"{path}: not valid UTF-8 at byte {offset} ({exc.reason})") from None
        finally:
            csv.field_size_limit(limit)
    if len(rows) < 3:
        raise DomainError("CSV needs a header row and at least 2 subject rows")
    width = len(rows[0][1])
    data = []
    for line, row in rows[1:]:
        if len(row) != width:
            raise DomainError(f"line {line} has {len(row)} cells, expected {width}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError:
            raise DomainError(f"line {line} contains a non-numeric cell") from None
    return data


# The scanner as first written, starting at the class [Ff], frozen as the reference
# that parse_reports, which starts its search at the literal "(", must equal
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_F_REPORT = re.compile(
    rf"[Ff]\s*\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)\s*([=<])\s*({_NUMBER})"
    rf"(?:\s*,\s*[pP]\s*([=<])\s*({_NUMBER}))?"
)
_HALF_READ = re.compile(r"[eE]\S?\d|,\d")


def reference_parse_reports(text: str) -> list[ReportedStat]:
    """``parse_reports`` as one regex search from the leading ``[Ff]``."""
    text = text.replace("\u2212", "-")
    reports = []
    for match in _F_REPORT.finditer(text):
        if _HALF_READ.match(text, match.end()):
            continue
        df1 = float(match.group(1))
        df2 = float(match.group(2))
        if df1 < 1.0 or df2 < 1.0:
            continue
        f_value = float(match.group(4))
        p_value = None
        p_is_upper = False
        if match.group(6) is not None:
            candidate = float(match.group(6))
            if 0.0 <= candidate <= 1.0:
                p_value = candidate
                p_is_upper = match.group(5) == "<"
        reports.append(ReportedStat(
            f_value=f_value,
            df1=df1,
            df2=df2,
            p_reported=p_value,
            f_is_upper_bound=match.group(3) == "<",
            p_is_upper_bound=p_is_upper,
            span=match.span(),
        ))
    return reports


# The simulation's sampler as first written, one replication at a time through
# np.random.default_rng, frozen as the reference that generate_dataset, drawn by
# run_cell's block sampler, must equal bit for bit. It takes only the seed fold
# (_cell_seed, _splitmix64) from the package.
def reference_make_profile(config) -> tuple[float, ...]:
    """``make_profile`` as first written: one Python float per condition."""
    k, delta = config.k, config.delta
    return tuple(delta * (j / (k - 1) - 0.5) for j in range(k))


def reference_rep_seed(config, rep_index: int) -> int:
    """Substream seed for one replication: a splitmix64 fold of the master
    seed, the cell parameters and the replication index."""
    try:
        index = None if isinstance(rep_index, bool) else operator.index(rep_index)
    except TypeError:
        index = None
    if index is None or index < 0:
        raise DomainError(f"rep_index must be a nonnegative integer, got {rep_index!r}")
    return _splitmix64(_cell_seed(config) ^ (index & _MASK64))


def reference_rep_profile(config, rep_index: int) -> tuple[float, ...]:
    """Profile used for one replication under the configured spacing."""
    if not (config.spacing == "uniform" and config.k > 2 and config.delta != 0.0):
        return reference_make_profile(config)
    rng = np.random.default_rng(
        _splitmix64(reference_rep_seed(config, rep_index) ^ _PROFILE_STREAM_TAG))
    interior = np.sort(rng.uniform(size=config.k - 2))
    relative = np.concatenate(([0.0], interior, [1.0]))
    means = config.delta * relative
    return tuple((means - means.mean()).tolist())


def reference_dataset(config, rep_index: int) -> np.ndarray:
    """Replication ``rep_index``'s n-by-k dataset: the replication's substream
    first yields the n subject effects, then the n*k noise matrix."""
    alphas = np.asarray(reference_rep_profile(config, rep_index))
    rng = np.random.default_rng(reference_rep_seed(config, rep_index))
    subject = rng.normal(0.0, math.sqrt(config.rho), config.n)
    noise = rng.normal(0.0, math.sqrt(1.0 - config.rho), (config.n, config.k))
    return alphas + subject[:, None] + noise


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


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children ``os.fork`` makes from now on, as a list."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def fake_cpus(monkeypatch, cpus: int) -> None:
    """Make ``cpus`` CPUs usable by this process, as ``os.sched_getaffinity`` reports."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def refuse(monkeypatch, name: str) -> None:
    """Make ``os.<name>`` fail with EAGAIN, as when the process or fd limits are reached."""
    def refused(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(os, name, refused)


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def assert_nothing_left(fds: set[str]) -> None:
    """No child is left to reap and only the fds in ``fds`` are open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture()
def running_thread():
    """A second Python thread, blocked until the test ends."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    yield thread
    release.set()
    thread.join()


def load_report_schema() -> dict:
    resource = importlib.resources.files("rmbayes").joinpath("schemas/report-v1.schema.json")
    with resource.open(encoding="utf-8") as handle:
        return json.load(handle)


def assert_schema_valid(payload: dict) -> None:
    import jsonschema

    jsonschema.Draft202012Validator(load_report_schema()).validate(payload)
