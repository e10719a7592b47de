"""rmbayes benchmark: drives the real CLI of the working tree's ``src/``.

Run from the repository root:

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one ``python -m rmbayes.cli``
process at a time, each started only after the previous one exited, for
``--seconds`` seconds.  ``--trace 0`` reports the end-to-end metrics of
those untraced runs.  ``--trace 1`` instead runs the same command in-process,
alternating untraced and traced runs (spans at each module boundary, see
tracing.py), and reports the per-layer metrics plus the tracing overhead.
``--workload all`` runs every workload in turn.

Every run's output is checked by an oracle that does not import the
package.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the run's details.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path.cwd()
WORK_ROOT = ROOT / ".perfbench-work"
# setup_s is the median of fresh ``--version`` processes, one after each
# workload run so that they spread over the same stretch of host time as
# the workload; a run with fewer workload runs than this tops them up.  The
# fastest sample is no steadier: host speed shifts move it further than
# the median (see README.md).
MIN_SETUP_SAMPLES = 12
IMPORTTIME_REPEATS = 3
# A CLI process still running after this long counts as failed.
RUN_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_cli(argv: list[str], workdir: str, stdout_path: str = os.devnull,
            python_args: tuple[str, ...] = ("-m", "rmbayes.cli")) -> Sample:
    """One ``python -m rmbayes.cli`` process; wall time from start to exit,
    CPU time and peak RSS from ``os.wait4``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    err_path = os.path.join(workdir, "stderr.txt")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args, *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=workdir)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -1
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = -1 if code is None else code  # reaped above
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        reason = "timed out" if code is None else f"exited {code}"
        print(f"run {' '.join(argv[:1])} {reason}:\n{tail}", file=sys.stderr)
    return Sample(ok=code == 0, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0)


def setup_sample(workdir: str) -> float:
    """Wall time of a fresh ``rmbayes --version``: the import cost every CLI
    call pays."""
    sample = run_cli(["--version"], workdir)
    if not sample.ok:
        raise BenchError("rmbayes --version failed")
    return sample.wall_s


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(prepared: workloads.Prepared, workdir: str, seconds: float) -> dict:
    """Untraced closed loop: end-to-end metrics."""
    setup_sample(workdir)  # untimed: compiles the bytecode
    tally = oracle.Tally()
    samples: list[Sample] = []
    setups: list[float] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() + samples[-1].wall_s + setups[-1] < deadline:
        prepared.reset_outputs()
        sample = run_cli(prepared.argv, workdir, prepared.stdout_path)
        attempted += 1
        tally.add(prepared.check())
        setups.append(setup_sample(workdir))
        if sample.ok:
            samples.append(sample)
        elif attempted >= 3 and not samples:
            break
    if not samples:
        raise BenchError(f"every {prepared.name} run failed")
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(workdir))
    walls = [s.wall_s for s in samples]
    wall_s = statistics.median(walls)
    metrics = {
        "items_per_s": prepared.items / wall_s,
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "ok_ratio": tally.ok_ratio,
    }
    detail = {
        "samples": len(samples),
        "setup_samples": len(setups),
        "setup_s_quartiles": quartiles(setups),
        "wall_s_quartiles": quartiles(walls),
        "wall_s_samples": walls,
        "cpu_s_median": statistics.median(s.cpu_s for s in samples),
        "error_rate": (attempted - len(samples)) / attempted,
    }
    return _result(tally, attempted, attempted - len(samples), metrics, detail)


def import_metrics(workdir: str) -> dict:
    """From ``-X importtime``: the cumulative import time of rmbayes.cli and
    of numpy, and the number of modules rmbayes.cli's import loaded."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        err_path = os.path.join(workdir, "stderr.txt")
        sample = run_cli([], workdir, python_args=("-X", "importtime", "-c", "import rmbayes.cli"))
        if not sample.ok:
            raise BenchError("import rmbayes.cli failed")
        with open(err_path, encoding="utf-8") as handle:
            runs.append(_parse_importtime(handle.read()))
    return tracing.median_metrics(runs)


def _parse_importtime(text: str) -> dict:
    entries = []  # (depth, name, cumulative_us) in the order printed
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # children are printed before their parent, so rmbayes.cli's subtree is
    # the run of entries since the previous top-level one
    cli_ms, modules, first = 0.0, 0, 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if depth == 0:
            if name == "rmbayes.cli":
                cli_ms, modules = cumulative / 1000.0, i + 1 - first
            first = i + 1
    numpy_ms = next((c / 1000.0 for _, name, c in entries if name == "numpy"), 0.0)
    return {"import.rmbayes_cli_ms": cli_ms, "import.numpy_ms": numpy_ms,
            "import.modules": modules}


def _in_process(cli, prepared: workloads.Prepared, tracer: tracing.Tracer | None):
    """Run the command through click in this process; returns (ok, wall, cpu)."""
    prepared.reset_outputs()
    command = cli.main.main
    if tracer is not None:
        command = tracer.wrap(tracing.CLI_SPAN, command)
    ok = True
    with open(prepared.stdout_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            command(args=list(prepared.argv), prog_name="rmbayes", standalone_mode=False)
        except SystemExit as exc:
            ok = exc.code in (0, None)
        except Exception:  # the harness reports a crashing command as a failed run
            traceback.print_exc()
            ok = False
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    return ok, wall, cpu


def traced(prepared: workloads.Prepared, workdir: str, seconds: float) -> dict:
    """In-process runs, alternately untraced and traced: per-layer metrics."""
    imports = import_metrics(workdir)
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("rmbayes.cli")
    tally = oracle.Tally()
    attempted = failed = 0
    untraced_walls, traced_walls, runs = [], [], []
    _in_process(cli, prepared, None)  # untimed: first-call allocations and caches
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() + untraced_walls[-1] + traced_walls[-1] < deadline:
        ok, wall, _ = _in_process(cli, prepared, None)
        tally.add(prepared.check())
        attempted, failed = attempted + 1, failed + (not ok)
        untraced_walls.append(wall)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            ok, wall, cpu = _in_process(cli, prepared, tracer)
        run_tally = prepared.check()
        tally.add(run_tally)
        attempted, failed = attempted + 1, failed + (not ok)
        metrics = tracing.layer_metrics(tracer.spans, run_tally, prepared.bytes_out())
        metrics["proc.cpu_s"] = cpu
        runs.append(metrics)
        traced_walls.append(wall)
        del tracer
        if failed == attempted:
            break
    metrics = {**imports, **tracing.median_metrics(runs)}
    # diagnostic only: where few functions are traced the true overhead is
    # near zero and host noise decides the sign, so the difference is
    # clamped at 0 and the ratio is the figure to read
    traced_wall, untraced_wall = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["proc.trace_overhead_s"] = max(0.0, traced_wall - untraced_wall)
    metrics["proc.trace_overhead_ratio"] = traced_wall / untraced_wall
    detail = {
        "traced_runs": len(runs),
        "traced_wall_s_median": traced_wall,
        "untraced_wall_s_median": untraced_wall,
    }
    return _result(tally, attempted, failed, metrics, detail)


def _result(tally, attempted, failed, metrics, detail) -> dict:
    detail.update(failures=tally.failures[:5], mismatched=tally.mismatched,
                  p_abs_err=tally.p_abs_err)
    return {"correct": tally.correct and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def environment(repeats_note: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "repeats": repeats_note,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        started = time.perf_counter()
        prepared = workloads.WORKLOADS[name](seed, workdir)
        prepare_s = time.perf_counter() - started
        print(f"{name}: inputs ready in {prepare_s:.2f} s", file=sys.stderr)
        result = (traced if trace else measure)(prepared, workdir, seconds)
        result["detail"]["prepare_s"] = prepare_s
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops and reaps the CLI process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rmbayes" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/rmbayes/cli.py; run from the repository root",
              file=sys.stderr)
        return 2
    units = _units("per_layer" if args.trace else "end_to_end")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    load_before = os.getloadavg()
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "workloads": {name: {"detail": r["detail"], "metrics": r["metrics"]}
                      for name, r in results.items()},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment("median over the runs that fit in --seconds, "
                                   "setup_s over one --version run after each "
                                   f"(at least {MIN_SETUP_SAMPLES})"),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    print(json.dumps(record, sort_keys=True))
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}" if prefix else key:
                    {"value": r["metrics"][key], "unit": unit}
                    for name, r in results.items() for key, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


def _units(kind: str) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


if __name__ == "__main__":
    sys.exit(main())
