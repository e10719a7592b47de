"""In-process traced run: spans around each module's public functions.

Spans are recorded at the point where callers look the functions up (for
example ``rmbayes.simulate.rm_anova`` and ``rmbayes.anova.f_cdf``), kept in
memory as (name, start, end, parent, result, raised) and turned into the
per-layer metrics after the run.  A name missing from a module (after a
refactor, say) is skipped, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import oracle

# module -> names its functions look up at call time
TRACE_POINTS = {
    "rmbayes.cli": ("run_grid", "rm_anova", "parse_reports", "infer_rm_design",
                    "bf01_minimal_rm", "delta_bic_nathoo"),
    "rmbayes.simulate": ("run_cell", "generate_dataset", "rm_anova",
                         "bf01_minimal_rm", "delta_bic_nathoo"),
    "rmbayes.anova": ("f_cdf",),
}
CLI_SPAN = "cli.main"
BAYES_ROUTES = ("bayes.bf01_minimal_rm", "bayes.delta_bic_nathoo")
TIMED_PER_CALL = ("simulate.generate_dataset", "anova.rm_anova", "anova.f_cdf", *BAYES_ROUTES)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, raised = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, result, raised)

        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every trace point with a traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, names in TRACE_POINTS.items():
            module = sys.modules[module_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(module, attr, tracer.wrap(span, fn))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def layer_metrics(spans: list, tally: oracle.Tally, bytes_out: int) -> dict:
    """Per-layer figures of one traced command run (``cpu_s`` and the
    overhead are added by the caller)."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for name, start, end, parent, _, raised in spans:
        calls[name] += 1
        busy[name] += end - start
        errors[name] += raised
        if parent >= 0:
            child_time[parent] += end - start

    def self_s(name: str) -> float:
        return sum((end - start - child_time[i]
                    for i, (span, start, end, *_rest) in enumerate(spans) if span == name), 0.0)

    metrics = {"simulate.run_cell.self_s": self_s("simulate.run_cell")}
    for name in TIMED_PER_CALL:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.us_per_call"] = 1e6 * busy[name] / calls[name] if calls[name] else 0.0
    tables = [s[4] for s in spans if s[0] == "anova.rm_anova" and s[4] is not None]
    metrics["anova.p_abs_err"] = _p_abs_err(tables)
    metrics["bayes.saturated"] = sum(1 for s in spans
                                     if s[0] in BAYES_ROUTES and s[4] is not None and s[4].saturated)
    metrics["apa.parse_reports.s"] = busy["apa.parse_reports"]
    metrics["apa.reports_found"] = sum(len(s[4]) for s in spans
                                       if s[0] == "apa.parse_reports" and s[4] is not None)
    metrics["apa.mismatched"] = tally.mismatched
    metrics["apa.infer_rm_design.calls"] = calls["apa.infer_rm_design"]
    metrics["apa.infer_rm_design.errors"] = errors["apa.infer_rm_design"]
    metrics["cli.self_s"] = self_s(CLI_SPAN)
    metrics["cli.bytes_out"] = bytes_out
    return metrics


def _p_abs_err(tables: list) -> float:
    """Largest |p - scipy| over every ANOVA the run computed."""
    if not tables:
        return 0.0
    f_stat = np.array([t.f_stat for t in tables])
    p_value = np.array([t.p_value for t in tables])
    df1 = np.array([t.df_treatment for t in tables])
    df2 = np.array([t.df_residual for t in tables])
    return float(np.max(np.abs(p_value - oracle.f_sf(f_stat, df1, df2))))


def median_metrics(runs: list[dict]) -> dict:
    """Per-key median over runs; counts stay whole numbers."""
    merged = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        exact = all(isinstance(v, int) for v in values)
        merged[key] = (statistics.median_low if exact else statistics.median)(values)
    return merged
