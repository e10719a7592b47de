"""Command-line interface: Bayes factors from summary statistics, ANOVA on
CSV data, the Monte Carlo grid, and scanning text for reported F statistics.

This module alone turns the library's result dataclasses into the report-v1
JSON and the CSV files.

Exit codes: 0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from datetime import datetime, timezone
from importlib import import_module
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import click

from . import __version__
from .apa import parse_reports, infer_rm_design
from .bayes import (
    DesignSpec,
    Method,
    ModelChoice,
    SummaryStats,
    _check_prior,
    _chooses_h0,
    _saturating_exp,
    bf01_minimal_rm,
    delta_bic_nathoo,
)
from .errors import DomainError

if TYPE_CHECKING:
    from .simulate import FiveNumberSummary, GridReport

_SCHEMA_VERSION = 1


def _numpy_backed(name: str):
    """``rm_anova`` or ``run_grid``, bound as a module global on first use, which
    imports numpy. A value already bound there, such as a wrapper, is kept."""
    if name not in globals():
        module = import_module(".anova" if name == "rm_anova" else ".simulate", __package__)
        globals()[name] = getattr(module, name)
    return globals()[name]


def __getattr__(name: str):
    """``rmbayes.cli.rm_anova`` and ``rmbayes.cli.run_grid`` before first use."""
    if name in ("rm_anova", "run_grid"):
        return _numpy_backed(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _report_json(command: str, params: dict, payload: dict, seed: int | None = None) -> str:
    """A report-v1 document: the command's manifest plus ``payload``."""
    manifest = {
        "command": command,
        "artifact_version": __version__,
        "schema_version": _SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": params,
    }
    if seed is not None:
        manifest["seed"] = seed
    return json.dumps({"manifest": manifest, **payload}, indent=2, sort_keys=True)


def _report(command: str, params: dict, as_json: bool, payload: dict,
            lines: list[str]) -> None:
    """Echo the report-v1 document of ``payload``, or else the text ``lines``."""
    click.echo(_report_json(command, params, payload) if as_json else "\n".join(lines))


def _validation_exit(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _io_exit(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(3)


class UInt64(click.ParamType):
    """Unsigned 64-bit integer, accepted as decimal or 0x-prefixed hex."""

    name = "uint64"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            parsed = value
        else:
            try:
                parsed = int(str(value), 0)
            except ValueError:
                self.fail(f"{value!r} is not a decimal or 0x-hex integer", param, ctx)
        if not 0 <= parsed < 2 ** 64:
            self.fail(f"{value!r} does not fit in an unsigned 64-bit integer", param, ctx)
        return parsed


UINT64 = UInt64()


_METHOD_LABELS = {
    Method.MINIMAL_RM: "minimal BIC (repeated measures)",
    Method.NATHOO_MASSON: "Nathoo-Masson (sums of squares)",
}


def _render_evidence(result) -> list[str]:
    return [
        f"method      : {_METHOD_LABELS[result.method]}",
        f"BF01        : {_fmt(result.bf01)}",
        f"BF10        : {_fmt(result.bf10)}",
        f"dBIC10      : {_fmt(result.delta_bic10)}",
        f"p(H0 | y)   : {_fmt(result.posterior_h0)}",
        f"p(H1 | y)   : {_fmt(result.posterior_h1)}   (prior p(H0) = {result.prior_h0:g})",
    ]


@click.group()
@click.version_option(version=__version__, prog_name="rmbayes")
def main() -> None:
    """Bayes factors for repeated-measures ANOVA from minimal summary
    statistics."""


@main.command("bf")
@click.option("--f", "f_stat", type=float, required=True,
              help="Observed F statistic for the treatment effect.")
@click.option("--n", "n_subjects", type=int, required=True, help="Number of subjects.")
@click.option("--k", "k_conditions", type=int, required=True,
              help="Number of repeated-measures conditions.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_bf(f_stat: float, n_subjects: int, k_conditions: int, prior_h0: float,
           as_json: bool) -> None:
    """Bayes factor from F, n and k alone (minimal BIC method)."""
    try:
        design = DesignSpec(n=n_subjects, k=k_conditions)
        result = bf01_minimal_rm(f_stat, design, prior_h0=prior_h0)
    except DomainError as exc:
        _validation_exit(str(exc))
    _report("bf", {
        "f": f_stat, "n": n_subjects, "k": k_conditions, "prior_h0": prior_h0,
    }, as_json, {"evidence": vars(result)}, [
        f"F = {f_stat:g}, n = {n_subjects}, k = {k_conditions}", *_render_evidence(result),
    ])


@main.command("bf-ss")
@click.option("--sst", type=float, required=True, help="Total sum of squares.")
@click.option("--ssa", type=float, required=True, help="Treatment sum of squares.")
@click.option("--ssb", type=float, required=True, help="Subject sum of squares.")
@click.option("--n", "n_subjects", type=int, required=True, help="Number of subjects.")
@click.option("--k", "k_conditions", type=int, required=True,
              help="Number of repeated-measures conditions.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_bf_ss(sst: float, ssa: float, ssb: float, n_subjects: int, k_conditions: int,
              prior_h0: float, as_json: bool) -> None:
    """Bayes factor from sums of squares (Nathoo-Masson method)."""
    try:
        design = DesignSpec(n=n_subjects, k=k_conditions)
        stats = SummaryStats(ss_treatment=ssa, ss_subjects=ssb, ss_total=sst, design=design)
        result = delta_bic_nathoo(stats, prior_h0=prior_h0)
    except DomainError as exc:
        _validation_exit(str(exc))
    lines = [f"SST = {sst:g}, SSA = {ssa:g}, SSB = {ssb:g}, n = {n_subjects}, k = {k_conditions}",
             *_render_evidence(result)]
    if ssa == 0:
        lines.append("note: the treatment sum of squares is 0; the treatment explains nothing")
    _report("bf-ss", {
        "sst": sst, "ssa": ssa, "ssb": ssb,
        "n": n_subjects, "k": k_conditions, "prior_h0": prior_h0,
    }, as_json, {"evidence": vars(result)}, lines)


def _read_wide_csv(path: str) -> list[list[float]]:
    """Wide-format CSV: header row, one row per subject, k numeric columns.
    Content problems raise DomainError; OSError propagates to the caller."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
        except UnicodeDecodeError as exc:
            # exc.object is the chunk being decoded; it ends where the buffer stands
            offset = handle.buffer.tell() - len(exc.object) + exc.start
            raise DomainError(f"{path}: not valid UTF-8 at byte {offset} ({exc.reason})") from None
    if len(rows) < 3:
        raise DomainError("CSV needs a header row and at least 2 subject rows")
    width = len(rows[0])
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise DomainError(f"row {lineno} has {len(row)} cells, expected {width}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError:
            raise DomainError(f"row {lineno} contains a non-numeric cell") from None
    return data


def _render_anova_table(table) -> list[str]:
    ms_subjects = table.ss_subjects / table.df_subjects
    df_total = table.df_treatment + table.df_subjects + table.df_residual
    rows = [
        ("Source", "SS", "df", "MS", "F", "p"),
        ("Subjects", _fmt(table.ss_subjects), str(table.df_subjects), _fmt(ms_subjects), "", ""),
        ("Treatment", _fmt(table.ss_treatment), str(table.df_treatment),
         _fmt(table.ms_treatment), _fmt(table.f_stat), _fmt(table.p_value)),
        ("Residual", _fmt(table.ss_residual), str(table.df_residual),
         _fmt(table.ms_residual), "", ""),
        ("Total", _fmt(table.ss_total), str(df_total), "", "", ""),
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(6)]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[col].rjust(widths[col]) for col in range(1, 6)]
        lines.append("  ".join(cells).rstrip())
    return lines


@main.command("anova")
@click.argument("csv_path", type=click.Path(dir_okay=False))
@click.option("--bf", "with_bf", is_flag=True,
              help="Append Bayes factors from both methods.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_anova(csv_path: str, with_bf: bool, as_json: bool) -> None:
    """Repeated-measures ANOVA of a wide-format CSV (one row per subject)."""
    try:
        data = _read_wide_csv(csv_path)
    except OSError as exc:
        _io_exit(str(exc))
    except DomainError as exc:
        _validation_exit(str(exc))
    try:
        table = _numpy_backed("rm_anova")(data)
        design = DesignSpec(n=len(data), k=len(data[0]))
        evidence = []
        if with_bf:
            evidence = [
                bf01_minimal_rm(table.f_stat, design),
                delta_bic_nathoo(SummaryStats(
                    ss_treatment=table.ss_treatment,
                    ss_subjects=table.ss_subjects,
                    ss_total=table.ss_total,
                    design=design,
                )),
            ]
    except DomainError as exc:
        _validation_exit(str(exc))
    lines = [f"n = {design.n} subjects, k = {design.k} conditions", *_render_anova_table(table)]
    for result in evidence:
        lines += ["", *_render_evidence(result)]
    _report("anova", {"csv_path": csv_path, "bf": with_bf}, as_json, {
        "design": {"n": design.n, "k": design.k},
        "anova": vars(table),
        "evidence": ({result.method.value: vars(result) for result in evidence}
                     if with_bf else None),
    }, lines)


def _parse_number_list(raw: str, cast, label: str) -> tuple:
    try:
        values = tuple(cast(item.strip()) for item in raw.split(",") if item.strip())
    except ValueError:
        raise DomainError(f"could not parse {label} list {raw!r}") from None
    if not values:
        raise DomainError(f"{label} list is empty")
    return values


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _grid_json(report: GridReport) -> dict:
    """The report-v1 ``grid`` and ``cells`` members of a simulation report."""
    def quantiles(q: FiveNumberSummary) -> dict:
        return {"min": q.minimum, "q1": q.q1, "median": q.median, "q3": q.q3,
                "max": q.maximum}

    grid = {name: value for name, value in vars(report).items() if name != "cells"}
    cells = [{
        "cell_id": cell.cell_id, "n": cell.config.n, "k": cell.config.k,
        "rho": cell.config.rho, "delta": cell.config.delta, "reps": cell.config.reps,
        "accuracy_min": cell.accuracy_min, "accuracy_nm": cell.accuracy_nm,
        "consistency": cell.consistency,
        "posterior_correlation": cell.posterior_correlation,
        "posterior_quantiles_min": quantiles(cell.posterior_quantiles_min),
        "posterior_quantiles_nm": quantiles(cell.posterior_quantiles_nm),
    } for cell in report.cells]
    return {"grid": grid, "cells": cells}


def _write_grid_outputs(report: GridReport, out_dir: str, params: dict, seed: int,
                        emit_per_rep: bool) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def target(name: str) -> str:
        written.append(name)
        return os.path.join(out_dir, name)

    grid = _grid_json(report)
    with open(target("grid_report.json"), "w", encoding="utf-8") as handle:
        handle.write(_report_json("simulate", params, grid, seed=seed) + "\n")

    # each summary table lists, per record, the values of its columns; csv writes None as ""
    key = ["delta", "rho", "n"]
    cells = grid["cells"]
    boxplot_records = [{**cell, "method": method, **cell[f"posterior_quantiles_{suffix}"]}
                       for cell in cells
                       for method, suffix in (("minimal_rm", "min"), ("nathoo_masson", "nm"))]
    for name, columns, records in (
            ("table2.csv", ["accuracy_min", "accuracy_nm"], cells),
            ("table3.csv", ["consistency"], cells),
            ("table4.csv", ["posterior_correlation"], cells),
            ("boxplot_data.csv", ["method", "min", "q1", "median", "q3", "max"], boxplot_records)):
        header = key + columns
        _write_csv(target(name), header, [[record[column] for column in header]
                                          for record in records])

    scatter_rows = []
    for cell in report.cells:
        # the cell's columns, formatted once for all of its rows
        head = [cell.cell_id, cell.config.delta, cell.config.rho, cell.config.n]
        scatter_rows.extend(
            head + [rep, posterior_min, posterior_nm]
            for rep, (posterior_min, posterior_nm) in enumerate(zip(
                cell.series.posterior_min.tolist(), cell.series.posterior_nm.tolist())))
    _write_csv(target("scatter_data.csv"),
               ["cell_id"] + key + ["rep", "posterior_min", "posterior_nm"], scatter_rows)

    if emit_per_rep:
        choice = {True: ModelChoice.H0.value, False: ModelChoice.H1.value}
        per_rep_rows = []
        for cell in report.cells:
            cell_id, series = cell.cell_id, cell.series
            columns = zip(series.f_stat.tolist(), series.log_bf01_min.tolist(),
                          series.log_bf01_nm.tolist(), series.posterior_min.tolist(),
                          series.posterior_nm.tolist())
            per_rep_rows.extend(
                [cell_id, rep, f_stat, _saturating_exp(log_min)[0],
                 _saturating_exp(log_nm)[0], posterior_min, posterior_nm,
                 choice[_chooses_h0(log_min)], choice[_chooses_h0(log_nm)]]
                for rep, (f_stat, log_min, log_nm, posterior_min, posterior_nm)
                in enumerate(columns))
        _write_csv(target("per_rep.csv"),
                   ["cell_id", "rep", "f_stat", "bf01_min", "bf01_nm",
                    "posterior_min", "posterior_nm", "choice_min", "choice_nm"],
                   per_rep_rows)
    return written


@main.command("simulate")
@click.option("--n", "n_list", default="20,50,80", show_default=True,
              help="Comma-separated subject counts.")
@click.option("--rho", "rho_list", default="0.2,0.8", show_default=True,
              help="Comma-separated intraclass correlations.")
@click.option("--delta", "delta_list", default="0,0.2,0.5", show_default=True,
              help="Comma-separated effect sizes.")
@click.option("--k", type=int, default=3, show_default=True,
              help="Number of repeated-measures conditions.")
@click.option("--reps", type=int, default=1000, show_default=True,
              help="Replications per cell.")
@click.option("--seed", type=UINT64, default=0, show_default=True,
              help="Master seed (decimal or 0x-hex).")
@click.option("--spacing", type=click.Choice(["uniform", "equal"]), default="uniform",
              show_default=True,
              help="Placement of interior condition means: redrawn uniformly per "
                   "replication, or fixed equally spaced.")
@click.option("--out-dir", envvar="RMBAYES_OUT_DIR", default=".", show_default=True,
              help="Output directory (environment variable RMBAYES_OUT_DIR overrides "
                   "the default).")
@click.option("--emit-per-rep", is_flag=True,
              help="Also write per_rep.csv with one row per replication.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Worker processes for cells (results are identical at any count).")
def cmd_simulate(n_list: str, rho_list: str, delta_list: str, k: int, reps: int,
                 seed: int, spacing: str, out_dir: str, emit_per_rep: bool,
                 workers: int) -> None:
    """Run the Monte Carlo grid comparing both Bayes factor methods."""
    try:
        n_values = _parse_number_list(n_list, int, "subject-count")
        rho_values = _parse_number_list(rho_list, float, "correlation")
        delta_values = _parse_number_list(delta_list, float, "effect-size")
        report = _numpy_backed("run_grid")(n_values, rho_values, delta_values, k=k,
                                           reps=reps, master_seed=seed, spacing=spacing,
                                           workers=workers)
    except DomainError as exc:
        _validation_exit(str(exc))
    params = {
        "n_values": list(n_values), "rho_values": list(rho_values),
        "delta_values": list(delta_values), "k": k, "reps": reps,
        "spacing": spacing, "out_dir": out_dir, "emit_per_rep": emit_per_rep,
        "workers": workers,
    }
    try:
        written = _write_grid_outputs(report, out_dir, params, seed, emit_per_rep)
    except OSError as exc:
        _io_exit(str(exc))
    click.echo(f"wrote {', '.join(written)} in {out_dir}")
    click.echo("")
    header = f"{'cell':<32}{'acc_min':>8}{'acc_nm':>8}{'consist':>9}{'corr':>7}"
    click.echo(header)
    for cell in report.cells:
        label = (f"delta={cell.config.delta:g} rho={cell.config.rho:g} "
                 f"n={cell.config.n}")
        corr = "n/a" if cell.posterior_correlation is None else _fmt(cell.posterior_correlation)
        click.echo(f"{label:<32}{_fmt(cell.accuracy_min):>8}{_fmt(cell.accuracy_nm):>8}"
                   f"{_fmt(cell.consistency):>9}{corr:>7}")


def _describe_stat(stat) -> str:
    relation = "<" if stat.f_is_upper_bound else "="
    return f"F({stat.df1:g}, {stat.df2:g}) {relation} {stat.f_value:g}"


def _json_float(value: float) -> str:
    """``value`` as ``json`` writes a float."""
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


# The report-v1 ``reports`` entry of ``parse --json``, keys in sorted order
_REPORT_KEYS = ("design", "df1", "df2", "error", "evidence", "f_is_upper_bound", "f_value",
                "p_is_upper_bound", "p_reported", "span")
_EVIDENCE_KEYS = ("bf01", "bf10", "delta_bic10", "log_bf01", "method", "posterior_h0",
                  "posterior_h1", "prior_h0", "saturated")
_REPORT_ENTRY = "    {\n" + ",\n".join(f'      "{k}": %s' for k in _REPORT_KEYS) + "\n    }"
_REPORT_EVIDENCE = "{\n" + ",\n".join(f'        "{k}": %s' for k in _EVIDENCE_KEYS) + "\n      }"
_REPORT_DESIGN = '{\n        "k": %d,\n        "n": %d\n      }'
_REPORT_SPAN = "[\n        %d,\n        %d\n      ]"
_JSON_BOOL = {False: "false", True: "true"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_REPORT_BATCH = 1000  # entries per write: bounded memory, few flushes


def _report_entry_json(stat, design, evidence, error) -> str:
    """One ``reports`` entry, ``vars(stat)`` plus the design, evidence and error,
    in the bytes ``json.dumps(indent=2, sort_keys=True)`` of the report has."""
    f = _json_float
    evidence_json = "null" if evidence is None else _REPORT_EVIDENCE % (
        f(evidence.bf01), f(evidence.bf10), f(evidence.delta_bic10), f(evidence.log_bf01),
        encode_basestring_ascii(evidence.method), f(evidence.posterior_h0),
        f(evidence.posterior_h1), f(evidence.prior_h0), _JSON_BOOL[evidence.saturated])
    return _REPORT_ENTRY % (
        "null" if design is None else _REPORT_DESIGN % (design.k, design.n),
        f(stat.df1), f(stat.df2),
        "null" if error is None else encode_basestring_ascii(error),
        evidence_json, _JSON_BOOL[stat.f_is_upper_bound], f(stat.f_value),
        _JSON_BOOL[stat.p_is_upper_bound],
        "null" if stat.p_reported is None else f(stat.p_reported), _REPORT_SPAN % stat.span)


@main.command("parse")
@click.argument("text_path", required=False, type=click.Path(dir_okay=False, allow_dash=True))
@click.option("--assume-rm/--no-assume-rm", default=True, show_default=True,
              help="Invert df1/df2 into (n, k) for a one-factor repeated-measures design.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_parse(text_path: str | None, assume_rm: bool, prior_h0: float,
              as_json: bool) -> None:
    """Scan text for reported F statistics and estimate Bayes factors.

    Reads TEXT_PATH, or standard input when the path is omitted or '-'.
    """
    try:
        _check_prior(prior_h0)
    except DomainError as exc:
        _validation_exit(str(exc))
    try:
        if text_path in (None, "-"):
            text = click.get_text_stream("stdin").read()
        else:
            with open(text_path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        _io_exit(str(exc))
    except UnicodeDecodeError as exc:
        # read() decodes the whole input at once, so exc.start is its byte offset
        _validation_exit(f"{text_path or '-'}: not valid UTF-8 at byte {exc.start} ({exc.reason})")
    stats = parse_reports(text)

    evaluated = []
    for stat in stats:
        design = evidence = error = None
        if assume_rm:
            try:
                design = infer_rm_design(stat)
                evidence = bf01_minimal_rm(stat.f_value, design, prior_h0=prior_h0)
            except DomainError as exc:
                design, error = None, str(exc)
        evaluated.append((stat, design, evidence, error))

    if as_json:
        head = _report_json("parse", {
            "text_path": text_path or "-", "assume_rm": assume_rm, "prior_h0": prior_h0,
        }, {"reports": []})
        lead = head[:-len("[]\n}")] + "[\n"  # "reports" is the last key
        for start in range(0, len(evaluated), _REPORT_BATCH):
            batch = evaluated[start:start + _REPORT_BATCH]
            click.echo(lead + ",\n".join(_report_entry_json(*row) for row in batch), nl=False)
            lead = ",\n"
        click.echo("\n  ]\n}" if evaluated else head)
        return
    if not evaluated:
        click.echo("no F reports found")
        return
    for stat, design, evidence, error in evaluated:
        left = _describe_stat(stat)
        if evidence is not None:
            bound = ">=" if stat.f_is_upper_bound else "="
            note = "  (lower bound: F reported as an upper bound)" if stat.f_is_upper_bound else ""
            click.echo(f"{left:<28} n={design.n}  k={design.k}  "
                       f"BF01 {bound} {_fmt(evidence.bf01)}  "
                       f"p(H0|y) = {_fmt(evidence.posterior_h0)}{note}")
        elif error is not None:
            click.echo(f"{left:<28} not inferable: {error}")
        else:
            click.echo(left)


if __name__ == "__main__":
    main()
