"""Command-line interface: Bayes factors from summary statistics, ANOVA on
CSV data, the Monte Carlo grid, and scanning text for reported F statistics.

This module alone turns the library's result dataclasses into the report-v1
JSON and the CSV files. A report object's members are its dataclass's fields under
their own names, by ``_members`` (a cell adds its config's ``cell_id`` and leaves out
``master_seed``, ``spacing`` and ``series``), which tests/test_cli.py ties to the schema.
``simulate``'s files are each a name and its lines, written in order by one loop.

Exit codes, set by ``_Main`` alone: 0 success, 2 validation failure, 3 I/O failure;
the process leaves by ``run`` alone.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import re
import stat
import sys
from contextlib import closing, suppress
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import click

# rm_anova and run_grid import numpy: cmd_anova and cmd_simulate look them up on this
# module, which finds a wrapper bound here (perfbench's trace points) or else falls
# through to the package's lazy __getattr__, bound as this module's own
from . import __getattr__, __version__
from .apa import ReportedStat, _rm_design, _scan
# unused here: perfbench's trace points patch them as rmbayes.cli globals (ROADMAP item 3)
from .apa import infer_rm_design, parse_reports
from .bayes import (
    DesignSpec,
    EvidenceResult,
    Method,
    ModelChoice,
    SummaryStats,
    _check_f,
    _check_prior,
    _chooses_h0,
    _evidence,
    _log_bf01_minimal_rm,
    _saturating_exp,
    bf01_minimal_rm,
    delta_bic_nathoo,
)
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np
    from .simulate import GridReport

_SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    """``value`` to 3 decimals, or by ``.3e`` from a magnitude of 1e6 up."""
    return f"{value:.3e}" if abs(value) >= 1e6 else f"{value:.3f}"


def _fmt_bf(value: float, saturated: bool) -> str:
    """A Bayes factor by ``_fmt``, and by ``.3e`` below 0.001 unless it is 0 (underflowed);
    a clamped one prints as ``1.798e+308 (saturated)``."""
    text = f"{value:.3e}" if 0 < value < 0.001 else _fmt(value)
    return f"{text} (saturated)" if saturated and value == sys.float_info.max else text


def _report_json(payload: dict) -> str:
    """A report-v1 document: the running command's manifest plus ``payload``. The
    manifest's params are the command's parsed parameters, ``as_json`` aside, under
    their click names; a ``seed`` parameter is the manifest's own member."""
    ctx = click.get_current_context()
    params = {name: value for name, value in ctx.params.items() if name != "as_json"}
    manifest = {
        "command": ctx.info_name,
        "artifact_version": __version__,
        "schema_version": _SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "params": params,
    }
    if "seed" in params:
        manifest["seed"] = params.pop("seed")
    return json.dumps({"manifest": manifest, **payload}, indent=2, sort_keys=True)


def _members(result, *left_out: str) -> dict:
    """The fields of the dataclass ``result``, but ``left_out``, as report-v1 members:
    in field order, under their own names, a nested dataclass as an object."""
    return {name: _members(value) if is_dataclass(value) else value
            for name, value in vars(result).items() if name not in left_out}


def _report(as_json: bool, payload: dict, lines: list[str]) -> None:
    """Echo the report-v1 document of ``payload``, or else the text ``lines``."""
    click.echo(_report_json(payload) if as_json else "\n".join(lines))


_METHOD_LABELS = {
    Method.MINIMAL_RM: "minimal BIC (repeated measures)",
    Method.NATHOO_MASSON: "Nathoo-Masson (sums of squares)",
}


def _render_evidence(result) -> list[str]:
    return [
        f"method      : {_METHOD_LABELS[result.method]}",
        f"BF01        : {_fmt_bf(result.bf01, result.saturated)}",
        f"BF10        : {_fmt_bf(result.bf10, result.saturated)}",
        f"dBIC10      : {_fmt(result.delta_bic10)}",
        f"p(H0 | y)   : {_fmt(result.posterior_h0)}",
        f"p(H1 | y)   : {_fmt(result.posterior_h1)}   (prior p(H0) = {result.prior_h0:g})",
    ]


class _Main(click.Group):
    """The command group, and the one place where an error becomes an exit code:
    a DomainError exits 2 and an OSError 3, each after one ``error:`` line on
    stderr; a closed stdout (``>&-``) is an OSError too. A closed pipe is left to
    click, which ends quietly with exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            result = super().invoke(ctx)
            # after the command, so that its own error, if any, is the one reported
            if sys.stdout is None:  # closed (>&-): click.echo dropped the report
                raise OSError(errno.EBADF, "stdout is closed")
            return result
        except BrokenPipeError:
            raise
        except (DomainError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, DomainError) else 3)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="rmbayes")
def main() -> None:
    """Bayes factors for repeated-measures ANOVA from minimal summary
    statistics."""
    # before numpy loads: no rmbayes computation calls BLAS, but OpenBLAS would
    # start an idle thread pool that spins CPU time, copied by every --workers fork
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


@main.command("bf")
@click.option("--f", type=float, required=True,
              help="Observed F statistic for the treatment effect.")
@click.option("--n", type=int, required=True, help="Number of subjects.")
@click.option("--k", type=int, required=True, help="Number of repeated-measures conditions.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_bf(f: float, n: int, k: int, prior_h0: float, as_json: bool) -> None:
    """Bayes factor from F, n and k alone (minimal BIC method)."""
    result = bf01_minimal_rm(f, DesignSpec(n=n, k=k), prior_h0=prior_h0)
    _report(as_json, {"evidence": _members(result)},
            [f"F = {f:g}, n = {n}, k = {k}", *_render_evidence(result)])


@main.command("bf-ss")
@click.option("--sst", type=float, required=True, help="Total sum of squares.")
@click.option("--ssa", type=float, required=True, help="Treatment sum of squares.")
@click.option("--ssb", type=float, required=True, help="Subject sum of squares.")
@click.option("--n", type=int, required=True, help="Number of subjects.")
@click.option("--k", type=int, required=True, help="Number of repeated-measures conditions.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_bf_ss(sst: float, ssa: float, ssb: float, n: int, k: int, prior_h0: float,
              as_json: bool) -> None:
    """Bayes factor from sums of squares (Nathoo-Masson method)."""
    design = DesignSpec(n=n, k=k)
    stats = SummaryStats(ss_treatment=ssa, ss_subjects=ssb, ss_total=sst, design=design)
    result = delta_bic_nathoo(stats, prior_h0=prior_h0)
    lines = [f"SST = {sst:g}, SSA = {ssa:g}, SSB = {ssb:g}, n = {n}, k = {k}",
             *_render_evidence(result)]
    if ssa == 0:
        lines.append("note: the treatment sum of squares is 0; the treatment explains nothing")
    _report(as_json, {"evidence": _members(result)}, lines)


def _read_text(path: str) -> str:
    """The whole of the file ``path``, or of standard input for ``-``, then closed, as
    UTF-8 text with universal newlines, whatever the locale. A byte that is not UTF-8 is
    a DomainError that names its offset in the file."""
    binary = click.get_binary_stream("stdin") if path == "-" else open(path, "rb")
    try:
        with io.TextIOWrapper(binary, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole input at once, so exc.start is its byte offset
        raise DomainError(f"{path}: not valid UTF-8 at byte {exc.start} ({exc.reason})") from None


def _read_wide_csv(path: str) -> np.ndarray:
    """Wide-format CSV: header row, one row per subject, k numeric columns, as an
    n-by-k float64 array. numpy's C reader takes a regular file's common case; whatever
    it rejects, and stdin (-), a pipe or a FIFO, which a second open would not read again,
    is read once, row by row: blank rows are skipped, cells are read by ``float``, and each
    error names the file line. Content problems raise DomainError; OSError propagates."""
    import numpy as np

    if path != "-" and stat.S_ISREG(os.stat(path).st_mode):
        with open(path, newline="", encoding="utf-8") as handle:
            try:
                reader = csv.reader(handle)
                header = next(reader, [])
                first = next(handle, "")
                # left to the row reader: no data row or a blank first one (loadtxt warns),
                # a header over more lines than the one loadtxt skips, and a name loadtxt
                # opens as compressed (.gz, .bz2, .xz, .lzma) or as a URL (://)
                if (any(cell.strip() for cell in header) and first.strip() and reader.line_num == 1
                        and not re.search(r"://|\.(gz|bz2|xz|lzma)\Z", os.fspath(path))):
                    values = np.loadtxt(path, delimiter=",", quotechar='"', comments=None,
                                        skiprows=1, encoding="utf-8", ndmin=2)
                    if len(values) >= 2 and values.shape[1] == len(header):
                        return values
            except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
                pass
    # StringIO ends lines at "\n" alone, not also at \v or \f as str.splitlines does
    reader = csv.reader(io.StringIO(_read_text(path)))
    limit = csv.field_size_limit(sys.maxsize)  # a cell of any length, as loadtxt reads
    try:
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise DomainError(f"line {reader.line_num}: {exc}") from None
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
    return np.array(data)


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
@click.argument("csv_path", type=click.Path(dir_okay=False, allow_dash=True))
@click.option("--bf", is_flag=True, help="Append Bayes factors from both methods.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_anova(csv_path: str, bf: bool, as_json: bool) -> None:
    """Repeated-measures ANOVA of a wide-format CSV (one row per subject)."""
    data = _read_wide_csv(csv_path)
    table = sys.modules[__name__].rm_anova(data)
    design = DesignSpec(*data.shape)
    evidence = []
    if bf:
        evidence = [
            bf01_minimal_rm(table.f_stat, design),
            delta_bic_nathoo(SummaryStats(
                ss_treatment=table.ss_treatment,
                ss_subjects=table.ss_subjects,
                ss_total=table.ss_total,
                design=design,
            )),
        ]
    lines = [f"n = {design.n} subjects, k = {design.k} conditions", *_render_anova_table(table)]
    for result in evidence:
        lines += ["", *_render_evidence(result)]
    _report(as_json, {
        "design": _members(design),
        "anova": _members(table),
        "evidence": ({result.method.value: _members(result) for result in evidence}
                     if bf else None),
    }, lines)


def _number_list(cast, label: str):
    """A click callback reading a comma-separated list of ``cast`` values as a list."""
    def parse(ctx, param, raw: str) -> list:
        try:
            values = [cast(item.strip()) for item in raw.split(",") if item.strip()]
        except ValueError:
            raise DomainError(f"could not parse {label} list {raw!r}") from None
        if not values:
            raise DomainError(f"{label} list is empty")
        return values
    return parse


def _uint64(ctx, param, raw: str) -> int:
    """A click callback reading an unsigned 64-bit integer, decimal or 0x-prefixed hex."""
    digits = re.fullmatch(r"0[xX]([0-9a-fA-F]+)|0*([0-9]+)", raw)
    if not digits:
        raise click.BadParameter(f"{raw!r} is not a decimal or 0x-hex integer", ctx, param)
    # 0x-hex, or decimal after leading zeros: 21 digits already pass 2**64
    value = int(digits[1], 16) if digits[1] else int(digits[2][:21])
    if value >= 2 ** 64:
        raise click.BadParameter(f"{raw!r} does not fit in an unsigned 64-bit integer", ctx, param)
    return value


def _write_grid_outputs(report: GridReport, out_dir: str, emit_per_rep: bool) -> list[str]:
    """Write each grid file into ``out_dir``, header first, and return the names in order. A CSV
    line has csv.writer's bytes, no cell quoted: a float by repr, an int by str, None as ""."""
    key = ["delta", "rho", "n"]
    cells = [{"cell_id": cell.config.cell_id, **_members(cell.config, "master_seed", "spacing"),
              **_members(cell, "config", "series")} for cell in report.cells]
    boxplots = [{**cell, "method": method, **cell[f"posterior_quantiles_{suffix}"]}
                for cell in cells
                for method, suffix in (("minimal_rm", "min"), ("nathoo_masson", "nm"))]

    def lines(header: list[str], blocks):
        """The header line, then each block of whole lines."""
        yield ",".join(header) + "\n"
        yield from blocks

    def table(columns: list[str], records):
        """A summary table: per record, the values of ``key`` and ``columns``."""
        columns = key + columns
        return lines(columns, (",".join("" if record[column] is None else str(record[column])
                                        for column in columns) + "\n" for record in records))

    # the per-replication files: one cell's lines at a time, each from the cell's template
    def scatter_lines(cell) -> str:
        head = f"{cell.config.cell_id},{cell.config.delta!r},{cell.config.rho!r},{cell.config.n},"
        return "".join(f"{head}{rep},{posterior_min!r},{posterior_nm!r}\n"
                       for rep, (posterior_min, posterior_nm) in enumerate(zip(
                           cell.series.posterior_min.tolist(), cell.series.posterior_nm.tolist())))

    def per_rep_lines(cell) -> str:
        choice = {True: ModelChoice.H0.value, False: ModelChoice.H1.value}
        return "".join(
            f"{cell.config.cell_id},{rep},{f_stat!r},{_saturating_exp(log_min)[0]!r},"
            f"{_saturating_exp(log_nm)[0]!r},{posterior_min!r},{posterior_nm!r},"
            f"{choice[_chooses_h0(log_min)]},{choice[_chooses_h0(log_nm)]}\n"
            for rep, (f_stat, log_min, log_nm, posterior_min, posterior_nm) in enumerate(zip(
                *(series.tolist() for series in vars(cell.series).values()))))  # field order

    files = {
        "grid_report.json": [_report_json({"grid": _members(report, "cells"), "cells": cells})
                             + "\n"],
        "table2.csv": table(["accuracy_min", "accuracy_nm"], cells),
        "table3.csv": table(["consistency"], cells),
        "table4.csv": table(["posterior_correlation"], cells),
        "boxplot_data.csv": table(["method", *cells[0]["posterior_quantiles_min"]], boxplots),
        "scatter_data.csv": lines(["cell_id", *key, "rep", "posterior_min", "posterior_nm"],
                                  map(scatter_lines, report.cells)),
    }
    if emit_per_rep:
        files["per_rep.csv"] = lines(["cell_id", "rep", "f_stat", "bf01_min", "bf01_nm",
                                      "posterior_min", "posterior_nm", "choice_min", "choice_nm"],
                                     map(per_rep_lines, report.cells))
    os.makedirs(out_dir, exist_ok=True)
    for name, file_lines in files.items():
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as handle:
            handle.writelines(file_lines)
    return list(files)


@main.command("simulate")
@click.option("--n", "n_values", default="20,50,80", show_default=True,
              callback=_number_list(int, "subject-count"), help="Comma-separated subject counts.")
@click.option("--rho", "rho_values", default="0.2,0.8", show_default=True,
              callback=_number_list(float, "correlation"),
              help="Comma-separated intraclass correlations.")
@click.option("--delta", "delta_values", default="0,0.2,0.5", show_default=True,
              callback=_number_list(float, "effect-size"), help="Comma-separated effect sizes.")
@click.option("--k", type=int, default=3, show_default=True,
              help="Number of repeated-measures conditions.")
@click.option("--reps", type=int, default=1000, show_default=True,
              help="Replications per cell.")
@click.option("--seed", default="0", metavar="UINT64", show_default=True, callback=_uint64,
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
              help="Processes for cells, this one and forked children, at most one per "
                   "usable CPU (same results at any count).")
def cmd_simulate(n_values: list[int], rho_values: list[float], delta_values: list[float],
                 k: int, reps: int, seed: int, spacing: str, out_dir: str, emit_per_rep: bool,
                 workers: int) -> None:
    """Run the Monte Carlo grid comparing both Bayes factor methods."""
    report = sys.modules[__name__].run_grid(n_values, rho_values, delta_values, k=k, reps=reps,
                                            master_seed=seed, spacing=spacing, workers=workers)
    written = _write_grid_outputs(report, out_dir, emit_per_rep)
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


def _report_line(stat, design, evidence, error) -> str:
    """One report of the text listing of ``parse``, from the field tuples of
    ``_scan``, ``_rm_design`` (n, k) and ``_evidence``."""
    f_value, df1, df2, _, f_is_upper_bound, _, _ = stat
    relation = "<" if f_is_upper_bound else "="
    left = f"F({df1:g}, {df2:g}) {relation} {f_value:g}"
    if evidence is not None:
        bound = ">=" if f_is_upper_bound else "="
        note = "  (lower bound: F reported as an upper bound)" if f_is_upper_bound else ""
        _, bf01, _, _, posterior_h0, _, _, saturated = evidence
        # BF01 decreases in F and p(H0|y) increases in BF01: both are lower bounds
        return (f"{left:<28} n={design[0]}  k={design[1]}  BF01 {bound} "
                f"{_fmt_bf(bf01, saturated)}  p(H0|y) {bound} {_fmt(posterior_h0)}{note}")
    if error is not None:
        return f"{left:<28} not inferable: {error}"
    return left


def _slots(cls) -> dict:
    """A "%s" placeholder for each field of the dataclass ``cls``."""
    return dict.fromkeys((field.name for field in fields(cls)), "%s")


# The report-v1 ``reports`` entry of ``parse --json``, one template per shape, evaluated
# or not (a null error if listed without --assume-rm): json's lines of the entry in a
# report of it alone, with a "%s" string in each slot, its quotes then removed
_REPORT_EVALUATED, _REPORT_NOT_EVALUATED = (
    "\n".join(json.dumps({"reports": [entry]}, indent=2, sort_keys=True).splitlines()[2:-2])
    .lstrip().replace('"%s"', "%s")
    for entry in ({**_slots(ReportedStat), "span": ["%s", "%s"], **members} for members in (
        {"design": _slots(DesignSpec), "error": None,  # minimal_rm: parse's only route
         "evidence": {**_slots(EvidenceResult), "method": Method.MINIMAL_RM.value}},
        {"design": None, "error": "%s", "evidence": None})))
_JSON_BOOL = {False: "false", True: "true"}
_REPORT_BATCH = 1000  # entries per write: bounded memory, few flushes


def _report_entry_json(stat, design, evidence, error) -> str:
    """One ``reports`` entry, the ``ReportedStat`` fields plus the design, evidence
    and error, in the bytes ``json.dumps(indent=2, sort_keys=True)`` of the report
    has. ``stat``, ``design`` and ``evidence`` are the field tuples of ``_scan``,
    ``_rm_design`` (n, k) and ``_evidence``."""
    f_value, df1, df2, p_reported, f_is_upper_bound, p_is_upper_bound, span = stat
    # %s writes a finite float as its repr, as json does; p_reported and prior_h0
    # lie in [0, 1], and the sum is not finite when another float is not
    check = df1 + df2 + f_value
    if evidence is not None:
        log_bf01, bf01, bf10, delta_bic10, posterior_h0, posterior_h1, prior_h0, saturated = (
            evidence)
        template = _REPORT_EVALUATED
        values = (design[1], design[0], df1, df2, bf01, bf10, delta_bic10, log_bf01,
                  posterior_h0, posterior_h1, prior_h0, _JSON_BOOL[saturated])
        check += bf01 + bf10 + delta_bic10 + log_bf01 + posterior_h0 + posterior_h1
    else:
        template = _REPORT_NOT_EVALUATED
        values = (df1, df2, "null" if error is None else encode_basestring_ascii(error))
    values += (_JSON_BOOL[f_is_upper_bound], f_value, _JSON_BOOL[p_is_upper_bound],
               "null" if p_reported is None else p_reported, *span)
    if not math.isfinite(check):
        values = tuple(json.dumps(v) if type(v) is float else v for v in values)
    return template % values


_PART_CHARS = 1 << 20  # the least text worth a forked part of `parse`


@main.command("parse")
@click.argument("text_path", required=False, default="-",
                type=click.Path(dir_okay=False, allow_dash=True))
@click.option("--assume-rm/--no-assume-rm", default=True, show_default=True,
              help="Invert df1/df2 into (n, k) for a one-factor repeated-measures design.")
@click.option("--prior-h0", type=float, default=0.5, show_default=True,
              help="Prior probability of the null model.")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine-readable JSON report.")
def cmd_parse(text_path: str, assume_rm: bool, prior_h0: float, as_json: bool) -> None:
    """Scan text for reported F statistics and estimate Bayes factors.

    Reads TEXT_PATH, or standard input when the path is omitted or '-'.
    """
    _check_prior(prior_h0)
    text = _read_text(text_path)
    text = text.replace("\u2212", "-")  # one character for one, so spans still index the text

    if as_json:
        # the entries go in place of one "%s" in "reports", the last key
        lead, _, tail = _report_json({"reports": ["%s"]}).rpartition('"%s"')
        render, sep, empty = _report_entry_json, ",\n    ", lead.rstrip() + tail.lstrip()
    else:
        lead, render, sep, tail, empty = "", _report_line, "\n", "", "no F reports found"

    def batches(start: int, end: int):
        """The rendered reports within text[start:end], ``_REPORT_BATCH`` to a string."""
        # infer_rm_design and bf01_minimal_rm on field tuples: the same checks, no dataclasses
        stats = _scan(text, start, end)
        for first in range(0, len(stats), _REPORT_BATCH):
            rows = []
            for stat in stats[first:first + _REPORT_BATCH]:
                design = evidence = error = None
                if assume_rm:
                    try:
                        f_value, df1, df2 = stat[:3]
                        design = _rm_design(df1, df2)
                        f_value = _check_f(f_value)
                        evidence = _evidence(_log_bf01_minimal_rm(f_value, *design), prior_h0)
                    except DomainError as exc:
                        design, error = None, str(exc)
                rows.append(render(stat, design, evidence, error))
            yield sep.join(rows)

    from ._parts import in_parts

    # at most one part per _PART_CHARS characters; in_parts caps that at the usable CPUs
    rendered = in_parts(batches, len(text), 1 + len(text) // _PART_CHARS)
    echoed = False
    with closing(rendered):  # a cut text's children are killed and reaped on any way out
        for batch in rendered:  # echoed apart, so that a child's whole part is not copied
            click.echo(sep if echoed else lead, nl=False)
            click.echo(batch, nl=False)
            echoed = True
    click.echo(tail if echoed else empty)


def run() -> None:
    """The ``rmbayes`` process: ``main``, then its stdout and stderr flushed, then
    ``os._exit`` with main's status, which skips the interpreter's teardown. A write
    that fails here was reported already, as exit 3, or is a closed pipe's."""
    try:
        main()
    except SystemExit as exc:  # standalone click always raises one
        if not isinstance(exc.code, (int, type(None))):
            raise
        status = exc.code or 0
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None when closed (>&-)
        with suppress(OSError):
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
