"""Extract reported F statistics from text and invert repeated-measures dfs.

Recognizes the usual reporting shape ``F(df1, df2) = value`` (also ``<`` for
bounds), optionally followed by a p clause, e.g. ``F(1, 22) = 1.336, p = .26``.
Numbers may carry a decimal exponent, as in ``F(1, 22) = 1.3e2, p < 1e-3``;
its sign may also be U+2212, the minus sign of typeset text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .bayes import DesignSpec
from .errors import DesignInferenceError, real

__all__ = ["ReportedStat", "infer_rm_design", "parse_reports"]

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# a report from its "(" on: re finds a leading literal far faster than the class
# [Ff], so parse_reports checks the "F" and the whitespace before the "(" itself.
# A match holds no F and ends in a digit or ".", so an anchored match without its
# F can neither hide a report nor start inside one. Its "(" is its first character
# and its only one, so no match holds the "(" of another: _scan cuts on that.
_F_REPORT = re.compile(
    rf"\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)\s*([=<])\s*({_NUMBER})"
    rf"(?:\s*,\s*[pP]\s*([=<])\s*({_NUMBER}))?"
)
# after the value that ends a match: an exponent or decimal comma the pattern left unread
_HALF_READ = re.compile(r"[eE]\S?\d|,\d")


@dataclass(frozen=True)
class ReportedStat:
    """One reported F statistic.

    A report like ``F(2, 38) < 1`` stores the bound as ``f_value`` with
    ``f_is_upper_bound`` set; any Bayes factor BF01 computed from it is then
    a lower bound (BF01 decreases in F).
    """

    f_value: float
    df1: float
    df2: float
    p_reported: float | None = None
    f_is_upper_bound: bool = False
    p_is_upper_bound: bool = False
    span: tuple[int, int] = (0, 0)


def parse_reports(text: str) -> list[ReportedStat]:
    """All non-overlapping F reports in ``text``, in order of appearance.

    Never raises on content: text without a recognizable report yields an
    empty list, and matches with degrees of freedom below 1 are dropped, as
    are matches that end inside a number, e.g. ``F(1, 22) = 4,3``.
    A p value outside [0, 1] is recorded as absent.
    """
    # U+2212 and "-" are one character each, so spans still index ``text``
    return [ReportedStat(*fields) for fields in _scan(text.replace("\u2212", "-"))]


def _scan(text: str, start: int = 0, end: int | None = None) -> list[tuple]:
    """``parse_reports`` of a text whose U+2212 are already "-", as one tuple of
    ``ReportedStat`` fields per report, for the reports whose "(" lies in
    ``text[start:end]``: as a match holds no other "(", the scans of consecutive
    ranges, joined, are the scan of the whole text, wherever it is cut."""
    stop = -1 if end is None else text.find("(", end)
    reports = []
    for match in _F_REPORT.finditer(text, start, len(text) if stop < 0 else stop):
        left = match.start()
        while left and text[left - 1].isspace():  # str.isspace is re's \s
            left -= 1
        if not left or text[left - 1] not in "Ff" or _HALF_READ.match(text, match.end()):
            continue
        df1, df2, f_relation, f_value, p_relation, p_value = match.groups()
        df1, df2 = float(df1), float(df2)
        if df1 < 1.0 or df2 < 1.0:
            continue
        p_reported: float | None = None
        p_is_upper = False
        if p_value is not None:
            candidate = float(p_value)
            if 0.0 <= candidate <= 1.0:
                p_reported = candidate
                p_is_upper = p_relation == "<"
        reports.append((float(f_value), df1, df2, p_reported, f_relation == "<",
                        p_is_upper, (left - 1, match.end())))
    return reports


def infer_rm_design(stat: ReportedStat) -> DesignSpec:
    """Recover (n, k) from the dfs of a one-factor repeated-measures ANOVA.

    Uses df1 = k - 1 and df2 = (n - 1)(k - 1), so k = df1 + 1 and
    n = df2/df1 + 1.

    Raises
    ------
    DesignInferenceError
        For dfs that are not finite (a reported number beyond the float
        range), for decimal (e.g. sphericity-corrected) dfs, or when df2 is not
        divisible by df1 -- in each case the report cannot come from an
        uncorrected one-factor repeated-measures ANOVA, and n and k must be
        supplied manually.
    """
    return DesignSpec(*_rm_design(stat.df1, stat.df2))


def _rm_design(df1, df2) -> tuple[int, int]:
    """``infer_rm_design`` on the dfs alone, as (n, k), with ``DesignSpec``'s
    float-range check on n*(k-1) and the errors of both."""
    df1, df2 = real("df1", df1), real("df2", df2)
    if not (math.isfinite(df1) and math.isfinite(df2)):
        raise DesignInferenceError(f"degrees of freedom ({df1:g}, {df2:g}) are not finite")
    if not df1.is_integer() or not df2.is_integer():
        raise DesignInferenceError(
            f"decimal degrees of freedom ({df1:g}, {df2:g}) suggest a "
            "sphericity correction; the uncorrected integer dfs are required"
        )
    df1, df2 = int(df1), int(df2)
    if df1 < 1:
        raise DesignInferenceError(f"df1={df1} is below 1, so ({df1}, {df2}) has no conditions")
    if df2 % df1 != 0:
        raise DesignInferenceError(f"df2={df2} is not divisible by df1={df1}")
    n = df2 // df1 + 1
    k = df1 + 1
    if n < 2:
        raise DesignInferenceError(f"dfs ({df1}, {df2}) imply fewer than 2 subjects")
    real("n*(k-1)", n * (k - 1))
    return n, k
