"""Extract reported F statistics from text and invert repeated-measures dfs.

Recognizes the usual reporting shape ``F(df1, df2) = value`` (also ``<`` for
bounds), optionally followed by a p clause, e.g. ``F(1, 22) = 1.336, p = .26``.
Numbers may carry a decimal exponent, as in ``F(1, 22) = 1.3e2, p < 1e-3``;
its sign may also be U+2212, the minus sign of typeset text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .bayes import DesignSpec
from .errors import DesignInferenceError

__all__ = ["ReportedStat", "infer_rm_design", "parse_reports"]

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_F_REPORT = re.compile(
    rf"[Ff]\s*\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)\s*([=<])\s*({_NUMBER})"
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
    p_reported: Optional[float] = None
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
        p_value: Optional[float] = None
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


def infer_rm_design(stat: ReportedStat) -> DesignSpec:
    """Recover (n, k) from the dfs of a one-factor repeated-measures ANOVA.

    Uses df1 = k - 1 and df2 = (n - 1)(k - 1), so k = df1 + 1 and
    n = df2/df1 + 1.

    Raises
    ------
    DesignInferenceError
        For decimal (e.g. sphericity-corrected) dfs, or when df2 is not
        divisible by df1 -- either way the report cannot come from an
        uncorrected one-factor repeated-measures ANOVA, and n and k must be
        supplied manually.
    """
    if not float(stat.df1).is_integer() or not float(stat.df2).is_integer():
        raise DesignInferenceError(
            f"decimal degrees of freedom ({stat.df1:g}, {stat.df2:g}) suggest a "
            "sphericity correction; the uncorrected integer dfs are required"
        )
    df1, df2 = int(stat.df1), int(stat.df2)
    if df2 % df1 != 0:
        raise DesignInferenceError(f"df2={df2} is not divisible by df1={df1}")
    n = df2 // df1 + 1
    k = df1 + 1
    if n < 2:
        raise DesignInferenceError(f"dfs ({df1}, {df2}) imply fewer than 2 subjects")
    return DesignSpec(n=n, k=k)
