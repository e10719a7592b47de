"""Seeded input generators for the benchmark workloads.

Each generator returns the input it wrote together with the planted ground
truth, so the oracles never need the package under test.  The same seed
gives the same bytes; nothing here reads the clock or the environment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Share of each report form in the parse-corpus, as exact counts per 100.
# "exponent" (e.g. ``F(1, 48) = 1.32e2``) is a form the parser is known to
# misread: it stops at the ``e``.  Those reports stay in the corpus and show
# up as mismatches.
REPORT_MIX = (
    ("int_p_eq", 55),
    ("int_p_lt", 12),
    ("int_no_p", 6),
    ("f_bound", 6),
    ("decimal_df", 8),
    ("nondivisible_df", 10),
    ("exponent", 3),
)
KNOWN_MISPARSED = frozenset({"exponent"})
# Mean number of filler words between two reports in the parse-corpus.
WORDS_BETWEEN = 50
# Conditions (columns) of the anova-csv matrix.
WIDE_K = 3

_WORDS = (
    "the participants rated each stimulus on a seven point scale and responses "
    "were averaged within condition before analysis reaction times were trimmed "
    "at three standard deviations accuracy was high across blocks we observed "
    "a reliable pattern consistent with prior work although the effect was "
    "smaller than expected in the second experiment trials were presented in "
    "random order with a fixation cross between them data from two observers "
    "were excluded because of equipment failure the manipulation check showed "
    "that the instructions were understood as intended mean ratings are shown "
    "in table two and the figure shows individual trajectories across sessions"
).split()

_DISTRACTORS = (
    "t(38) = 2.04, p = .048",
    "r(40) = .31, p = .05",
    "chi-square(2) = 5.99, p = .05",
    "M = 3.21, SD = 1.10",
    "F = 3.20 without degrees of freedom",
    "(Figure 2, panel 3)",
)


@dataclass(frozen=True)
class PlantedReport:
    """One report written into the corpus and what a correct parse yields."""

    kind: str
    offset: int
    df1: float
    df2: float
    f_value: float
    p_reported: Optional[float]
    f_is_upper_bound: bool
    p_is_upper_bound: bool
    design: Optional[tuple[int, int]]  # (n, k) when the dfs invert cleanly


def _p_text(rng: random.Random, upper: bool) -> tuple[str, float]:
    if upper:
        text = rng.choice((".001", ".01", ".05", "0.001"))
    else:
        text = rng.choice(("{:.3f}", "{:.2f}")).format(rng.uniform(0.001, 0.999))
        if rng.random() < 0.7:
            text = text.lstrip("0")
    return text, float(text)


def _report(rng: random.Random, kind: str, offset: int) -> tuple[str, PlantedReport]:
    k = rng.randint(2, 6)
    n = rng.randint(8, 200)
    df1, df2 = k - 1, (n - 1) * (k - 1)
    f_text = f"{rng.uniform(0.05, 30.0):.2f}"
    head = rng.choice(("F({}, {})", "F({},{})", "F ({}, {})"))
    eq = rng.choice((" = ", "="))
    p_value = None
    p_upper = False
    f_upper = False
    design: Optional[tuple[int, int]] = (n, k)
    if kind == "decimal_df":
        # k >= 3 and eps >= 0.5 keep df1 >= 1, so the parser keeps the match
        k = rng.randint(3, 6)
        eps = rng.uniform(0.5, 0.95)
        df1, df2 = round((k - 1) * eps, 2), round((n - 1) * (k - 1) * eps, 2)
        if df1 == int(df1):
            df1 += 0.01
        design = None
    elif kind == "nondivisible_df":
        k = rng.randint(3, 6)
        df1 = k - 1
        df2 = rng.randint(2, 60) * df1 + rng.randint(1, df1 - 1)
        design = None
    if kind == "f_bound":
        f_text = rng.choice(("1", "1.5", "2"))
        eq = " < "
        f_upper = True
    if kind == "exponent":
        mantissa = f"{rng.uniform(1.0, 9.99):.2f}"
        exponent = rng.randint(1, 3)
        f_text = f"{mantissa}e{exponent}"
    f_value = float(f_text)
    text = head.format(f"{df1:g}", f"{df2:g}") + eq + f_text
    if kind in ("int_p_eq", "decimal_df", "nondivisible_df"):
        p_text, p_value = _p_text(rng, upper=False)
        text += f", p = {p_text}"
    elif kind in ("int_p_lt", "exponent"):
        p_text, p_value = _p_text(rng, upper=True)
        text += f", p < {p_text}"
        p_upper = True
    planted = PlantedReport(
        kind=kind, offset=offset, df1=float(df1), df2=float(df2), f_value=f_value,
        p_reported=p_value, f_is_upper_bound=f_upper, p_is_upper_bound=p_upper,
        design=design,
    )
    return text, planted


def _filler(rng: random.Random, words: int) -> str:
    out = []
    for _ in range(words):
        out.append(rng.choice(_WORDS))
        if rng.random() < 0.02:
            out.append(rng.choice(_DISTRACTORS))
    return " ".join(out)


def corpus(seed: int, n_reports: int = 28000) -> tuple[str, list[PlantedReport]]:
    """ASCII text with ``n_reports`` planted F reports between filler words.

    Counts per form follow ``REPORT_MIX`` exactly (rounded down, the rest
    going to the first form), so the known-misparsed share does not depend
    on the seed.
    """
    rng = random.Random(seed)
    counts = {kind: n_reports * share // 100 for kind, share in REPORT_MIX}
    counts[REPORT_MIX[0][0]] += n_reports - sum(counts.values())
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    parts: list[str] = []
    planted: list[PlantedReport] = []
    length = 0
    for kind in kinds:
        lead = _filler(rng, rng.randint(WORDS_BETWEEN // 2, 3 * WORDS_BETWEEN // 2)) + " ("
        parts.append(lead)
        length += len(lead)
        text, report = _report(rng, kind, length)
        parts.append(text)
        planted.append(report)
        length += len(text)
        parts.append("). ")
        length += 3
    parts.append("\n")
    return "".join(parts), planted


def wide_matrix(seed: int, rows: int = 100_000) -> tuple[str, list[list[float]]]:
    """Wide CSV text (header plus ``rows`` subjects) and the values it holds.

    Subject effects and noise share the unit variance equally; the condition
    means differ by a few thousandths, so F lands in the range where the
    p-value is neither 0 nor 1 at this n.
    """
    rng = random.Random(seed)
    shifts = [rng.uniform(-0.005, 0.005) for _ in range(WIDE_K)]
    lines = [",".join(f"c{j + 1}" for j in range(WIDE_K))]
    values = []
    for _ in range(rows):
        subject = rng.gauss(0.0, 0.5 ** 0.5)
        cells = [f"{subject + shift + rng.gauss(0.0, 0.5 ** 0.5):.6f}" for shift in shifts]
        lines.append(",".join(cells))
        values.append([float(cell) for cell in cells])
    return "\n".join(lines) + "\n", values
