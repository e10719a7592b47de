"""One-factor repeated-measures ANOVA on subject-by-condition data matrices.

The decomposition splits total variability into a treatment component
(between condition means), a subject component (between subject means), and
the residual left over after removing both.  The treatment F statistic and
its upper-tail p-value are computed with no external statistics dependency;
the F CDF is evaluated through the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateResidualError, DomainError

__all__ = ["AnovaTable", "f_cdf", "rm_anova"]

# Relative threshold below which a sum of squares counts as exactly zero.
# Guards the F ratio against 0/0 noise when SSR = SST - SSA - SSB cancels.
_SS_REL_EPS = 1e-12


@dataclass(frozen=True)
class AnovaTable:
    """Sums of squares, degrees of freedom, mean squares, F and p for a
    one-factor repeated-measures decomposition."""

    ss_treatment: float
    ss_subjects: float
    ss_residual: float
    ss_total: float
    df_treatment: int
    df_subjects: int
    df_residual: int
    ms_treatment: float
    ms_residual: float
    f_stat: float
    p_value: float


def rm_anova(data) -> AnovaTable:
    """Decompose a subject-by-condition matrix into treatment, subject and
    residual sums of squares and test the treatment effect.

    Parameters
    ----------
    data : array-like, shape (n, k)
        One row per subject, one column per condition.  Requires n >= 2,
        k >= 2 and finite entries.

    Returns
    -------
    AnovaTable
        Full decomposition with F = (SSA/SSR)*(n-1) and the upper-tail
        p-value from the F(k-1, (n-1)(k-1)) distribution.

    Raises
    ------
    DomainError
        If the matrix is not 2-d, is smaller than 2x2, or has non-finite
        entries.
    DegenerateResidualError
        If the residual sum of squares is zero while the treatment sum of
        squares is not (the F ratio would be unbounded).  A matrix with
        neither residual nor treatment variability yields F = 0 instead.
    """
    values = np.asarray(data, dtype=float)
    if values.ndim != 2:
        raise DomainError(f"expected a 2-d subject-by-condition matrix, got shape {values.shape}")
    n, k = values.shape
    if n < 2 or k < 2:
        raise DomainError(f"need at least 2 subjects and 2 conditions, got {n}x{k}")
    if not np.isfinite(values).all():
        raise DomainError("data matrix contains non-finite entries")

    ss_treatment, ss_subjects, ss_residual, ss_total, f_stat = (
        float(column[0]) for column in _decompose(values[np.newaxis])
    )
    if math.isinf(f_stat):
        raise DegenerateResidualError(
            "residual sum of squares is zero but the treatment sum of squares "
            f"is {ss_treatment:.6g}; the F ratio is unbounded for this matrix"
        )
    df_treatment = k - 1
    df_subjects = n - 1
    df_residual = df_treatment * df_subjects
    p_value = 1.0 - f_cdf(f_stat, df_treatment, df_residual)

    return AnovaTable(
        ss_treatment=ss_treatment,
        ss_subjects=ss_subjects,
        ss_residual=ss_residual,
        ss_total=ss_total,
        df_treatment=df_treatment,
        df_subjects=df_subjects,
        df_residual=df_residual,
        ms_treatment=ss_treatment / df_treatment,
        ms_residual=ss_residual / df_residual,
        f_stat=f_stat,
        p_value=p_value,
    )


def _decompose(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sums of squares and F for every matrix of an (m, n, k) stack.

    Returns the arrays (SSA, SSB, SSR, SST, F), each of length m, with
    F = (SSA/SSR)*(n-1).  Where the residual vanishes (SSR at most
    ``_SS_REL_EPS * SST``) F is +inf if the treatment sum of squares does
    not vanish too, else 0 -- the only consistent completion for constant
    rows or identical columns -- and SSR is clamped at 0.  Entries must be
    finite; no p-value is computed.
    """
    _, n, k = stack.shape
    # numpy reductions sum pairwise, which keeps the partition identity
    # SSA + SSB + SSR = SST tight even for large matrices
    grand = stack.mean(axis=(1, 2))
    col_dev = stack.mean(axis=1) - grand[:, np.newaxis]
    row_dev = stack.mean(axis=2) - grand[:, np.newaxis]
    ss_treatment = n * _row_dots(col_dev)
    ss_subjects = k * _row_dots(row_dev)
    centered = stack - grand[:, np.newaxis, np.newaxis]
    ss_total = np.square(centered, out=centered).sum(axis=(1, 2))
    ss_residual = ss_total - ss_treatment - ss_subjects

    tol = _SS_REL_EPS * ss_total
    flat = ss_residual <= tol
    f_stat = np.divide(ss_treatment, ss_residual, out=np.zeros_like(ss_total), where=~flat)
    f_stat *= n - 1
    f_stat[flat & (ss_treatment > tol)] = np.inf
    np.maximum(ss_residual, 0.0, out=ss_residual)
    return ss_treatment, ss_subjects, ss_residual, ss_total, f_stat


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``row @ row`` for every row of a 2-d array, by a stacked matmul: the
    same dot kernel as one ``@``, and available before numpy 2's vecdot."""
    return (rows[:, np.newaxis, :] @ rows[:, :, np.newaxis])[:, 0, 0]


def f_cdf(x: float, df1: float, df2: float) -> float:
    """P(F <= x) for the F distribution with (df1, df2) degrees of freedom.

    Evaluated as the regularized incomplete beta function
    I_{df1*x / (df1*x + df2)}(df1/2, df2/2); absolute accuracy is well below
    1e-10 across the domain.

    Raises
    ------
    DomainError
        For x < 0, NaN x, or nonpositive degrees of freedom.
    """
    if not (df1 > 0 and df2 > 0):
        raise DomainError(f"degrees of freedom must be positive, got ({df1!r}, {df2!r})")
    if math.isnan(x) or x < 0:
        raise DomainError(f"F statistic must be a nonnegative real, got {x!r}")
    if math.isinf(x):
        return 1.0
    if x == 0.0:
        return 0.0
    t = df1 * x
    return _reg_incomplete_beta(0.5 * df1, 0.5 * df2, t / (t + df2))


def _reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by Lentz's continued fraction,
    switching to the symmetric form for x > (a+1)/(a+b+2)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_continued_fraction(a, b, x) / a
    else:
        value = 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
    return min(max(value, 0.0), 1.0)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300  # floor keeps intermediate denominators away from 0
    eps = 1e-16
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        coef = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        coef = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coef * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + coef / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )
