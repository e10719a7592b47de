"""One-factor repeated-measures ANOVA on subject-by-condition data matrices.

The decomposition splits total variability into a treatment component
(between condition means), a subject component (between subject means), and
the residual left over after removing both.  The treatment F statistic's
upper-tail p-value comes from the F law's regularized incomplete beta kernel,
which lives with :func:`~rmbayes.bayes.f_cdf` in the numpy-free ``bayes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _LAZY
from .bayes import _reg_incomplete_beta, f_cdf  # f_cdf: perfbench's trace point (ROADMAP item 1)
from .errors import DegenerateResidualError, DomainError, is_real

__all__ = list(_LAZY["anova"])

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
        k >= 2 and finite real entries: an integer or float array, or real
        numbers (``int``, ``float``, ``Fraction``, numpy scalars, no ``bool``).

    Returns
    -------
    AnovaTable
        Full decomposition with F = (SSA/SSR)*(n-1) and the upper-tail
        p-value from the F(k-1, (n-1)(k-1)) distribution.

    Raises
    ------
    DomainError
        If the data are not a 2-d real matrix of at least 2x2 finite
        entries (a boolean, complex, string or ``None`` entry is not real),
        or an entry or its sums of squares overflow the float range.
    DegenerateResidualError
        If the residual sum of squares is zero while the treatment sum of
        squares is not (the F ratio would be unbounded).  A matrix with
        neither residual nor treatment variability yields F = 0 instead.
    """
    try:
        # a list goes through object entries, so a bool among numbers is seen
        values = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=object)
        kind = values.dtype.kind
        if kind not in "iuf" and not (kind == "O" and all(map(is_real, values.flat))):
            raise TypeError  # bool, complex, text, None: no cast to float
        with np.errstate(over="raise"):  # a longdouble beyond float64 would cast to inf
            values = values.astype(float, copy=False)
    except (OverflowError, FloatingPointError):
        raise DomainError("a data matrix entry lies beyond the float range") from None
    except (TypeError, ValueError):
        raise DomainError("data must be a rectangular matrix of real numbers") from None
    if values.ndim != 2:
        raise DomainError(f"expected a 2-d subject-by-condition matrix, got shape {values.shape}")
    n, k = values.shape
    if n < 2 or k < 2:
        raise DomainError(f"need at least 2 subjects and 2 conditions, got {n}x{k}")
    if not np.isfinite(values).all():
        raise DomainError("data matrix contains non-finite entries")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        ss_treatment, ss_subjects, ss_residual, ss_total, f_stat = (
            float(column[0]) for column in _decompose(values[np.newaxis])
        )
    if not math.isfinite(ss_total):
        raise DomainError("the sums of squares overflow the float range; "
                          "rescale the data matrix")
    if math.isinf(f_stat):
        raise DegenerateResidualError(
            "residual sum of squares is zero but the treatment sum of squares "
            f"is {ss_treatment:.6g}; the F ratio is unbounded for this matrix"
        )
    df_treatment = k - 1
    df_subjects = n - 1
    df_residual = df_treatment * df_subjects
    # the upper tail I_y(df2/2, df1/2) itself: 1 - f_cdf would read 0 below p = 1e-16
    t = df_treatment * f_stat
    p_value = _reg_incomplete_beta(0.5 * df_residual, 0.5 * df_treatment,
                                   df_residual / (t + df_residual), t / (t + df_residual))

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

    No step calls BLAS: unoptimized ``einsum`` forms the sums of squares in
    numpy's own loops, so no digit follows the BLAS kernel or thread count.
    """
    _, n, k = stack.shape
    # numpy reductions sum pairwise, which keeps the partition identity
    # SSA + SSB + SSR = SST tight even for large matrices
    grand = stack.mean(axis=(1, 2))
    # mean(axis=1) to the bit, faster: both add the n rows one after another
    col_dev = (np.ascontiguousarray(stack.transpose(1, 0, 2)).sum(axis=0) / n
               - grand[:, np.newaxis])
    row_dev = stack.mean(axis=2) - grand[:, np.newaxis]
    ss_treatment = n * np.einsum("ij,ij->i", col_dev, col_dev)
    ss_subjects = k * np.einsum("ij,ij->i", row_dev, row_dev)
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
