"""Bayes factors and posterior model probabilities for ANOVA designs.

Three routes to the Bayes factor BF01 (null over alternative) are provided,
all based on the BIC approximation BF01 = exp(dBIC10 / 2) under a unit
information prior (Wagenmakers, 2007):

* :func:`bf01_minimal_rm` -- repeated measures, from the F statistic, the
  number of subjects and the number of conditions alone;
* :func:`bf01_between` -- independent groups, from F, its degrees of freedom
  and the total number of observations;
* :func:`delta_bic_nathoo` -- repeated measures, from sums of squares, using
  the Nathoo & Masson (2016) formula that accounts for the correlation
  between repeated measurements.

Everything is computed in natural-log space; the linear Bayes factor is
derived afterwards and saturates to the largest finite float (with a flag)
instead of overflowing.  The closed forms behind the public functions take a
numeric namespace (``math`` by default), so the simulation evaluates the
same formulas as numpy ufuncs over whole arrays of replications.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, as_int, is_real

__all__ = [
    "DesignSpec",
    "EvidenceResult",
    "Method",
    "ModelChoice",
    "SummaryStats",
    "bf01_between",
    "bf01_minimal_rm",
    "choose_model",
    "delta_bic_nathoo",
]

_MAX_EXP_ARG = math.log(sys.float_info.max)


class Method(str, Enum):
    """Which route produced an evidence value."""

    MINIMAL_RM = "minimal_rm"
    BETWEEN_SUBJECTS = "between_subjects"
    NATHOO_MASSON = "nathoo_masson"


class ModelChoice(str, Enum):
    H0 = "H0"
    H1 = "H1"


@dataclass(frozen=True)
class DesignSpec:
    """A repeated-measures design: n subjects each measured in k conditions."""

    n: int
    k: int

    def __post_init__(self) -> None:
        n, k = as_int(self.n), as_int(self.k)
        if n is None or n < 2:
            raise DomainError(f"need at least 2 subjects, got n={self.n!r}")
        if k is None or k < 2:
            raise DomainError(f"need at least 2 conditions, got k={self.k!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class EvidenceResult:
    """Bayes factor, BIC difference and posterior model probabilities.

    ``bf01 = exp(log_bf01)`` and ``delta_bic10 = 2 * log_bf01`` always hold;
    when a linear Bayes factor would overflow it is clamped to the largest
    finite float and ``saturated`` is set.
    """

    method: Method
    log_bf01: float
    bf01: float
    bf10: float
    delta_bic10: float
    posterior_h0: float
    posterior_h1: float
    prior_h0: float
    saturated: bool = False


@dataclass(frozen=True)
class SummaryStats:
    """Sums of squares from a repeated-measures ANOVA, for designs where the
    raw data are unavailable.  The residual SST - SSA - SSB must be positive."""

    ss_treatment: float
    ss_subjects: float
    ss_total: float
    design: DesignSpec

    def __post_init__(self) -> None:
        for name in ("ss_treatment", "ss_subjects", "ss_total"):
            value = getattr(self, name)
            if not (is_real(value) and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, float(value))
        ssa, ssb, sst = self.ss_treatment, self.ss_subjects, self.ss_total
        if ssa < 0:
            raise DomainError(f"ss_treatment must be nonnegative, got {ssa!r}")
        if ssb <= 0:
            raise DomainError("ss_subjects must be positive (a zero subject sum of "
                              "squares signals a degenerate decomposition)")
        if sst <= ssb:
            raise DomainError("ss_total must exceed ss_subjects")
        if sst - ssa - ssb <= 0:
            raise DomainError("sums of squares imply a nonpositive residual "
                              "(ss_total - ss_treatment - ss_subjects must be positive)")

    @property
    def ss_residual(self) -> float:
        return self.ss_total - self.ss_treatment - self.ss_subjects


def _check_prior(prior_h0: float) -> None:
    if not (is_real(prior_h0) and 0.0 < prior_h0 < 1.0):
        raise DomainError(f"prior_h0 must lie strictly between 0 and 1, got {prior_h0!r}")


def _check_f(f_stat: float) -> None:
    if not is_real(f_stat) or math.isnan(f_stat) or math.isinf(f_stat) or f_stat < 0:
        raise DomainError(f"F statistic must be a finite nonnegative real, got {f_stat!r}")


def _saturating_exp(x: float) -> tuple[float, bool]:
    if x > _MAX_EXP_ARG:
        return sys.float_info.max, True
    return math.exp(x), False


def _posterior_h0(log_bf01, prior_h0: float = 0.5, xp=math):
    """p(H0|y) by the logistic transform of the posterior log odds."""
    log_odds = log_bf01 + math.log(prior_h0) - math.log1p(-prior_h0)
    # stable on both tails: exp only sees nonpositive arguments, and
    # (x - |x|) / 2 is exactly min(x, 0) for floats and arrays alike
    return xp.exp((log_odds - abs(log_odds)) / 2) / (1.0 + xp.exp(-abs(log_odds)))


def _log_bf01_between(f_stat, df1: int, df2: int, n_obs: int, xp=math):
    return 0.5 * (df1 * math.log(n_obs) - n_obs * xp.log1p(f_stat * df1 / df2))


def _log_bf01_minimal_rm(f_stat, n: int, k: int, xp=math):
    # the independent-groups form with df1 = k - 1, df2 = (n-1)(k-1) and
    # N = n(k-1), so the reduction identity holds to the bit
    return _log_bf01_between(f_stat, k - 1, (n - 1) * (k - 1), n * (k - 1), xp)


def _log_bf01_nathoo(n: int, k: int, ssa, ssb, sst, xp=math):
    delta_bic10 = (
        n * (k - 1) * xp.log((sst - ssa - ssb) / (sst - ssb))
        + (k + 2) * xp.log(n * (sst - ssa) / ssb)
        - 3.0 * xp.log(n * sst / ssb)
    )
    return 0.5 * delta_bic10


def _result(method: Method, log_bf01: float, prior_h0: float) -> EvidenceResult:
    bf01, hi = _saturating_exp(log_bf01)
    bf10, lo = _saturating_exp(-log_bf01)
    posterior_h0 = _posterior_h0(log_bf01, prior_h0)
    return EvidenceResult(
        method=method,
        log_bf01=log_bf01,
        bf01=bf01,
        bf10=bf10,
        delta_bic10=2.0 * log_bf01,
        posterior_h0=posterior_h0,
        posterior_h1=1.0 - posterior_h0,
        prior_h0=prior_h0,
        saturated=hi or lo,
    )


def bf01_between(f_stat: float, df1: int, df2: int, n_obs: int,
                 prior_h0: float = 0.5) -> EvidenceResult:
    """BIC Bayes factor for an independent-groups ANOVA.

    log BF01 = [df1 * ln(N) - N * ln(1 + F * df1 / df2)] / 2 with N = n_obs
    independent observations.
    """
    _check_f(f_stat)
    _check_prior(prior_h0)
    dfs = as_int(df1), as_int(df2)
    if None in dfs or min(dfs) < 1:
        raise DomainError(f"degrees of freedom must be integers >= 1, got ({df1!r}, {df2!r})")
    n = as_int(n_obs)
    if n is None or n < 2:
        raise DomainError(f"need at least 2 observations, got n_obs={n_obs!r}")
    return _result(Method.BETWEEN_SUBJECTS, _log_bf01_between(f_stat, *dfs, n), prior_h0)


def bf01_minimal_rm(f_stat: float, design: DesignSpec,
                    prior_h0: float = 0.5) -> EvidenceResult:
    """BIC Bayes factor for a repeated-measures ANOVA from (F, n, k) alone.

    log BF01 = [(k-1) * ln(nk - n) + (n - nk) * ln(1 + F / (n - 1))] / 2.
    This is algebraically the independent-groups form with df1 = k - 1,
    df2 = (n-1)(k-1) and N = n(k-1) independent observations, and is computed
    through that route so the reduction identity holds to the bit.
    """
    if not isinstance(design, DesignSpec):
        raise DomainError(f"design must be a DesignSpec, got {type(design).__name__}")
    _check_f(f_stat)
    _check_prior(prior_h0)
    log_bf01 = _log_bf01_minimal_rm(f_stat, design.n, design.k)
    return _result(Method.MINIMAL_RM, log_bf01, prior_h0)


def delta_bic_nathoo(stats: SummaryStats, prior_h0: float = 0.5) -> EvidenceResult:
    """Nathoo & Masson (2016) sums-of-squares Bayes factor for repeated
    measures, which estimates and adjusts for the intraclass correlation.

    dBIC10 = n(k-1) * ln[(SST-SSA-SSB)/(SST-SSB)]
           + (k+2) * ln[n(SST-SSA)/SSB] - 3 * ln[n*SST/SSB]
    and BF01 = exp(dBIC10 / 2).
    """
    if not isinstance(stats, SummaryStats):
        raise DomainError(f"stats must be a SummaryStats, got {type(stats).__name__}")
    _check_prior(prior_h0)
    log_bf01 = _log_bf01_nathoo(stats.design.n, stats.design.k, stats.ss_treatment,
                                stats.ss_subjects, stats.ss_total)
    return _result(Method.NATHOO_MASSON, log_bf01, prior_h0)


def choose_model(result: EvidenceResult) -> ModelChoice:
    """Pick H0 when BF01 >= 1 (log BF01 >= 0), else H1.

    The tie at BF01 = 1 goes to H0 so repeated runs classify deterministically.
    """
    return ModelChoice.H0 if _chooses_h0(result.log_bf01) else ModelChoice.H1


def _chooses_h0(log_bf01):
    """The rule of :func:`choose_model` on a log BF01 or an array of them."""
    return log_bf01 >= 0
