"""Bayes factors, posterior model probabilities and the F law for ANOVA designs.

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
same formulas over whole arrays of replications.  :func:`f_cdf` and the
incomplete-beta kernel that gives ``rm_anova`` its p need ``math`` alone too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, integer, real

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
    "f_cdf",
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
        n, k = integer("n", self.n, 2), integer("k", self.k, 2)
        # the largest count the formulas take as a float
        real("n*(k-1)", n * (k - 1))
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
            value = real(name, getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be a finite real, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
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
        if not isinstance(self.design, DesignSpec):
            raise DomainError(f"design must be a DesignSpec, got {type(self.design).__name__}")
        # the largest log argument of the Nathoo-Masson formula: n*(sst-ssa)/ssb is no larger
        if not math.isfinite(self.design.n * sst / ssb):
            raise DomainError(f"n*ss_total/ss_subjects lies beyond the float range (n="
                              f"{self.design.n}, ss_total={sst!r}, ss_subjects={ssb!r})")

    @property
    def ss_residual(self) -> float:
        return self.ss_total - self.ss_treatment - self.ss_subjects


def _check_prior(prior_h0) -> float:
    prior = real("prior_h0", prior_h0)
    if not 0.0 < prior < 1.0:
        raise DomainError(f"prior_h0 must lie strictly between 0 and 1, got {prior_h0!r}")
    return prior


def _check_f(f_stat) -> float:
    f = real("f_stat", f_stat)
    if not 0.0 <= f < math.inf:
        raise DomainError(f"F statistic must be a finite nonnegative real, got {f_stat!r}")
    return f


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
    product = f_stat * df1
    if xp is math and product == math.inf:  # a finite F above float max / df1
        log_ratio = math.log(f_stat) + math.log(df1) - math.log(df2)
        log_term = log_ratio + math.log1p(math.exp(-log_ratio))  # ln(1+x) = ln x + ln(1+1/x)
    else:
        log_term = xp.log1p(product / df2)
    return 0.5 * (df1 * math.log(n_obs) - n_obs * log_term)


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


def _evidence(log_bf01: float, prior_h0: float) -> tuple:
    """The fields of ``EvidenceResult`` after ``method``, as a tuple."""
    if not math.isfinite(log_bf01):  # inf, or inf - inf: the posteriors would be NaN
        raise DomainError(f"log BF01 is {log_bf01}: a BIC term overflows the float range")
    bf01, hi = _saturating_exp(log_bf01)
    bf10, lo = _saturating_exp(-log_bf01)
    posterior_h0 = _posterior_h0(log_bf01, prior_h0)
    return (log_bf01, bf01, bf10, 2.0 * log_bf01, posterior_h0, 1.0 - posterior_h0, prior_h0,
            hi or lo)


def bf01_between(f_stat: float, df1: int, df2: int, n_obs: int,
                 prior_h0: float = 0.5) -> EvidenceResult:
    """BIC Bayes factor for an independent-groups ANOVA.

    log BF01 = [df1 * ln(N) - N * ln(1 + F * df1 / df2)] / 2 with N = n_obs
    independent observations.
    """
    f, prior = _check_f(f_stat), _check_prior(prior_h0)
    df1, df2, n = integer("df1", df1, 1), integer("df2", df2, 1), integer("n_obs", n_obs, 2)
    log_bf01 = _log_bf01_between(f, real("df1", df1), real("df2", df2), real("n_obs", n))
    return EvidenceResult(Method.BETWEEN_SUBJECTS, *_evidence(log_bf01, prior))


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
    f, prior = _check_f(f_stat), _check_prior(prior_h0)
    log_bf01 = _log_bf01_minimal_rm(f, design.n, design.k)
    return EvidenceResult(Method.MINIMAL_RM, *_evidence(log_bf01, prior))


def delta_bic_nathoo(stats: SummaryStats, prior_h0: float = 0.5) -> EvidenceResult:
    """Nathoo & Masson (2016) sums-of-squares Bayes factor for repeated
    measures, which estimates and adjusts for the intraclass correlation.

    dBIC10 = n(k-1) * ln[(SST-SSA-SSB)/(SST-SSB)]
           + (k+2) * ln[n(SST-SSA)/SSB] - 3 * ln[n*SST/SSB]
    and BF01 = exp(dBIC10 / 2).
    """
    if not isinstance(stats, SummaryStats):
        raise DomainError(f"stats must be a SummaryStats, got {type(stats).__name__}")
    prior = _check_prior(prior_h0)
    log_bf01 = _log_bf01_nathoo(stats.design.n, stats.design.k, stats.ss_treatment,
                                stats.ss_subjects, stats.ss_total)
    return EvidenceResult(Method.NATHOO_MASSON, *_evidence(log_bf01, prior))


def choose_model(result: EvidenceResult) -> ModelChoice:
    """Pick H0 when BF01 >= 1 (log BF01 >= 0), else H1.

    The tie at BF01 = 1 goes to H0 so repeated runs classify deterministically.
    """
    return ModelChoice.H0 if _chooses_h0(result.log_bf01) else ModelChoice.H1


def _chooses_h0(log_bf01):
    """The rule of :func:`choose_model` on a log BF01 or an array of them."""
    return log_bf01 >= 0


def f_cdf(x: float, df1: float, df2: float) -> float:
    """P(F <= x) for the F distribution with (df1, df2) degrees of freedom.

    Evaluated as the regularized incomplete beta function
    I_{df1*x / (df1*x + df2)}(df1/2, df2/2). The absolute error is below 1e-10
    for df1 + df2 up to 1e5; past that it grows, to 3.5e-10 at df2 = 2e5, 5.5e-9
    at 1e7 and 2.6e-2 for ``f_cdf(1, 2, 1e13)`` (ROADMAP item 2).

    Raises
    ------
    DomainError
        For x < 0, NaN x, degrees of freedom not positive and finite, or an
        argument that is not a real number (``bool`` included) or is past the float range;
        and for degrees of freedom too large to evaluate: the continued fraction reaches
        its step ceiling (``f_cdf(1, d, d)`` from d = 1.54e11) or ``lgamma(df1/2 + df2/2)``
        passes the float range (df1 + df2 from about 5e305).
    """
    d1, d2 = real("df1", df1), real("df2", df2)
    if not (0 < d1 < math.inf and 0 < d2 < math.inf):
        raise DomainError(
            f"degrees of freedom must be positive and finite, got ({df1!r}, {df2!r})")
    f = real("x", x)
    if not f >= 0:
        raise DomainError(f"F statistic must be a nonnegative real, got {x!r}")
    t = d1 * f
    if t == math.inf:  # x or df1 * x beyond the float range: the limit
        return 1.0
    # where t + df2 overflows, x and y from their halves, exact at that size
    p, q = (t, d2) if t + d2 < math.inf else (0.5 * t, 0.5 * d2)
    try:
        return _reg_incomplete_beta(0.5 * d1, 0.5 * d2, p / (p + q), q / (p + q))
    except (OverflowError, RuntimeError):  # lgamma's float range; Lentz's step ceiling
        raise DomainError("degrees of freedom too large to evaluate, "
                          f"got ({df1!r}, {df2!r})") from None


def _reg_incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) by Lentz's continued fraction, switching to
    1 - I_y(b, a) for x > (a+1)/(a+b+2). The caller passes y = 1 - x as well, each to
    its own relative precision: the smaller taken as 1 minus the larger loses digits."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    # both logarithms from the smaller of x and y, which has its full relative precision
    ln_x, ln_y = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * ln_x + b * ln_y
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_continued_fraction(a, b, x) / a
    else:
        value = 1.0 - front * _beta_continued_fraction(b, a, y) / b
    return min(max(value, 0.0), 1.0)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction. Near the
    beta mean it needs about sqrt(max(a, b)) steps, so its bound grows with them, up
    to a ceiling: past it (or once the coefficients overflow to NaN) it raises."""
    tiny = 1e-300  # floor keeps intermediate denominators away from 0
    eps = 1e-16
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, min(501 + int(3 * math.sqrt(max(a, b))), 20_000)):
        m2 = 2 * m
        # the even and then the odd coefficient of step m
        for coef in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
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
