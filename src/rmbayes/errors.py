"""Exception types and the number checks shared across the package."""

from __future__ import annotations

import math
import numbers
import operator

__all__ = ["DegenerateResidualError", "DesignInferenceError", "DomainError"]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class DegenerateResidualError(DomainError):
    """The sums-of-squares decomposition left no residual variability, so the
    treatment F statistic is unbounded."""


class DesignInferenceError(DomainError):
    """Reported degrees of freedom are not consistent with a one-factor
    repeated-measures design, so (n, k) cannot be recovered from them."""


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int, numpy integers included; DomainError for anything
    else (``bool`` and ``20.0`` too) and for an integer outside [low, high]."""
    try:
        result = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        result = None
    if result is None or result < low or (high is not None and result > high):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return result


def is_real(value) -> bool:
    """Whether ``value`` is a real number: any ``numbers.Real``, numpy
    scalars included, but not ``bool``."""
    if type(value) is int or isinstance(value, float):  # the common cases, no ABC check
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real(name: str, value) -> float:
    """``value`` as a float; NaN, which every domain check rejects, for a non-real (``bool``
    too); DomainError for a real beyond the float range, which float() refuses or makes inf."""
    if type(value) is float:  # float and int, the common cases, skip the ABC check
        return value
    if type(value) is not int and not is_real(value):
        return math.nan
    try:
        result = float(value)
        if not math.isinf(result) or value == result:
            return result
    except OverflowError:
        pass
    from decimal import Context, Decimal  # only here: str() of a long int may raise
    shown = Context(prec=17).normalize(Decimal(int(value)))
    raise DomainError(f"{name} = {shown:g} lies beyond the float range")
