"""Exception types and the number checks shared across the package."""

from __future__ import annotations

import numbers
import operator
from typing import Optional

__all__ = ["DegenerateResidualError", "DesignInferenceError", "DomainError"]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class DegenerateResidualError(DomainError):
    """The sums-of-squares decomposition left no residual variability, so the
    treatment F statistic is unbounded."""


class DesignInferenceError(DomainError):
    """Reported degrees of freedom are not consistent with a one-factor
    repeated-measures design, so (n, k) cannot be recovered from them."""


def as_int(value) -> Optional[int]:
    """``value`` as a Python int when it is an integer, numpy integers
    included; None for anything else, ``bool`` too."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def is_real(value) -> bool:
    """Whether ``value`` is a real number: any ``numbers.Real``, numpy
    scalars included, but not ``bool``."""
    if isinstance(value, float):  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_float_range(name: str, value: int) -> None:
    """Raise DomainError, naming ``value``, for an integer too large for a float:
    the formulas would otherwise stop with an OverflowError."""
    try:
        float(value)
    except OverflowError:
        from decimal import Context, Decimal  # only here: str() of a long int may raise
        shown = Context(prec=17).normalize(Decimal(value))
        raise DomainError(f"{name} = {shown:g} lies beyond the float range") from None
