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
