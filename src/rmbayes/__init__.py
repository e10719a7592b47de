"""Bayes factors and posterior model probabilities for repeated-measures
ANOVA designs, computable from minimal summary statistics, raw data matrices,
or statistics reported in text; plus a Monte Carlo harness comparing the
minimal BIC method with the Nathoo-Masson sums-of-squares method."""

__version__ = "0.1.0"

from . import anova, apa, bayes, errors, simulate
from .anova import *
from .apa import *
from .bayes import *
from .errors import *
from .simulate import *

# the public API is the union of the modules' own __all__
__all__ = sorted([*anova.__all__, *apa.__all__, *bayes.__all__, *errors.__all__,
                  *simulate.__all__, "__version__"])
