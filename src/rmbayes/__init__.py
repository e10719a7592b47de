"""Bayes factors and posterior model probabilities for repeated-measures
ANOVA designs, computable from minimal summary statistics, raw data matrices,
or statistics reported in text; plus a Monte Carlo harness comparing the
minimal BIC method with the Nathoo-Masson sums-of-squares method."""

__version__ = "0.1.0"

from importlib import import_module

from . import apa, bayes, errors
from .apa import *
from .bayes import *
from .errors import *

# anova and simulate import numpy, so they load on first use; their public
# names are listed here, and each module's __all__ is read from this table
_LAZY = {
    "anova": ("AnovaTable", "rm_anova"),
    "simulate": ("CellResult", "FiveNumberSummary", "GridReport", "RepSeries",
                 "SimulationConfig", "generate_dataset", "make_profile", "run_cell",
                 "run_grid"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

# the public API is the union of the modules' own __all__
__all__ = sorted([*apa.__all__, *bayes.__all__, *errors.__all__, *_LAZY_NAMES,
                  "__version__"])


def __getattr__(name: str):
    """``anova`` or ``simulate``, or one of their public names, imported on
    first use."""
    module_name = _LAZY_NAMES.get(name, name)
    if module_name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    return module if name == module_name else getattr(module, name)
