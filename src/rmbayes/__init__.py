"""Bayes factors and posterior model probabilities for repeated-measures
ANOVA designs, computable from minimal summary statistics, raw data matrices,
or statistics reported in text; plus a Monte Carlo harness comparing the
minimal BIC method with the Nathoo-Masson sums-of-squares method."""

__version__ = "0.1.0"

from .anova import AnovaTable, DesignSpec, f_cdf, rm_anova
from .apa import ReportedStat, infer_rm_design, parse_reports
from .bayes import (
    EvidenceResult,
    Method,
    ModelChoice,
    SummaryStats,
    bf01_between,
    bf01_minimal_rm,
    choose_model,
    delta_bic_nathoo,
)
from .errors import DegenerateResidualError, DesignInferenceError, DomainError
from .simulate import (
    CellResult,
    FiveNumberSummary,
    GridReport,
    RepSeries,
    SimulationConfig,
    TreatmentProfile,
    generate_dataset,
    make_profile,
    run_cell,
    run_grid,
)

__all__ = [
    "AnovaTable",
    "CellResult",
    "DegenerateResidualError",
    "DesignInferenceError",
    "DesignSpec",
    "DomainError",
    "EvidenceResult",
    "FiveNumberSummary",
    "GridReport",
    "Method",
    "ModelChoice",
    "RepSeries",
    "ReportedStat",
    "SimulationConfig",
    "SummaryStats",
    "TreatmentProfile",
    "__version__",
    "bf01_between",
    "bf01_minimal_rm",
    "choose_model",
    "delta_bic_nathoo",
    "f_cdf",
    "generate_dataset",
    "infer_rm_design",
    "make_profile",
    "parse_reports",
    "rm_anova",
    "run_cell",
    "run_grid",
]
