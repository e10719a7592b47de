"""The public API: exactly the names below, each importable from the package."""

import rmbayes

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    # adding or removing a public name must be a deliberate edit of this list
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert rmbayes.__all__ == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec("from rmbayes import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
