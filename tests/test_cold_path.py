"""The commands and imports that need no arrays leave numpy unloaded.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import pytest

from conftest import fresh_python

REPORT = "Reaction times differed, F(2, 44) = 5.1, p = .01, across conditions.\n"

# runs rmbayes.cli.main on argv, then prints whether numpy is loaded
RUN_CLI = """
import sys
from rmbayes.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
print("numpy" in sys.modules)
"""


@pytest.fixture()
def report_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(REPORT, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("args", [
    ["--version"],
    ["bf", "--f", "1.336", "--n", "23", "--k", "2"],
    ["bf", "--f", "1.336", "--n", "23", "--k", "2", "--json"],
    ["bf-ss", "--sst", "100", "--ssa", "10", "--ssb", "30", "--n", "10", "--k", "3"],
    ["parse", "FILE"],
    ["parse", "FILE", "--json"],
    ["parse"],
    ["parse", "-", "--json"],
])
def test_cold_commands_leave_numpy_unloaded(report_file, args):
    args = [report_file if arg == "FILE" else arg for arg in args]
    assert fresh_python(RUN_CLI, args, stdin=REPORT) == "False"


def test_anova_loads_numpy(tmp_path):
    # the check above can fail: a command that needs arrays does load numpy
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n2,4\n3,5\n", encoding="utf-8")
    assert fresh_python(RUN_CLI, ["anova", str(path)]) == "True"


@pytest.mark.parametrize("statement", [
    "import rmbayes",
    "from rmbayes import bf01_minimal_rm, parse_reports, DesignSpec",
])
def test_package_import_leaves_numpy_unloaded(statement):
    assert fresh_python(f"import sys\n{statement}\nprint('numpy' in sys.modules)") == "False"


def test_simulate_import_leaves_numpy_random_unloaded():
    # rmbayes.cli no longer loads simulate, so check it directly: numpy.random
    # is imported on the first substream built, not with the module
    code = "import sys, rmbayes.simulate\nprint('numpy.random' in sys.modules)"
    assert fresh_python(code) == "False"
