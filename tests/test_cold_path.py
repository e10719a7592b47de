"""The commands and imports that need no arrays leave numpy unloaded.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import pytest

from conftest import fresh_python

REPORT = "Reaction times differed, F(2, 44) = 5.1, p = .01, across conditions.\n"

# runs rmbayes.cli.main on argv
RUN_MAIN = """
import sys
from rmbayes.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
"""
# ... then prints whether numpy is loaded
RUN_CLI = RUN_MAIN + 'print("numpy" in sys.modules)\n'
# ... then prints whether numpy.ma is loaded
RUN_CLI_MA = RUN_MAIN + 'print("numpy.ma" in sys.modules)\n'
# ... then prints which of a process pool's modules are loaded
RUN_CLI_POOL = (RUN_MAIN + 'print(sorted({"concurrent.futures.process", "multiprocessing"}'
                ' & set(sys.modules)))\n')


# ... with every text cut into three parts, two of them rendered by forked children;
# then prints how many were forked and which of numpy and a process pool's modules
# are loaded
RUN_CLI_SPLIT = """
import os, sys
import rmbayes.cli
rmbayes.cli._PART_CHARS = 16
os.sched_getaffinity = lambda pid: {0, 1, 2}
forks, fork = [], os.fork
def counted_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted_fork
""" + RUN_MAIN + (
    'print(len(forks), sorted({"numpy", "concurrent.futures.process", "multiprocessing"}'
    ' & set(sys.modules)))\n')


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


@pytest.mark.parametrize("args", [["parse", "FILE"], ["parse", "FILE", "--json"]])
def test_split_parse_leaves_numpy_and_the_process_pool_unloaded(report_file, args):
    args = [report_file if arg == "FILE" else arg for arg in args]
    assert fresh_python(RUN_CLI_SPLIT, args) == "2 []"


def test_anova_loads_numpy(tmp_path):
    # the check above can fail: a command that needs arrays does load numpy
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n2,4\n3,5\n", encoding="utf-8")
    assert fresh_python(RUN_CLI, ["anova", str(path)]) == "True"


@pytest.mark.parametrize("statement", [
    "import rmbayes",
    "from rmbayes import bf01_minimal_rm, parse_reports, DesignSpec",
    "from rmbayes import f_cdf; f_cdf(1.0, 2, 3)",
])
def test_package_import_leaves_numpy_unloaded(statement):
    assert fresh_python(f"import sys\n{statement}\nprint('numpy' in sys.modules)") == "False"


def test_simulate_import_leaves_numpy_random_unloaded():
    # rmbayes.cli no longer loads simulate, so check it directly: numpy.random
    # is imported on the first substream built, not with the module
    code = "import sys, rmbayes.simulate\nprint('numpy.random' in sys.modules)"
    assert fresh_python(code) == "False"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_loads_no_process_pool_at_any_worker_count(tmp_path, workers):
    # a run on two workers forks its second part itself
    args = ["simulate", "--n", "20", "--rho", "0.2,0.8", "--delta", "0", "--reps", "3",
            "--workers", workers, "--out-dir", str(tmp_path)]
    assert fresh_python(RUN_CLI_POOL, args) == "[]"


def test_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # np.percentile would load it through np.unique; the five-number summaries
    # and the rest of the grid's path do without
    args = ["simulate", "--n", "20", "--rho", "0.2", "--delta", "0,0.5", "--reps", "20",
            "--emit-per-rep", "--out-dir", str(tmp_path)]
    assert fresh_python(RUN_CLI_MA, args) == "False"
