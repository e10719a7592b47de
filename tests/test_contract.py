"""The scalar contract of the library and the CLI.

Every public entry point that takes scalars returns a result with no NaN in
it, or raises DomainError, whatever it is given: huge ints, ``Fraction``s,
``Decimal``s, numpy scalars of any width, ``bool``s, complex numbers, text,
``None``, NaN, infinities and subnormals. Every ``bf``, ``bf-ss`` and
``simulate`` command line ends with exit 0, 2 or 3, at most one ``error:``
line and no traceback. The suite's filters make every warning an error, so a
numpy ``RuntimeWarning`` breaks the contract too.

``rm_anova`` takes matrices of those scalars, whose degrees of freedom are
small enough for its p-value to converge. ``f_cdf`` takes those scalars too, and
raises DomainError for degrees of freedom too large to evaluate: once both pass
about 1.5e11 (``f_cdf(1, d, d)`` from d = 1.54e11, while with df1 up to 1e6 no
df2 up to 5.6e14 does) its continued fraction reaches its step ceiling within
milliseconds, and once df1 + df2 passes about 5e305 ``lgamma`` overflows. Its
accuracy at large degrees of freedom is an open item of its own (ROADMAP item 2).
"""

import math
import re
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from rmbayes import (
    DesignSpec,
    EvidenceResult,
    SimulationConfig,
    SummaryStats,
    bf01_between,
    bf01_minimal_rm,
    delta_bic_nathoo,
    f_cdf,
    generate_dataset,
    rm_anova,
)
from rmbayes.cli import main
from rmbayes.errors import DomainError

from conftest import fresh_python


def _quietly(make):
    """``make`` with warnings off: numpy's overflow warning on building a float16
    from 1e300 belongs to the input under test, not to the code."""
    def build(value):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return make(value)
    return build


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)  # subnormals included
_HUGE_INTS = st.integers(min_value=-(10 ** 420), max_value=10 ** 420)
SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=60),
    st.integers(),
    _HUGE_INTS,
    _FLOATS,
    st.fractions(),
    st.builds(Fraction, _HUGE_INTS, st.integers(min_value=1, max_value=10 ** 420)),
    st.decimals(),
    _FLOATS.map(_quietly(np.float16)),
    _FLOATS.map(_quietly(np.float32)),
    _FLOATS.map(np.float64),
    st.one_of(_FLOATS.map(repr), st.sampled_from(["1e400", "-1e400", "1e-4000", "1e5000"]))
    .map(_quietly(np.longdouble)),
    st.integers(min_value=0, max_value=2 ** 64 - 1).map(np.uint64),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.none(),
    st.text(max_size=4),
)
# counts: mostly valid ones, so that the formulas run, and the whole strategy
COUNTS = st.one_of(st.integers(min_value=2, max_value=400),
                   st.sampled_from([10 ** 300, 10 ** 306, 10 ** 307, 2 ** 1023]), SCALARS)


def matrices(entries):
    """n-by-k nested lists of ``entries``, with 2 <= n <= 6 and 2 <= k <= 5."""
    return st.tuples(st.integers(2, 6), st.integers(2, 5)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


_float_array = _quietly(lambda value: np.array(value, dtype=float))


def _casts_to_float(value) -> bool:
    try:
        _float_array(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def assert_no_nan(result) -> None:
    values = vars(result).values()
    assert not any(isinstance(v, float) and math.isnan(v) for v in values), result


def assert_evidence(result: EvidenceResult) -> None:
    assert_no_nan(result)
    assert 0.0 <= result.posterior_h0 <= 1.0 and 0.0 <= result.posterior_h1 <= 1.0
    assert all(type(getattr(result, name)) is float
               for name in ("log_bf01", "bf01", "bf10", "delta_bic10", "posterior_h0",
                            "posterior_h1", "prior_h0"))


def value_or_domain_error(call):
    """``call()``, or None where it raises DomainError; anything else fails."""
    try:
        return call()
    except DomainError:
        return None


FUZZ = settings(max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestScalarProperty:
    @FUZZ
    @given(f=SCALARS, df1=COUNTS, df2=COUNTS, n_obs=COUNTS, prior=SCALARS)
    def test_bf01_between(self, f, df1, df2, n_obs, prior):
        result = value_or_domain_error(lambda: bf01_between(f, df1, df2, n_obs, prior))
        if result is not None:
            assert_evidence(result)

    @FUZZ
    @given(x=SCALARS, df1=COUNTS, df2=COUNTS)
    def test_f_cdf(self, x, df1, df2):
        value = value_or_domain_error(lambda: f_cdf(x, df1, df2))
        if value is not None:
            assert type(value) is float and 0.0 <= value <= 1.0, value

    @FUZZ
    @given(f=SCALARS, n=COUNTS, k=COUNTS, prior=SCALARS)
    def test_bf01_minimal_rm(self, f, n, k, prior):
        result = value_or_domain_error(lambda: bf01_minimal_rm(f, DesignSpec(n, k), prior))
        if result is not None:
            assert_evidence(result)

    @FUZZ
    @given(ssa=SCALARS, ssb=SCALARS, sst=SCALARS, n=COUNTS, k=COUNTS, prior=SCALARS)
    def test_summary_stats_and_delta_bic_nathoo(self, ssa, ssb, sst, n, k, prior):
        stats = value_or_domain_error(lambda: SummaryStats(ssa, ssb, sst, DesignSpec(n, k)))
        if stats is None:
            return
        assert_no_nan(stats)
        result = value_or_domain_error(lambda: delta_bic_nathoo(stats, prior))
        if result is not None:
            assert_evidence(result)

    @FUZZ
    @given(data=st.one_of(matrices(SCALARS),
                          matrices(SCALARS.filter(_casts_to_float)).map(_float_array)))
    def test_rm_anova(self, data):
        table = value_or_domain_error(lambda: rm_anova(data))
        if table is not None:
            assert_no_nan(table)

    @FUZZ
    @given(n=COUNTS, k=COUNTS)
    def test_design_spec(self, n, k):
        design = value_or_domain_error(lambda: DesignSpec(n, k))
        if design is not None:
            assert type(design.n) is int and type(design.k) is int

    @FUZZ
    @given(n=COUNTS, rho=SCALARS, delta=SCALARS, k=COUNTS, reps=COUNTS, seed=COUNTS,
           spacing=st.sampled_from(["uniform", "equal", "other"]))
    def test_simulation_config(self, n, rho, delta, k, reps, seed, spacing):
        config = value_or_domain_error(lambda: SimulationConfig(
            n=n, rho=rho, delta=delta, k=k, reps=reps, master_seed=seed, spacing=spacing))
        if config is not None:
            assert_no_nan(config)
            assert type(config.rho) is float and type(config.delta) is float


class TestNamedInputs:
    """Inputs that once ended in OverflowError, ``ValueError: math domain error``
    or a numpy RuntimeWarning, because a function checked the caller's value and
    then computed in the caller's type; and inputs whose evidence was NaN."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: f_cdf(10 ** 400, 1, 2), "x = 1e+400 lies beyond the float range",
                     id="f_cdf-huge-x"),
        pytest.param(lambda: bf01_between(10 ** 400, 1, 1, 10),
                     "f_stat = 1e+400 lies beyond the float range", id="between-huge-f"),
        pytest.param(lambda: SummaryStats(10 ** 400, 1, 2, DesignSpec(10, 3)),
                     "ss_treatment = 1e+400 lies beyond the float range", id="ss-huge"),
        pytest.param(lambda: SimulationConfig(n=10, rho=0.2, delta=10 ** 400),
                     "delta = 1e+400 lies beyond the float range", id="config-huge-delta"),
        pytest.param(lambda: bf01_minimal_rm(2.0, DesignSpec(10, 3),
                                             prior_h0=Fraction(1, 10 ** 400)),
                     "prior_h0 must lie strictly between 0 and 1", id="prior-underflows"),
        # lgamma(df1/2 + df2/2) passed the float range: OverflowError before
        pytest.param(lambda: f_cdf(1, 2, 1e306), "too large to evaluate, got (2, 1e+306)",
                     id="f_cdf-huge-df2"),
        pytest.param(lambda: f_cdf(1, 1e306, 2), "too large to evaluate, got (1e+306, 2)",
                     id="f_cdf-huge-df1"),
        pytest.param(lambda: f_cdf(0.5, 1e308, 1e308),
                     "too large to evaluate, got (1e+308, 1e+308)", id="f_cdf-huge-dfs"),
        # df1 * x + df2 overflows: x and y were both 0, and the CDF read 0
        pytest.param(lambda: f_cdf(1, 1e308, 1e308),
                     "too large to evaluate, got (1e+308, 1e+308)", id="f_cdf-sum-overflows"),
        pytest.param(lambda: f_cdf(1e308, 1, 1e308), "too large to evaluate, got (1, 1e+308)",
                     id="f_cdf-huge-x-and-df2"),
        pytest.param(lambda: f_cdf(1.7976931348623157e308, 1, 1e293),
                     "too large to evaluate, got (1, 1e+293)", id="f_cdf-max-x-df2-1e293"),
        pytest.param(lambda: f_cdf(1.7976931348623157e308, 1, 1e300),
                     "too large to evaluate, got (1, 1e+300)", id="f_cdf-max-x-df2-1e300"),
        pytest.param(lambda: f_cdf(1.0, np.float16(3), np.longdouble("1e400")),
                     "df2 = 1e+400 lies beyond the float range", id="f_cdf-longdouble-df"),
        pytest.param(lambda: SimulationConfig(n=10, rho=Fraction(10 ** 400, 3), delta=0.5),
                     "rho = 3.3333333333333333e+399 lies beyond the float range",
                     id="config-huge-fraction"),
        pytest.param(lambda: bf01_between(np.longdouble("-1e400"), 1, 1, 10),
                     "f_stat = -1e+400 lies beyond the float range", id="longdouble-negative"),
        pytest.param(lambda: generate_dataset(SimulationConfig(n=10, rho=0.2, delta=1.7e308), 0),
                     "cell n10_k3_rho0.2_delta1.7e+308, replication 0: ",
                     id="dataset-overflows"),
        # numpy's MemoryError and ValueError ("array is too big") before
        pytest.param(lambda: generate_dataset(SimulationConfig(n=2 ** 50, rho=0.2, delta=0.0,
                                                               reps=1), 0),
                     "cell n1125899906842624_k3_rho0.2_delta0: its n-by-k design does not "
                     "fit in memory", id="dataset-huge-n"),
        pytest.param(lambda: generate_dataset(SimulationConfig(n=10, rho=0.2, delta=0.0,
                                                               k=2 ** 61, reps=1), 0),
                     "cell n10_k2305843009213693952_rho0.2_delta0: its n-by-k design does not "
                     "fit in memory", id="dataset-huge-k"),
    ])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("call, twin", [
        pytest.param(lambda: f_cdf(3, np.float16(3), 3), lambda: f_cdf(3.0, 3.0, 3.0),
                     id="f_cdf-float16"),
        pytest.param(lambda: bf01_between(np.uint64(2 ** 64 - 1), 2 ** 64 - 1, 2 ** 64 - 1, 10),
                     lambda: bf01_between(float(2 ** 64 - 1), 2 ** 64 - 1, 2 ** 64 - 1, 10),
                     id="between-uint64"),
        pytest.param(lambda: bf01_minimal_rm(np.float16(60000), DesignSpec(10 ** 6, 3)),
                     lambda: bf01_minimal_rm(60000.0, DesignSpec(10 ** 6, 3)),
                     id="minimal-float16"),
        pytest.param(lambda: bf01_minimal_rm(Fraction(5, 2), DesignSpec(10, 3), Fraction(1, 4)),
                     lambda: bf01_minimal_rm(2.5, DesignSpec(10, 3), 0.25), id="fractions"),
    ])
    def test_float_twin(self, call, twin):
        assert call() == twin()

    def test_profile_of_an_unallocatable_k(self):
        # make_profile's former loop over range(k) never returned at this k and grew
        # without bound, so a fresh interpreter runs it, in 2 GiB and under a timeout;
        # one OpenBLAS thread, whose per-core buffers would otherwise count against the cap
        code = ("import os, resource, warnings\n"
                "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))\n"
                "warnings.simplefilter('error')\n"
                "from rmbayes import DomainError, SimulationConfig, make_profile\n"
                "try:\n"
                "    make_profile(SimulationConfig(n=10, rho=0.2, delta=0.0, k=2 ** 61))\n"
                "except DomainError as exc:\n"
                "    print(exc)")
        assert fresh_python(code, timeout=60) == (
            "cell n10_k2305843009213693952_rho0.2_delta0: its n-by-k design does not fit "
            "in memory")

    def test_non_reals_keep_their_messages(self):
        for bad in (Decimal("2.5"), 1 + 0j, np.bool_(True), "2.5", None):
            with pytest.raises(DomainError, match="F statistic must be a finite nonnegative"):
                bf01_minimal_rm(bad, DesignSpec(10, 3))
            with pytest.raises(DomainError, match="degrees of freedom must be positive"):
                f_cdf(1.0, bad, 3)


def _cli_number():
    """A command-line value: integers and floats of any size, and text that is
    not a number of the option's type."""
    return st.one_of(
        st.integers(min_value=-5, max_value=60).map(str),
        _HUGE_INTS.map(str),
        _FLOATS.map(repr),
        st.sampled_from(["0", "1e400", "-0.0", "nan", "inf", "0x10", "010", "", "1,5", "x"]),
    )


def assert_clean_exit(result) -> None:
    """Exit 0, 2 or 3; at most one ``error:`` line; no traceback."""
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.exception)
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1, result.stderr
    assert "Traceback" not in result.output + result.stderr


class TestCommandLines:
    @settings(max_examples=150, deadline=None)
    @given(f=_cli_number(), n=_cli_number(), k=_cli_number(), prior=_cli_number(),
           as_json=st.booleans())
    def test_bf(self, f, n, k, prior, as_json):
        args = ["bf", "--f", f, "--n", n, "--k", k, "--prior-h0", prior]
        result = CliRunner().invoke(main, args + ["--json"] * as_json)
        assert_clean_exit(result)
        if result.exit_code == 0:
            assert "nan" not in result.output.lower()

    @settings(max_examples=150, deadline=None)
    @given(sst=_cli_number(), ssa=_cli_number(), ssb=_cli_number(), n=_cli_number(),
           k=_cli_number(), as_json=st.booleans())
    def test_bf_ss(self, sst, ssa, ssb, n, k, as_json):
        args = ["bf-ss", "--sst", sst, "--ssa", ssa, "--ssb", ssb, "--n", n, "--k", k]
        result = CliRunner().invoke(main, args + ["--json"] * as_json)
        assert_clean_exit(result)
        if result.exit_code == 0:
            assert "nan" not in result.output.lower()

    # simulate stays small: a --reps between 5 and 2**63 or a large --n would allocate
    # memory and run long, so they are drawn only where they cannot be allocated
    _REPS = st.one_of(st.integers(min_value=1, max_value=5).map(str),
                      st.integers(min_value=2 ** 63, max_value=10 ** 30).map(str),
                      st.sampled_from(["0", "-1", "x", "1e3"]))
    _N = st.one_of(st.integers(min_value=-1, max_value=12).map(str),
                   st.integers(min_value=2 ** 50, max_value=10 ** 30).map(str))
    _SMALL_FLOAT = st.one_of(st.floats(min_value=-0.5, max_value=1.5).map(repr),
                             st.sampled_from(["nan", "inf", "1e400", "x"]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_simulate(self, data):
        # a grid of at most 4 cells
        sizes = data.draw(st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2),
                                           (2, 2, 1), (1, 2, 2), (2, 1, 2), (4, 1, 1)]))
        lists = [",".join(data.draw(st.lists(strategy, min_size=size, max_size=size)))
                 for strategy, size in zip((self._N, self._SMALL_FLOAT, self._SMALL_FLOAT),
                                           sizes)]
        k = data.draw(st.one_of(st.integers(min_value=-1, max_value=5).map(str),
                                st.just("x")))
        reps = data.draw(self._REPS)
        workers = data.draw(st.sampled_from(["1", "2", "0", "-1", "x"]))
        seed = data.draw(st.sampled_from(["0", "010", "0x2a", "0b11", "-1", "2" * 30]))
        with tempfile.TemporaryDirectory() as out_dir:
            result = CliRunner().invoke(main, [
                "simulate", "--n", lists[0], "--rho", lists[1], "--delta", lists[2],
                "--k", k, "--reps", reps, "--workers", workers, "--seed", seed,
                "--out-dir", out_dir])
        assert_clean_exit(result)
