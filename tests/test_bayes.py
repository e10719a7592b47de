"""Bayes factor routes: worked examples, algebraic identities, properties."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmbayes import (
    DesignSpec,
    EvidenceResult,
    Method,
    ModelChoice,
    SummaryStats,
    bf01_between,
    bf01_minimal_rm,
    choose_model,
    delta_bic_nathoo,
    rm_anova,
)
from rmbayes.bayes import _posterior_h0
from rmbayes.errors import DomainError


def minimal_log_bf01(f: float, n: int, k: int) -> float:
    # direct evaluation of the repeated-measures closed form (test oracle)
    return 0.5 * ((k - 1) * math.log(n * k - n) + (n - n * k) * math.log1p(f / (n - 1)))


DESIGN_23_2 = DesignSpec(n=23, k=2)


class TestMinimalRm:
    def test_worked_example(self):
        result = bf01_minimal_rm(1.336, DESIGN_23_2)
        assert result.bf01 == pytest.approx(2.435, abs=0.001)
        assert result.posterior_h0 == pytest.approx(0.709, abs=0.001)
        assert result.bf01 == pytest.approx(2.4345626902588173, rel=1e-12)
        assert result.method is Method.MINIMAL_RM

    def test_zero_f_collapses_to_root_of_independent_count(self):
        result = bf01_minimal_rm(0.0, DESIGN_23_2)
        assert result.bf01 == pytest.approx(math.sqrt(23.0), rel=1e-12)

    def test_equals_between_subjects_reduction(self):
        rng = np.random.default_rng(31415)
        for _ in range(10_000):
            n = int(rng.integers(2, 1000))
            k = int(rng.integers(2, 13))
            f = float(rng.uniform(0.0, 60.0))
            via_rm = bf01_minimal_rm(f, DesignSpec(n=n, k=k))
            via_between = bf01_between(f, k - 1, (n - 1) * (k - 1), n * (k - 1))
            assert via_rm.log_bf01 == pytest.approx(via_between.log_bf01, rel=1e-12, abs=0.0)
            assert via_rm.method is Method.MINIMAL_RM
            assert via_between.method is Method.BETWEEN_SUBJECTS

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2718)
        for _ in range(2000):
            n = int(rng.integers(2, 500))
            k = int(rng.integers(2, 10))
            f = float(rng.uniform(0.0, 40.0))
            result = bf01_minimal_rm(f, DesignSpec(n=n, k=k))
            assert result.log_bf01 == pytest.approx(
                minimal_log_bf01(f, n, k), rel=1e-9, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=400),
        k=st.integers(min_value=2, max_value=10),
        f1=st.floats(min_value=0.0, max_value=100.0),
        f2=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_strictly_decreasing_in_f(self, n, k, f1, f2):
        if f2 < f1:
            f1, f2 = f2, f1
        if f2 - f1 < 1e-9:
            return
        design = DesignSpec(n=n, k=k)
        assert bf01_minimal_rm(f1, design).log_bf01 > bf01_minimal_rm(f2, design).log_bf01

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        k=st.integers(min_value=2, max_value=5),
        f=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_reciprocity(self, n, k, f):
        result = bf01_minimal_rm(f, DesignSpec(n=n, k=k))
        assert result.bf01 * result.bf10 == pytest.approx(1.0, rel=1e-12)

    def test_no_overflow_saturates_with_flag(self):
        strong_h1 = bf01_minimal_rm(1e4, DesignSpec(n=10**6, k=2))
        assert math.isfinite(strong_h1.log_bf01)
        assert strong_h1.saturated
        assert strong_h1.bf10 == sys.float_info.max
        assert strong_h1.posterior_h0 == 0.0
        assert not math.isnan(strong_h1.bf01)

        strong_h0 = bf01_minimal_rm(0.0, DesignSpec(n=10**6, k=101))
        assert math.isfinite(strong_h0.log_bf01)
        assert strong_h0.saturated
        assert strong_h0.bf01 == sys.float_info.max
        assert strong_h0.posterior_h0 == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            bf01_minimal_rm(-0.5, DESIGN_23_2)
        with pytest.raises(DomainError):
            bf01_minimal_rm(float("nan"), DESIGN_23_2)
        with pytest.raises(DomainError):
            bf01_minimal_rm(1.0, DESIGN_23_2, prior_h0=1.0)
        with pytest.raises(DomainError):
            bf01_minimal_rm(1.0, (23, 2))

    @pytest.mark.parametrize("n, k, shown", [
        pytest.param(10**400, 3, "2e+400", id="n"),
        pytest.param(2, 10**400, "2e+400", id="k"),
        pytest.param(2**1024, 2, "1.7976931348623159e+308", id="n-2**1024"),
        pytest.param(10**5000, 2, "1e+5000", id="n-past-str"),  # str() of this int raises
    ])
    def test_design_past_the_float_range_rejected(self, n, k, shown):
        with pytest.raises(DomainError, match=re.escape(f"n*(k-1) = {shown} lies beyond the float")):
            DesignSpec(n=n, k=k)

    def test_largest_design_inside_the_float_range_evaluates(self):
        # n(k-1) = 2**1023; F / (n-1) is tiny, so ln(1 + F/(n-1)) * n(k-1) is F
        result = bf01_minimal_rm(2.0, DesignSpec(n=2**1023, k=2))
        assert result.log_bf01 == pytest.approx(0.5 * (1023 * math.log(2) - 2.0), rel=1e-12)

    @pytest.mark.parametrize("f_stat,prior", [
        ("1.3", 0.5), (None, 0.5), (True, 0.5), (1.3, None), (1.3, "0.5"),
    ])
    def test_non_numeric_inputs(self, f_stat, prior):
        with pytest.raises(DomainError, match="must"):
            bf01_minimal_rm(f_stat, DESIGN_23_2, prior_h0=prior)


class TestBetweenSubjects:
    def test_worked_example(self):
        result = bf01_between(2.76, 3, 96, 100)
        assert result.bf01 == pytest.approx(15.98, abs=0.02)
        assert result.bf01 == pytest.approx(15.977562577065408, rel=1e-12)

    def test_zero_f(self):
        assert bf01_between(0.0, 3, 96, 100).bf01 == pytest.approx(1000.0, rel=1e-12)

    def test_posterior_from_worked_example(self):
        result = bf01_between(2.76, 3, 96, 100)
        assert result.posterior_h0 == pytest.approx(0.941, abs=0.001)
        assert result.posterior_h0 == pytest.approx(result.bf01 / (result.bf01 + 1.0), rel=1e-12)

    @pytest.mark.parametrize("args", [
        (-1.0, 3, 96, 100),
        (1.0, 0, 96, 100),
        (1.0, 3, 0, 100),
        (1.0, 3, 96, 1),
        (1.0, 1.5, 96, 100),
        (1.0, True, 96, 100),
        (1.0, 3, True, 100),
        ("1.3", 3, 96, 100),
        (None, 3, 96, 100),
        (True, 3, 96, 100),
        (1.3, 3, 96, 100, None),
        (1.3, 3, 96, 100, "0.5"),
    ])
    def test_invalid_inputs(self, args):
        with pytest.raises(DomainError):
            bf01_between(*args)

    @pytest.mark.parametrize("args, name", [
        pytest.param((2.0, 2, 10**400, 10**400), "df2 = 1e+400", id="df2"),
        pytest.param((2.0, 10**400, 2, 10**400), "df1 = 1e+400", id="df1"),
        pytest.param((2.0, 2, 10, 2**1024), "n_obs = 1.7976931348623159e+308", id="n_obs"),
    ])
    def test_counts_past_the_float_range_rejected(self, args, name):
        with pytest.raises(DomainError, match=re.escape(f"{name} lies beyond the float range")):
            bf01_between(*args)

    def test_numpy_integers_accepted(self):
        assert bf01_between(2.0, np.int64(3), np.int32(96), np.uint64(100)) == \
            bf01_between(2.0, 3, 96, 100)

    def test_numpy_reals_accepted(self):
        assert bf01_between(np.float32(2.5), 3, 96, 100, prior_h0=np.float64(0.25)) == \
            bf01_between(2.5, 3, 96, 100, prior_h0=0.25)


class TestNathooMasson:
    def test_worked_example(self):
        stats = SummaryStats(ss_treatment=739.0, ss_subjects=103984.0,
                             ss_total=116399.0, design=DESIGN_23_2)
        result = delta_bic_nathoo(stats)
        assert result.delta_bic10 == pytest.approx(1.812, abs=0.002)
        assert result.bf01 == pytest.approx(2.474, abs=0.002)
        assert result.posterior_h0 == pytest.approx(0.712, abs=0.001)
        assert result.delta_bic10 == pytest.approx(1.811295535842003, rel=1e-12)
        assert result.method is Method.NATHOO_MASSON

    def test_zero_treatment_reduces_to_single_log_term(self):
        design = DesignSpec(n=12, k=4)
        stats = SummaryStats(ss_treatment=0.0, ss_subjects=40.0, ss_total=100.0,
                             design=design)
        result = delta_bic_nathoo(stats)
        expected = (design.k - 1) * math.log(design.n * 100.0 / 40.0)
        assert result.delta_bic10 == pytest.approx(expected, rel=1e-12)
        assert result.delta_bic10 > 0  # evidence for the null when n*SST > SSB
        assert choose_model(result) is ModelChoice.H0

    def test_first_log_argument_equals_residual_ratio(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            matrix = rng.normal(size=(int(rng.integers(3, 30)), int(rng.integers(2, 6))))
            table = rm_anova(matrix)
            lhs = (table.ss_total - table.ss_treatment - table.ss_subjects) / \
                  (table.ss_total - table.ss_subjects)
            rhs = table.ss_residual / (table.ss_treatment + table.ss_residual)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pipeline_consistency_with_f_route(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(2, 6))
            matrix = rng.normal(size=(n, k))
            table = rm_anova(matrix)
            via_f = bf01_minimal_rm(table.f_stat, DesignSpec(n=n, k=k))
            n_indep = n * (k - 1)
            direct = n_indep * math.log(
                table.ss_residual / (table.ss_treatment + table.ss_residual)
            ) + (k - 1) * math.log(n_indep)
            assert via_f.delta_bic10 == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("ssa,ssb,sst", [
        (-1.0, 50.0, 100.0),     # negative treatment SS
        (10.0, 0.0, 100.0),      # zero subject SS
        (10.0, 100.0, 100.0),    # SST does not exceed SSB
        (60.0, 50.0, 100.0),     # nonpositive residual
        (float("nan"), 50.0, 100.0),
    ])
    def test_invalid_summaries(self, ssa, ssb, sst):
        with pytest.raises(DomainError):
            SummaryStats(ss_treatment=ssa, ss_subjects=ssb, ss_total=sst,
                         design=DESIGN_23_2)

    def test_sums_past_the_float_range_rejected(self):
        # n*SST/SSB and n*(SST-SSA)/SSB overflow, and the formula's inf - inf was NaN
        message = ("n*ss_total/ss_subjects lies beyond the float range "
                   "(n=10, ss_total=1e+308, ss_subjects=1e-300)")
        with pytest.raises(DomainError, match=re.escape(message)):
            SummaryStats(ss_treatment=1.0, ss_subjects=1e-300, ss_total=1e308,
                         design=DesignSpec(n=10, k=2))

    def test_design_must_be_a_design_spec(self):
        with pytest.raises(DomainError, match="design must be a DesignSpec, got tuple"):
            SummaryStats(ss_treatment=739.0, ss_subjects=103984.0, ss_total=116399.0,
                         design=(23, 2))
        with pytest.raises(DomainError, match="stats must be a SummaryStats, got str"):
            delta_bic_nathoo("x")

    def test_numpy_numbers_stored_as_float(self):
        stats = SummaryStats(ss_treatment=np.int64(739), ss_subjects=np.float32(103984.0),
                             ss_total=116399, design=DESIGN_23_2)
        assert (stats.ss_treatment, stats.ss_subjects, stats.ss_total) == \
            (739.0, 103984.0, 116399.0)
        assert all(type(v) is float for v in (stats.ss_treatment, stats.ss_subjects,
                                              stats.ss_total))

    @pytest.mark.parametrize("field", ["ss_treatment", "ss_subjects", "ss_total"])
    def test_bool_and_strings_rejected(self, field):
        values = dict(ss_treatment=739.0, ss_subjects=103984.0, ss_total=116399.0)
        for bad in (True, "739"):
            with pytest.raises(DomainError, match=f"{field} must be a finite real"):
                SummaryStats(design=DESIGN_23_2, **{**values, field: bad})

    def test_residual_property(self):
        stats = SummaryStats(ss_treatment=739.0, ss_subjects=103984.0,
                             ss_total=116399.0, design=DESIGN_23_2)
        assert stats.ss_residual == pytest.approx(11676.0)


def posteriors(bf01, prior_h0):
    """(p(H0|y), p(H1|y)) from the posterior log odds, as _evidence derives them."""
    posterior_h0 = _posterior_h0(math.log(bf01), prior_h0)
    return posterior_h0, 1.0 - posterior_h0


class TestPosteriorProbs:
    def test_worked_example(self):
        p0, p1 = posteriors(2.435, 0.5)
        assert p0 == pytest.approx(0.709, abs=0.001)
        assert p0 + p1 == 1.0

    def test_even_evidence(self):
        assert posteriors(1.0, 0.5) == (0.5, 0.5)

    def test_general_prior(self):
        p0, _ = posteriors(2.435, 0.25)
        assert p0 == pytest.approx(0.448, abs=0.0005)
        assert p0 == pytest.approx(0.4480220791168353, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        bf01=st.floats(min_value=1e-6, max_value=1e6),
        prior=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_probability_axioms(self, bf01, prior):
        p0, p1 = posteriors(bf01, prior)
        assert 0.0 < p0 < 1.0
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        if prior == 0.5:
            assert p0 == pytest.approx(bf01 / (bf01 + 1.0), rel=1e-12)

    @pytest.mark.parametrize("f_stat,prior", [
        (2.0, 0.0), (2.0, 1.0), (2.0, -0.1), (2.0, float("nan")),
    ])
    def test_invalid_inputs(self, f_stat, prior):
        # the prior is checked by the Bayes factor routes that derive posteriors
        with pytest.raises(DomainError):
            bf01_minimal_rm(f_stat, DESIGN_23_2, prior_h0=prior)


class TestChooseModel:
    def test_evidence_for_null(self):
        assert choose_model(bf01_minimal_rm(1.336, DESIGN_23_2)) is ModelChoice.H0

    def test_evidence_for_alternative(self):
        assert choose_model(bf01_minimal_rm(50.0, DESIGN_23_2)) is ModelChoice.H1

    def test_tie_goes_to_null(self):
        base = bf01_minimal_rm(0.0, DESIGN_23_2)
        tie = replace(base, log_bf01=0.0, bf01=1.0, bf10=1.0, delta_bic10=0.0)
        assert choose_model(tie) is ModelChoice.H0


class TestEvidenceResultInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=100),
        k=st.integers(min_value=2, max_value=6),
        f=st.floats(min_value=0.0, max_value=30.0),
        prior=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_field_relations(self, n, k, f, prior):
        result = bf01_minimal_rm(f, DesignSpec(n=n, k=k), prior_h0=prior)
        assert result.bf01 == pytest.approx(math.exp(result.log_bf01), rel=1e-12)
        assert result.delta_bic10 == 2.0 * result.log_bf01
        assert result.posterior_h0 + result.posterior_h1 == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < result.posterior_h0 < 1.0
        assert result.prior_h0 == prior
        assert not result.saturated

    def test_posterior_matches_explicit_update(self):
        result = bf01_minimal_rm(1.336, DESIGN_23_2, prior_h0=0.25)
        weighted = result.bf01 * 0.25
        expected = weighted / (weighted + 0.75)
        assert result.posterior_h0 == pytest.approx(expected, rel=1e-12)


class TestUndefinedLogBf:
    """Where a BIC term of log BF01 overflows, log BF01 is inf or inf - inf and the
    posteriors would be NaN: each route raises DomainError instead."""

    @pytest.mark.parametrize("call, log_bf01", [
        pytest.param(lambda: bf01_minimal_rm(1e300, DesignSpec(2, 10 ** 306)), "nan",
                     id="minimal-both-terms"),
        pytest.param(lambda: bf01_minimal_rm(0.0, DesignSpec(2, 10 ** 306)), "inf",
                     id="minimal-penalty"),
        pytest.param(lambda: delta_bic_nathoo(SummaryStats(1.0, 1.0, 1e200,
                                                           DesignSpec(2, 10 ** 306))),
                     "inf", id="nathoo"),
        pytest.param(lambda: bf01_between(1e300, 10 ** 307, 1, 10 ** 308), "nan",
                     id="between"),
    ])
    def test_domain_error_names_the_overflow(self, call, log_bf01):
        with pytest.raises(DomainError, match=f"^log BF01 is {log_bf01}: a BIC term "
                                              "overflows the float range$"):
            call()

    def test_the_largest_finite_log_bf_still_evaluates(self):
        # the penalty alone, just inside the float range: saturated, not an error
        result = bf01_minimal_rm(0.0, DesignSpec(2, 10 ** 305))
        assert result.saturated and result.posterior_h0 == 1.0 and result.posterior_h1 == 0.0
        assert math.isfinite(result.log_bf01)
