"""Repeated-measures decomposition and F CDF against independent oracles."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import fdtr

from rmbayes import DesignSpec, f_cdf, rm_anova
from rmbayes.anova import _decompose, _reg_incomplete_beta
from rmbayes.errors import DegenerateResidualError, DomainError

from conftest import definitional_anova, fresh_python

EPS = np.finfo(float).eps


def f_density(t: float, d1: float, d2: float) -> float:
    # written from the density directly so quadrature stays independent of
    # the package's incomplete-beta path
    return math.exp(
        0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * math.log(t)
        - 0.5 * (d1 + d2) * math.log1p(d1 * t / d2)
        - (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2) - math.lgamma(0.5 * (d1 + d2)))
    )


class TestRmAnova:
    def test_hand_computed_3x2(self):
        table = rm_anova([[1, 2], [2, 4], [3, 3]])
        assert table.ss_treatment == pytest.approx(1.5, abs=1e-10)
        assert table.ss_subjects == pytest.approx(3.0, abs=1e-10)
        assert table.ss_residual == pytest.approx(1.0, abs=1e-10)
        assert table.ss_total == pytest.approx(5.5, abs=1e-10)
        assert table.f_stat == pytest.approx(3.0, abs=1e-10)
        # closed form: upper tail of F(1, 2) at 3 is 1 - sqrt(1 - 2/5)
        assert table.p_value == pytest.approx(1.0 - math.sqrt(0.6), abs=1e-10)
        assert (table.df_treatment, table.df_subjects, table.df_residual) == (1, 2, 2)

    def test_overflowing_sums_of_squares_raise(self):
        # squares of ~1e200 overflow; numpy's overflow warnings would fail the test
        with pytest.raises(DomainError, match="sums of squares overflow the float range"):
            rm_anova([[1e200, 2e200, 3e200], [4e200, 1e200, 5e200], [2e200, 6e200, 1e200]])

    def test_matches_definitional_sums(self):
        rng = np.random.default_rng(176)
        checked = 0
        for n in (2, 3, 4):
            for k in (2, 3, 4):
                for _ in range(150):
                    matrix = rng.integers(-3, 4, size=(n, k)).astype(float)
                    ssa, ssb, ssr, sst = definitional_anova(matrix)
                    if ssr <= 1e-12 * max(sst, 1.0):
                        if ssa <= 1e-12 * max(sst, 1.0):
                            assert rm_anova(matrix).f_stat == 0.0
                        else:
                            with pytest.raises(DegenerateResidualError):
                                rm_anova(matrix)
                        continue
                    table = rm_anova(matrix)
                    assert table.ss_treatment == pytest.approx(ssa, rel=1e-12, abs=1e-12)
                    assert table.ss_subjects == pytest.approx(ssb, rel=1e-12, abs=1e-12)
                    assert table.ss_residual == pytest.approx(ssr, rel=1e-12, abs=1e-12)
                    assert table.ss_total == pytest.approx(sst, rel=1e-12, abs=1e-12)
                    assert table.f_stat == pytest.approx((ssa / ssr) * (n - 1), rel=1e-12)
                    checked += 1
        assert checked > 500

    def test_exhaustive_2x2_small_integers(self):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        matrix = np.array([[a, b], [c, d]], dtype=float)
                        ssa, ssb, ssr, sst = definitional_anova(matrix)
                        if ssr <= 1e-12 * max(sst, 1.0):
                            if ssa <= 1e-12 * max(sst, 1.0):
                                assert rm_anova(matrix).f_stat == 0.0
                            else:
                                with pytest.raises(DegenerateResidualError):
                                    rm_anova(matrix)
                            continue
                        table = rm_anova(matrix)
                        assert table.ss_treatment == pytest.approx(ssa, rel=1e-12, abs=1e-12)
                        assert table.ss_residual == pytest.approx(ssr, rel=1e-12, abs=1e-12)

    def test_identical_columns_give_zero_treatment_effect(self):
        rng = np.random.default_rng(4)
        column = rng.normal(10.0, 3.0, size=12)
        matrix = np.tile(column[:, None], (1, 5))
        table = rm_anova(matrix)
        assert table.ss_treatment <= 1e-9 * table.ss_total
        assert table.f_stat == 0.0
        assert table.p_value == 1.0

    def test_constant_matrix(self):
        table = rm_anova(np.full((4, 3), 7.25))
        assert table.f_stat == 0.0
        assert table.p_value == 1.0
        assert table.ss_total == 0.0

    def test_degenerate_residual_with_treatment_signal_raises(self):
        # rows shifted copies of (0, 1): additive row and column structure
        # leaves SSR = 0 while SSA > 0
        matrix = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        with pytest.raises(DegenerateResidualError):
            rm_anova(matrix)

    @pytest.mark.parametrize("n,k", [(20, 3), (10, 5), (30, 2), (6, 4)])
    def test_p_value_keeps_its_digits_down_to_1e_30(self, n, k):
        # 1 - f_cdf read 0.0 past p = 1e-16, where scipy's upper tail goes on
        rng = np.random.default_rng(11)
        noise, effect = rng.normal(size=(n, k)), np.arange(k, dtype=float)
        smallest = 1.0
        for scale in np.geomspace(1e-3, 100, 80):
            table = rm_anova(noise + scale * effect)
            expected = stats.f.sf(table.f_stat, table.df_treatment, table.df_residual)
            if expected < 1e-31:
                break
            assert table.p_value == pytest.approx(expected, rel=1e-9, abs=0.0)
            smallest = min(smallest, expected)
        assert smallest < 1e-29

    def test_p_value_near_1_keeps_its_digits_at_large_df(self):
        # the p of F(1, 199998) = f, as rm_anova takes it: given x alone, the beta
        # function's 1 - x lost digits and p was off by up to 9e-9
        for f in np.geomspace(1e-8, 1e-2, 50):
            t, df2 = float(f), 199998
            p = _reg_incomplete_beta(0.5 * df2, 0.5, df2 / (t + df2), t / (t + df2))
            assert abs(p - stats.f.sf(f, 1, df2)) < 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, 8))
            matrix = rng.normal(size=(n, k))
            base = rm_anova(matrix)
            scale = float(rng.choice([-3.5, -1.0, 0.25, 7.0, 1e4]))
            shift = float(rng.normal(scale=100.0))
            scaled = rm_anova(scale * matrix + shift)
            assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)
            assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)

    def test_partition_identity_and_direct_residual_large(self):
        rng = np.random.default_rng(7)
        matrix = 1e6 + rng.normal(size=(2500, 40))
        table = rm_anova(matrix)
        total = table.ss_treatment + table.ss_subjects + table.ss_residual
        assert total == pytest.approx(table.ss_total, rel=1e-9)
        # residual recomputed from the double-centered values
        grand = matrix.mean()
        centered = matrix - matrix.mean(axis=1, keepdims=True) - matrix.mean(axis=0) + grand
        assert table.ss_residual == pytest.approx(float((centered ** 2).sum()), rel=1e-9)

    @pytest.mark.parametrize("bad", [
        np.ones((1, 4)),
        np.ones((4, 1)),
        np.ones(6),
        np.ones((2, 2, 2)),
        [[1.0, float("nan")], [2.0, 3.0]],
        [[1.0, float("inf")], [2.0, 3.0]],
        [["a", "b"], ["c", "d"]],
        [[1, 2], [3]],
        [[1j, 2], [3, 4]],
        np.array([[1j, 2], [3, 4]]),
        [[1, 2], [3, "5"], [4, 4]],  # read as 5.0, this matrix has a residual
        np.array([[True, False], [False, True]]),
        [[True, 2], [3, 4], [5, 7]],  # read as 1, this matrix has a residual
        [[1, 2], [3, None]],
        [[10 ** 400, 1], [1, 2]],
        np.array([[np.longdouble("1e400"), 1], [1, 2]]),
        [[np.longdouble("1e400"), 1], [1, 2]],
    ])
    def test_invalid_inputs_raise(self, bad):
        with pytest.raises(DomainError):
            rm_anova(bad)

    @pytest.mark.parametrize("bad, message", [
        ([[1, 2], [3, None]], "rectangular matrix of real numbers"),
        ([[10 ** 400, 1], [1, 2]], "beyond the float range"),
        (np.array([[np.longdouble("1e400"), 1], [1, 2]]), "beyond the float range"),
    ])
    def test_invalid_input_messages(self, bad, message):
        with pytest.raises(DomainError, match=message):
            rm_anova(bad)

    def test_digits_do_not_follow_the_blas_thread_count(self, monkeypatch):
        # the library pins no BLAS setting, and OpenBLAS reads its thread count
        # when numpy loads: so each run is a fresh interpreter
        code = ("import numpy as np, rmbayes; print(repr(rmbayes.rm_anova("
                "500 + np.random.default_rng(20).normal(size=(20_000, 3)))))")
        tables = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            tables.add(fresh_python(code))
        assert len(tables) == 1

    def test_fraction_matrix_matches_its_float_twin(self):
        exact = [[Fraction(1, 3), Fraction(5, 2)], [Fraction(7, 4), Fraction(2, 9)],
                 [Fraction(3), Fraction(-1, 7)]]
        assert rm_anova(exact) == rm_anova([[float(v) for v in row] for row in exact])


class TestDecompose:
    @staticmethod
    def ss_treatment_by_mean(stack):
        """SSA with the column means of ``stack.mean(axis=1)``; SSR and F
        follow from it and from code the column means do not touch."""
        _, n, _ = stack.shape
        grand = stack.mean(axis=(1, 2))
        col_dev = stack.mean(axis=1) - grand[:, np.newaxis]
        return n * np.einsum("ij,ij->i", col_dev, col_dev)

    def assert_same_bits(self, stack):
        assert (_decompose(stack)[0].tobytes()
                == self.ss_treatment_by_mean(stack).tobytes()), stack.shape

    def test_column_means_equal_mean_over_axis_1(self):
        rng = np.random.default_rng(77)
        for _ in range(120):
            m, n, k = rng.integers(1, 301), rng.integers(2, 258), rng.integers(2, 17)
            scale = 10.0 ** rng.integers(-3, 4)
            self.assert_same_bits(rng.normal(rng.normal(), scale, (m, n, k)))

    def test_column_means_of_one_tall_matrix(self):
        rng = np.random.default_rng(78)
        self.assert_same_bits(500.0 + rng.normal(size=(1, 10 ** 5, 3)))


class TestDecomposeOracle:
    """SSA, SSB and SST of ``_decompose`` against a two-pass ``math.fsum``
    oracle, on large and badly scaled stacks."""

    @staticmethod
    def two_pass(matrix):
        """(SSA, SSB, SST) from correctly rounded means, then correctly
        rounded sums of the squared deviations."""
        rows = matrix.tolist()
        n, k = len(rows), len(rows[0])
        grand = math.fsum(map(math.fsum, rows)) / (n * k)
        col_means = [math.fsum(row[j] for row in rows) / n for j in range(k)]
        row_means = [math.fsum(row) / k for row in rows]
        return (n * math.fsum((m - grand) ** 2 for m in col_means),
                k * math.fsum((m - grand) ** 2 for m in row_means),
                math.fsum((v - grand) ** 2 for row in rows for v in row))

    @staticmethod
    def bound(ss, size, big, mean_len, terms):
        """Worst-case gap between two evaluations of ``ss`` = w * sum(d_i**2)
        over size/w deviations d_i of a mean of ``mean_len`` entries (0 for
        the entries themselves) from the grand mean, all entries at most
        ``big`` in magnitude.  Each d_i is off by at most u = (mean_len + 32)
        eps big: the mean's sum in any order, the grand mean's pairwise sum
        (fewer than 32 levels here), the subtractions and the oracle's own
        roundings.  As w * sum|d_i| <= sqrt(size * ss), the squares then move
        by at most 2 u sqrt(size * ss) + size u**2, and squaring, weighting
        and summing ``terms`` of them in any order add (terms + 2) eps ss."""
        u = (mean_len + 32) * EPS * big
        return 2 * u * math.sqrt(size * ss) + size * u * u + (terms + 2) * EPS * ss

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), n=st.integers(2, 300), k=st.integers(2, 9),
           offset=st.floats(-1e6, 1e6), log_scale=st.floats(-6, 6),
           spread=st.floats(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_sums_of_squares_match_the_fsum_oracle(self, m, n, k, offset, log_scale,
                                                   spread, seed):
        rng = np.random.default_rng(seed)
        # entries spread over up to `spread` decades around the scale
        noise = rng.normal(size=(m, n, k)) * 10.0 ** rng.uniform(0, spread, (m, n, k))
        stack = offset + 10.0 ** log_scale * noise
        ssa, ssb, _, sst, _ = _decompose(stack)
        for i, matrix in enumerate(stack):
            big = float(np.abs(matrix).max())
            for got, want, mean_len, terms in zip(
                    (ssa[i], ssb[i], sst[i]), self.two_pass(matrix),
                    (n, k, 0), (k, n, n * k)):
                assert abs(got - want) <= self.bound(want, n * k, big, mean_len, terms), (
                    got, want)


class TestDesignSpec:
    @pytest.mark.parametrize("n,k", [(1, 2), (2, 1), (0, 3), (2, 0), (-2, 2), (5.0, 3)])
    def test_invalid_designs(self, n, k):
        with pytest.raises(DomainError):
            DesignSpec(n=n, k=k)

    def test_numpy_integers_accepted(self):
        design = DesignSpec(np.int64(5), np.int32(3))
        assert design == DesignSpec(5, 3)
        assert type(design.n) is int and type(design.k) is int


class TestFCdf:
    def test_reported_upper_tail(self):
        # F = 1.336 on (1, 22) dfs has upper tail 0.26
        p = 1.0 - f_cdf(1.336, 1, 22)
        assert p == pytest.approx(0.26, abs=0.005)
        assert p == pytest.approx(0.2601394413196303, rel=1e-9)

    def test_bounds(self):
        assert f_cdf(0.0, 3, 7) == 0.0
        assert f_cdf(float("inf"), 3, 7) == 1.0

    @pytest.mark.parametrize("x,d1,d2", [
        (1.0, 10, 10),
        (0.5, 1, 22),
        (2.76, 3, 96),
        (4.0, 2, 158),
        (0.05, 7, 3),
    ])
    def test_quadrature_oracle(self, x, d1, d2):
        expected, err = integrate.quad(f_density, 0.0, x, args=(d1, d2),
                                       limit=400, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert f_cdf(x, d1, d2) == pytest.approx(expected, abs=1e-8)

    def test_median_of_symmetric_dfs(self):
        assert f_cdf(1.0, 10, 10) == pytest.approx(0.5, abs=1e-10)

    def test_accuracy_against_scipy(self):
        xs = np.concatenate([np.logspace(-3, 3, 25), [1e-8, 1e6]])
        worst = 0.0
        for d1 in (1, 2, 3, 5, 10, 22, 96, 158, 400):
            for d2 in (1, 2, 5, 22, 96, 400):
                for x in xs:
                    worst = max(worst, abs(f_cdf(float(x), d1, d2) - fdtr(d1, d2, x)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("x,d1,d2", [(0.9999205860962483, 1.66e6, 3.8e6),
                                         (1, 31410894, 29549534)])
    def test_large_dfs_near_the_mean_converge(self, x, d1, d2):
        # Lentz needs more than 500 steps here, about sqrt of the larger beta parameter
        value = f_cdf(x, d1, d2)
        assert type(value) is float and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("d", [1e16, 1e300])
    def test_huge_dfs_give_up_promptly(self, d):
        # 1e16 would need ~1e8 steps; at 1e300 the coefficients overflow to NaN
        start = time.perf_counter()
        with pytest.raises(DomainError, match="too large to evaluate"):
            f_cdf(1, d, d)
        assert time.perf_counter() - start < 2.0

    def test_monotone_in_x(self):
        xs = np.sort(np.random.default_rng(11).uniform(0.0, 50.0, 200))
        values = [f_cdf(float(x), 4, 17) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reciprocal_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = float(rng.uniform(0.01, 20.0))
            d1 = int(rng.integers(1, 60))
            d2 = int(rng.integers(1, 60))
            assert f_cdf(x, d1, d2) + f_cdf(1.0 / x, d2, d1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("args", [(-0.5, 3, 4), (float("nan"), 3, 4), (1.0, 0, 4), (1.0, 3, 0), (1.0, -1, 4),
                                      (1.0, float("inf"), 5.0), (1.0, 5.0, float("inf")),
                                      ("1", 2, 3), (1.0, "2", 3), (None, 1, 2), (1j, 1, 2),
                                      (1.0, True, 2)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            f_cdf(*args)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        d1=st.integers(min_value=1, max_value=300),
        d2=st.integers(min_value=1, max_value=300),
    )
    def test_cdf_stays_in_unit_interval(self, x, d1, d2):
        value = f_cdf(x, d1, d2)
        assert 0.0 <= value <= 1.0
