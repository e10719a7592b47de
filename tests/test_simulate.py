"""Data generator, substreams, cell aggregation and grid determinism."""

import math
import os
import re
import signal
from contextlib import closing
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmbayes.simulate as sim
from rmbayes import (
    DesignSpec,
    FiveNumberSummary,
    ModelChoice,
    SimulationConfig,
    SummaryStats,
    bf01_minimal_rm,
    choose_model,
    delta_bic_nathoo,
    generate_dataset,
    make_profile,
    rm_anova,
    run_cell,
    run_grid,
)
from rmbayes._parts import in_parts
from rmbayes.errors import DomainError
from rmbayes.simulate import (
    _cell_seed,
    _pcg64_uniforms,
    _profiles,
    _rep_seeds,
    _seed_sequence_states,
    _splitmix64,
)

from conftest import (assert_nothing_left, count_forks, fake_cpus, fresh_python, open_fds,
                      refuse, reference_dataset, reference_make_profile)


def config_for(n=20, rho=0.2, delta=0.0, **kwargs):
    return SimulationConfig(n=n, rho=rho, delta=delta, **kwargs)


def profiles(config, first, stop):
    """The package's effect profiles of replications first..stop-1, one tuple
    each, from their profile substreams."""
    seeds = _splitmix64(_rep_seeds(config, first, stop) ^ sim._PROFILE_STREAM_TAG)
    rows = _profiles(config, _seed_sequence_states(seeds))
    return [tuple(row) for row in np.broadcast_to(rows, (stop - first, config.k)).tolist()]


def scalar_chain(config, reps):
    """The one-replication-at-a-time reference for the listed replications:
    profile, dataset, ANOVA, then both scalar Bayes factor routes.  Each
    dataset is checked bit for bit against the reference default_rng sampler."""
    design = DesignSpec(n=config.n, k=config.k)
    for rep in reps:
        data = generate_dataset(config, rep)
        assert data.tobytes() == reference_dataset(config, rep).tobytes()
        table = rm_anova(data)
        yield table.f_stat, bf01_minimal_rm(table.f_stat, design), delta_bic_nathoo(
            SummaryStats(ss_treatment=table.ss_treatment, ss_subjects=table.ss_subjects,
                         ss_total=table.ss_total, design=design))


class TestSplitmix:
    def test_reference_vector(self):
        # first output of the splitmix64 sequence seeded with 0
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_rep_seeds_distinct_across_cells_and_reps(self):
        seeds = {
            seed
            for n in (20, 50)
            for rho in (0.2, 0.8)
            for delta in (0.0, 0.2)
            for seed in _rep_seeds(config_for(n=n, rho=rho, delta=delta, master_seed=9),
                                   0, 50).tolist()
        }
        assert len(seeds) == 2 * 2 * 2 * 50

    def test_rep_seed_requires_nonnegative_index(self):
        with pytest.raises(DomainError, match="rep_index must be an integer from 0"):
            generate_dataset(config_for(), -1)

    def test_vectorised_seeds_match_scalar(self):
        # the uint64 array fold against splitmix64 on Python ints
        config = config_for(n=50, rho=0.8, delta=0.2, master_seed=2 ** 64 - 1)
        assert _rep_seeds(config, 0, 1000).tolist() == [
            _splitmix64(_cell_seed(config) ^ rep) for rep in range(1000)]


class TestSubstreams:
    EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]

    def seeds(self):
        drawn = np.random.default_rng(2024).integers(0, 2 ** 64, 10_000, dtype=np.uint64,
                                                     endpoint=False)
        return np.concatenate([drawn, np.array(self.EDGE_SEEDS, dtype=np.uint64)])

    def test_states_match_seed_sequence(self):
        seeds = self.seeds()
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
                    for s in seeds.tolist()]
        assert _seed_sequence_states(seeds).tolist() == expected

    def test_streams_equal_default_rng(self):
        seeds = self.seeds()
        streams = map(sim._substream_factory(), _seed_sequence_states(seeds))
        for rng, seed in zip(streams, seeds.tolist(), strict=True):
            reference = np.random.default_rng(seed)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.standard_normal() == reference.standard_normal()
            assert rng.random() == reference.random()

    def test_pinned_f_values(self):
        # literal values, so a change of seeding fails here even where numpy
        # itself drifts along with it
        config = SimulationConfig(n=20, rho=0.2, delta=0.5, master_seed=12345)
        f_stat = run_cell(config).series.f_stat
        assert [repr(f) for f in f_stat[:3].tolist()] == [
            "1.6451131768306846", "1.4265509481314473", "1.1644357678890496"]

    def test_cli_import_leaves_numpy_random_unloaded(self):
        loaded = fresh_python("import sys, rmbayes.cli; print('numpy.random' in sys.modules)")
        assert loaded == "False"

    def test_seeding_mismatch_raises(self, monkeypatch):
        # a failed check is not cached, so the next use checks again with
        # the restored constant
        sim._substream_factory.cache_clear()
        monkeypatch.setattr(sim, "_SEED_SEQ_MULT_B", sim._SEED_SEQ_MULT_B ^ 2)
        with pytest.raises(RuntimeError, match=rf"numpy {np.__version__} "):
            run_cell(config_for(reps=2))

    @pytest.mark.parametrize("draws", range(1, 9))
    def test_pcg64_uniforms_equal_default_rng(self, draws):
        seeds = self.seeds()
        out = np.empty((len(seeds), draws))
        _pcg64_uniforms(_seed_sequence_states(seeds), out)
        expected = [np.random.default_rng(seed).random(draws).tolist()
                    for seed in seeds.tolist()]
        assert out.tolist() == expected

    def test_wrong_pcg64_multiplier_raises(self, monkeypatch):
        sim._substream_factory.cache_clear()
        monkeypatch.setattr(sim, "_PCG64_MULT", sim._PCG64_MULT ^ 4)
        with pytest.raises(RuntimeError, match=rf"numpy {np.__version__} "):
            run_cell(config_for(delta=0.5, reps=2))


class TestFiveNumberSummary:
    FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)

    @settings(max_examples=400, deadline=None)
    @given(values=st.one_of(
        st.lists(FINITE, min_size=1, max_size=300),
        # ties
        st.lists(st.sampled_from([0.0, 0.125, 0.5, 1.0, -2.5, 5e-324]), min_size=1,
                 max_size=300),
        # constant arrays, length 1 among them
        st.builds(lambda value, size: [value] * size, FINITE, st.integers(1, 40)),
    ))
    def test_equals_numpy_percentile(self, values):
        values = np.array(values)
        expected = np.percentile(values, [0, 25, 50, 75, 100]).tolist()
        assert list(astuple(FiveNumberSummary.from_values(values))) == expected

    def test_no_values_rejected(self):
        with pytest.raises(DomainError, match="^a five-number summary needs at least one value$"):
            FiveNumberSummary.from_values(np.array([]))


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n": 1}, {"k": 1}, {"rho": 1.0}, {"rho": -0.1}, {"rho": float("nan")},
        {"delta": -0.2}, {"delta": float("inf")}, {"reps": 0},
        {"master_seed": -1}, {"master_seed": 2 ** 64}, {"spacing": "random"},
        {"reps": True}, {"n": 20.0},
        {"rho": "0.2"}, {"rho": False}, {"delta": None}, {"delta": True},
    ])
    def test_rejected(self, kwargs):
        base = {"n": 20, "rho": 0.2, "delta": 0.0}
        base.update(kwargs)
        with pytest.raises(DomainError):
            SimulationConfig(**base)

    @pytest.mark.parametrize("kwargs,message", [
        pytest.param({"n": 1}, "n must be an integer >= 2, got 1", id="n-below-2"),
        pytest.param({"n": 1, "k": 1}, "n must be an integer >= 2, got 1", id="n-and-k-below-2"),
        pytest.param({"k": 1}, "k must be an integer >= 2, got 1", id="k-below-2"),
        ({"n": 10 ** 400}, "n*(k-1) = 2e+400 lies beyond the float range"),
    ])
    def test_design_checked_as_a_design_spec(self, kwargs, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            config_for(**kwargs)

    def test_cell_id(self):
        assert config_for(n=20, rho=0.2, delta=0.5).cell_id == "n20_k3_rho0.2_delta0.5"

    def test_numpy_integers_accepted(self):
        config = config_for(n=np.int64(20), k=np.int32(3), reps=np.int64(4),
                            master_seed=np.uint64(7))
        assert config == config_for(n=20, k=3, reps=4, master_seed=7)
        assert all(type(v) is int for v in (config.n, config.k, config.reps,
                                            config.master_seed))
        assert run_cell(config) == run_cell(config_for(n=20, k=3, reps=4, master_seed=7))

    def test_numpy_reals_accepted(self):
        config = config_for(rho=np.float64(0.2), delta=np.float16(0.5), reps=4)
        assert config == config_for(rho=0.2, delta=0.5, reps=4)
        assert all(type(v) is float for v in (config.rho, config.delta))
        assert run_cell(config) == run_cell(config_for(rho=0.2, delta=0.5, reps=4))


class TestMakeProfile:
    def test_null_profile(self):
        assert make_profile(config_for(k=3, delta=0.0)) == (0.0, 0.0, 0.0)

    def test_three_conditions_medium_effect(self):
        alphas = make_profile(config_for(k=3, delta=0.5))
        assert alphas == pytest.approx((-0.25, 0.0, 0.25), abs=1e-15)

    def test_two_conditions_small_effect(self):
        alphas = make_profile(config_for(k=2, delta=0.2))
        assert alphas == pytest.approx((-0.1, 0.1), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=12),
        delta=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_sum_zero_and_range(self, k, delta):
        alphas = make_profile(config_for(k=k, delta=delta))
        assert math.fsum(alphas) == pytest.approx(0.0, abs=1e-12 * max(1.0, delta))
        assert max(alphas) - min(alphas) == pytest.approx(delta, rel=1e-12, abs=1e-15)

    def test_equals_the_reference_loop(self):
        rng = np.random.default_rng(200)
        deltas = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 1e300,
                  *rng.uniform(0.0, 5.0, 20).tolist(), *(10.0 ** rng.uniform(-300, 300, 10))]
        for k in range(2, 201):
            for delta in deltas:
                config = config_for(k=k, delta=float(delta))
                assert list(map(float.hex, make_profile(config))) == \
                    list(map(float.hex, reference_make_profile(config))), (k, delta)


class TestPerRepProfile:
    def test_equal_spacing_is_fixed(self):
        config = config_for(delta=0.5, spacing="equal")
        assert set(profiles(config, 0, 5)) == {make_profile(config)}

    def test_uniform_spacing_redraws_interior_means(self):
        config = config_for(k=3, delta=0.5, spacing="uniform")
        drawn = profiles(config, 0, 20)
        assert len(set(drawn)) > 1
        for alphas in drawn:
            assert math.fsum(alphas) == pytest.approx(0.0, abs=1e-12)
            assert max(alphas) - min(alphas) == pytest.approx(0.5, rel=1e-12)
            assert list(alphas) == sorted(alphas)

    def test_uniform_spacing_deterministic_per_rep(self):
        config = config_for(k=5, delta=0.3, spacing="uniform", master_seed=77)
        assert profiles(config, 11, 12) == profiles(config, 11, 12)
        assert profiles(config, 11, 12) != profiles(config, 12, 13)

    def test_degenerate_uniform_cases_fall_back_to_equal(self):
        assert profiles(config_for(k=2, delta=0.4), 3, 4) == \
            [make_profile(config_for(k=2, delta=0.4))]
        assert profiles(config_for(k=3, delta=0.0), 3, 4) == [(0.0, 0.0, 0.0)]


class TestGenerateDataset:
    def test_bit_identical_for_same_substream(self):
        config = config_for(n=15, rho=0.8, delta=0.2, master_seed=2024)
        first = generate_dataset(config, 7)
        second = generate_dataset(config, 7)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, generate_dataset(config, 8))

    def test_pure_noise_moments(self):
        config = config_for(n=100_000, rho=0.0, delta=0.0, k=10)
        data = generate_dataset(config, 0)
        assert data.shape == (100_000, 10)
        assert data.mean() == pytest.approx(0.0, abs=0.01)
        assert data.var() == pytest.approx(1.0, abs=0.02)

    def test_intraclass_correlation_recovered(self):
        config = config_for(n=20_000, rho=0.8, delta=0.0, k=3, master_seed=5)
        table = rm_anova(generate_dataset(config, 0))
        ms_subjects = table.ss_subjects / table.df_subjects
        sigma_subj = (ms_subjects - table.ms_residual) / config.k
        icc = sigma_subj / (sigma_subj + table.ms_residual)
        assert icc == pytest.approx(0.8, abs=0.02)

    def test_treatment_effects_shift_column_means(self):
        config = config_for(n=50_000, rho=0.2, delta=1.0, k=3, spacing="equal")
        data = generate_dataset(config, 0)
        assert data.mean(axis=0) == pytest.approx([-0.5, 0.0, 0.5], abs=0.02)

    def test_draws_the_replications_own_profile(self):
        # uniform spacing redraws the interior mean of each replication, which
        # shifts the middle column mean away from the equally spaced 0
        config = config_for(n=50_000, rho=0.2, delta=1.0, k=3, master_seed=8)
        for rep in (0, 1):
            expected, = profiles(config, rep, rep + 1)
            assert abs(expected[1]) > 0.1
            data = generate_dataset(config, rep)
            assert data.mean(axis=0) == pytest.approx(expected, abs=0.02)


    # n <= 30, k 2..9, both spacings, delta and rho 0 among them, indices at both ends
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 30), k=st.integers(2, 9),
           rho=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           delta=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           spacing=st.sampled_from(["uniform", "equal"]),
           master_seed=st.integers(0, 2 ** 64 - 1),
           rep=st.one_of(st.sampled_from([0, 2 ** 63, 2 ** 64 - 1]),
                         st.integers(0, 2 ** 64 - 1)))
    def test_equals_the_reference_sampler(self, n, k, rho, delta, spacing, master_seed, rep):
        config = SimulationConfig(n=n, rho=rho, delta=delta, k=k, master_seed=master_seed,
                                  spacing=spacing)
        assert generate_dataset(config, rep).tobytes() == \
            reference_dataset(config, rep).tobytes()

    def test_block_rows_are_the_single_datasets(self):
        config = config_for(n=7, k=4, rho=0.3, delta=0.6)
        (first, data), = sim._draw(config, 3, 8)
        assert first == 3 and data.shape == (5, 7, 4)
        for row, rep in zip(data, range(3, 8), strict=True):
            assert row.tobytes() == generate_dataset(config, rep).tobytes()

    @pytest.mark.parametrize("rep", [0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(7)])
    def test_rep_index_spans_the_unsigned_64_bit_range(self, rep):
        config = config_for(n=6, delta=0.5)
        assert generate_dataset(config, rep).tobytes() == \
            reference_dataset(config, int(rep)).tobytes()

    # 2**64 and 2**64 + 7 once wrapped round to replications 0 and 7
    @pytest.mark.parametrize("rep", [2 ** 64, 2 ** 64 + 7, np.int64(-1), True, 7.0, "7", None])
    def test_rep_index_outside_the_range_rejected(self, rep):
        with pytest.raises(DomainError, match=re.escape(
                f"rep_index must be an integer from 0 to 18446744073709551615, got {rep!r}")):
            generate_dataset(config_for(), rep)


class TestRunCell:
    def test_single_replication_has_no_correlation(self):
        result = run_cell(config_for(reps=1))
        assert result.posterior_correlation is None
        q = result.posterior_quantiles_min
        assert q.min == q.q1 == q.median == q.q3 == q.max

    def test_tiny_posteriors_still_correlate(self):
        # posteriors of 1e-176 to 1e-165 vary, but their deviations square to 0 unscaled
        result = run_cell(config_for(n=80, rho=0.2, delta=20.0, reps=50, master_seed=1))
        x, y = result.series.posterior_min, result.series.posterior_nm
        assert 0.0 < x.max() < 1e-160 and 0.0 < y.max() < 1e-160
        expected = np.corrcoef(np.ldexp(x, 560), np.ldexp(y, 560))[0, 1]
        assert result.posterior_correlation == pytest.approx(expected, rel=1e-12)

    def test_records_consistent_with_aggregates(self):
        config = config_for(n=20, rho=0.8, delta=0.2, reps=120, master_seed=42)
        result = run_cell(config)
        series = result.series
        assert all(len(getattr(series, field.name)) == 120 for field in fields(series))
        h0_min = series.log_bf01_min >= 0
        h0_nm = series.log_bf01_nm >= 0
        assert result.consistency == pytest.approx(float(np.mean(h0_min == h0_nm)))
        # correct model is H1 here (delta > 0)
        assert result.accuracy_min == pytest.approx(float(np.mean(~h0_min)))
        assert ((0.0 <= series.posterior_min) & (series.posterior_min <= 1.0)).all()

    def test_null_cell_mostly_chooses_h0(self):
        result = run_cell(config_for(n=20, rho=0.2, delta=0.0, reps=200, master_seed=1))
        assert result.accuracy_min >= 0.9
        assert result.accuracy_nm >= 0.9
        assert result.posterior_correlation >= 0.95

    def test_cell_errors_carry_cell_identity(self):
        # with rho one ulp below 1 the noise SD is ~1e-8, so the residual
        # vanishes against the treatment effect in every replication
        config = config_for(rho=math.nextafter(1.0, 0.0), delta=0.5, reps=2)
        with pytest.raises(DomainError, match=r"cell n20_k3_rho1_delta0\.5, replication 0: "):
            run_cell(config)

    @pytest.mark.parametrize("k,delta", [(3, 1e155), (3, 1e200), (3, 1.7e308), (5, 1e308)])
    def test_overflowing_cell_raises_domain_error_naming_it(self, k, delta):
        # no numpy RuntimeWarning escapes first: the tests run with warnings as errors
        config = config_for(n=20, rho=0.2, delta=delta, k=k, reps=200)
        with pytest.raises(DomainError, match=rf"^cell {re.escape(config.cell_id)}, "
                                              r"replication \d+: "):
            run_cell(config)

    # numpy rejects both counts before it allocates anything
    @pytest.mark.parametrize("reps", [10 ** 19, 2 ** 63 - 1])
    def test_unallocatable_reps_raise_domain_error_naming_the_cell(self, reps):
        with pytest.raises(DomainError, match=rf"^cell n20_k3_rho0\.2_delta0: reps={reps} "):
            run_cell(config_for(reps=reps))

    # a block's working arrays past what numpy can allocate, for one replication;
    # they once raised numpy's MemoryError or ValueError, with a traceback in the CLI
    @pytest.mark.parametrize("n, k", [(2 ** 50, 3), (2 ** 62, 3), (10, 2 ** 61)])
    def test_unallocatable_design_raises_domain_error_naming_the_cell(self, n, k):
        config = config_for(n=n, k=k, reps=1)
        with pytest.raises(DomainError, match=rf"^cell {config.cell_id}: its n-by-k design "
                                              "does not fit in memory$"):
            run_cell(config)


class TestBatchedCore:
    @pytest.mark.parametrize("kwargs", [
        dict(n=12, k=2, rho=0.0, delta=0.5),
        dict(n=9, k=5, rho=0.8, delta=0.3),
        dict(n=15, k=5, rho=0.0, delta=0.0),
        dict(n=20, k=3, rho=0.8, delta=0.2, spacing="equal"),
    ])
    def test_matches_scalar_chain(self, kwargs):
        config = SimulationConfig(reps=60, master_seed=31, **kwargs)
        series = run_cell(config).series
        choice = {True: ModelChoice.H0, False: ModelChoice.H1}
        reference = scalar_chain(config, range(config.reps))
        for rep, (f_stat, ev_min, ev_nm) in enumerate(reference):
            assert choice[bool(series.log_bf01_min[rep] >= 0)] is choose_model(ev_min)
            assert choice[bool(series.log_bf01_nm[rep] >= 0)] is choose_model(ev_nm)
            assert series.f_stat[rep] == f_stat
            assert series.posterior_min[rep] == ev_min.posterior_h0
            assert series.posterior_nm[rep] == ev_nm.posterior_h0
        assert len(series.f_stat) == config.reps

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 30), k=st.integers(2, 9), reps=st.integers(1, 12),
           rho=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           delta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           spacing=st.sampled_from(["uniform", "equal"]), seed=st.integers(0, 2 ** 64 - 1))
    def test_every_field_is_the_scalar_chain(self, n, k, reps, rho, delta, spacing, seed):
        config = SimulationConfig(n=n, k=k, reps=reps, rho=rho, delta=delta, spacing=spacing,
                                  master_seed=seed)
        chain = [(f_stat, ev_min.log_bf01, ev_nm.log_bf01, ev_min.posterior_h0, ev_nm.posterior_h0)
                 for f_stat, ev_min, ev_nm in scalar_chain(config, range(reps))]
        series = run_cell(config).series
        for field, values in zip(fields(series), zip(*chain)):
            assert getattr(series, field.name).tolist() == list(values), field.name

    def test_block_boundary_changes_nothing(self):
        config = config_for(n=20, rho=0.2, delta=0.5)
        block = sim._BLOCK_VALUES // (config.n * config.k)
        below = run_cell(replace(config, reps=block - 1)).series
        above = run_cell(replace(config, reps=block + 1)).series
        for field in fields(below):
            assert np.array_equal(getattr(above, field.name)[:block - 1],
                                  getattr(below, field.name))
        (f_stat, ev_min, _), = scalar_chain(config, [block])
        assert above.f_stat[block] == f_stat
        assert above.posterior_min[block] == ev_min.posterior_h0


class TestRunGrid:
    def test_same_seed_reproduces_report(self):
        kwargs = dict(n_values=(20,), rho_values=(0.2, 0.8), delta_values=(0.0, 0.5),
                      reps=30, master_seed=99)
        assert run_grid(**kwargs) == run_grid(**kwargs)

    def test_parallel_matches_sequential(self):
        kwargs = dict(n_values=(20, 50), rho_values=(0.2,), delta_values=(0.0, 0.5),
                      reps=40, master_seed=7)
        assert run_grid(workers=2, **kwargs) == run_grid(workers=1, **kwargs)

    def test_canonical_cell_order_and_shape(self):
        report = run_grid((20, 50, 80), (0.2, 0.8), (0.0, 0.2, 0.5), reps=2, master_seed=3)
        assert len(report.cells) == 18
        observed = [(c.config.delta, c.config.rho, c.config.n) for c in report.cells]
        expected = [(d, r, n) for d in (0.0, 0.2, 0.5) for r in (0.2, 0.8) for n in (20, 50, 80)]
        assert observed == expected

    def test_empty_axis_rejected(self):
        for n_values in ((), np.array([])):
            with pytest.raises(DomainError):
                run_grid(n_values, (0.2,), (0.0,))

    def test_array_axes_match_lists(self):
        # a numpy array of several values has no truth value, so emptiness is read from len
        assert run_grid(np.array([20, 30]), np.array([0.2]), np.array([0.0, 0.5]), reps=5,
                        master_seed=1) == run_grid([20, 30], [0.2], [0.0, 0.5], reps=5,
                                                   master_seed=1)

    def test_invalid_cell_parameter_rejected(self):
        with pytest.raises(DomainError):
            run_grid((20,), (1.5,), (0.0,))

    @pytest.mark.parametrize("n_values,rho_values", [
        ((20, 20), (0.2,)),            # the same cell twice
        ((20,), (0.2, 0.2000001)),     # two cells, one id
    ])
    def test_cells_sharing_an_id_rejected_before_any_runs(self, monkeypatch, n_values,
                                                          rho_values):
        ran = []
        monkeypatch.setattr(sim, "run_cell", ran.append)
        with pytest.raises(DomainError, match="share the id n20_k3_rho0.2_delta0:"):
            run_grid(n_values, rho_values, (0.0,), reps=3)
        assert ran == []

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2", None])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(DomainError, match="workers must be an integer >= 1"):
            run_grid((20,), (0.2,), (0.0,), reps=2, workers=workers)

    @pytest.mark.parametrize("workers,n_values,children", [
        (64, (20, 30), 1), (np.int64(3), (20, 30, 40, 50), 2), (2, (20,), 0),
        (1, (20, 30), 0)])
    def test_one_child_forked_per_part_after_the_first(self, monkeypatch, workers, n_values,
                                                        children):
        # this process is one of the workers, and a part has at least one cell
        kwargs = dict(n_values=n_values, rho_values=(0.2,), delta_values=(0.5,), reps=3,
                      master_seed=5)
        sequential = run_grid(workers=1, **kwargs)
        fake_cpus(monkeypatch, 8)
        pids = count_forks(monkeypatch)
        assert run_grid(workers=workers, **kwargs) == sequential
        assert len(pids) == children

    def test_no_more_parts_than_usable_cpus(self, monkeypatch):
        kwargs = dict(n_values=(20, 30, 40, 50), rho_values=(0.2,), delta_values=(0.5,),
                      reps=3, master_seed=5)
        sequential = run_grid(workers=1, **kwargs)
        fake_cpus(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        assert run_grid(workers=64, **kwargs) == sequential
        assert len(pids) == 1

    def test_the_cells_of_a_killed_child_run_here(self, monkeypatch):
        kwargs = dict(n_values=(20, 30, 40), rho_values=(0.2,), delta_values=(0.5,), reps=3,
                      master_seed=5)
        sequential = run_grid(workers=1, **kwargs)
        parent, run = os.getpid(), sim.run_cell

        def killed_in_children(config):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run(config)
        monkeypatch.setattr(sim, "run_cell", killed_in_children)
        fake_cpus(monkeypatch, 3)
        fds, pids = open_fds(), count_forks(monkeypatch)
        assert run_grid(workers=3, **kwargs) == sequential
        assert len(pids) == 2
        assert_nothing_left(fds)

    @pytest.mark.parametrize("target", ["pipe", "fork"])
    def test_the_cells_of_a_failed_pipe_or_fork_run_here(self, monkeypatch, target):
        kwargs = dict(n_values=(20, 30), rho_values=(0.2,), delta_values=(0.5,), reps=3,
                      master_seed=5)
        sequential = run_grid(workers=1, **kwargs)
        fake_cpus(monkeypatch, 2)
        refuse(monkeypatch, target)
        fds = open_fds()
        assert run_grid(workers=2, **kwargs) == sequential
        assert_nothing_left(fds)

    @pytest.mark.parametrize("n_values", [(20, 2 ** 50), (2 ** 50, 20)],
                             ids=["in-the-child", "in-the-parent"])
    def test_a_failing_cell_raises_here_and_leaves_no_child(self, monkeypatch, n_values):
        fake_cpus(monkeypatch, 2)
        fds, pids = open_fds(), count_forks(monkeypatch)
        with pytest.raises(DomainError, match=f"cell n{2 ** 50}_k3_rho0.2_delta0: its n-by-k "
                                              "design does not fit in memory"):
            run_grid(n_values, (0.2,), (0.0,), reps=1, workers=2)
        assert len(pids) == 1
        assert_nothing_left(fds)

    def test_a_running_thread_forks_no_child(self, monkeypatch, running_thread):
        kwargs = dict(n_values=(20, 30), rho_values=(0.2,), delta_values=(0.5,), reps=3,
                      master_seed=5)
        sequential = run_grid(workers=1, **kwargs)
        pids = count_forks(monkeypatch)
        assert run_grid(workers=2, **kwargs) == sequential
        assert pids == []


class TestInParts:
    """``_parts.in_parts`` on a host without ``os.sched_getaffinity``."""

    @pytest.mark.parametrize("cpu_count,children", [(3, 2), (None, 0)])
    def test_cpu_count_bounds_the_parts(self, monkeypatch, cpu_count, children):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        fds, pids = open_fds(), count_forks(monkeypatch)
        with closing(in_parts(lambda start, end: range(start, end), 8, 8)) as items:
            assert list(items) == list(range(8))
        assert len(pids) == children
        assert_nothing_left(fds)
