"""Both routes' accuracy, their consistency and F against their exact law.

Under the simulation's model with ``spacing="equal"``, F follows the
noncentral F(k-1, (n-1)(k-1), lambda) with lambda = n * sum((alpha_j -
mean alpha)^2) / (1 - rho).  The minimal route picks H0 exactly when
F <= (df2/df1) * expm1(df1 * ln N / N), N = n(k-1), so each cell's
``accuracy_min`` has an exact value.  Whatever the effects and their spacing,
SSB / (1 - rho + k*rho) follows chi-squared(n-1) and SSR / (1 - rho)
chi-squared((n-1)(k-1)); F's law does not involve the subject variance, so
only these two catch a wrong scale of the subject effects.

SSA / (1 - rho) follows the noncentral chi-squared(k-1, lambda), independent of
SSB and SSR.  For fixed SSB and SSR the Nathoo-Masson log BF01 falls as SSA
grows, so that route picks H0 exactly when SSA is at most a root; the minimal
route's cut in SSA is F* * SSR / (n-1).  ``accuracy_nm`` and ``consistency``
are then means, over the laws of SSB and SSR, of the noncentral CDF at these
cuts.

With ``spacing="uniform"`` and k = 3 each replication puts its interior mean at
delta*u, with u uniform on [0, 1], so
lambda(u) = n delta^2 (2/3)(1 - u + u^2) / (1 - rho)
and the minimal route's exact P(H0) is the mean over u of the noncentral F CDF
at F*.  The cells, the replication counts, the seed and every bound were fixed
before the first run.

The positions of the interior condition means, (ybar_j - ybar_0) / (ybar_{k-1} -
ybar_0), are the sorted uniforms of the profile draw: U(0, 1) at k = 3, and at
k = 5 mean j is the j-th of three sorted uniforms, Beta(j, k-1-j).  At delta =
1e4 the noise in the column-mean differences moves them by about 1e-4.  The
profile and the data are drawn from separate substreams of a replication's seed,
so at k = 3 the position is independent of the subject effects.

Each replication's seed folds the master seed, the cell and the replication
index, so F is independent across adjacent replications and adjacent master
seeds; under H0 at n = 3, k = 2 each F follows F(1, 2).
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from rmbayes import SimulationConfig, generate_dataset, run_cell
from rmbayes.anova import _decompose
from rmbayes.simulate import _draw

CELLS = list(itertools.product((3, 5), (20, 50), (0.2, 0.8), (0.0, 0.5)))
REPS = 2000
MASTER_SEED = 12345
CHI2_16_999 = 39.25  # the 0.999 quantile of chi-squared with 16 df
KS_ALPHA = 0.001 / len(CELLS)
# one spacing: _cell_seed does not fold it, so an equal cell would redraw the
# subject and noise values of the uniform cell with the same (k, n, rho, delta)
SS_CELLS = list(itertools.product((3, 5), (20, 50), (0.2, 0.8)))
SS_DELTA = 0.5
NM_CELLS = [(3, 20, rho, delta) for rho, delta in itertools.product((0.2, 0.8), (0.0, 0.5))]
NM_REPS = 4000
CHI2_4_999 = 18.47  # the 0.999 quantile of chi-squared with 4 df
# where the SSB and SSR integrals stop: each law's mass beyond is 2e-10
CHI2_TAIL = 1e-10
# the paper's default grid, k = 3 with uniform spacing
UNIFORM_CELLS = list(itertools.product((20, 50, 80), (0.2, 0.8), (0.0, 0.2, 0.5)))
UNIFORM_REPS = 1000
CHI2_18_999 = 42.31  # the 0.999 quantile of chi-squared with 18 df
POSITION_REPS = 1000
POSITION_SEED = 20261020
POSITION_ALPHA = 1e-6  # per KS test, under the null law
DEPENDENCE_REPS = 10 ** 5
DEPENDENCE_SEED = 20261021
DEPENDENCE_ALPHA = 1e-6  # under the null law of independence
ADJACENT_REPS = 10 ** 5
ADJACENT_SEED = 20261020


def noncentrality(k: int, n: int, rho: float, delta: float) -> float:
    alphas = [delta * (j / (k - 1) - 0.5) for j in range(k)]  # mean zero
    return n * sum(a * a for a in alphas) / (1.0 - rho)


def minimal_cut(k: int, n: int) -> float:
    """F*: the minimal route picks H0 exactly when F is at most this."""
    df1, df2, n_obs = k - 1, (n - 1) * (k - 1), n * (k - 1)
    return df2 / df1 * math.expm1(df1 * math.log(n_obs) / n_obs)


def exact_law(k: int, n: int, rho: float, delta: float):
    """The law of F and the exact probability that the minimal route picks H0."""
    df1, df2, lam = k - 1, (n - 1) * (k - 1), noncentrality(k, n, rho, delta)
    law = stats.ncf(df1, df2, lam) if lam else stats.f(df1, df2)
    return law, float(law.cdf(minimal_cut(k, n)))


def nathoo_cut(k: int, n: int, ssb: float, ssr: float) -> float:
    """The SSA where the Nathoo-Masson dBIC10 crosses 0, for fixed SSB and SSR."""
    def delta_bic10(ssa):
        return (n * (k - 1) * math.log(ssr / (ssa + ssr))
                + (k + 2) * math.log(n * (ssb + ssr) / ssb)
                - 3.0 * math.log(n * (ssa + ssb + ssr) / ssb))
    # delta_bic10(0) = (k-1) L > 0 with L = ln(n(SSB+SSR)/SSB), and delta_bic10(ssa)
    # <= (k-1) L - n(k-1) ln(1 + ssa/SSR), which is 0 at the upper end
    upper = ssr * math.expm1(math.log(n * (ssb + ssr) / ssb) / n)
    return optimize.brentq(delta_bic10, 0.0, upper)


def chi2_density(df: int):
    log_norm = math.lgamma(df / 2) + df / 2 * math.log(2.0)
    return lambda x: math.exp((df / 2 - 1) * math.log(x) - x / 2 - log_norm)


def exact_nathoo(k: int, n: int, rho: float, delta: float) -> dict[str, float]:
    """The exact ``accuracy_nm`` and ``consistency`` of a cell.  The sums of squares
    are taken in units of 1 - rho, a common scale that neither route's choice
    depends on: SSA ~ chi2'(k-1, lambda), SSR = v ~ chi2((n-1)(k-1)) and
    SSB = u (1-rho+k*rho)/(1-rho) with u ~ chi2(n-1)."""
    df_b, df_r, lam = n - 1, (n - 1) * (k - 1), noncentrality(k, n, rho, delta)
    ssb_scale = (1.0 - rho + k * rho) / (1.0 - rho)
    density_b, density_r = chi2_density(df_b), chi2_density(df_r)
    law_b, law_r = stats.chi2(df_b), stats.chi2(df_r)
    f_star = minimal_cut(k, n)

    def mean(of_cdfs):
        def integrand(v, u):
            cdf_nm = special.chndtr(nathoo_cut(k, n, ssb_scale * u, v), k - 1, lam)
            cdf_min = special.chndtr(f_star * v / (n - 1), k - 1, lam)
            return density_b(u) * density_r(v) * of_cdfs(cdf_nm, cdf_min)
        return integrate.dblquad(integrand, law_b.ppf(CHI2_TAIL), law_b.isf(CHI2_TAIL),
                                 law_r.ppf(CHI2_TAIL), law_r.isf(CHI2_TAIL),
                                 epsabs=1e-6, epsrel=0.0)[0]

    p_h0 = mean(lambda cdf_nm, cdf_min: cdf_nm)
    # the routes agree below both cuts and above both: 1 - |difference of the CDFs|
    consistency = mean(lambda cdf_nm, cdf_min: 1.0 - abs(cdf_nm - cdf_min))
    return {"accuracy_nm": p_h0 if delta == 0.0 else 1.0 - p_h0, "consistency": consistency}


@pytest.fixture(scope="module")
def cells():
    results = []
    for k, n, rho, delta in CELLS:
        config = SimulationConfig(n=n, rho=rho, delta=delta, k=k, reps=REPS,
                                  master_seed=MASTER_SEED, spacing="equal")
        results.append((config, run_cell(config), *exact_law(k, n, rho, delta)))
    return results


def test_minimal_accuracy_matches_its_exact_value(cells):
    z_squared = []
    for config, result, _, p_h0 in cells:
        expected = p_h0 if config.delta == 0.0 else 1.0 - p_h0
        z_squared.append((result.accuracy_min - expected) ** 2
                         / (expected * (1.0 - expected) / REPS))
    assert sum(z_squared) <= CHI2_16_999


def test_f_follows_the_noncentral_f_law(cells):
    p_values = {config.cell_id: stats.kstest(result.series.f_stat, law.cdf).pvalue
                for config, result, law, _ in cells}
    assert {cell: p for cell, p in p_values.items() if not p > KS_ALPHA} == {}


def test_ssb_and_ssr_follow_their_scaled_chi_squared_laws():
    p_values = {}
    for k, n, rho in SS_CELLS:
        config = SimulationConfig(n=n, rho=rho, delta=SS_DELTA, k=k, reps=REPS,
                                  master_seed=MASTER_SEED, spacing="uniform")
        ssb, ssr = [], []
        for _, data in _draw(config, 0, REPS):  # each block's view is overwritten by the next
            _, block_ssb, block_ssr, _, _ = _decompose(data)
            ssb.extend(block_ssb.tolist())
            ssr.extend(block_ssr.tolist())
        ssb_scale, ssr_scale = 1.0 - rho + k * rho, 1.0 - rho
        p_values[config.cell_id, "SSB"] = stats.kstest(
            [value / ssb_scale for value in ssb], stats.chi2(n - 1).cdf).pvalue
        p_values[config.cell_id, "SSR"] = stats.kstest(
            [value / ssr_scale for value in ssr], stats.chi2((n - 1) * (k - 1)).cdf).pvalue
    alpha = 0.001 / len(p_values)
    assert {test: p for test, p in p_values.items() if not p > alpha} == {}


@pytest.fixture(scope="module")
def nathoo_cells():
    results = []
    for k, n, rho, delta in NM_CELLS:
        config = SimulationConfig(n=n, rho=rho, delta=delta, k=k, reps=NM_REPS,
                                  master_seed=MASTER_SEED, spacing="equal")
        results.append((run_cell(config), exact_nathoo(k, n, rho, delta)))
    return results


@pytest.mark.parametrize("field", ["accuracy_nm", "consistency"])
def test_nathoo_accuracy_and_consistency_match_their_exact_values(nathoo_cells, field):
    z_squared = []
    for result, exact in nathoo_cells:
        expected = exact[field]
        z_squared.append((getattr(result, field) - expected) ** 2
                         / (expected * (1.0 - expected) / NM_REPS))
    assert sum(z_squared) <= CHI2_4_999


def exact_uniform_accuracy(n: int, rho: float, delta: float) -> float:
    """The exact ``accuracy_min`` of a k = 3 cell with uniform spacing."""
    df1, df2, f_star = 2, 2 * (n - 1), minimal_cut(3, n)
    if delta == 0.0:
        return float(special.fdtr(df1, df2, f_star))

    def cdf_at(u):
        lam = n * delta ** 2 * (2.0 / 3.0) * (1.0 - u + u * u) / (1.0 - rho)
        return special.ncfdtr(df1, df2, lam, f_star)
    return 1.0 - integrate.quad(cdf_at, 0.0, 1.0)[0]


def test_minimal_accuracy_under_uniform_spacing_matches_its_exact_value():
    z_squared = []
    for n, rho, delta in UNIFORM_CELLS:
        config = SimulationConfig(n=n, rho=rho, delta=delta, k=3, reps=UNIFORM_REPS,
                                  master_seed=MASTER_SEED, spacing="uniform")
        expected = exact_uniform_accuracy(n, rho, delta)
        z_squared.append((run_cell(config).accuracy_min - expected) ** 2
                         / (expected * (1.0 - expected) / UNIFORM_REPS))
    assert sum(z_squared) <= CHI2_18_999


@pytest.mark.parametrize("k", [3, 5])
def test_interior_means_lie_as_sorted_uniforms(k):
    config = SimulationConfig(n=2, rho=0.5, delta=1e4, k=k, master_seed=POSITION_SEED,
                              spacing="uniform")
    means = np.array([generate_dataset(config, rep).mean(axis=0)
                      for rep in range(POSITION_REPS)])
    positions = (means[:, 1:-1] - means[:, :1]) / (means[:, -1:] - means[:, :1])
    p_values = [stats.kstest(positions[:, j - 1], stats.beta(j, k - 1 - j).cdf).pvalue
                for j in range(1, k - 1)]  # Beta(1, 1) is U(0, 1)
    assert min(p_values) > POSITION_ALPHA, p_values


def rank_deciles(values: np.ndarray) -> np.ndarray:
    """Each value's decile, 0 to 9, by its rank among ``values``."""
    return np.argsort(np.argsort(values, kind="stable"), kind="stable") * 10 // len(values)


def test_profile_draw_is_independent_of_the_data_draw():
    # the profile's uniform and the data normals come from substreams of one replication
    # seed; were they one stream, u would follow the first subject effects
    config = SimulationConfig(n=2, rho=0.5, delta=1e4, k=3, reps=DEPENDENCE_REPS,
                              master_seed=DEPENDENCE_SEED, spacing="uniform")
    positions, differences = [], []
    for _, data in _draw(config, 0, DEPENDENCE_REPS):  # each block's view is overwritten
        means = data.mean(axis=1)
        positions.append((means[:, 1] - means[:, 0]) / (means[:, 2] - means[:, 0]))
        rows = data.mean(axis=2)
        differences.append(rows[:, 0] - rows[:, 1])
    u, d = np.concatenate(positions), np.concatenate(differences)
    table = np.bincount(rank_deciles(u) * 10 + rank_deciles(d), minlength=100).reshape(10, 10)
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > DEPENDENCE_ALPHA, p_value


def test_adjacent_replications_and_seeds_are_independent():
    # a fold that dropped the low bit of the replication index or of the master seed
    # would repeat each F across the pair
    def f_values(master_seed, reps):
        config = SimulationConfig(n=3, rho=0.5, delta=0.0, k=2, reps=reps,
                                  master_seed=master_seed)
        return run_cell(config).series.f_stat

    f, half = f_values(ADJACENT_SEED, ADJACENT_REPS), ADJACENT_REPS // 2
    pairs = {"replications 2j and 2j+1": (f[0::2], f[1::2]),
             "adjacent master seeds": (f[:half], f_values(ADJACENT_SEED + 1, half))}
    for name, (first, second) in pairs.items():
        table = np.bincount(rank_deciles(first) * 10 + rank_deciles(second),
                            minlength=100).reshape(10, 10)
        chi2, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > DEPENDENCE_ALPHA, (name, chi2, p_value)
