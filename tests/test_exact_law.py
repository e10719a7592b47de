"""The minimal route's accuracy and F against their exact law.

Under the simulation's model with ``spacing="equal"``, F follows the
noncentral F(k-1, (n-1)(k-1), lambda) with lambda = n * sum((alpha_j -
mean alpha)^2) / (1 - rho).  The minimal route picks H0 exactly when
F <= (df2/df1) * expm1(df1 * ln N / N), N = n(k-1), so each cell's
``accuracy_min`` has an exact value.  Whatever the effects and their spacing,
SSB / (1 - rho + k*rho) follows chi-squared(n-1) and SSR / (1 - rho)
chi-squared((n-1)(k-1)); F's law does not involve the subject variance, so
only these two catch a wrong scale of the subject effects.  The cells, the
replication count, the seed and every bound were fixed before the first run.
"""

import itertools
import math

import pytest
from scipy import stats

from rmbayes import SimulationConfig, run_cell
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


def exact_law(k: int, n: int, rho: float, delta: float):
    """The law of F and the exact probability that the minimal route picks H0."""
    df1, df2, n_obs = k - 1, (n - 1) * (k - 1), n * (k - 1)
    alphas = [delta * (j / (k - 1) - 0.5) for j in range(k)]  # mean zero
    noncentrality = n * sum(a * a for a in alphas) / (1.0 - rho)
    law = stats.ncf(df1, df2, noncentrality) if noncentrality else stats.f(df1, df2)
    threshold = df2 / df1 * math.expm1(df1 * math.log(n_obs) / n_obs)
    return law, float(law.cdf(threshold))


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
