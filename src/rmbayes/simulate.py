"""Monte Carlo comparison of the two repeated-measures Bayes factor methods.

Datasets follow the linear mixed model

    y[i, j] = mu + alpha[j] + pi[i] + eps[i, j]

with subject effects pi ~ N(0, rho) and noise eps ~ N(0, 1 - rho), so the
marginal variance is 1 and ``rho`` is the intraclass correlation.  The
treatment effects alpha sum to zero and span a range of ``delta`` (the effect
size on the marginal-SD scale).

Determinism contract
--------------------
Every replication owns two RNG substreams derived by splitmix64 hash-mixing
of the master seed, the cell parameters and the replication index: one for
the placement of the condition means, one for the subject/noise draws.
Results are therefore bit-identical whether cells run sequentially or on any
number of worker processes.  Each substream is the numpy PCG64 ``Generator``
of ``np.random.default_rng(seed)``; :func:`run_cell` builds them without
``default_rng`` by doing numpy's ``SeedSequence`` hashing for a whole block
of seeds at once in uint32 array arithmetic, and checks once per process
that the result equals ``default_rng``.  Normal deviates come from the
ziggurat method, subject effects before the noise matrix, and are scaled
afterwards, which gives the same values as ``Generator.normal`` with that
scale.

:func:`run_cell` works in batched passes over blocks of replications.  The
substreams, the datasets and the model choices (hence accuracies and
consistencies) are those of the one-replication-at-a-time chain
:func:`generate_dataset` -> :func:`~rmbayes.anova.rm_anova` -> the scalar
Bayes factor routes.  F, the Bayes factors and the posteriors may differ
from that chain by a few ulp, because batched reductions and ufuncs may
round differently; the block size never changes a result.

Condition-mean spacing
----------------------
With ``spacing="uniform"`` (the default) the interior condition means are
redrawn uniformly between the extremes for every replication, which matches
the observed operating characteristics of this simulation design.  With
``spacing="equal"`` the means stay fixed and equally spaced, as produced by
:func:`make_profile`.

Results
-------
:func:`run_cell` returns a :class:`CellResult`: the cell's aggregates and,
as its ``series``, the per-replication arrays of a :class:`RepSeries`.
:func:`run_grid` returns a :class:`GridReport` of cells.  All of them are
plain frozen dataclasses; the JSON and CSV files are built from them by the
command-line interface alone.
"""

from __future__ import annotations

import functools
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .anova import _decompose
from .bayes import _chooses_h0, _log_bf01_minimal_rm, _log_bf01_nathoo, _posterior_h0
from .errors import DegenerateResidualError, DomainError, as_int, is_real

__all__ = [
    "CellResult",
    "FiveNumberSummary",
    "GridReport",
    "RepSeries",
    "SimulationConfig",
    "TreatmentProfile",
    "generate_dataset",
    "make_profile",
    "run_cell",
    "run_grid",
]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# tags the effect-placement substream apart from the subject/noise substream
_PROFILE_STREAM_TAG = 0x70726F66696C6531
# Data values per batched pass of run_cell (at least one dataset): bounds its
# working arrays at a few hundred kB whatever the number of replications.
_BLOCK_VALUES = 1 << 16

_SPACINGS = ("uniform", "equal")

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SEED_SEQ_INIT_A = 0x43B0D7E5
_SEED_SEQ_MULT_A = 0x931E8875
_SEED_SEQ_INIT_B = 0x8B51F9DD
_SEED_SEQ_MULT_B = 0x58F38DED
_SEED_SEQ_MIX_MULT_L = 0xCA01F9DD
_SEED_SEQ_MIX_MULT_R = 0x4973F715
# both 32-bit halves nonzero, so the check covers the whole entropy pool
_SEED_SEQ_CHECK_SEED = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation cell."""

    n: int
    rho: float
    delta: float
    k: int = 3
    reps: int = 1000
    master_seed: int = 0
    grand_mean: float = 0.0
    spacing: str = "uniform"

    def __post_init__(self) -> None:
        n, k, reps, seed = (as_int(v) for v in (self.n, self.k, self.reps, self.master_seed))
        if n is None or n < 2:
            raise DomainError(f"need at least 2 subjects, got n={self.n!r}")
        if k is None or k < 2:
            raise DomainError(f"need at least 2 conditions, got k={self.k!r}")
        if not (is_real(self.rho) and 0.0 <= self.rho < 1.0):
            raise DomainError(
                f"intraclass correlation must lie in [0, 1), got rho={self.rho!r}"
            )
        if not (is_real(self.delta) and math.isfinite(self.delta) and self.delta >= 0):
            raise DomainError(f"effect size must be a finite nonnegative real, got {self.delta!r}")
        if reps is None or reps < 1:
            raise DomainError(f"need at least 1 replication, got reps={self.reps!r}")
        if seed is None or not 0 <= seed <= _MASK64:
            raise DomainError("master_seed must be an unsigned 64-bit integer")
        if not (is_real(self.grand_mean) and math.isfinite(self.grand_mean)):
            raise DomainError(f"grand_mean must be a finite real, got {self.grand_mean!r}")
        if self.spacing not in _SPACINGS:
            raise DomainError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        for name, value in (("n", n), ("k", k), ("reps", reps), ("master_seed", seed),
                            ("rho", float(self.rho)), ("delta", float(self.delta)),
                            ("grand_mean", float(self.grand_mean))):
            object.__setattr__(self, name, value)

    @property
    def cell_id(self) -> str:
        return f"n{self.n}_k{self.k}_rho{self.rho:g}_delta{self.delta:g}"


@dataclass(frozen=True)
class TreatmentProfile:
    """Sum-to-zero treatment effects; their range equals the effect size on
    the unit marginal-SD scale."""

    alphas: tuple[float, ...]


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FiveNumberSummary":
        q = np.percentile(values, [0, 25, 50, 75, 100])
        return cls(*(float(v) for v in q))


@dataclass(frozen=True, eq=False)
class RepSeries:
    """Per-replication outcomes of one cell: one array per quantity, indexed
    by replication.  A model choice is H0 where its log BF01 is >= 0."""

    f_stat: np.ndarray
    log_bf01_min: np.ndarray
    log_bf01_nm: np.ndarray
    posterior_min: np.ndarray
    posterior_nm: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepSeries):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class CellResult:
    """Aggregates over the replications of one cell.

    ``accuracy_*`` is the proportion of replications choosing the true model
    (H0 exactly when delta = 0), ``consistency`` the proportion where both
    methods agree, and ``posterior_correlation`` the Pearson correlation of
    the two p(H0|y) series (None when undefined, e.g. a single replication).
    ``series`` holds the per-replication outcomes the aggregates came from.
    """

    config: SimulationConfig
    accuracy_min: float
    accuracy_nm: float
    consistency: float
    posterior_correlation: Optional[float]
    posterior_quantiles_min: FiveNumberSummary
    posterior_quantiles_nm: FiveNumberSummary
    series: RepSeries

    @property
    def cell_id(self) -> str:
        return self.config.cell_id


@dataclass(frozen=True)
class GridReport:
    """Results for every cell of a simulation grid, in canonical order
    (delta, then rho, then n)."""

    n_values: tuple[int, ...]
    rho_values: tuple[float, ...]
    delta_values: tuple[float, ...]
    k: int
    reps: int
    master_seed: int
    spacing: str
    cells: tuple[CellResult, ...]


def _splitmix64(z):
    """splitmix64 output function of a Python int, or of every entry of a
    uint64 array (whose arithmetic wraps modulo 2**64 by itself)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def _rep_seed(config: SimulationConfig, rep_index: int) -> int:
    """Substream seed for one replication: a splitmix64 fold of the master
    seed, the cell parameters and the replication index."""
    index = as_int(rep_index)
    if index is None or index < 0:
        raise DomainError(f"rep_index must be a nonnegative integer, got {rep_index!r}")
    return _splitmix64(_cell_seed(config) ^ (index & _MASK64))


def _cell_seed(config: SimulationConfig) -> int:
    """The master seed folded with the cell parameters; the replication
    index is the last token of the fold."""
    seed = config.master_seed & _MASK64
    tokens = (
        config.n,
        config.k,
        _float_bits(config.rho),
        _float_bits(config.delta),
        _float_bits(config.grand_mean),
    )
    for token in tokens:
        seed = _splitmix64(seed ^ (token & _MASK64))
    return seed


def _rep_seeds(config: SimulationConfig, first: int, stop: int) -> np.ndarray:
    """``_rep_seed`` of replications first..stop-1, as a uint64 array."""
    return _splitmix64(np.arange(first, stop, dtype=np.uint64) ^ _cell_seed(config))


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every s of a uint64
    seed array, as one (len(seeds), 4) uint64 row each.

    numpy's hashing, over the whole array at once: the entropy words
    [lo32, hi32] of s, zero-padded, are mixed into a 4-word pool, which is
    then hashed into eight output words.  A seed below 2**32 has the one
    entropy word lo32, which numpy pads to the same pool.
    """
    hash_a = _SEED_SEQ_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _SEED_SEQ_MULT_A & _MASK32
        value *= np.uint32(hash_a)
        return value ^ (value >> 16)

    zeros = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in ((seeds & _MASK32).astype(np.uint32),
                                       (seeds >> 32).astype(np.uint32), zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_SEED_SEQ_MIX_MULT_L) * pool[dst]
                         - np.uint32(_SEED_SEQ_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> 16)

    state = np.empty((len(seeds), 8), dtype="<u4")
    hash_b = _SEED_SEQ_INIT_B
    for word in range(8):
        value = pool[word % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _SEED_SEQ_MULT_B & _MASK32
        value *= np.uint32(hash_b)
        state[:, word] = value ^ (value >> 16)
    # pairs of 32-bit words, low word first, are the uint64 words
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _substream_factory():
    """A function from one row of :func:`_seed_sequence_states` to the
    ``Generator`` that ``np.random.default_rng`` gives for that row's seed.

    Built on first use, so importing this module does not load numpy.random,
    and checked once against ``default_rng``: a numpy whose seeding differs
    raises RuntimeError rather than silently changing every stream.
    """
    from numpy.random import PCG64, Generator, default_rng
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeedSequence(ISeedSequence):
        """Hands PCG64 the state words of a precomputed SeedSequence hash."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    def substream(words: np.ndarray):
        return Generator(PCG64(HashedSeedSequence(words)))

    probe = np.array([_SEED_SEQ_CHECK_SEED], dtype=np.uint64)
    if (substream(_seed_sequence_states(probe)[0]).bit_generator.state
            != default_rng(_SEED_SEQ_CHECK_SEED).bit_generator.state):
        raise RuntimeError(
            f"numpy {np.__version__} seeds PCG64 differently from the SeedSequence "
            "hashing in rmbayes.simulate, so its substreams would not be the "
            "default_rng streams"
        )
    return substream


def _substreams(seeds: np.ndarray):
    """``np.random.default_rng(s)`` for every s of a uint64 seed array, in
    order, with the SeedSequence hashing done for the whole array at once."""
    return map(_substream_factory(), _seed_sequence_states(seeds))


def make_profile(config: SimulationConfig) -> TreatmentProfile:
    """Equally spaced, sum-to-zero treatment effects with range ``delta``.

    For delta = 0 every effect is zero; for k = 2 the profile
    (-delta/2, +delta/2) is forced by the range and zero-sum constraints.
    """
    k, delta = config.k, config.delta
    alphas = tuple(delta * (j / (k - 1) - 0.5) for j in range(k))
    return TreatmentProfile(alphas=alphas)


def _rep_profile(config: SimulationConfig, rep_index: int) -> TreatmentProfile:
    """Profile used for one replication under the configured spacing."""
    if not _redraws_profile(config):
        return make_profile(config)
    rng = np.random.default_rng(_splitmix64(_rep_seed(config, rep_index) ^ _PROFILE_STREAM_TAG))
    interior = np.sort(rng.uniform(size=config.k - 2))
    relative = np.concatenate(([0.0], interior, [1.0]))
    means = config.delta * relative
    alphas = means - means.mean()
    return TreatmentProfile(alphas=tuple(float(a) for a in alphas))


def _redraws_profile(config: SimulationConfig) -> bool:
    return config.spacing == "uniform" and config.k > 2 and config.delta != 0.0


def _profiles(config: SimulationConfig, seeds: np.ndarray) -> np.ndarray:
    """Treatment effects of the replications with these substream seeds:
    one row each, equal to ``_rep_profile``, or one shared (k,) profile when
    the spacing does not redraw it."""
    if not _redraws_profile(config):
        return np.asarray(make_profile(config).alphas)
    relative = np.empty((len(seeds), config.k))
    relative[:, 0] = 0.0
    relative[:, -1] = 1.0
    interior = relative[:, 1:-1]
    for row, rng in zip(interior, _substreams(_splitmix64(seeds ^ _PROFILE_STREAM_TAG))):
        rng.random(out=row)
    interior.sort(axis=1)
    means = config.delta * relative
    return means - means.mean(axis=1, keepdims=True)


def generate_dataset(config: SimulationConfig, profile: TreatmentProfile,
                     rep_index: int) -> np.ndarray:
    """Draw one n-by-k dataset y[i, j] = mu + alpha[j] + pi[i] + eps[i, j].

    Deterministic given (master_seed, cell parameters, rep_index): the
    replication's substream first yields the n subject effects, then the
    n*k noise matrix.
    """
    if len(profile.alphas) != config.k:
        raise DomainError(
            f"profile has {len(profile.alphas)} effects but the design has k={config.k}"
        )
    rng = np.random.default_rng(_rep_seed(config, rep_index))
    subject = rng.normal(0.0, math.sqrt(config.rho), config.n)
    noise = rng.normal(0.0, math.sqrt(1.0 - config.rho), (config.n, config.k))
    return config.grand_mean + np.asarray(profile.alphas) + subject[:, None] + noise


def _pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    if len(x) < 2:
        return None
    xd = x - x.mean()
    yd = y - y.mean()
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        return None
    return max(-1.0, min(1.0, float((xd @ yd) / (sx * sy))))


def run_cell(config: SimulationConfig) -> CellResult:
    """Run every replication of one cell and aggregate both methods.

    Each replication generates a dataset, decomposes its sums of squares,
    and evaluates both Bayes factor routes (minimal from F, Nathoo-Masson
    from the sums of squares).  Replications run in blocks of at most
    ``_BLOCK_VALUES`` data values, each block as one batched pass.  A
    degenerate decomposition aborts the cell with the cell id and
    replication index attached (probability zero for continuous data).
    """
    n, k, reps = config.n, config.k, config.reps
    block = min(reps, max(1, _BLOCK_VALUES // (n * k)))
    subject = np.empty((block, n))
    noise = np.empty((block, n, k))
    data = np.empty((block, n, k))
    f_stat, log_bf01_min, log_bf01_nm = (np.empty(reps) for _ in range(3))

    for first in range(0, reps, block):
        stop = min(first + block, reps)
        size = stop - first
        seeds = _rep_seeds(config, first, stop)
        for rep_subject, rep_noise, rng in zip(subject, noise, _substreams(seeds)):
            rng.standard_normal(out=rep_subject)
            rng.standard_normal(out=rep_noise)
        sub, noi, dat = subject[:size], noise[:size], data[:size]
        sub *= math.sqrt(config.rho)
        noi *= math.sqrt(1.0 - config.rho)
        base = config.grand_mean + _profiles(config, seeds)
        # ((grand_mean + alphas) + subject) + noise: generate_dataset's order,
        # so the datasets match it to the bit
        np.add(base[..., np.newaxis, :], sub[:, :, np.newaxis], out=dat)
        dat += noi

        ssa, ssb, ssr, sst, f = _decompose(dat)
        valid = np.isfinite(f) & (ssr > 0.0) & (ssb > 0.0)
        if not valid.all():
            bad = int(np.argmin(valid))
            error = DegenerateResidualError if np.isinf(f[bad]) else DomainError
            raise error(
                f"cell {config.cell_id}, replication {first + bad}: degenerate sums of "
                f"squares SSA={ssa[bad]:.6g}, SSB={ssb[bad]:.6g}, SST={sst[bad]:.6g} "
                "(no residual or no subject variability, or an overflow)"
            )
        f_stat[first:stop] = f
        log_bf01_min[first:stop] = _log_bf01_minimal_rm(f, n, k, np)
        log_bf01_nm[first:stop] = _log_bf01_nathoo(n, k, ssa, ssb, sst, np)

    posterior_min = _posterior_h0(log_bf01_min, xp=np)
    posterior_nm = _posterior_h0(log_bf01_nm, xp=np)
    h0_min = _chooses_h0(log_bf01_min)
    h0_nm = _chooses_h0(log_bf01_nm)
    true_h0 = config.delta == 0.0
    return CellResult(
        config=config,
        accuracy_min=float(np.mean(h0_min == true_h0)),
        accuracy_nm=float(np.mean(h0_nm == true_h0)),
        consistency=float(np.mean(h0_min == h0_nm)),
        posterior_correlation=_pearson(posterior_min, posterior_nm),
        posterior_quantiles_min=FiveNumberSummary.from_values(posterior_min),
        posterior_quantiles_nm=FiveNumberSummary.from_values(posterior_nm),
        series=RepSeries(f_stat, log_bf01_min, log_bf01_nm, posterior_min, posterior_nm),
    )


def run_grid(n_values: Sequence[int], rho_values: Sequence[float],
             delta_values: Sequence[float], k: int = 3, reps: int = 1000,
             master_seed: int = 0, spacing: str = "uniform",
             workers: int = 1) -> GridReport:
    """Run every (delta, rho, n) cell of the grid.

    Cells are independent; with ``workers > 1`` they run on a process pool
    of at most one process per cell, and the substream seeding guarantees
    the report is identical to a sequential run.
    """
    if not n_values or not rho_values or not delta_values:
        raise DomainError("n_values, rho_values and delta_values must all be nonempty")
    pool_size = as_int(workers)
    if pool_size is None or pool_size < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")
    configs = [
        SimulationConfig(n=n, rho=rho, delta=delta, k=k, reps=reps,
                         master_seed=master_seed, spacing=spacing)
        for delta in delta_values for rho in rho_values for n in n_values
    ]
    seen = set()
    for config in configs:
        if config.cell_id in seen:
            raise DomainError(f"two grid cells share the id {config.cell_id}: a value is "
                              "repeated, or two agree to the id's 6 significant digits")
        seen.add(config.cell_id)
    pool_size = min(pool_size, len(configs))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            cells = tuple(pool.map(run_cell, configs))
    else:
        cells = tuple(map(run_cell, configs))
    return GridReport(
        n_values=tuple(n_values),
        rho_values=tuple(rho_values),
        delta_values=tuple(delta_values),
        k=k,
        reps=reps,
        master_seed=master_seed,
        spacing=spacing,
        cells=cells,
    )
