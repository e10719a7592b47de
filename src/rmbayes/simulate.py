"""Monte Carlo comparison of the two repeated-measures Bayes factor methods.

Datasets follow the linear mixed model

    y[i, j] = alpha[j] + pi[i] + eps[i, j]

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
of ``np.random.default_rng(seed)``.  One block sampler, :func:`_draw`, draws
every dataset without ``default_rng``: it does numpy's ``SeedSequence``
hashing for all substreams of a block at once in uint32 array arithmetic,
and draws the profile uniforms from a vectorised PCG64 over the block
(:func:`_pcg64_uniforms`), with no ``Generator`` at all.  Both are checked
once per process against ``default_rng``.  Normal deviates come from the
ziggurat method, subject effects before the noise matrix, and are scaled
afterwards, which gives the same values as ``Generator.normal`` with that
scale.  The posterior five-number summaries follow numpy's linear
percentile rule.

:func:`run_cell` works in batched passes over blocks of replications, and
:func:`generate_dataset` is the sampler on a block of one: the dataset
:func:`run_cell` analyses for that replication.  The model choices (hence
accuracies and consistencies), F, the Bayes factors and the posteriors are
those of the one-replication-at-a-time chain :func:`generate_dataset` ->
:func:`~rmbayes.anova.rm_anova` -> the scalar Bayes factor routes, bit for
bit, and the block size never changes a result.

Condition-mean spacing
----------------------
With ``spacing="uniform"`` (the default) the interior condition means are
redrawn uniformly between the extremes for every replication, which matches
the observed operating characteristics of this simulation design.  With
``spacing="equal"`` the means stay fixed and equally spaced: the tuple of
effects that :func:`make_profile` returns.

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
from contextlib import closing
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _LAZY
from ._parts import in_parts
from .anova import _decompose
from .bayes import DesignSpec, _chooses_h0, _log_bf01_minimal_rm, _log_bf01_nathoo, _posterior_h0
from .errors import DegenerateResidualError, DomainError, as_int, real

__all__ = list(_LAZY["simulate"])

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# tags the effect-placement substream apart from the subject/noise substream
_PROFILE_STREAM_TAG = 0x70726F66696C6531
# Data values per batched pass of run_cell (at least one dataset): bounds its
# working arrays at a few hundred kB whatever the number of replications.
_BLOCK_VALUES = 1 << 16
# what an array too large to allocate is blamed on, where reps plays no part
_DESIGN_UNFIT = "its n-by-k design does not fit"

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
# numpy's PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation cell."""

    n: int
    rho: float
    delta: float
    k: int = 3
    reps: int = 1000
    master_seed: int = 0
    spacing: str = "uniform"

    def __post_init__(self) -> None:
        design = DesignSpec(self.n, self.k)
        reps, seed = as_int(self.reps), as_int(self.master_seed)
        rho, delta = real("rho", self.rho), real("delta", self.delta)
        if not 0.0 <= rho < 1.0:
            raise DomainError(
                f"intraclass correlation must lie in [0, 1), got rho={self.rho!r}"
            )
        if not 0.0 <= delta < math.inf:
            raise DomainError(f"effect size must be a finite nonnegative real, got {self.delta!r}")
        if reps is None or reps < 1:
            raise DomainError(f"need at least 1 replication, got reps={self.reps!r}")
        if seed is None or not 0 <= seed <= _MASK64:
            raise DomainError("master_seed must be an unsigned 64-bit integer")
        if self.spacing not in _SPACINGS:
            raise DomainError(f"spacing must be one of {_SPACINGS}, got {self.spacing!r}")
        for name, value in (("n", design.n), ("k", design.k), ("reps", reps),
                            ("master_seed", seed), ("rho", rho), ("delta", delta)):
            object.__setattr__(self, name, value)

    @property
    def cell_id(self) -> str:
        return f"n{self.n}_k{self.k}_rho{self.rho:g}_delta{self.delta:g}"


@dataclass(frozen=True)
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FiveNumberSummary":
        """``np.percentile(values, [0, 25, 50, 75, 100])`` of NaN-free values, by
        numpy's linear rule on Python floats: np.percentile loads numpy.ma."""
        ordered = np.sort(values).tolist()
        last = len(ordered) - 1

        def percentile(q: float) -> float:
            low = int(last * q)
            a, b, g = ordered[low], ordered[min(low + 1, last)], last * q - low
            return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
        return cls(*map(percentile, (0.0, 0.25, 0.5, 0.75, 1.0)))


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
    posterior_correlation: float | None
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


def _cell_seed(config: SimulationConfig) -> int:
    """The master seed folded with the cell parameters; the replication
    index is the last token of the fold."""
    seed = config.master_seed & _MASK64
    tokens = (
        config.n,
        config.k,
        _float_bits(config.rho),
        _float_bits(config.delta),
        0,  # the grand mean's _float_bits(0.0), kept so that no seed moves
    )
    for token in tokens:
        seed = _splitmix64(seed ^ (token & _MASK64))
    return seed


def _rep_seeds(config: SimulationConfig, first: int, stop: int) -> np.ndarray:
    """Substream seeds of replications first..stop-1, as a uint64 array: a
    splitmix64 fold of the master seed, the cell parameters and the
    replication index."""
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


def _pcg64_uniforms(states: np.ndarray, out: np.ndarray) -> None:
    """Fill row r of the 2-d ``out`` with the first ``Generator.random`` draws
    of the ``default_rng`` stream whose :func:`_seed_sequence_states` row is
    row r of ``states``: numpy's PCG64 seeding, step, XSL-RR output and
    ``(word >> 11) * 2**-53``, on a 128-bit state held as (hi, lo) uint64
    arrays, with products built from 32-bit limbs."""
    mask32 = np.uint64(_MASK32)
    mult_lo, mult_hi = np.uint64(_PCG64_MULT & _MASK64), np.uint64(_PCG64_MULT >> 64)
    limb0, limb1 = np.uint64(_PCG64_MULT & _MASK32), np.uint64(_PCG64_MULT >> 32 & _MASK32)
    inc_hi = states[:, 2] << 1 | states[:, 3] >> 63
    inc_lo = states[:, 3] << 1 | 1

    def step(hi, lo):
        """The state times the multiplier plus the increment, modulo 2**128."""
        a0, a1 = lo & mask32, lo >> 32
        p00, p01, p10 = a0 * limb0, a0 * limb1, a1 * limb0
        mid = (p00 >> 32) + (p01 & mask32) + (p10 & mask32)
        hi = (a1 * limb1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + lo * mult_hi + hi * mult_lo)
        lo = lo * mult_lo + inc_lo
        return hi + inc_hi + (lo < inc_lo), lo

    # from state 0 the first step gives the increment; add the seed words, then step
    lo = inc_lo + states[:, 1]
    hi, lo = step(inc_hi + states[:, 0] + (lo < inc_lo), lo)
    for column in range(out.shape[1]):
        hi, lo = step(hi, lo)
        word, rot = hi ^ lo, hi >> 58
        word = word >> rot | word << (64 - rot & 63)
        out[:, column] = (word >> 11) * 2.0 ** -53


@functools.cache
def _substream_factory():
    """A function from one row of :func:`_seed_sequence_states` to the
    ``Generator`` that ``np.random.default_rng`` gives for that row's seed.

    Built on first use, so importing this module does not load numpy.random,
    and checked once against ``default_rng``, as are :func:`_pcg64_uniforms`'s
    draws: a numpy whose seeding or PCG64 differs raises RuntimeError rather
    than silently changing every stream.
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

    states = _seed_sequence_states(np.array([_SEED_SEQ_CHECK_SEED], dtype=np.uint64))
    draws = np.empty((1, 8))
    _pcg64_uniforms(states, draws)
    reference = default_rng(_SEED_SEQ_CHECK_SEED)
    if (substream(states[0]).bit_generator.state != reference.bit_generator.state
            or not np.array_equal(draws[0], reference.random(8))):
        raise RuntimeError(
            f"numpy {np.__version__} seeds or runs PCG64 differently from the "
            "SeedSequence hashing and PCG64 kernel in rmbayes.simulate, so its "
            "substreams would not be the default_rng streams"
        )
    return substream


def _allocated(config: SimulationConfig, cause: str, make, *args) -> np.ndarray:
    """``make(*args)``; an array too large to allocate is a DomainError naming the cell."""
    try:
        return make(*args)
    except (MemoryError, ValueError):
        raise DomainError(f"cell {config.cell_id}: {cause} in memory") from None


def make_profile(config: SimulationConfig) -> tuple[float, ...]:
    """Equally spaced, sum-to-zero treatment effects with range ``delta``,
    the effect size on the unit marginal-SD scale.

    For delta = 0 every effect is zero; for k = 2 the profile
    (-delta/2, +delta/2) is forced by the range and zero-sum constraints.
    A k too large to allocate raises DomainError naming the cell.
    """
    steps = _allocated(config, _DESIGN_UNFIT, np.arange, config.k) / (config.k - 1)
    return tuple((config.delta * (steps - 0.5)).tolist())


def _redraws_profile(config: SimulationConfig) -> bool:
    return config.spacing == "uniform" and config.k > 2 and config.delta != 0.0


def _profiles(config: SimulationConfig, states: np.ndarray) -> np.ndarray:
    """Treatment effects of the replications with these profile substream
    states: one row each, the profile of that replication's dataset in
    :func:`generate_dataset` and :func:`run_cell`, or one shared (k,)
    profile (whatever the states) when the spacing does not redraw it."""
    if not _redraws_profile(config):
        return np.asarray(make_profile(config))
    relative = np.empty((len(states), config.k))
    relative[:, 0] = 0.0
    relative[:, -1] = 1.0
    interior = relative[:, 1:-1]
    _pcg64_uniforms(states, interior)
    interior.sort(axis=1)
    means = config.delta * relative
    return means - means.mean(axis=1, keepdims=True)


def _draw(config: SimulationConfig, first: int, stop: int):
    """Yield the first replication of each block of replications first..stop-1
    (at most ``_BLOCK_VALUES`` data values, at least one dataset) and a
    (size, n, k) view of its datasets, which the next block overwrites.  Each
    data substream fills its row of the (block, n*(k+1)) scratch with the n
    subject effects, then the n*k noise values; a dataset is (alphas + subject)
    + noise.  An overflow raises DomainError naming the cell and replication,
    scratch too large to allocate one naming the cell and its design."""
    n, k = config.n, config.k
    block = min(stop - first, max(1, _BLOCK_VALUES // (n * k)))
    normals = _allocated(config, _DESIGN_UNFIT, np.empty, (block, n * (k + 1)))
    data = _allocated(config, _DESIGN_UNFIT, np.empty, (block, n, k))
    substream = _substream_factory()
    for rep in range(first, stop, block):
        size = min(block, stop - rep)
        seeds = _rep_seeds(config, rep, rep + size)
        if _redraws_profile(config):
            seeds = np.concatenate((seeds, _splitmix64(seeds ^ _PROFILE_STREAM_TAG)))
        # one hash for the block: the data substreams' rows, then the profiles'
        states = _seed_sequence_states(seeds)
        for row, words in zip(normals, states[:size]):
            substream(words).standard_normal(out=row)
        subject, noise = normals[:size, :n], normals[:size, n:].reshape(size, n, k)
        subject *= math.sqrt(config.rho)
        noise *= math.sqrt(1.0 - config.rho)
        out = data[:size]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            base = _profiles(config, states[size:])
            np.add(base[..., np.newaxis, :], subject[:, :, np.newaxis], out=out)
            out += noise
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"cell {config.cell_id}, replication {rep + int(np.argmin(finite))}"
                              ": the data overflow the float range")
        yield rep, out


def generate_dataset(config: SimulationConfig, rep_index: int) -> np.ndarray:
    """Replication ``rep_index``'s n-by-k dataset y[i, j] = alpha[j] + pi[i] +
    eps[i, j], with alpha its profile: the dataset :func:`run_cell` analyses,
    drawn by the same sampler on a block of one.  ``rep_index`` is an integer
    from 0 to 2**64 - 1; anything else, an overflow or an unallocatable design
    raises DomainError."""
    index = as_int(rep_index)
    if index is None or not 0 <= index <= _MASK64:
        raise DomainError(f"rep_index must be an integer from 0 to 2**64 - 1, got {rep_index!r}")
    (_, data), = _draw(config, index, index + 1)
    return data[0]


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if len(x) < 2:
        return None
    # each deviation vector scaled, exactly, by a power of two that brings its largest
    # entry into [0.5, 1): deviations of posteriors near 1e-170 square to 0 unscaled
    xd, yd = (np.ldexp(d, -math.frexp(float(np.abs(d).max()))[1])
              for d in (x - x.mean(), y - y.mean()))
    sx = math.sqrt(float(np.einsum("i,i->", xd, xd)))  # einsum: no BLAS, as in anova
    sy = math.sqrt(float(np.einsum("i,i->", yd, yd)))
    if sx == 0.0 or sy == 0.0:
        return None
    return max(-1.0, min(1.0, float(np.einsum("i,i->", xd, yd)) / (sx * sy)))


class _libm:
    """``math``'s log, log1p and exp on each entry of a 1-d array: the batched
    formulas' ``xp``, which rounds as the scalar routes do where numpy's loops
    follow the CPU.  math raises where numpy returns inf or NaN, but no argument
    leaves its domain: F >= 0, so log1p's is too; run_cell has rejected SSR <= 0
    and SSB <= 0, so SST - SSB >= SSR > 0 and the Nathoo-Masson logs take
    positive numbers; and the posterior's exp arguments are <= 0."""

    log, log1p, exp = (staticmethod(lambda x, f=f: np.fromiter(map(f, x.tolist()), float, len(x)))
                       for f in (math.log, math.log1p, math.exp))


def run_cell(config: SimulationConfig) -> CellResult:
    """Run every replication of one cell and aggregate both methods.

    Each replication generates a dataset, decomposes its sums of squares,
    and evaluates both Bayes factor routes (minimal from F, Nathoo-Masson
    from the sums of squares).  Replications run in blocks of at most
    ``_BLOCK_VALUES`` data values, each block drawn by :func:`_draw` and
    analysed as one batched pass.  An overflow or a degenerate
    decomposition (probability zero for continuous data) aborts the cell
    with the cell id and replication index attached, and so does a cell
    whose arrays cannot be allocated, for its n, k or ``reps``.
    """
    n, k, reps = config.n, config.k, config.reps
    cause = f"reps={reps} replications do not fit"
    f_stat, log_bf01_min, log_bf01_nm = (_allocated(config, cause, np.empty, reps)
                                         for _ in range(3))
    for first, data in _draw(config, 0, reps):
        stop = first + len(data)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            ssa, ssb, ssr, sst, f = _decompose(data)
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
        log_bf01_min[first:stop] = _log_bf01_minimal_rm(f, n, k, _libm)
        log_bf01_nm[first:stop] = _log_bf01_nathoo(n, k, ssa, ssb, sst, _libm)

    posterior_min = _posterior_h0(log_bf01_min, xp=_libm)
    posterior_nm = _posterior_h0(log_bf01_nm, xp=_libm)
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

    Cells are independent; ``_parts.in_parts`` runs them in at most ``workers`` parts,
    the first here and each later one in a forked child, and the substream seeding
    guarantees the report is identical to a sequential run.
    """
    if not n_values or not rho_values or not delta_values:
        raise DomainError("n_values, rho_values and delta_values must all be nonempty")
    parts = as_int(workers)
    if parts is None or parts < 1:
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
    with closing(in_parts(lambda start, end: map(run_cell, configs[start:end]),
                          len(configs), parts)) as results:
        cells = tuple(results)
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
