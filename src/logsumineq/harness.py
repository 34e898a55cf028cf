"""Batch verification suites, deterministic trial seeding, and the
contractive counterexample search.

Trial t of a run uses the rng seeded with (config.seed + t) mod 2**64, and
every generator draw comes from that stream in a fixed order, so a report's
worst_case_seed replays its worst trial exactly:

    run_suite(replace(config, trials=1, seed=report.worst_case_seed))

Every suite, and the search's confirmation, has one shape (_Suite): draw,
build, judge.  One loop serves run_suite and counterexample_search: it hands
each block of consecutive trial seeds to the suite.

- draw(rng, config) makes a trial's Generator calls, the fewest that consume
  its stream (after _size's bounded integer, consecutive uniforms in one
  random(k) call and consecutive Gaussians in one standard_normal call), and
  returns what they give in draw order (_Draw).  It picks a function spec
  where it draws one and does no other arithmetic, except the search's
  confirmation's (_rechecks), which replays the residual the search keeps
  for a candidate.  _Suite.draws seeds a block at once (_rngs), and every
  bounded integer of a trial is _bounded's, numpy's integers replayed from
  the raw words.
- build(config, *stacks) maps an n-group's stacked draws (_stacks; a
  family's members on one flat member axis beside each trial's m) to its
  instance at its own n, bit for bit as the public generators build each
  trial: sequence pairs, commuting pairs or states, with q and r where the
  suite has them, or a Loewner suite's matrices and f.  It takes at most one
  qr or svd.
- judge(config, size, *instance) gives each trial's gap, (T,) or (T, k) for
  k checks per trial, and the scale its tolerance multiplies.  _verdicts
  judges every trial, and names a refusal by its trial's seed.

_grouped groups a block's draws into size classes by one path: a class is
every n with one _size_class N, each n-group is built at its own n, each
built matrix is padded to N by an identity block and each built sequence by
zeros at its end (nothing where n == N), and the class is judged in one
stack with each trial's own n, each check reading the trials' own slots.
convexity_check's grid sizes exceed every config.n, so each is its own class
and nothing is padded.  A class whose draws exceed its share of _BLOCK_BYTES
runs in parts.  A trial's bits depend only on its draws and its N, so the
blocks change no number in a report.

A one-member trial of perspective_sum with the perspective-sum lhs (any
family kind), pooled_inverse or split_mean is an identity: both sides are
one expression on equal bits, and the residual is the zero matrix.  Its
draw stops after m (_identity) and returns _IDENTITY_DRAW, which _verdicts
judges at gap 0.0 and scale 1.0 without a build or judge.  sum_fb,
pooled_mean and operator_shannon draw in full: at one member their residual
is round-off, not zero.

A Loewner suite's judge (_loewner) forms each size class's residuals R and
decomposes them once.  The search's first pass hands a block's failing
trials, each as its own n x n block of its class's R, straight to _rechecks,
which confirms them through the independent Jacobi eigensolver, one call per
size class of the block, at a tightened absolute tolerance: Jacobi
re-derives the eigenvalue the verdict reads, not the residual's formation.
_grouped stacks copies of those blocks, so no candidate outlives its block.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import generators as gen
from . import matfun
from .errors import (
    DEFAULT_TOLERANCE,
    DomainError,
    NumericError,
    PreconditionError,
    _holds,
    _spectrum_range,
    _tolerance,
)
from .functions import FunctionSpec, identity_fn, log_fn, power_fn, q_log_fn, rational_fn
from .loewner import (
    LHS_FORMS,
    _mean_monotonicity,
    _operator_jensen,
    _operator_shannon,
    _perspective_sums,
    _pooled_inverse,
    _pooled_mean,
    _split_mean,
    perspective_sum_residual,  # noqa: F401 (the benchmark self-tests read it from harness)
)
from .matfun import _decompose, _gap_scale, _lowest, _ordered, _Segments
from .scalar import (
    _curvature_holds,
    _forward,
    _q_log_sums,
    _ratio_bounds,
    _rational_example,
    _reverse,
    _scale,
)
from .traceform import (
    _entropies,
    _exp_log_traces,
    _q_traces,
    _relative_entropies,
    _reverse_traces,
    _trace_log_sums,
)

__all__ = [
    "TrialConfig",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "counterexample_search",
    "report_to_json",
]

_SEED_MOD = 2**64
FAMILY_KINDS = ("expansive", "contractive", "unconstrained")
RECHECK_ABS_TOL = 1e-6
# Consecutive trials handed to an evaluator at once: at most _BLOCK, and at most
# as many as keep (m + 1) complex n x n matrices per trial within _BLOCK_BYTES,
# which bounds memory at every size (256 trials take ~100 MB at n=64, m=16).
_BLOCK = 256
_BLOCK_BYTES = 2**24
DEFAULT_SPECTRUM_RANGE = (0.5, 2.0)  # TrialConfig's spectrum_range unless one is given
# Eigenvalue window of both matrices of the trace suites' commuting pairs.
_TRACE_SPECTRUM = (1e-2, 10.0)


@dataclass(frozen=True)
class TrialConfig:
    """Knobs for one suite run; every field participates in determinism."""

    suite: str
    trials: int = 1000
    seed: int = 0
    n: int = 4
    m: int = 2
    tolerance: float = DEFAULT_TOLERANCE
    spectrum_range: tuple[float, float] = DEFAULT_SPECTRUM_RANGE
    family_kind: str = "expansive"
    lhs_form: str = "perspective_sum"

    def __post_init__(self) -> None:
        if not (isinstance(self.suite, str) and self.suite):
            raise DomainError("suite name must be a non-empty string")
        for name in ("trials", "seed", "n", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.trials:
            raise DomainError("trials must be >= 1")
        if not 0 <= self.seed < _SEED_MOD:
            raise DomainError("seed must be a 64-bit unsigned integer")
        if not 1 <= self.n <= 64:
            raise DomainError("dimension n must be in [1, 64]")
        if not 1 <= self.m <= 16:
            raise DomainError("family size m must be in [1, 16]")
        object.__setattr__(self, "tolerance", _tolerance(self.tolerance))
        object.__setattr__(self, "spectrum_range", _spectrum_range(self.spectrum_range))
        if self.family_kind not in FAMILY_KINDS:
            raise DomainError(f"family_kind must be one of {FAMILY_KINDS}")
        if self.lhs_form not in LHS_FORMS:
            raise DomainError(f"lhs_form must be one of {LHS_FORMS}")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: TrialConfig
    trials: int
    violations: int
    worst_gap: float
    worst_case_seed: int
    wall_time: float
    findings: tuple[dict, ...] = ()


def _trial_seed(config: TrialConfig, index: int) -> int:
    return (config.seed + index) % _SEED_MOD


# numpy's SeedSequence (NEP 19) and PCG64 constants, for _rngs.
_M32 = 2**32 - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # MIX_MULT_L, MIX_MULT_R
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = 2**128 - 1


def _hash_constants(init: int, mult: int, calls: int):
    """The xor and multiplier columns (calls, 1) of a SeedSequence hash's successive calls."""
    xors, mults = [], []
    for _ in range(calls):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    return (np.array(c, dtype=np.uint32)[:, None] for c in (xors, mults))


# Pool hashing (INIT_A, MULT_A): 4 entropy words, then 3 mixes from each of
# the 4 words.  Output (INIT_B, MULT_B): 8 words.
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]


def _hashmix(x, xor, mult):
    x = (x ^ xor) * mult
    return x ^ (x >> 16)


def _rngs(seeds):
    """One Generator in the state of np.random.default_rng(seed), for each seed in turn.

    SeedSequence(seed) hashes a pool of the seed's low and high 32-bit words
    and two zero words (a seed below 2**32 hashes as with a zero high word)
    into 8 words; here each pool word is a uint32 array over the block.  The
    8 words make 4 uint64, the (high, low) halves of PCG64's initstate and
    initseq, and PCG64 seeds with inc = 2 initseq + 1 and state =
    (inc + initstate) * MULT + inc mod 2**128.  The same Generator is yielded
    for every seed, with no buffered 32-bit half left from the trial before;
    take a trial's draws before the next seed.
    """
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = s & _M32, s >> 32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src, dst in enumerate(_OTHERS):
        k = slice(4 + 3 * src, 7 + 3 * src)
        y = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_XOR[k], _POOL_MULT[k])
        pool[dst] = y ^ (y >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    rng = _Stream(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in zip(*(words[1::2] << 32 | words[0::2]).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.half = None
        yield rng


class _Stream(np.random.Generator):
    """The Generator that _rngs yields, with the high half of a raw word that _bounded holds
    back for the trial's next bounded draw."""

    def __init__(self, bit_generator) -> None:
        super().__init__(bit_generator)
        self.raw = bit_generator.random_raw
        self.half = None


def _bounded(rng: np.random.Generator, cap: int) -> int:
    """int(rng.integers(cap)), 1 <= cap < 2**32, from the words numpy draws it from.

    numpy takes PCG64's next_uint32, a raw word's low half with the high half
    held back for the next 32-bit draw, scales it by cap (Lemire) and redraws
    while the product's low 32 bits lie below (2**32 - cap) % cap; cap 1
    draws nothing.  A _Stream holds the high half itself (its Generator's own
    buffer stays empty), so every bounded draw of a trial comes through here;
    any other Generator draws by its integers.
    """
    if not isinstance(rng, _Stream):
        return int(rng.integers(cap))
    if cap == 1:
        return 0
    while True:
        x = rng.half
        if x is None:
            word = rng.raw()
            x, rng.half = word & _M32, word >> 32
        else:
            rng.half = None
        m = x * cap
        if (m & _M32) >= (2**32 - cap) % cap:
            return m >> 32


def _size(rng: np.random.Generator, cap: int) -> int:
    """rng.integers(1, cap + 1), as _bounded draws it."""
    return _bounded(rng, cap) + 1


class _Draw(NamedTuple):
    """The rng draws of one trial."""

    n: int | None  # the size of a trial's arrays: sequence length, matrix dimension or grid points
    values: tuple  # the trial's draws, in draw order unless its draw says otherwise


def _stacks(group: list[_Draw]) -> list:
    """Each value of a group of draws sharing n, over the group.

    A FunctionSpec value becomes a list of T specs.  A tuple holds a trial's
    members; the members of the whole group concatenate, trial by trial, into
    one flat member axis, an array (K, ...).  Any other value, a family's
    member count m among them, stacks as an array (T, ...).
    """
    stacks = []
    for v in zip(*(d.values for d in group)):
        if isinstance(v[0], FunctionSpec):
            stacks.append(list(v))
        elif isinstance(v[0], tuple):
            stacks.append(np.array([member for members in v for member in members]))
        else:
            stacks.append(np.array(v))
    return stacks


def _sized(draw):
    """The draw of a suite without a family: n, then draw(rng, n)'s values."""

    def sized(rng, config: TrialConfig) -> _Draw:
        n = _size(rng, config.n)
        return _Draw(n, draw(rng, n))

    return sized


def _sides(kernel, *fg):
    """The judge of kernel(*fg, *instance, size)'s (lhs, rhs, gap): the gap and its scale."""

    def sides(config, size, *instance):
        lhs, rhs, gap = kernel(*fg, *instance, size)
        return gap, _scale(lhs, rhs)

    return sides


def _pairs(config, x, u):
    """The commuting pairs (A, B) of the stacks (x, u): u (T, 2n) holds A's spectrum uniforms,
    then B's, both on _TRACE_SPECTRUM."""
    return gen._build_pair(x, *_halves(gen._uniform(u, *_TRACE_SPECTRUM)))


def _min(a, b):
    """min(a, b) elementwise as Python takes it: a unless b < a, so 0.0 and -0.0 tie to a."""
    return np.where(b < a, b, a)


_LOG = log_fn()
_IDENTITY = identity_fn()
_SQUARE = power_fn(2.0)


# -- scalar suites ---------------------------------------------------------


def _pair(rng, n, extra=0):
    """The uniforms of rand_sequence_pair's two sequences, then extra more, in one call."""
    return (rng.random(2 * n + extra),)


def _halves(u):
    """The first and second halves of each row of u (T, 2n)."""
    n = u.shape[-1] // 2
    return u[:, :n], u[:, n:]


def _sequences(config, u):
    """The sequence pairs (a, b), (T, n) each, of the stack u (T, 2n)."""
    return tuple(map(gen._sequence, _halves(u)))


def _equality(rng, n):
    """b's uniforms, then the uniform of the scale c of the proportional pair (c b, b)."""
    return (rng.random(n + 1),)


def _proportional(config, u):
    """The proportional pairs (c b, b) of the stack u: b's uniforms, then c's on (0.1, 10)."""
    b = gen._sequence(u[:, :-1])
    return gen._uniform(u[:, -1:], 0.1, 10.0) * b, b


def _equality_gaps(config, size, a, b):
    """-|gap| of the forward inequality on a proportional pair, where it is an equality."""
    lhs, rhs, gap = _forward(_LOG, _IDENTITY, a, b, size)
    return -np.abs(gap), _scale(lhs, rhs)


def _rational(config, u):
    """The rational example's pairs (a, ratio * a) of the stack u (T, 2n): a's uniforms, then
    the ratios'."""
    u_a, u_ratio = _halves(u)
    a = gen._uniform(u_a, 1.0, 10.0)
    return a, gen._uniform(u_ratio, 0.9, 2.4) * a


def _with_q_r(draw, build, kernel) -> _Suite:
    """The suite judging kernel(*instance, q, r) on build's instance, an order q and a power r
    per trial.

    draw(rng, n, extra=3) draws its values with 3 more uniforms at the end of
    its last call: q's branch and q's, then r's.
    """

    def with_q_r(config, *stacks):
        *rest, u = stacks
        branch, u_q, u_r = u[:, -3], u[:, -2], u[:, -1]
        # Stay off the q = 2 degeneracy where the inequality has no direction.
        q = np.where(branch < 0.7, gen._uniform(u_q, -2.0, 1.9), gen._uniform(u_q, 2.1, 3.5))
        return (*build(config, *rest, u[:, :-3]), q, gen._uniform(u_r, 0.5, 2.0))

    return _Suite(_sized(functools.partial(draw, extra=3)), with_q_r, _sides(kernel))


_Q_DIRECTIONS = (0.0, 0.5, 1.5, 2.5, 3.0)


def _q_direction_gaps(config, size, a, b):
    """One check per order of _Q_DIRECTIONS at r = 1, all orders of a group in one stack."""
    T = len(a)
    a, b = (np.repeat(x, len(_Q_DIRECTIONS), axis=0) for x in (a, b))
    size = np.repeat(size, len(_Q_DIRECTIONS))
    q = np.tile(_Q_DIRECTIONS, T)
    gap, scale = _sides(_q_log_sums)(config, size, a, b, q, np.ones(len(q)))
    return gap.reshape(T, -1), scale.reshape(T, -1)


def _ratio(rng, n):
    """A sequence pair's uniforms, then g: the identity or the square, by one more uniform."""
    u = rng.random(2 * n + 1)
    return u, _IDENTITY if u[-1] < 0.5 else _SQUARE


def _ratio_build(config, u, g):
    """The sequence pairs of u's uniforms but the last, which picked g, then g."""
    return (*_sequences(config, u[:, :-1]), g)


def _ratio_gaps(config, size, a, b, g):
    """Three checks: [m_g, M_g] is ordered, and holds the aggregate ratio from below and above."""
    m_g, M_g, agg = _ratio_bounds(g, a, b, size)
    return np.stack([M_g - m_g, agg - m_g, M_g - agg], axis=-1), _scale(m_g, M_g)[:, None]


def _convexity_draw(rng, config: TrialConfig) -> _Draw:
    """The case, then f, the interval's ends, the expected verdict and the grid size n."""
    case = _bounded(rng, 4)
    if case == 0:
        return _Draw(101, (_LOG, 0.05 + 0.1 * rng.random(), 10.0, True, 101))
    if case == 1:
        return _Draw(101, (q_log_fn(float(rng.uniform(2.05, 4.0))), 0.1, 10.0, False, 101))
    if case == 2:
        lo, hi = float(rng.uniform(0.42, 0.6)), float(rng.uniform(5, 10))
        return _Draw(201, (rational_fn(), lo, hi, True, 201))
    return _Draw(101, (power_fn(float(rng.uniform(0.2, 2.0))), 0.01, 5.0, True, 101))


def _as_drawn(config, *stacks):
    """The build of a suite whose draws are its instance."""
    return stacks


def _convexity_gaps(config, size, f, lo, hi, expected, points):
    points = int(points[0])  # a group shares its grid size
    h_kind = "xf1overx" if points == 201 else "xfx"
    agree = _curvature_holds(h_kind, f, lo, hi, points) == expected
    return np.where(agree, 0.0, -1.0), 0.0  # scale 0: -1 fails at any tolerance


# -- trace suites ----------------------------------------------------------


def _densities(config, x, u):
    """The commuting states (rho, sigma) of the stacks (x, u): u holds rho's spectrum uniforms,
    then sigma's."""
    return gen._build_pair(x, *map(gen._density, _halves(u)))


def _relative_entropy_gaps(config, size, rho, sigma):
    """D(rho || sigma) >= 0, at scale 1."""
    return _relative_entropies(rho, sigma, size), 1.0


def _state(config, u, x):
    """The states rho of the stacks (u, x): the spectrum uniforms, then the basis Gaussians."""
    return (gen._build(gen._density(u), gen._unitaries(x)),)


def _entropy_bound_gaps(config, size, rho):
    """Two checks at scale 1: S(rho) >= 0 and S(rho) <= log n."""
    s = _entropies(rho, size)
    return np.stack([s, np.array([math.log(n) for n in size.tolist()]) - s], axis=-1), 1.0


# -- operator-order suites --------------------------------------------------


def _concave_f(rng):
    pick = _bounded(rng, 3)
    if pick == 0:
        return _SQRT
    if pick == 1:
        return _LOG
    return q_log_fn(float(rng.uniform(0.0, 2.0)))


_SQRT = power_fn(0.5)
_SHANNON_POWER = power_fn(0.5, offset=-1.0)  # sqrt pinned to f(1) = 0


# The draw of every identity trial: no n, no members and no f.
_IDENTITY_DRAW = _Draw(None, ())


def _identity(m: int) -> bool:
    """Whether a trial of m members is an identity, in a suite whose sides agree at one member.

    A one-member family's total is its member (_Segments.total adds +0.0
    slots, and _herm leaves no -0.0 on a diagonal), so both sides run the
    same operations on equal bits in one stack: the residual is the zero
    matrix, gap 0.0 at scale 1.0.
    """
    return m == 1


def _family_draw(
    rng, config: TrialConfig, a_kind: str = "unconstrained", sides_agree_at_one: bool = False
) -> _Draw:
    """m, n, then m members of a_kind (the A family) and m unconstrained PD members (B).

    The values are m, then A's member draws (the amplitude uniforms and
    Gaussians of an expansive A, or else the spectrum uniforms and Gaussians),
    then B's spectrum uniforms and Gaussians.  A suite whose sides agree at
    one member stops at m when the trial is an identity.
    """
    m = _size(rng, config.m)
    if sides_agree_at_one and _identity(m):
        return _IDENTITY_DRAW
    n = _size(rng, config.n)
    draw_a = gen._draw_expansive if a_kind == "expansive" else gen._draw_pd
    a = [draw_a(rng, n) for _ in range(m)]
    b = [gen._draw_pd(rng, n) for _ in range(m)]
    return _Draw(n, (m, *zip(*a), *zip(*b)))


def _families(config: TrialConfig, u_a, x_a, u_b, x_b, a_kind: str = "unconstrained"):
    """The A and B members (K, n, n), trial t's m[t] on consecutive rows, from _family_draw's.

    An unconstrained member's spectrum is its uniforms on config.spectrum_range,
    a contractive one's its uniforms' contractive spectrum.  A non-expansive
    A is built with B in one stack, A's rows first, and split off at its K.
    """
    window = config.spectrum_range
    w_b = gen._uniform(u_b, *window)
    if a_kind == "expansive":
        return gen._build_expansive(u_a, x_a), gen._build(w_b, gen._unitaries(x_b))
    w_a = gen._contractive(u_a) if a_kind == "contractive" else gen._uniform(u_a, *window)
    mats = gen._build(np.concatenate([w_a, w_b]), gen._unitaries(np.concatenate([x_a, x_b])))
    return mats[: len(u_a)], mats[len(u_a) :]


def _sum_draw(rng, config: TrialConfig) -> _Draw:
    """An A family of config.family_kind, an unconstrained B family, then f.

    With the perspective-sum lhs, one member makes both sides P_f(A_1, B_1).
    """
    draw = _family_draw(rng, config, config.family_kind, config.lhs_form == "perspective_sum")
    if draw is _IDENTITY_DRAW:
        return draw
    return _Draw(draw.n, (*draw.values, _concave_f(rng)))


def _sum_build(config: TrialConfig, m, *stacks):
    *family, fs = stacks
    return m, *_families(config, *family, a_kind=config.family_kind), fs


def _sum_residuals(config: TrialConfig, size, m, As, Bs, fs) -> np.ndarray:
    expansive, tol = config.family_kind == "expansive", config.tolerance
    return _perspective_sums(fs, As, Bs, m, config.lhs_form, expansive, tol, size)


def _kept_residual(rng, config: TrialConfig) -> _Draw:
    """A candidate's trial drawn and judged alone, as the draw of the residual the search confirms
    it by: its own n x n block of its class's residual."""
    draw, kept = _sum_draw(rng, config), []
    list(_grouped([draw], config, _perspective_sum_verdicts, kept))
    return _Draw(draw.n, (kept[0][0, : draw.n, : draw.n],))


def _recheck_gaps(config: TrialConfig, size, R):
    """The search's confirmation: each candidate residual's least own eigenvalue through the
    Jacobi solver (looked up on matfun, where a tracer or a test's counter binds it), at scale
    1."""
    return _lowest(_ordered(*matfun.jacobi_eigh(R), size).eigenvalues, size), 1.0


def _jensen(rng, n):
    """rand_contraction's Gaussian and singular values, then rand_psd's Gaussian."""
    return gen._complex_gaussian(rng, n), rng.random(n), gen._complex_gaussian(rng, n)


def _jensen_build(config, x_c, s, x_x):
    return gen._build_contraction(s, x_c), gen._build_psd(2.0, x_x)


def _jensen_residuals(config, size, C, X):
    return _operator_jensen(_SQRT, C, X, size)


def _shannon_draw(rng, config: TrialConfig) -> _Draw:
    """An expansive A family, the shares of rand_split_matching, then f with f(1) = 0."""
    n, values = _family_draw(rng, config, "expansive")
    f = _concave_f(rng)
    return _Draw(n, (*values, _SHANNON_POWER if f.family == "power" else f))


def _shannon_build(config, m, *stacks):
    """A, then B split to match its total: one decomposition of each trial's sum(shares) and
    sum(A_i)."""
    *family, fs = stacks
    As, shares = _families(config, *family, a_kind="expansive")
    total = _Segments(m).total
    dec = _decompose(np.concatenate([total(shares), total(As)]))
    return m, As, gen._split_matching(dec, shares, m), fs


def _shannon_residuals(config, size, m, As, Bs, fs) -> np.ndarray:
    return _operator_shannon(fs, As, Bs, m, config.tolerance, size)


def _pooled_inverse_draw(rng, config: TrialConfig) -> _Draw:
    """m, n, m rand_pd members A_i, then m rand_square members X_i (their Gaussians in one call).

    One member makes both sides X_1† A_1^{-1} X_1.
    """
    m = _size(rng, config.m)
    if _identity(m):
        return _IDENTITY_DRAW
    n = _size(rng, config.n)
    pds = [gen._draw_pd(rng, n) for _ in range(m)]
    return _Draw(n, (m, *zip(*pds), tuple(rng.standard_normal((m, 2, n, n)))))


def _pooled_inverse_build(config, m, u, x, x_square):
    As = gen._build(gen._uniform(u, *config.spectrum_range), gen._unitaries(x))
    return m, gen._complex(x_square), As


def _pooled_inverse_residuals(config, size, m, Xs, As) -> np.ndarray:
    return _pooled_inverse(Xs, As, m, size)


def _family_build(config, m, *family):
    return m, *_families(config, *family)


def _pooled_mean_residuals(config, size, m, As, Bs) -> np.ndarray:
    return _pooled_mean(_SQRT, As, Bs, m, size)


def _split_mean_residuals(config, size, m, As, Bs) -> np.ndarray:
    return _split_mean(_SQRT, As, Bs, m, size)


def _monotonicity_draw(rng, config: TrialConfig) -> _Draw:
    """A_part, B_part, the scale and Gaussian of the PSD step to A_whole, B_whole's PD step.

    The values are the spectrum uniforms and the Gaussians of the three PD
    draws (A_part, B_part, B_whole - B_part), then the PSD step's scale
    uniform and Gaussian.
    """
    n = _size(rng, config.n)
    a_part = gen._draw_pd(rng, n)
    b_part = gen._draw_pd(rng, n)
    scale = rng.random()
    g_psd = gen._complex_gaussian(rng, n)
    b_step = gen._draw_pd(rng, n)
    return _Draw(n, (*zip(a_part, b_part, b_step), scale, g_psd))


def _monotonicity_build(config, u, x, u_scale, x_psd):
    """A_part, B_part, A_whole, B_whole: A_part's and B_part's spectra on config.spectrum_range,
    B_step's on (0.05, 0.5)."""
    w = gen._uniform(u, *config.spectrum_range)
    w[2::3] = gen._uniform(u[2::3], 0.05, 0.5)
    mats = gen._build(w, gen._unitaries(x))  # each trial's A_part, B_part, B_step in turn
    A_part, B_part, B_step = mats[0::3], mats[1::3], mats[2::3]
    A_whole = A_part + gen._build_psd(gen._uniform(u_scale, 0.1, 1.0), x_psd)
    return A_part, B_part, A_whole, B_part + B_step


def _monotonicity_residuals(config, size, *built) -> np.ndarray:
    return _mean_monotonicity(_SQRT, *built, config.tolerance, size)


def _nbytes(value) -> int:
    """The bytes a drawn value takes in its group's stack: a tuple's members summed, f none."""
    if isinstance(value, tuple):
        return sum(_nbytes(member) for member in value)
    return 0 if isinstance(value, FunctionSpec) else np.asarray(value).nbytes


# The largest config.n whose trials are padded, the largest the benchmark's Loewner
# workloads run at.  With one BLAS thread stacked eigh costs about 2 us per matrix at n=3,
# 10.5 at 8, 45 at 16 and 560 at 64, so padding a small trial far costs more than the
# numpy overhead that merging its n-group saves; above the cap each n is judged alone.
_PAD_CAP = 8


def _size_class(n: int, config: TrialConfig) -> int:
    """The size N(n) that a trial of size n is judged at: config.n when n <= config.n <=
    _PAD_CAP, else n itself (above the cap, and for convexity_check's grid sizes, which exceed
    every config.n).  It depends on (n, config.n) alone, so a one-trial replay pads as its run
    did."""
    return config.n if n <= config.n <= _PAD_CAP else n


def _pad(values, N: int) -> list:
    """An n-group's built values, each stack of matrices (ndim >= 3) embedded as the top-left
    block of an N x N identity, each stack of sequences (T, n) padded with zeros at its end;
    any other value as it is."""
    padded = []
    for v in values:
        if isinstance(v, np.ndarray) and v.ndim >= 2 and v.shape[-1] < N:
            n = v.shape[-1]
            if v.ndim == 2:
                p = np.zeros((len(v), N), dtype=v.dtype)
                p[:, :n] = v
            else:
                p = np.zeros((*v.shape[:-2], N, N), dtype=v.dtype)
                p[..., :n, :n] = v
                p[..., range(n, N), range(n, N)] = 1.0
            v = p
        padded.append(v)
    return padded


def _joined(values):
    """One built value over the n-groups of a size class: arrays concatenated, lists added."""
    if len(values) == 1:
        return values[0]
    if isinstance(values[0], list):
        return [v for value in values for v in value]
    return np.concatenate(values)


class _Suite(NamedTuple):
    """A registered suite: draw, build and judge (see the module docstring).

    The judge takes a size class with size holding each trial's own n.  Every
    eigensolve of a judge whose eigenvalues a check reads orders a matrix's
    eigenpairs own-first (matfun._decompose), and every check reads the own
    slots, entries or block only, so the pad adds no value of its own to a
    check.  Padded arithmetic moves a gap at round-off, so a trial whose gap
    lies within that distance of the tolerance edge can be judged otherwise
    than by the unpadded public function.
    """

    draw: object
    build: object
    judge: object

    def draws(self, seeds, config: TrialConfig) -> list[_Draw]:
        """The draws of the trials seeded seeds, each from the stream of default_rng(seed).

        The block is seeded at once (_rngs); each trial's draws are taken
        before the next trial's state is set.
        """
        return [self.draw(rng, config) for rng in _rngs(seeds)]

    def __call__(self, seeds, config):
        return _verdicts(self.draws(seeds, config), seeds, config, self)


def _grouped(draws: list[_Draw], config: TrialConfig, suite: _Suite, kept=None):
    """(positions in draws, suite's gaps and scales) of each size class of draws.

    A class holds the draws of every n with one _size_class; its positions
    run by ascending n, then by trial.  A block's draws fit _BLOCK_BYTES and
    spread over at most config.n sizes, and a judge's working set is several
    times its class's draws.  So a class whose stacks, counted at the class
    size, take more than _BLOCK_BYTES // config.n bytes is evaluated in runs
    of consecutive positions that fit (a larger trial runs alone).  Classes
    and runs are bitwise independent stacks.  A list kept goes to the judge,
    which must be a Loewner suite's (_loewner): it appends each class's
    residual stack.
    """
    extra = {} if kept is None else {"kept": kept}
    by_n: dict[int, list[int]] = {}
    for k, d in enumerate(draws):
        by_n.setdefault(d.n, []).append(k)
    classes: dict[int, list[int]] = {}
    for n in sorted(by_n):
        classes.setdefault(_size_class(n, config), []).append(n)

    def judged(N, runs, groups=None):
        """(positions, gaps and scales) of the n-groups runs, lists of positions sharing n."""
        if groups is None:
            groups = [_stacks([draws[k] for k in ks]) for ks in runs]
        positions = [k for ks in runs for k in ks]
        size = np.repeat([draws[ks[0]].n for ks in runs], [len(ks) for ks in runs])
        padded = [_pad(suite.build(config, *stacks), N) for stacks in groups]
        return positions, suite.judge(config, size, *map(_joined, zip(*padded)), **extra)

    budget = _BLOCK_BYTES // config.n
    for N, sizes in classes.items():
        runs = [by_n[n] for n in sizes]
        groups = [_stacks([draws[k] for k in ks]) for ks in runs]
        # bytes at the class size: an n-group's, and then a draw's, times (N / n)^2
        arrays = [sum(v.nbytes for v in g if isinstance(v, np.ndarray)) for g in groups]
        if sum((N / n) ** 2 * b for n, b in zip(sizes, arrays)) <= budget:
            yield judged(N, runs, groups)
            continue
        run, used = [], 0
        for n, ks in zip(sizes, runs):
            for k in ks:
                size = (N / n) ** 2 * _nbytes(draws[k].values)
                if run and used + size > budget:
                    yield judged(N, _by_n(run, draws))
                    run, used = [], 0
                run.append(k)
                used += size
        yield judged(N, _by_n(run, draws))


def _by_n(run: list[int], draws: list[_Draw]) -> list[list[int]]:
    """A run of positions, in runs of consecutive positions sharing n."""
    return [list(ks) for _, ks in itertools.groupby(run, key=lambda k: draws[k].n)]


def _verdicts(draws: list[_Draw], seeds, config: TrialConfig, suite: _Suite, kept=None):
    """Gap and holds flag of each trial, as Python lists: the one place a trial is judged.

    draws are the trials seeded seeds, judged a size class at a time
    (_grouped); the identity draws take no build or judge, and have gap 0.0
    at scale 1.0.  A trial holds when every check does (_holds), and its gap
    is its least check, the first on ties.  A refusal (_REFUSALS), which may
    name a row or matrix of a class's stack, is raised as the first refused
    trial's (_first_refused).  Given an empty list kept, the search's first
    pass gets each class's (positions in draws, residual stack) in it.
    """
    gaps, holds = np.empty(len(draws)), np.empty(len(draws), dtype=bool)
    evaluated = [k for k, d in enumerate(draws) if d is not _IDENTITY_DRAW]
    groups = _grouped([draws[k] for k in evaluated], config, suite, kept)
    try:
        judged = [([evaluated[k] for k in ks], gap_scale) for ks, gap_scale in groups]
    except _REFUSALS as exc:
        trials = [(draws[k], seeds[k]) for k in evaluated]
        raise _first_refused(exc, trials, config, suite) from exc
    if len(evaluated) < len(draws):
        identities = [k for k, d in enumerate(draws) if d is _IDENTITY_DRAW]
        judged.append((identities, (np.zeros(len(identities)), 1.0)))
    if kept is not None:  # each class's residual stack beside its positions in draws
        kept[:] = [(ks, R) for (ks, _), R in zip(judged, kept)]
    for ks, (gap, scale) in judged:
        gaps[ks] = functools.reduce(_min, gap.reshape(len(ks), -1).T)
        holds[ks] = _holds(gap, scale, config.tolerance).reshape(len(ks), -1).all(axis=-1)
    return gaps.tolist(), holds.tolist()


# What a kernel raises to refuse a trial: a numerical failure, a hypothesis the trial does not
# meet, or a value outside a function's domain.
_REFUSALS = (NumericError, PreconditionError, DomainError)


def _first_refused(exc: Exception, trials, config: TrialConfig, suite: _Suite) -> Exception:
    """exc as the refusal of the first of trials, (draw, seed) pairs in trial order, that suite
    refuses judged alone: of that refusal's type, its message prefixed by the trial's seed; exc
    itself if none is.  A trial's arithmetic does not depend on the rest of its stack, so
    run_suite or counterexample_search of replace(config, trials=1, seed=seed) replays the
    refusal, and a prefix of trials refuses exactly when one of its trials does: the first
    refused trial is the last of the shortest refusing prefix, found by bisection from the
    whole of trials, whose stack gave exc (at most ceil(log2 T) prefix judges, then one alone
    unless that prefix is the trial alone).
    """

    def refusal(prefix):
        try:
            list(_grouped([draw for draw, _ in prefix], config, suite))
        except _REFUSALS as refused:
            return refused
        return None

    # the longest prefix known to hold, and the shortest known to refuse with its refusal
    holds, refuses, refused = 0, len(trials), exc
    while refuses - holds > 1:
        mid = (holds + refuses) // 2
        found = refusal(trials[:mid])
        if found is None:
            holds = mid
        else:
            refuses, refused = mid, found
    draw, seed = trials[refuses - 1]
    if refuses > 1:
        refused = refusal([(draw, seed)])
    return exc if refused is None else type(refused)(f"trial seed {seed} (n={draw.n}): {refused}")


def _loewner(draw, build, residuals) -> _Suite:
    """A Loewner suite: the gap and scale (_gap_scale) of each trial's residual, from one
    decomposition of the residuals R (T, N, N) that residuals(config, size, *built) forms for a
    size class; a list kept gets R appended."""

    def judge(config, size, *built, kept=None):
        R = residuals(config, size, *built)
        if kept is not None:
            kept.append(R)
        return _gap_scale(_decompose(R, size=size).eigenvalues, size)

    return _Suite(draw, build, judge)


_perspective_sum_verdicts = _loewner(_sum_draw, _sum_build, _sum_residuals)
# The search's confirmation: the residuals its first pass formed, taken as drawn and decomposed
# through the Jacobi solver.  Its draw forms a trial's residual from its seed, for replays.
_rechecks = _Suite(_kept_residual, _as_drawn, _recheck_gaps)
_COMMUTING = _sized(gen._draw_commuting)

SUITES = {
    "scalar_log_sum": _Suite(_sized(_pair), _sequences, _sides(_forward, _LOG, _IDENTITY)),
    "scalar_equality": _Suite(_sized(_equality), _proportional, _equality_gaps),
    "scalar_reverse": _Suite(_sized(_pair), _sequences, _sides(_reverse, _LOG, _IDENTITY)),
    "rational_reverse": _Suite(_sized(_pair), _rational, _sides(_rational_example)),
    "q_log_sum": _with_q_r(_pair, _sequences, _q_log_sums),
    "q_direction": _Suite(_sized(_pair), _sequences, _q_direction_gaps),
    "ratio_bounds": _Suite(_sized(_ratio), _ratio_build, _ratio_gaps),
    # a grid size is not a dimension: each grid size exceeds config.n, and is its own class
    "convexity_check": _Suite(_convexity_draw, _as_drawn, _convexity_gaps),
    "trace_log_sum": _Suite(_COMMUTING, _pairs, _sides(_trace_log_sums, _LOG, _IDENTITY)),
    "trace_reverse": _Suite(_COMMUTING, _pairs, _sides(_reverse_traces, _LOG, _IDENTITY)),
    "q_trace": _with_q_r(gen._draw_commuting, _pairs, _q_traces),
    "exp_log_trace": _Suite(_COMMUTING, _pairs, _sides(_exp_log_traces)),
    "relative_entropy": _Suite(_COMMUTING, _densities, _relative_entropy_gaps),
    "entropy_bound": _Suite(_sized(gen._draw_pd), _state, _entropy_bound_gaps),
    "operator_jensen": _loewner(_sized(_jensen), _jensen_build, _jensen_residuals),
    "perspective_sum": _perspective_sum_verdicts,
    "operator_shannon": _loewner(_shannon_draw, _shannon_build, _shannon_residuals),
    "pooled_inverse": _loewner(
        _pooled_inverse_draw, _pooled_inverse_build, _pooled_inverse_residuals
    ),
    "pooled_mean": _loewner(_family_draw, _family_build, _pooled_mean_residuals),
    "split_mean": _loewner(
        functools.partial(_family_draw, sides_agree_at_one=True),
        _family_build,
        _split_mean_residuals,
    ),
    "mean_monotonicity": _loewner(
        _monotonicity_draw, _monotonicity_build, _monotonicity_residuals
    ),
}


def _block(config: TrialConfig) -> int:
    return max(1, min(_BLOCK, _BLOCK_BYTES // (16 * (config.m + 1) * config.n**2)))


def _run(config: TrialConfig, evaluate):
    """Walk the trial seeds in blocks of _block(config); evaluate(seeds, config) -> (gaps, holds).

    Returns the worst gap (the first on ties), its trial seed, and the
    (index, seed, gap) of each failing trial, in trial order.
    """
    worst_gap, worst_seed, failures = math.inf, _trial_seed(config, 0), []
    block = _block(config)
    for first in range(0, config.trials, block):
        indices = range(first, min(first + block, config.trials))
        seeds = [_trial_seed(config, index) for index in indices]
        gaps, holds = evaluate(seeds, config)
        for index, ts, gap, ok in zip(indices, seeds, gaps, holds):
            if gap < worst_gap:
                worst_gap, worst_seed = gap, ts
            if not ok:
                failures.append((index, ts, gap))
    return float(worst_gap), worst_seed, failures


def run_suite(config: TrialConfig) -> SuiteReport:
    """Execute config.trials seeded trials of one registered suite."""
    if config.suite not in SUITES:
        raise DomainError(
            f"unknown suite {config.suite!r}; registered: {', '.join(sorted(SUITES))}"
        )
    start = time.perf_counter()
    worst_gap, worst_seed, failures = _run(config, SUITES[config.suite])
    return SuiteReport(
        suite=config.suite,
        config=config,
        trials=config.trials,
        violations=len(failures),
        worst_gap=worst_gap,
        worst_case_seed=worst_seed,
        wall_time=time.perf_counter() - start,
    )


def counterexample_search(config: TrialConfig) -> SuiteReport:
    """Probe the perspective-sum inequality on contractive families.

    The expansivity hypothesis is deliberately dropped.  With
    lhs_form="perspective_sum" the search stress-tests a theorem: the
    operator perspective of an operator-concave f is jointly concave
    (Ebadian, Nikoufar and Eshaghi Gordji, PNAS 2011) and positively
    homogeneous, hence superadditive over every PD family.  With "sum_fb" it
    finds the pinned false statement.  The report carries findings
    (re-verified candidates) and no pass/fail claim.
    """
    if config.suite != "perspective_sum":
        raise DomainError("counterexample_search requires suite='perspective_sum'")
    if config.family_kind != "contractive":
        raise DomainError("counterexample_search requires family_kind='contractive'")
    start = time.perf_counter()
    findings, recheck = [], replace(config, tolerance=RECHECK_ABS_TOL)

    def first_pass(seeds, config):
        """The block's verdicts; its failing trials are confirmed from their own blocks of the
        residual stacks this pass formed, and the confirmed ones join the findings in trial
        order."""
        draws, kept = _perspective_sum_verdicts.draws(seeds, config), []
        min_eigs, holds = _verdicts(draws, seeds, config, _perspective_sum_verdicts, kept)
        # each failing trial, in trial order, as its own n x n block of its class's residuals
        rows = {k: R[t] for ks, R in kept for t, k in enumerate(ks) if not holds[k]}
        failing = sorted(rows)
        residuals = [_Draw(draws[k].n, (rows[k][: draws[k].n, : draws[k].n],)) for k in failing]
        rechecks = _verdicts(residuals, [seeds[k] for k in failing], recheck, _rechecks)
        for k, recheck_min_eig, ok in zip(failing, *rechecks):
            if not ok:
                draw, ts = draws[k], seeds[k]
                finding = {
                    "trial_index": (ts - config.seed) % _SEED_MOD,
                    "seed": ts,
                    "n": draw.n,
                    "m": draw.values[0],  # a family draw's first value is m
                    "f": draw.values[-1].label(),  # the draw's last value is f
                    "lhs_form": config.lhs_form,
                    "first_min_eigenvalue": min_eigs[k],
                    "recheck_min_eigenvalue": recheck_min_eig,
                }
                findings.append(finding)
        return min_eigs, holds

    worst_gap, worst_seed, _ = _run(config, first_pass)
    return SuiteReport(
        suite="contractive_search",
        config=config,
        trials=config.trials,
        violations=len(findings),
        worst_gap=worst_gap,
        worst_case_seed=worst_seed,
        wall_time=time.perf_counter() - start,
        findings=tuple(findings),
    )


def report_to_json(report: SuiteReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
