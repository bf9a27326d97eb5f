"""Desk-scale differentiable problems with controllable heterogeneity.

Three problem families share one gradient-oracle interface:

* quadratic  - f_i(x) = (L/2) ||x - b_i||^2 with analytically known optimum,
  exact inter-agent gradient deviation (zeta) and injected Gaussian
  gradient noise (sigma).
* softmax    - multinomial logistic regression on Gaussian class clusters.
* mlp        - one hidden tanh layer, hand-written backpropagation.

All stochastic draws are keyed by (seed, agent, round) substreams, so a
trajectory is a pure function of its configuration and independent of
evaluation order.  ``make_oracle`` serves every agent in one call per
round; the per-agent ``draw_batch`` / ``loss_and_grad`` methods are its
reference.

The oracle draws what the reference draws, bit for bit, without its
per-agent cost.  One ``_Streams`` per oracle owns its keyed draws.  The
SeedSequence hashing of the (seed, agent) part of each key runs once:
numpy's own ``SeedSequence(seed)`` gives the pool of the seed's words, and
the agent word is mixed in over all agents at once; the words of a block
of rounds are then mixed in over (round, agent) lanes.  No bit generator
is built per key: an oracle builds at most one PCG64 and one ``Generator``,
on first use, and writes each key's seeded state (``_pcg64_seeded``) into
that PCG64.
Minibatch indices are drawn for ``_BLOCK_ROUNDS`` rounds at a time and kept
until a round outside the block is asked for; a replay redraws them.
numpy's PCG64 is computed in closed form from the hashed words
(``_pcg64_raw``), and one vectorised pass maps the raw words to indices
with numpy's own algorithm for ``Generator.integers`` (``_lemire_map``);
the rare row whose draws hit a rejection is drawn again by numpy, its
state set through the public ``state`` setter.  Quadratic noise takes one
ziggurat ``standard_normal`` per agent, each agent's state written through
a view of numpy's PCG64 state before its row is drawn.
Every softmax cross-entropy, in both models' oracles and ``evaluate``, is one
true-class step, ``_cross_entropy``, on flat indices.  No classification oracle
loops over agents: softmax's runs ``_class_logits`` on a padded class-major
stack, and the MLP's runs its per-agent ``_batch_loss_grad`` once per
batch-size group, on that group's agents, bit for bit the per-agent reference.

A problem's data (the quadratic's optima; a classification dataset, its
test set and default split) is drawn once per spec: a problem built while
another of an equal spec is alive shares that problem's arrays, which are
read-only.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SyntheticProblemSpec",
    "Batch",
    "Problem",
    "QuadraticProblem",
    "SoftmaxProblem",
    "MlpProblem",
    "make_problem",
    "finite_diff_check",
    "make_oracle",
]


@dataclass(frozen=True)
class SyntheticProblemSpec:
    """Configuration of a synthetic per-agent objective family."""

    kind: str  # quadratic | softmax | mlp
    d: int
    n_agents: int
    zeta: float = 0.0
    sigma: float = 0.0
    L: float = 1.0
    seed: int = 0
    n_classes: int = 10
    n_samples: int = 2000
    hidden: int = 16
    separation: float = 3.0

    def __post_init__(self):
        for name in ("zeta", "sigma", "L", "separation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.zeta < 0 or self.sigma < 0 or self.L <= 0:
            raise ValueError("require zeta >= 0, sigma >= 0, L > 0")
        if self.kind not in ("quadratic", "softmax", "mlp"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name, least in (
            ("d", 1), ("n_agents", 1), ("n_classes", 2), ("n_samples", 1), ("hidden", 1)
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


@dataclass(frozen=True)
class Batch:
    """Sample indices plus the (seed, agent, round) RNG substream key."""

    indices: np.ndarray | None
    substream: tuple[int, int, int]


def _substream_rng(substream: tuple[int, int, int]) -> np.random.Generator:
    seed, *key = substream
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    )


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"substream keys must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of two arrays of uint32 words."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive hash constants from ``init``, as uint32."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)


# generate_state's constants: state word i is pool word i % 4, XORed with
# _STATE_CONSTS[i] and multiplied by _STATE_CONSTS[i + 1]
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[:, None, None]


def _lemire_map(raw: np.ndarray, bounds: np.ndarray, size: int):
    """numpy's bounded draws in [0, bounds[i]) from row i of raw PCG64 words.

    This is ``Generator.integers`` for bounds in [1, 2**32] (Lemire 2019,
    arXiv:1805.10941; numpy's ``random_bounded_uint64_fill``): each draw
    takes the next 32 bits u of the stream, the low half of a raw word
    before its high half, and returns (u * bound) >> 32, unless the low 32
    bits of the product fall below 2**32 mod bound; then numpy takes the
    next 32 bits instead.  Returns the draws of the first ``size`` 32-bit
    words of each row and a flag per row: True where a draw was rejected,
    so that row's draws are not numpy's.
    """
    u = raw.astype("<u8").view("<u4")[:, :size].astype(np.uint64)
    scaled = u * bounds[:, None]
    draws = (scaled >> np.uint64(32)).astype(np.int64)
    rejected = (scaled & np.uint64(_MASK32)) < (np.uint64(2**32) % bounds)[:, None]
    return draws, rejected.any(axis=1)


# Rounds of minibatch indices drawn per pass.  Blocks start at multiples of
# it, and it divides 2**32, so no block mixes rounds of different word counts.
_BLOCK_ROUNDS = 16

# numpy's PCG64: a 128-bit LCG stepped before each output, XSL-RR output
# (O'Neill 2014, https://www.pcg-random.org/paper.html; numpy's pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


@functools.lru_cache(maxsize=8)
def _pcg64_consts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (16, 4m) limb matrix and (4m,) offset that give PCG64's states 0..m-1.

    numpy seeds PCG64 from state words (s_hi, s_lo, i_hi, i_lo) as
    inc = 2i + 1 and state_0 = (s + inc) * MULT + inc, then steps before each
    output, so output j reads state_(j + 1), and state_j = A_j (s + inc) + C_j inc
    mod 2**128 with A_j = MULT**(j + 1) and C_j = MULT**j + ... + 1.  That
    is A_j s + 2 (A_j + C_j) i + (A_j + C_j): a constant multiple of each
    16-bit limb of the words, plus an offset.  Row p is input limb p of the
    words' little-endian uint16 view; column 4j + k holds the multiples'
    32-bit limb k of state_j.
    """
    matrix = np.zeros((16, 4 * m))
    offset = np.zeros(4 * m)
    power, total = 1, 0  # MULT**j, C_j - MULT**j
    for j in range(m):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        a, b = power, (power + total) & _MASK128
        for p in range(16):
            word, limb = divmod(p, 4)  # words s_hi, s_lo, i_hi, i_lo
            shift = 16 * limb + (64 if word % 2 == 0 else 0)
            value = ((a if word < 2 else 2 * b) << shift) & _MASK128
            matrix[p, 4 * j : 4 * j + 4] = [value >> (32 * k) & _MASK32 for k in range(4)]
        offset[4 * j : 4 * j + 4] = [b >> (32 * k) & _MASK32 for k in range(4)]
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return matrix, offset


def _pcg64_states(words: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): at [i, j], the 64-bit halves of state j < m of numpy's PCG64 seeded from words[i].

    numpy seeds PCG64 from 4 uint64 state words, which a SeedSequence key
    generates; state 0 is the one that seeding leaves.  The 128-bit states
    come from one float64 product of the words' 16-bit limbs with
    ``_pcg64_consts(m)``.  Each sum is of at most 16 terms below 2**48 plus
    an offset below 2**32, so it is an exact integer below 2**53 whatever
    the summation order or BLAS thread count; carrying the 32-bit limbs
    then gives each state mod 2**128.
    """
    matrix, offset = _pcg64_consts(m)
    limbs = np.ascontiguousarray(words, dtype="<u8").view("<u2").astype(np.float64)
    sums = (limbs @ matrix + offset).astype(np.uint64).reshape(len(words), m, 4)
    limb, carry = [], np.uint64(0)
    for k in range(4):
        column = sums[:, :, k] + carry
        limb.append(column & np.uint64(_MASK32))
        carry = column >> np.uint64(32)
    return limb[0] | (limb[1] << np.uint64(32)), limb[2] | (limb[3] << np.uint64(32))


def _pcg64_raw(words: np.ndarray, m: int) -> np.ndarray:
    """Row i: ``random_raw(m)`` of numpy's PCG64 seeded from words[i], all rows at once."""
    lo, hi = _pcg64_states(words, m + 1)
    lo, hi = lo[:, 1:], hi[:, 1:]
    rot = hi >> np.uint64(58)  # the state's top 6 bits
    xored = hi ^ lo
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def _pcg64_seeded(words: np.ndarray) -> np.ndarray:
    """Row i: (state lo, state hi, inc lo, inc hi) of numpy's PCG64 seeded from words[i]."""
    lo, hi = _pcg64_states(words, 1)
    i_hi, i_lo = np.asarray(words, dtype=np.uint64)[:, 2:].T
    one = np.uint64(1)
    inc_lo, inc_hi = (i_lo << one) | one, (i_hi << one) | (i_lo >> np.uint64(63))
    return np.stack((lo[:, 0], hi[:, 0], inc_lo, inc_hi), axis=1)


# Orders of the four 64-bit words of ``_pcg64_seeded``'s rows in numpy's
# pcg64_random_t: a native __uint128_t stores lo, hi; the emulated struct
# (pcg64.h, without 128-bit integers) stores hi, lo
_PCG64_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))


class _Streams:
    """numpy's ``default_rng(SeedSequence(seed, spawn_key=(agent, rnd)))`` draws of fixed agents.

    ``state_words`` replays SeedSequence's entropy mixing and state
    generation with one uint32 lane per (round, agent).  The round's words
    come last in the entropy, so the pool after the (seed, agent) words is
    the same in every round: it is built once, as a (4, n_agents) uint32
    array plus the hash constants that the round's words meet.  uint32
    arrays wrap like the C code.  Draws take no bit generator per key: at
    most one PCG64 and one ``Generator`` per instance, built on first use,
    into which a key's seeded state (``_pcg64_seeded``) is written.
    """

    def __init__(self, seed: int, agents: np.ndarray):
        if agents.size and not 0 <= agents.min() <= agents.max() <= _MASK32:
            raise ValueError("substream agents must lie in [0, 2**32)")
        # a spawn key pads the seed's words with zeros to the pool size,
        # which is what SeedSequence(seed) hashes in place of missing words,
        # so its pool is the pool before the agent word.  Each seed word, at
        # least 4 of them, met 4 hash constants; the agent word meets the
        # next 4 and the round's words the ones after
        used = _POOL_SIZE * max(len(_uint32_words(seed)), _POOL_SIZE)
        consts = _hash_consts(_INIT_A, _MULT_A, used + _POOL_SIZE)[used:, None]
        hashed = (agents.astype(np.uint32) ^ consts[:-1]) * consts[1:]
        pool = np.random.SeedSequence(seed).pool[:, None]
        self._pool = _mix(pool, hashed ^ (hashed >> 16))[:, None, :]
        self._hash_const = int(consts[-1, 0])
        self._generator = self._view = None

    def state_words(self, rounds) -> np.ndarray:
        """[r, i]: the 4 uint64 state words of agent i's (seed, agent, rounds[r]) key.

        All rounds must split into the same number of 32-bit words: a block
        never mixes rounds below 2**32 with rounds at or above it.
        """
        split = [_uint32_words(rnd) for rnd in rounds]
        if len({len(words) for words in split}) > 1:
            raise ValueError("a block of rounds must split into one number of 32-bit words")
        columns = np.array(split, dtype=np.uint32).T
        # round word w meets constants [4w, 4w + 4] of this chain
        chain = _hash_consts(self._hash_const, _MULT_A, _POOL_SIZE * len(columns))
        pool = self._pool
        for w, word in enumerate(columns):
            # hashmix of one word per round for each pool entry, as a
            # (pool entry, round) array applied across the agents
            consts = chain[_POOL_SIZE * w : _POOL_SIZE * (w + 1) + 1, None]
            hashed = (word ^ consts[:-1]) * consts[1:]
            pool = _mix(pool, (hashed ^ (hashed >> 16))[:, :, None])
        words = np.concatenate((pool, pool))
        words ^= _STATE_CONSTS[:-1]
        words *= _STATE_CONSTS[1:]
        words ^= words >> 16
        # uint64 output reads the uint32 words as little-endian pairs
        return (
            np.ascontiguousarray(words.transpose(1, 2, 0), dtype="<u4")
            .view("<u8")
            .astype(np.uint64)
        )

    def _seeded(self, state: int, inc: int) -> np.random.Generator:
        """The one ``Generator``, its PCG64 set through numpy's public ``state`` setter."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(0))
        self._generator.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return self._generator

    def normals(self, rnd: int, out: np.ndarray) -> None:
        """Row i of ``out``: agent i's ``standard_normal(out=out[i])`` in round ``rnd``.

        Before each row the row's seeded state is written into the one
        PCG64's state, through a view of numpy's 128-bit state and
        increment; the draws are numpy's own ziggurat on numpy's own state,
        bit for bit.  ``standard_normal`` reads whole 64-bit words, so the
        buffered 32-bit half, which a write does not reset, is never read.
        """
        if self._view is None:
            # numpy's pcg64_state begins with a pointer to the state and
            # increment, which the bit generator owns: the view is valid
            # while it lives.  The word order: set a known state publicly
            # and read it back
            bit_generator = self._seeded((1 << 64) | 2, (3 << 64) | 5).bit_generator
            address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
            view = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))
            known = np.array([2, 1, 5, 3], dtype=np.uint64)  # state lo, hi; inc lo, hi
            for order in _PCG64_WORD_ORDERS:
                if np.array_equal(view, known[list(order)]):
                    self._view, self._order = view, list(order)
                    break
            else:
                raise RuntimeError(
                    f"numpy {np.__version__} stores PCG64's state words in an unknown order"
                )
        # a 32-byte slice copied into the view's bytes is the cheapest write
        states = _pcg64_seeded(self.state_words([rnd])[0])[:, self._order].tobytes()
        view, normal = memoryview(self._view).cast("B"), self._generator.standard_normal
        for start, row in zip(range(0, len(states), 32), out):
            view[:] = states[start : start + 32]
            normal(out=row)

    def integers(self, rounds, bounds, size: int) -> np.ndarray:
        """[r, i]: agent i's ``integers(0, bound, size=size)`` in round ``rounds[r]``.

        ``bounds`` holds one bound in [1, 2**32] per (round, agent) row,
        round-major.  All rows go through ``_pcg64_raw`` and ``_lemire_map``
        at once; a row with a rejected draw (probability below
        size * bound / 2**32) is drawn again by numpy from its seeded state,
        set through the public setter, which also clears the buffered
        32-bit half that the row before may leave.
        """
        bounds = np.asarray(bounds, dtype=np.uint64)
        if bounds.size and not 1 <= bounds.min() <= bounds.max() <= 2**32:
            raise ValueError("bounded draws need bounds in [1, 2**32]")
        words = self.state_words(rounds).reshape(-1, 4)
        draws, rejected = _lemire_map(_pcg64_raw(words, (size + 1) // 2), bounds, size)
        for row in np.flatnonzero(rejected):
            lo, hi, inc_lo, inc_hi = _pcg64_seeded(words[row, None])[0].tolist()
            generator = self._seeded(hi << 64 | lo, inc_hi << 64 | inc_lo)
            draws[row] = generator.integers(0, int(bounds[row]), size=size)
        return draws.reshape(len(rounds), -1, size)


class Problem:
    """Common interface: per-agent stochastic losses over shared parameters.
    Every problem defines ``draw_batch``, ``loss_and_grad``, ``evaluate``,
    ``exact_loss_and_grad`` (full data, no noise: for checks and references)
    and ``batched_oracle`` (what ``make_oracle`` returns; arguments checked)."""

    kind: str
    dim: int  # parameter dimension
    n_agents: int
    seed: int

    def _check_params(self, X: np.ndarray) -> None:
        if X.shape != (self.n_agents, self.dim):
            raise ValueError(
                f"oracle expects ({self.n_agents}, {self.dim}) parameters, got {X.shape}"
            )
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"non-finite parameters supplied to agent {int(np.argmin(finite))}"
            )


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


# The draws of the specs that live problems were built from.  A problem
# holds its draw, so an entry lasts while any problem of its spec is alive
# and goes with the last one.  Draws are a pure function of the spec and
# read-only, so a build that finds its spec here holds what drawing again
# would give it.
_DRAWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_draw(spec: SyntheticProblemSpec, draw_type):
    """The live draw of ``spec``, or a new ``draw_type(spec)`` registered under it."""
    draw = _DRAWS.get(spec)
    if draw is None:
        draw = _DRAWS[spec] = draw_type(spec)
    return draw


class _QuadraticDraw:
    """The optima of a quadratic spec: ``b_bar`` and ``b`` = b_bar + zeta * u."""

    def __init__(self, spec: SyntheticProblemSpec):
        rng = np.random.default_rng(spec.seed)
        b_bar = rng.normal(size=spec.d)
        if spec.zeta > 0:
            u = rng.normal(size=(spec.n_agents, spec.d))
            u -= u.mean(axis=0)
            u /= np.sqrt(np.mean(np.sum(u * u, axis=1)))
        else:
            u = np.zeros((spec.n_agents, spec.d))
        with np.errstate(over="ignore"):
            b = b_bar + spec.zeta * u
        # zeta * zeta comes first, so an overflowing zeta**2 is caught here
        if not (math.isfinite(spec.zeta * spec.zeta * spec.L) and np.isfinite(b).all()):
            raise ValueError(f"zeta={spec.zeta!r} overflows the optima b_i or f* = L zeta^2 / 2")
        _read_only(b_bar, b)
        self.b_bar, self.b = b_bar, b


class QuadraticProblem(Problem):
    """f_i(x) = (L/2) ||x - b_i||^2 with b_i = b_bar + zeta * u_i.

    L is the curvature: every f_i is L-smooth and L-strongly convex, and
    the gradient L (x - b_i) carries sigma-scaled Gaussian noise.  The
    direction vectors u_i sum to zero and have unit mean squared norm, so
    the inter-agent gradient deviation (1/n) sum ||grad_i - grad||^2
    equals (L zeta)^2 at every x.  x* = b_bar, f* = L zeta^2 / 2.
    """

    kind = "quadratic"

    def __init__(self, spec: SyntheticProblemSpec):
        if spec.zeta > 0 and spec.n_agents < 2:
            raise ValueError("zeta > 0 requires at least 2 agents")
        self.spec = spec
        self.dim = spec.d
        self.n_agents = spec.n_agents
        self.seed = spec.seed
        self.sigma = spec.sigma
        self.L = spec.L
        self._draw = _shared_draw(spec, _QuadraticDraw)
        self.b = self._draw.b
        self.x_star = self._draw.b_bar
        self.f_star = 0.5 * spec.L * spec.zeta**2

    def draw_batch(self, agent, rnd, batch_size=None, seed=None):
        return Batch(
            indices=None,
            substream=(self.seed if seed is None else seed, agent, rnd),
        )

    def loss_and_grad(self, agent, params, batch):
        if not np.all(np.isfinite(params)):
            raise ValueError(f"non-finite parameters supplied to agent {agent}")
        loss, grad = self.exact_loss_and_grad(agent, params)
        if self.sigma > 0:
            rng = _substream_rng(batch.substream)
            grad = grad + self.sigma * rng.standard_normal(self.dim)
        return loss, grad

    def exact_loss_and_grad(self, agent, params):
        diff = params - self.b[agent]
        return 0.5 * self.L * float(diff @ diff), self.L * diff

    def batched_oracle(self, batch_size, seed):
        streams = _Streams(seed, np.arange(self.n_agents)) if self.sigma > 0 else None
        noise = np.empty((self.n_agents, self.dim)) if streams is not None else None

        def oracle(X, rnd):
            self._check_params(X)
            G = X - self.b
            losses = 0.5 * self.L * np.einsum("ij,ij->i", G, G)
            G *= self.L
            if streams is not None:
                streams.normals(rnd, noise)
                # the same rounding as G += sigma * noise, with no temporary
                np.multiply(noise, self.sigma, out=noise)
                G += noise
            return losses, G

        return oracle

    def global_loss(self, params):
        diff = params - self.x_star
        return 0.5 * self.L * float(diff @ diff) + self.f_star

    def evaluate(self, params):
        return self.global_loss(params), None


class _ClassificationDraw:
    """A classification spec's data: the training samples and their class
    means, the test set, and ``split``, the default even split of a
    permutation of the samples over the agents."""

    def __init__(self, spec: SyntheticProblemSpec):
        rng = np.random.default_rng(spec.seed)
        k, n = spec.n_classes, spec.n_samples
        with np.errstate(over="ignore"):
            self.means = spec.separation * rng.normal(size=(k, spec.d))
        if not np.isfinite(self.means).all():
            raise ValueError(f"separation={spec.separation!r} overflows the class means")
        self.labels = np.arange(n) % k
        rng.shuffle(self.labels)
        self.features = self.means[self.labels] + rng.normal(size=(n, spec.d))
        n_test = max(k, n // 5)
        self.test_labels = np.arange(n_test) % k
        self.test_features = self.means[self.test_labels] + rng.normal(size=(n_test, spec.d))
        order = rng.permutation(n)
        _read_only(
            self.features, self.labels, self.means, self.test_features, self.test_labels, order
        )
        # slices of the read-only permutation, so read-only themselves
        self.split = np.array_split(order, spec.n_agents)


class _IndexTable:
    """Agent i's batch is ``table[i, :counts[i]]``; ``mask`` marks those entries.

    ``cell`` numbers the cells, for a flat pick from a class-major (classes,
    *table.shape) stack; ``groups`` pairs each batch size m with its agents.
    """

    def __init__(self, counts: np.ndarray):
        n, width = len(counts), int(counts.max())
        self.counts = counts
        self.table = np.zeros((n, width), dtype=np.intp)
        self.mask = np.arange(width) < counts[:, None]
        self.cell = np.arange(n * width).reshape(n, width)
        self.groups = [(np.flatnonzero(counts == m), int(m)) for m in np.unique(counts)]


class _ClassificationProblem(Problem):
    """Shared dataset/partition plumbing for softmax and mlp problems, which
    define ``_batch_loss_grad`` (one batch) and ``_class_logits`` (class-major
    (k, m) logits of the samples in the columns of ``cols`` (d, m)).
    ``_stacked_loss_grad`` gives all agents' losses and grads, on
    ``table[i, :counts[i]]``: here ``_batch_loss_grad`` once per batch size,
    on its agents' stack, which softmax overrides with a padded pass."""

    def __init__(self, spec: SyntheticProblemSpec, assignments=None):
        self.spec = spec
        self.n_agents = spec.n_agents
        self.seed = spec.seed
        self._draw = draw = _shared_draw(spec, _ClassificationDraw)
        self.features, self.labels = draw.features, draw.labels
        self.test_features, self.test_labels = draw.test_features, draw.test_labels
        if assignments is None:
            assignments = draw.split
        self.assignments = [np.asarray(a) for a in assignments]
        if len(self.assignments) != spec.n_agents:
            raise ValueError(
                f"expected one assignment per agent ({spec.n_agents}),"
                f" got {len(self.assignments)}"
            )
        # one pass over all agents finds the first that fails a check: no
        # samples, then shape and dtype, then the index range over its slice
        # of the concatenation; that agent's first failing check is raised
        sizes = np.array([local.size for local in self.assignments])
        ok = sizes > 0
        ok &= [local.ndim == 1 and local.dtype.kind in "iu" for local in self.assignments]
        if ok.any():
            flat = np.concatenate([local for local, good in zip(self.assignments, ok) if good])
            starts = np.cumsum(sizes[ok]) - sizes[ok]
            low, high = np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)
            ok[ok] = (low >= 0) & (high < spec.n_samples)
        if not ok.all():
            agent = int(np.argmin(ok))
            local = self.assignments[agent]
            if local.size == 0:
                raise ValueError(f"agent {agent} is assigned no samples")
            if local.ndim != 1 or local.dtype.kind not in "iu":
                raise ValueError(
                    f"agent {agent}'s assignment must be a 1-D integer array of"
                    f" sample indices, got shape {local.shape} and dtype {local.dtype}"
                )
            raise ValueError(
                f"agent {agent} is assigned sample indices outside [0, {spec.n_samples})"
            )

    def draw_batch(self, agent, rnd, batch_size=None, seed=None):
        key = (self.seed if seed is None else seed, agent, rnd)
        local = self.assignments[agent]
        if batch_size is None or batch_size >= len(local):
            return Batch(indices=local, substream=key)
        rng = _substream_rng(key)
        picked = local[rng.integers(0, len(local), size=batch_size)]
        return Batch(indices=picked, substream=key)

    def batched_oracle(self, batch_size, seed):
        # row i of the index table is agent i's batch, its first counts[i]
        # entries; full local sets are fixed, minibatches redrawn per round
        sizes = np.array([len(local) for local in self.assignments])
        counts = sizes if batch_size is None else np.minimum(sizes, batch_size)
        sampled = np.flatnonzero(counts < sizes)
        batches = _IndexTable(counts)
        for agent, local in enumerate(self.assignments):
            if counts[agent] == sizes[agent]:
                batches.table[agent, : sizes[agent]] = local
        # a sampled agent's draws index its slice of the concatenated sets;
        # the batches of a block of rounds are drawn in one pass and kept
        # until a round outside the block is asked for
        flat = np.concatenate(self.assignments)
        starts = (np.cumsum(sizes) - sizes)[sampled, None]
        bounds = np.tile(sizes[sampled], _BLOCK_ROUNDS)
        streams = _Streams(seed, sampled)
        block_start, block = None, None

        def oracle(X, rnd):
            nonlocal block_start, block
            self._check_params(X)
            if len(sampled):
                first = rnd - rnd % _BLOCK_ROUNDS
                if first != block_start:
                    if rnd < 0:
                        raise ValueError(f"substream keys must be non-negative, got {rnd}")
                    rounds = range(first, first + _BLOCK_ROUNDS)
                    draws = streams.integers(rounds, bounds, batch_size)
                    block_start, block = first, flat[starts + draws]
                batches.table[sampled] = block[rnd - first]
            return self._stacked_loss_grad(batches, X)

        return oracle

    def _stacked_loss_grad(self, batches, X):
        # the agents of each batch size m as a (g, m, .) stack, not padded
        # to one width, so each agent's products keep the per-agent shapes
        losses, grads = np.empty(len(X)), np.empty_like(X)
        for agents, m in batches.groups:
            rows = batches.table[agents, :m]
            feats, labels = np.take(self.features, rows, axis=0), np.take(self.labels, rows)
            losses[agents], grads[agents] = self._batch_loss_grad(feats, labels, X[agents])
        return losses, grads

    def loss_and_grad(self, agent, params, batch):
        if not np.all(np.isfinite(params)):
            raise ValueError(f"non-finite parameters supplied to agent {agent}")
        idx = batch.indices
        return self._batch_loss_grad(self.features[idx], self.labels[idx], params)

    def exact_loss_and_grad(self, agent, params):
        idx = self.assignments[agent]
        return self._batch_loss_grad(self.features[idx], self.labels[idx], params)

    def evaluate(self, params):
        # class-major: a test sample per column, so the max and the sum
        # over classes run elementwise across k rows
        logits, labels = self._class_logits(self.test_features.T, params), self.test_labels
        _, log_true = _cross_entropy(logits, labels * len(labels) + np.arange(len(labels)), axis=0)
        return float(-np.mean(log_true)), float(np.mean(np.argmax(logits, axis=0) == labels))


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _cross_entropy(logits: np.ndarray, true: np.ndarray, axis: int = -1):
    """The softmax along ``axis`` of C-ordered ``logits``, less 1 at the flat
    indices ``true`` (the summed loss's gradient in the logits), and the log
    of the true-class probabilities, shaped like ``true``."""
    probs = _softmax(logits, axis)
    flat = probs.reshape(-1)
    picked = flat[true]
    flat[true] = picked - 1.0
    return probs, np.log(picked + 1e-300)


class SoftmaxProblem(_ClassificationProblem):
    """Multinomial logistic regression; parameters are the k x d weight matrix."""

    kind = "softmax"

    def __init__(self, spec, assignments=None):
        super().__init__(spec, assignments)
        self.dim = spec.n_classes * spec.d

    def _unpack(self, params):
        return params.reshape(params.shape[:-1] + (self.spec.n_classes, self.spec.d))

    def _class_logits(self, cols, params):
        return self._unpack(params) @ cols

    def _batch_loss_grad(self, feats, labels, params):
        k, m = self.spec.n_classes, len(labels)
        true = np.arange(0, m * k, k) + labels
        probs, log_true = _cross_entropy(feats @ self._unpack(params).T, true)
        return float(-np.mean(log_true)), ((probs.T @ feats) / m).ravel()

    def _stacked_loss_grad(self, batches, X):
        # class-leading (classes, agents, batch) stacks: the max and the sum
        # over classes run elementwise across contiguous k blocks; padding
        # entries of the table are masked out of the loss and the gradient
        table, counts, mask, cell = batches.table, batches.counts, batches.mask, batches.cell
        feats = np.take(self.features, table, axis=0)
        true = np.take(self.labels, table) * table.size + cell
        logits = self._class_logits(feats.transpose(0, 2, 1), X).transpose(1, 0, 2)
        probs, log_true = _cross_entropy(np.ascontiguousarray(logits), true, axis=0)
        losses = -np.sum(log_true * mask, axis=1) / counts
        probs *= mask
        grads = (probs.transpose(1, 0, 2) @ feats) / counts[:, None, None]
        return losses, grads.reshape(X.shape)


class MlpProblem(_ClassificationProblem):
    """One hidden tanh layer classifier with hand-written backpropagation."""

    kind = "mlp"

    def __init__(self, spec, assignments=None):
        super().__init__(spec, assignments)
        d, h, k = spec.d, spec.hidden, spec.n_classes
        self._shapes = [(h, d), (h,), (k, h), (k,)]
        self._ends = np.cumsum([math.prod(shape) for shape in self._shapes]).tolist()
        self.dim = self._ends[-1]

    def _unpack(self, params):
        """(w1, b1, w2, b2) of ``params``, with its leading axes leading each."""
        starts, lead = [0, *self._ends[:-1]], params.shape[:-1]
        return [
            params[..., a:b].reshape(lead + s) for a, b, s in zip(starts, self._ends, self._shapes)
        ]

    def _class_logits(self, cols, params):
        w1, b1, w2, b2 = self._unpack(params)
        return w2 @ np.tanh(w1 @ cols + b1[:, None]) + b2[:, None]

    def _batch_loss_grad(self, feats, labels, params):
        # any leading axes of the arguments are agents': every matmul makes
        # one agent's BLAS call once per agent, on that agent's shapes and
        # strides, so a stack of agents gets each agent's bits
        w1, b1, w2, b2 = self._unpack(params)
        k, m = self.spec.n_classes, labels.shape[-1]
        a1 = np.tanh(feats @ w1.swapaxes(-1, -2) + b1[..., None, :])
        true = np.arange(0, labels.size * k, k).reshape(labels.shape) + labels
        dz2, log_true = _cross_entropy(a1 @ w2.swapaxes(-1, -2) + b2[..., None, :], true)
        loss = -np.mean(log_true, axis=-1)
        dz2 /= m
        dz1 = (dz2 @ w2) * (1.0 - a1 * a1)
        dw1, dw2 = dz1.swapaxes(-1, -2) @ feats, dz2.swapaxes(-1, -2) @ a1
        lead = labels.shape[:-1] + (-1,)
        parts = dw1.reshape(lead), dz1.sum(axis=-2), dw2.reshape(lead), dz2.sum(axis=-2)
        return loss, np.concatenate(parts, axis=-1)


def make_problem(spec: SyntheticProblemSpec, assignments=None) -> Problem:
    if spec.kind == "quadratic":
        return QuadraticProblem(spec)
    if spec.kind == "softmax":
        return SoftmaxProblem(spec, assignments)
    return MlpProblem(spec, assignments)


def finite_diff_check(
    problem: Problem, params: np.ndarray, eps: float = 1e-5, agent: int = 0
) -> float:
    """Max per-coordinate relative error of analytic vs central-difference grad.

    Runs on the noise-free full-data local objective.
    """
    if not 1e-8 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-8, 1e-3], got {eps}")
    _, grad = problem.exact_loss_and_grad(agent, params)
    worst = 0.0
    for j in range(len(params)):
        step = np.zeros_like(params)
        step[j] = eps
        fp, _ = problem.exact_loss_and_grad(agent, params + step)
        fm, _ = problem.exact_loss_and_grad(agent, params - step)
        fd = (fp - fm) / (2 * eps)
        rel = abs(grad[j] - fd) / max(1.0, abs(grad[j]), abs(fd))
        worst = max(worst, rel)
    return worst


def make_oracle(problem: Problem, batch_size: int | None = None, seed: int | None = None):
    """Gradient oracle ``(X, round) -> (losses, G)``, one call per round.

    ``X`` is ``(n_agents, dim)`` with agent i's parameters in row i;
    ``losses`` is ``(n_agents,)`` and ``G`` is ``(n_agents, dim)``.  Row i
    is agent i's ``loss_and_grad`` on ``draw_batch(i, round, batch_size,
    seed)``: batches and noise come from the same (seed, agent, round)
    substreams, with ``seed`` defaulting to the problem seed, so replaying
    a configuration reproduces the gradient stream exactly.  ``batch_size``
    None means full local batches; an agent whose local set is no larger
    than the batch uses all of it.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be at least 1 (or None), got {batch_size}")
    return problem.batched_oracle(batch_size, problem.seed if seed is None else seed)
