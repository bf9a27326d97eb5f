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
per-agent cost.  The SeedSequence hashing of the (seed, agent) part of each
key runs once per oracle (``_KeyPool``): numpy's own ``SeedSequence(seed)``
gives the pool of the seed's words, and the agent word is mixed in over all
agents at once; the words of a block of rounds are then mixed in over
(round, agent) lanes.
Minibatch indices are drawn for ``_BLOCK_ROUNDS`` rounds at a time and kept
until a round outside the block is asked for; a replay redraws them.  No
bit generator is built for them: numpy's PCG64 is computed in closed form
from the hashed words (``_pcg64_raw``), and one vectorised pass maps the
raw words to indices with numpy's own algorithm for ``Generator.integers``
(``_lemire_map``); the rare row whose draws hit a rejection is drawn again
by numpy itself.  Quadratic noise still needs one ``Generator`` per agent,
for numpy's ziggurat ``standard_normal``.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "make_quadratic",
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
        for name, least in (("d", 1), ("n_classes", 2), ("hidden", 1)):
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


class _KeyPool:
    """``SeedSequence(entropy=seed, spawn_key=(agent, rnd))`` of fixed agents, any rounds.

    Replays SeedSequence's entropy mixing and state generation with one
    uint32 lane per (round, agent).  The round's words come last in the
    entropy, so the pool after the (seed, agent) words is the same in every
    round: it is built once, as a (4, n_agents) uint32 array plus the hash
    constants that the round's words meet, and ``state_words`` mixes in
    the words of a block of rounds.  uint32 arrays wrap like the C code.
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
        # round word w meets constants [4w, 4w + 4] of this chain; two
        # words cover every round below 2**64
        self._chain = _hash_consts(self._hash_const, _MULT_A, 2 * _POOL_SIZE)

    def state_words(self, rounds) -> np.ndarray:
        """[r, i]: the 4 uint64 state words of agent i's (seed, agent, rounds[r]) key.

        All rounds must split into the same number of 32-bit words: a block
        never mixes rounds below 2**32 with rounds at or above it.
        """
        split = [_uint32_words(rnd) for rnd in rounds]
        if len({len(words) for words in split}) > 1:
            raise ValueError("a block of rounds must split into one number of 32-bit words")
        columns = np.array(split, dtype=np.uint32).T
        chain = self._chain
        if len(columns) > 2:
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


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(
                f"precomputed {len(self.words)} {self.words.dtype} words,"
                f" asked for {n_words} {np.dtype(dtype)}"
            )
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    """A Generator whose PCG64 numpy seeds from precomputed state words."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


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
    """The (16, 4m) limb matrix and (4m,) offset that give PCG64's first m states.

    numpy seeds PCG64 from state words (s_hi, s_lo, i_hi, i_lo) as
    inc = 2i + 1 and state = (s + inc) * MULT + inc, then steps before each
    output, so output j reads state_j = A_j (s + inc) + C_j inc mod 2**128
    with A_j = MULT**(j + 2) and C_j = MULT**(j + 1) + ... + 1.  That is
    A_j s + 2 (A_j + C_j) i + (A_j + C_j): a constant multiple of each
    16-bit limb of the words, plus an offset.  Row p is input limb p of the
    words' little-endian uint16 view; column 4j + k holds the multiples'
    32-bit limb k of state_j.
    """
    matrix = np.zeros((16, 4 * m))
    offset = np.zeros(4 * m)
    power, total = _PCG_MULT, 1  # MULT**(j + 1), C_j - MULT**(j + 1)
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


def _pcg64_raw(words: np.ndarray, m: int) -> np.ndarray:
    """Row i: ``np.random.PCG64(_StateWords(words[i])).random_raw(m)``, all rows at once.

    The 128-bit states come from one float64 product of the words' 16-bit
    limbs with ``_pcg64_consts(m)``.  Each sum is of at most 16 terms below
    2**48 plus an offset below 2**32, so it is an exact integer below
    2**53 whatever the summation order or BLAS thread count; carrying the
    32-bit limbs then gives each state mod 2**128.
    """
    matrix, offset = _pcg64_consts(m)
    limbs = np.ascontiguousarray(words, dtype="<u8").view("<u2").astype(np.float64)
    sums = (limbs @ matrix + offset).astype(np.uint64).reshape(len(words), m, 4)
    limb, carry = [], np.uint64(0)
    for k in range(4):
        column = sums[:, :, k] + carry
        limb.append(column & np.uint64(_MASK32))
        carry = column >> np.uint64(32)
    lo = limb[0] | (limb[1] << np.uint64(32))
    hi = limb[2] | (limb[3] << np.uint64(32))
    rot = limb[3] >> np.uint64(26)  # the state's top 6 bits
    xored = hi ^ lo
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def _bounded_draws(words: np.ndarray, bounds, size: int) -> np.ndarray:
    """Row i: ``_generator(words[i]).integers(0, bounds[i], size=size)``, for bounds in [1, 2**32].

    All rows go through ``_pcg64_raw`` and ``_lemire_map`` at once; a row
    with a rejected draw (probability below size * bound / 2**32) is drawn
    again by numpy from the same state words.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.size and not 1 <= bounds.min() <= bounds.max() <= 2**32:
        raise ValueError("bounded draws need bounds in [1, 2**32]")
    draws, rejected = _lemire_map(_pcg64_raw(words, (size + 1) // 2), bounds, size)
    for row in np.flatnonzero(rejected):
        draws[row] = _generator(words[row]).integers(0, int(bounds[row]), size=size)
    return draws


class Problem:
    """Common interface: per-agent stochastic losses over shared parameters."""

    kind: str
    dim: int  # parameter dimension
    n_agents: int
    seed: int

    def draw_batch(
        self, agent: int, rnd: int, batch_size: int | None, seed: int | None = None
    ) -> Batch:
        raise NotImplementedError

    def loss_and_grad(
        self, agent: int, params: np.ndarray, batch: Batch
    ) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def exact_loss_and_grad(
        self, agent: int, params: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Full-data, noise-free local objective (for checks and references)."""
        raise NotImplementedError

    def batched_oracle(self, batch_size: int | None, seed: int):
        """The oracle ``make_oracle`` returns; arguments already validated."""
        raise NotImplementedError

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

    def global_loss(self, params: np.ndarray) -> float:
        return float(
            np.mean([self.exact_loss_and_grad(i, params)[0] for i in range(self.n_agents)])
        )

    def evaluate(self, params: np.ndarray) -> tuple[float, float | None]:
        raise NotImplementedError


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
        rng = np.random.default_rng(spec.seed)
        b_bar = rng.normal(size=spec.d)
        if spec.zeta > 0:
            u = rng.normal(size=(spec.n_agents, spec.d))
            u -= u.mean(axis=0)
            u /= np.sqrt(np.mean(np.sum(u * u, axis=1)))
        else:
            u = np.zeros((spec.n_agents, spec.d))
        with np.errstate(over="ignore"):
            self.b = b_bar + spec.zeta * u
        # zeta * zeta comes first, so an overflowing zeta**2 is caught here
        if not (math.isfinite(spec.zeta * spec.zeta * spec.L) and np.isfinite(self.b).all()):
            raise ValueError(f"zeta={spec.zeta!r} overflows the optima b_i or f* = L zeta^2 / 2")
        self.x_star = b_bar
        self.f_star = 0.5 * spec.L * spec.zeta**2

    def draw_batch(self, agent, rnd, batch_size=None, seed=None):
        return Batch(
            indices=None,
            substream=(self.seed if seed is None else seed, agent, rnd),
        )

    def loss_and_grad(self, agent, params, batch):
        if not np.all(np.isfinite(params)):
            raise ValueError(f"non-finite parameters supplied to agent {agent}")
        diff = params - self.b[agent]
        loss = 0.5 * self.L * float(diff @ diff)
        grad = self.L * diff
        if self.sigma > 0:
            rng = _substream_rng(batch.substream)
            grad = grad + self.sigma * rng.standard_normal(self.dim)
        return loss, grad

    def exact_loss_and_grad(self, agent, params):
        diff = params - self.b[agent]
        return 0.5 * self.L * float(diff @ diff), self.L * diff

    def batched_oracle(self, batch_size, seed):
        # standard_normal needs numpy's ziggurat, so each agent keeps its
        # own Generator; only the seed hashing is shared
        keys = _KeyPool(seed, np.arange(self.n_agents)) if self.sigma > 0 else None

        def oracle(X, rnd):
            self._check_params(X)
            G = X - self.b
            losses = 0.5 * self.L * np.einsum("ij,ij->i", G, G)
            G *= self.L
            if keys is not None:
                noise = np.empty_like(G)
                for row, words in zip(noise, keys.state_words([rnd])[0]):
                    _generator(words).standard_normal(out=row)
                G += self.sigma * noise
            return losses, G

        return oracle

    def global_loss(self, params):
        diff = params - self.x_star
        return 0.5 * self.L * float(diff @ diff) + self.f_star

    def evaluate(self, params):
        return self.global_loss(params), None


def _make_clusters(spec: SyntheticProblemSpec, rng: np.random.Generator, n: int):
    with np.errstate(over="ignore"):
        means = spec.separation * rng.normal(size=(spec.n_classes, spec.d))
    if not np.isfinite(means).all():
        raise ValueError(f"separation={spec.separation!r} overflows the class means")
    labels = np.arange(n) % spec.n_classes
    rng.shuffle(labels)
    feats = means[labels] + rng.normal(size=(n, spec.d))
    return feats, labels, means


class _IndexTable:
    """Agent i's batch is ``table[i, :counts[i]]``; ``mask`` marks those entries.

    ``agent`` and ``slot`` are the table's open grid, for gathering one
    entry per table cell.
    """

    def __init__(self, counts: np.ndarray):
        n, width = len(counts), int(counts.max())
        self.counts = counts
        self.table = np.zeros((n, width), dtype=np.intp)
        self.mask = np.arange(width) < counts[:, None]
        self.agent, self.slot = np.ogrid[:n, :width]


class _ClassificationProblem(Problem):
    """Shared dataset/partition plumbing for softmax and mlp problems."""

    def __init__(self, spec: SyntheticProblemSpec, assignments=None):
        self.spec = spec
        self.n_agents = spec.n_agents
        self.seed = spec.seed
        rng = np.random.default_rng(spec.seed)
        self.features, self.labels, self._means = _make_clusters(
            spec, rng, spec.n_samples
        )
        n_test = max(spec.n_classes, spec.n_samples // 5)
        self.test_features = (
            self._means[np.arange(n_test) % spec.n_classes]
            + rng.normal(size=(n_test, spec.d))
        )
        self.test_labels = np.arange(n_test) % spec.n_classes
        if assignments is None:
            idx = rng.permutation(spec.n_samples)
            assignments = [a for a in np.array_split(idx, spec.n_agents)]
        self.assignments = [np.asarray(a) for a in assignments]
        for agent, local in enumerate(self.assignments):
            if len(local) == 0:
                raise ValueError(f"agent {agent} is assigned no samples")

    def draw_batch(self, agent, rnd, batch_size=None, seed=None):
        key = (self.seed if seed is None else seed, agent, rnd)
        local = self.assignments[agent]
        if batch_size is None or batch_size >= len(local):
            return Batch(indices=local, substream=key)
        rng = _substream_rng(key)
        picked = local[rng.integers(0, len(local), size=batch_size)]
        return Batch(indices=picked, substream=key)

    def _batch_loss_grad(self, feats, labels, params):
        raise NotImplementedError

    def _class_logits(self, cols, params):
        """Class-major logits (k, m) of the samples in the columns of ``cols`` (d, m)."""
        raise NotImplementedError

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
        keys = _KeyPool(seed, sampled)
        block_start, block = None, None

        def oracle(X, rnd):
            nonlocal block_start, block
            self._check_params(X)
            if len(sampled):
                first = rnd - rnd % _BLOCK_ROUNDS
                if first != block_start:
                    if rnd < 0:
                        raise ValueError(f"substream keys must be non-negative, got {rnd}")
                    words = keys.state_words(range(first, first + _BLOCK_ROUNDS))
                    draws = _bounded_draws(words.reshape(-1, 4), bounds, batch_size)
                    draws = draws.reshape(_BLOCK_ROUNDS, len(sampled), batch_size)
                    block_start, block = first, flat[starts + draws]
                batches.table[sampled] = block[rnd - first]
            return self._stacked_loss_grad(batches, X)

        return oracle

    def _stacked_loss_grad(self, batches, X):
        """Per-agent (losses, grads) on the batches ``table[i, :counts[i]]``."""
        losses = np.empty(len(X))
        grads = np.empty_like(X)
        for agent, (row, m) in enumerate(zip(batches.table, batches.counts)):
            idx = row[:m]
            losses[agent], grads[agent] = self._batch_loss_grad(
                self.features[idx], self.labels[idx], X[agent]
            )
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
        if len(self.test_labels) == 0:
            raise ValueError("empty test set")
        logits = self._class_logits(self.test_features.T, params)
        loss = _mean_nll(_softmax(logits, axis=0).T, self.test_labels)
        return loss, float(np.mean(np.argmax(logits, axis=0) == self.test_labels))


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    return z


def _mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over the rows of ``probs`` of minus the log-probability of the true label."""
    return float(-np.mean(np.log(probs[np.arange(len(labels)), labels] + 1e-300)))


class SoftmaxProblem(_ClassificationProblem):
    """Multinomial logistic regression; parameters are the k x d weight matrix."""

    kind = "softmax"

    def __init__(self, spec, assignments=None):
        super().__init__(spec, assignments)
        self.dim = spec.n_classes * spec.d

    def _unpack(self, params):
        return params.reshape(self.spec.n_classes, self.spec.d)

    def _class_logits(self, cols, params):
        return self._unpack(params) @ cols

    def _batch_loss_grad(self, feats, labels, params):
        probs = _softmax(feats @ self._unpack(params).T)
        m = len(labels)
        loss = _mean_nll(probs, labels)
        probs[np.arange(m), labels] -= 1.0
        grad = (probs.T @ feats) / m
        return loss, grad.ravel()

    def _stacked_loss_grad(self, batches, X):
        # class-major (agents, classes, batch) stacks: the max and the sum
        # over classes run elementwise across k rows; padding entries of
        # the table are masked out of the loss and the gradient
        n = len(X)
        k, d = self.spec.n_classes, self.spec.d
        counts, mask, agent, slot = batches.counts, batches.mask, batches.agent, batches.slot
        feats = self.features[batches.table]
        labels = self.labels[batches.table]
        probs = _softmax(X.reshape(n, k, d) @ feats.transpose(0, 2, 1), axis=1)
        log_true = np.log(probs[agent, labels, slot] + 1e-300)
        losses = -np.sum(log_true * mask, axis=1) / counts
        probs[agent, labels, slot] -= 1.0
        probs *= mask[:, None, :]
        grads = (probs @ feats) / counts[:, None, None]
        return losses, grads.reshape(n, k * d)


class MlpProblem(_ClassificationProblem):
    """One hidden tanh layer classifier with hand-written backpropagation."""

    kind = "mlp"

    def __init__(self, spec, assignments=None):
        super().__init__(spec, assignments)
        d, h, k = spec.d, spec.hidden, spec.n_classes
        self._shapes = [(h, d), (h,), (k, h), (k,)]
        self.dim = h * d + h + k * h + k

    def _unpack(self, params):
        out, pos = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            out.append(params[pos : pos + size].reshape(shape))
            pos += size
        return out

    def _class_logits(self, cols, params):
        w1, b1, w2, b2 = self._unpack(params)
        return w2 @ np.tanh(w1 @ cols + b1[:, None]) + b2[:, None]

    def _batch_loss_grad(self, feats, labels, params):
        w1, b1, w2, b2 = self._unpack(params)
        m = len(labels)
        a1 = np.tanh(feats @ w1.T + b1)
        probs = _softmax(a1 @ w2.T + b2)
        loss = _mean_nll(probs, labels)
        dz2 = probs
        dz2[np.arange(m), labels] -= 1.0
        dz2 /= m
        dw2 = dz2.T @ a1
        db2 = dz2.sum(axis=0)
        da1 = dz2 @ w2
        dz1 = da1 * (1.0 - a1 * a1)
        dw1 = dz1.T @ feats
        db1 = dz1.sum(axis=0)
        return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def make_quadratic(spec: SyntheticProblemSpec) -> QuadraticProblem:
    if spec.kind != "quadratic":
        raise ValueError(f"make_quadratic got kind {spec.kind!r}")
    return QuadraticProblem(spec)


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
