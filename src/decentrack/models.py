"""Desk-scale differentiable problems with controllable heterogeneity.

Three problem families share one gradient-oracle interface:

* quadratic  - f_i(x) = 0.5 ||x - b_i||^2 with analytically known optimum,
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
key runs once per oracle, vectorised over agents (``_KeyPool``); each round
mixes in only the round's words.  Minibatch indices skip ``Generator``:
each sampled agent's PCG64 is seeded by numpy from its hashed words, and
one vectorised pass maps the raw words to indices with numpy's own
algorithm for ``Generator.integers`` (``_lemire_map``); the rare agent
whose draws hit a rejection is drawn again by numpy itself.  Quadratic
noise still needs one ``Generator`` per agent, for numpy's ziggurat
``standard_normal``.
"""

from __future__ import annotations

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
    "substreams",
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
        if self.zeta < 0 or self.sigma < 0 or self.L <= 0:
            raise ValueError("require zeta >= 0, sigma >= 0, L > 0")
        if self.kind not in ("quadratic", "softmax", "mlp"):
            raise ValueError(f"unknown problem kind {self.kind!r}")


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
    """SeedSequence's mix of two uint32 words (Python ints or uint32 arrays)."""
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
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)[:, None]


class _KeyPool:
    """``SeedSequence(entropy=seed, spawn_key=(agent, rnd))`` of fixed agents, any round.

    Replays SeedSequence's entropy mixing and state generation with one
    uint32 lane per agent.  The round's words come last in the entropy, so
    the pool after the (seed, agent) words is the same in every round: it
    is built once, as a (4, n_agents) uint32 array plus the hash constant
    reached, and ``state_words`` mixes in one round's words.  Words shared
    by all agents stay Python ints, masked to 32 bits, so only what depends
    on the agent runs on arrays (whose uint32 arithmetic wraps like the C
    code).
    """

    def __init__(self, seed: int, agents: np.ndarray):
        if agents.size and not 0 <= agents.min() <= agents.max() <= _MASK32:
            raise ValueError("substream agents must lie in [0, 2**32)")
        # a spawn key makes SeedSequence pad the run entropy to the pool
        # size, so the entropy always outgrows the pool and the agent word
        # sits past it
        run = _uint32_words(seed)
        run += [0] * (_POOL_SIZE - len(run))
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = (hash_const * _MULT_A) & _MASK32
            value = (value * hash_const) & _MASK32
            return value ^ (value >> 16)

        pool = [hashmix(word) for word in run[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in run[_POOL_SIZE:] + [agents.astype(np.uint32)]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        self._pool = np.stack(pool)
        self._hash_const = hash_const

    def state_words(self, rnd: int) -> np.ndarray:
        """Row i: the 4 uint64 state words of agent i's (seed, agent, rnd) key."""
        pool, hash_const = self._pool, self._hash_const
        for word in _uint32_words(rnd):
            # hashmix of one word for each pool entry, applied as one column
            consts = _hash_consts(hash_const, _MULT_A, _POOL_SIZE)
            hash_const = int(consts[-1])
            hashed = (word ^ consts[:-1]) * consts[1:]
            pool = _mix(pool, (hashed ^ (hashed >> 16))[:, None])
        words = np.concatenate((pool, pool))
        words ^= _STATE_CONSTS[:-1]
        words *= _STATE_CONSTS[1:]
        words ^= words >> 16
        # uint64 output reads the uint32 words as little-endian pairs
        return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


def _spawned_state_words(seed: int, agents: np.ndarray, rnd: int) -> np.ndarray:
    """Row i: ``SeedSequence(entropy=seed, spawn_key=(agents[i], rnd)).generate_state(4, np.uint64)``."""
    return _KeyPool(seed, agents).state_words(rnd)


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


def substreams(seed: int, agents, rnd: int):
    """Yield ``(agent, rng)`` for each agent, ``rng`` seeded by its (seed, agent, rnd) key.

    ``rng`` draws exactly what
    ``np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(agent, rnd)))``
    draws, but the seed hashing of all agents runs in one vectorised pass;
    PCG64 is then seeded from the hashed words by numpy itself.
    """
    agents = np.asarray(agents, dtype=np.int64).reshape(-1)
    for agent, words in zip(agents.tolist(), _spawned_state_words(seed, agents, rnd)):
        yield agent, _generator(words)


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


def _bounded_draws(words: np.ndarray, bounds, size: int) -> np.ndarray:
    """Row i: ``_generator(words[i]).integers(0, bounds[i], size=size)``, for bounds in [1, 2**32].

    All rows go through ``_lemire_map`` at once; a row with a rejected draw
    (probability below size * bound / 2**32) is drawn again by numpy from
    the same state words.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.size and not 1 <= bounds.min() <= bounds.max() <= 2**32:
        raise ValueError("bounded draws need bounds in [1, 2**32]")
    raw = np.empty((len(words), (size + 1) // 2), dtype=np.uint64)
    for row, key in zip(raw, words):
        row[:] = np.random.PCG64(_StateWords(key)).random_raw(raw.shape[1])
    draws, rejected = _lemire_map(raw, bounds, size)
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
    """f_i(x) = 0.5 ||x - b_i||^2 with b_i = b_bar + zeta * u_i.

    The direction vectors u_i sum to zero and have unit mean squared norm,
    so the inter-agent gradient deviation (1/n) sum ||grad_i - grad||^2
    equals zeta^2 at every x.  L = 1, x* = b_bar, f* = zeta^2 / 2.
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
        rng = np.random.default_rng(spec.seed)
        b_bar = rng.normal(size=spec.d)
        if spec.zeta > 0:
            u = rng.normal(size=(spec.n_agents, spec.d))
            u -= u.mean(axis=0)
            u /= np.sqrt(np.mean(np.sum(u * u, axis=1)))
        else:
            u = np.zeros((spec.n_agents, spec.d))
        self.b = b_bar + spec.zeta * u
        self.x_star = b_bar
        self.f_star = 0.5 * spec.zeta**2

    def draw_batch(self, agent, rnd, batch_size=None, seed=None):
        return Batch(
            indices=None,
            substream=(self.seed if seed is None else seed, agent, rnd),
        )

    def loss_and_grad(self, agent, params, batch):
        if not np.all(np.isfinite(params)):
            raise ValueError(f"non-finite parameters supplied to agent {agent}")
        diff = params - self.b[agent]
        loss = 0.5 * float(diff @ diff)
        grad = diff
        if self.sigma > 0:
            rng = _substream_rng(batch.substream)
            grad = grad + self.sigma * rng.standard_normal(self.dim)
        return loss, grad

    def exact_loss_and_grad(self, agent, params):
        diff = params - self.b[agent]
        return 0.5 * float(diff @ diff), diff.copy()

    def batched_oracle(self, batch_size, seed):
        # standard_normal needs numpy's ziggurat, so each agent keeps its
        # own Generator; only the seed hashing is shared
        keys = _KeyPool(seed, np.arange(self.n_agents)) if self.sigma > 0 else None

        def oracle(X, rnd):
            self._check_params(X)
            diff = X - self.b
            losses = 0.5 * np.einsum("ij,ij->i", diff, diff)
            if keys is not None:
                noise = np.empty_like(diff)
                for row, words in zip(noise, keys.state_words(rnd)):
                    _generator(words).standard_normal(out=row)
                diff = diff + self.sigma * noise
            return losses, diff

        return oracle

    def global_loss(self, params):
        diff = params - self.x_star
        return 0.5 * float(diff @ diff) + self.f_star

    def evaluate(self, params):
        return self.global_loss(params), None


def _make_clusters(spec: SyntheticProblemSpec, rng: np.random.Generator, n: int):
    means = spec.separation * rng.normal(size=(spec.n_classes, spec.d))
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

    def _logits(self, feats, params):
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
        # a sampled agent's draws index its slice of the concatenated sets
        flat = np.concatenate(self.assignments)
        starts = (np.cumsum(sizes) - sizes)[sampled, None]
        bounds = sizes[sampled]
        keys = _KeyPool(seed, sampled)

        def oracle(X, rnd):
            self._check_params(X)
            words = keys.state_words(rnd)
            if len(sampled):
                draws = _bounded_draws(words, bounds, batch_size)
                batches.table[sampled] = flat[starts + draws]
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
        if len(self.test_labels) == 0:
            raise ValueError("empty test set")
        logits = self._logits(self.test_features, params)
        loss = _mean_nll(_softmax(logits), self.test_labels)
        return loss, float(np.mean(np.argmax(logits, axis=1) == self.test_labels))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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

    def _logits(self, feats, params):
        return feats @ self._unpack(params).T

    def _batch_loss_grad(self, feats, labels, params):
        probs = _softmax(self._logits(feats, params))
        m = len(labels)
        loss = _mean_nll(probs, labels)
        probs[np.arange(m), labels] -= 1.0
        grad = (probs.T @ feats) / m
        return loss, grad.ravel()

    def _stacked_loss_grad(self, batches, X):
        # batched matmuls over (agents, batch, .) stacks; padding entries of
        # the table are masked out of the loss and the gradient
        n = len(X)
        k, d = self.spec.n_classes, self.spec.d
        counts, mask, agent, slot = batches.counts, batches.mask, batches.agent, batches.slot
        feats = self.features[batches.table]
        labels = self.labels[batches.table]
        probs = _softmax(feats @ X.reshape(n, k, d).transpose(0, 2, 1))
        log_true = np.log(probs[agent, slot, labels] + 1e-300)
        losses = -np.sum(log_true * mask, axis=1) / counts
        probs[agent, slot, labels] -= 1.0
        probs *= mask[:, :, None]
        grads = (probs.transpose(0, 2, 1) @ feats) / counts[:, None, None]
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

    def _logits(self, feats, params):
        w1, b1, w2, b2 = self._unpack(params)
        return np.tanh(feats @ w1.T + b1) @ w2.T + b2

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
