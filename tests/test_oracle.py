"""The batched gradient oracle against the per-agent reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentrack import harness, models
from decentrack.algorithms import AlgorithmSpec, init_states, run_round
from decentrack.models import SyntheticProblemSpec, make_oracle, make_problem
from decentrack.partition import dirichlet_partition
from decentrack.topology import build_topology

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64, 2**64 + 11, 2**100 + 5]
ROUNDS = [0, 1, 10**6, 2**32 - 1, 2**32 + 7]
AGENTS = [0, 1, 2, 3, 17, 1023, 65535, 2**32 - 1]


def reference_rng(seed, agent, rnd):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(agent, rnd))
    )


def reference_oracle(problem, batch_size, seed):
    """Per-agent ``draw_batch`` + ``loss_and_grad``, stacked."""

    def oracle(X, rnd):
        pairs = [
            problem.loss_and_grad(i, X[i], problem.draw_batch(i, rnd, batch_size, seed=seed))
            for i in range(len(X))
        ]
        return np.array([loss for loss, _ in pairs]), np.stack([g for _, g in pairs])

    return oracle


def assert_rel_close(a, b, rtol):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    assert float(np.max(np.abs(a - b))) <= rtol * scale


def spawned_words(seed, agents, rnd):
    """Row i: the state words of agents[i]'s (seed, agent, rnd) key, from ``_KeyPool``."""
    return models._KeyPool(seed, np.asarray(agents)).state_words([rnd])[0]


class TestSubstreams:
    """``_KeyPool`` words seed the streams SeedSequence keys would seed."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rnd", ROUNDS)
    def test_standard_normal_matches_seed_sequence(self, seed, rnd):
        for agent, words in zip(AGENTS, spawned_words(seed, AGENTS, rnd)):
            assert np.array_equal(
                models._generator(words).standard_normal(9),
                reference_rng(seed, agent, rnd).standard_normal(9),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rnd", ROUNDS)
    def test_integers_match_seed_sequence(self, seed, rnd):
        for agent, words in zip(AGENTS, spawned_words(seed, AGENTS, rnd)):
            assert np.array_equal(
                models._generator(words).integers(0, 37, size=11),
                reference_rng(seed, agent, rnd).integers(0, 37, size=11),
            )

    def test_state_words_match_seed_sequence(self):
        agents = np.arange(300)
        words = spawned_words(2**64 + 11, agents, 5)
        expected = np.stack(
            [
                np.random.SeedSequence(2**64 + 11, spawn_key=(int(a), 5)).generate_state(
                    4, np.uint64
                )
                for a in agents
            ]
        )
        assert np.array_equal(words, expected)

    def test_rows_follow_agent_order(self):
        words = spawned_words(3, [5, 0, 2], 1)
        for agent, row in zip([5, 0, 2], words):
            expected = np.random.SeedSequence(3, spawn_key=(agent, 1)).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)
        assert spawned_words(3, np.arange(0), 1).shape == (0, 4)

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError):
            spawned_words(-1, [0], 0)
        with pytest.raises(ValueError):
            spawned_words(0, [0], -1)
        with pytest.raises(ValueError):
            spawned_words(0, [2**32], 0)


# numpy's PCG64 (XSL-RR output of the 128-bit LCG state after each step)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = 2**64 - 1


def pcg64_emitting(first: int) -> np.random.PCG64:
    """A PCG64 whose next raw word is ``first``: the state is solved backwards."""
    hi, inc = 0x9E3779B97F4A7C15, 0xDA3E39CB94B95BDB
    rot = hi >> 58
    lo = (((first << rot) | (first >> (64 - rot))) & MASK64) ^ hi
    before = ((((hi << 64) | lo) - inc) * pow(PCG_MULT, -1, 2**128)) % 2**128
    bit_gen = np.random.PCG64()
    bit_gen.state = {
        "bit_generator": "PCG64", "state": {"state": before, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return bit_gen


class TestBoundedDraws:
    """The vectorised Lemire map against numpy's ``Generator.integers``."""

    @pytest.mark.parametrize("size", [1, 31, 32, 33])
    @pytest.mark.parametrize("bound", [2, 37, 2**32 - 1, 3 * 2**30, 3 * 2**30 + 1])
    def test_matches_generator_integers(self, size, bound):
        agents = np.array(AGENTS)
        for seed in SEEDS:
            for rnd in ROUNDS:
                words = spawned_words(seed, agents, rnd)
                got = models._bounded_draws(words, np.full(len(agents), bound), size)
                for agent, row in zip(AGENTS, got):
                    ref = reference_rng(seed, agent, rnd).integers(0, bound, size=size)
                    assert np.array_equal(row, ref)

    def test_ragged_bounds_in_one_call(self):
        agents = np.arange(64)
        bounds = 1 + np.arange(64) ** 5  # 1 up to about 9.9e8
        words = spawned_words(2**40 + 3, agents, 9)
        got = models._bounded_draws(words, bounds, 33)
        for agent, bound, row in zip(agents, bounds, got):
            ref = reference_rng(2**40 + 3, int(agent), 9).integers(0, int(bound), size=33)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("size", [1, 32])
    def test_rejections_are_redrawn_by_numpy(self, size, monkeypatch):
        # near 3 * 2**30 a quarter of all draws is rejected
        calls = []
        make = models._generator
        monkeypatch.setattr(models, "_generator", lambda words: calls.append(1) or make(words))
        agents = np.arange(200)
        words = spawned_words(11, agents, 3)
        raw = np.stack([np.random.PCG64(models._StateWords(w)).random_raw(16) for w in words])
        _, rejected = models._lemire_map(raw, np.full(200, 3 * 2**30, dtype=np.uint64), size)
        got = models._bounded_draws(words, np.full(200, 3 * 2**30), size)
        assert len(calls) == rejected.sum() > (30 if size == 1 else 190)
        for agent, row in zip(agents, got):
            ref = reference_rng(11, int(agent), 3).integers(0, 3 * 2**30, size=size)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("bound", [37, 2**32 - 1, 3 * 2**30 + 1, 999_999_937])
    def test_threshold_is_exact(self, bound):
        # streams whose first 32 bits land the product's low word exactly on
        # 2**32 mod bound (numpy accepts) and one below it (numpy rejects);
        # odd bounds are invertible mod 2**32 and leave a nonzero threshold
        threshold = 2**32 % bound
        for leftover, rejects in ((threshold, False), (threshold - 1, True)):
            u = leftover * pow(bound, -1, 2**32) % 2**32
            first = (0x7F4A7C15 << 32) | u
            assert pcg64_emitting(first).random_raw() == first
            raw = pcg64_emitting(first).random_raw(1)[None]
            draws, rejected = models._lemire_map(raw, np.array([bound], np.uint64), 1)
            numpy_draws = np.random.Generator(pcg64_emitting(first)).integers(0, bound, size=1)
            assert bool(rejected[0]) == rejects
            assert np.array_equal(draws[0], numpy_draws) != rejects

    def test_bounds_outside_32_bits_rejected(self):
        words = spawned_words(0, np.arange(2), 0)
        for bounds in ([0, 5], [5, 2**32 + 1]):
            with pytest.raises(ValueError, match="bounds"):
                models._bounded_draws(words, np.array(bounds), 4)


@st.composite
def problems(draw, kinds=("quadratic", "softmax", "mlp")):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 5))
    problem_seed = draw(st.integers(0, 2**70))
    if kind == "quadratic":
        spec = SyntheticProblemSpec(
            kind=kind, d=d, n_agents=n, zeta=1.0, seed=problem_seed,
            sigma=draw(st.sampled_from([0.0, 0.3])),
        )
        return make_problem(spec), None
    spec = SyntheticProblemSpec(
        kind=kind, d=d, n_agents=n, seed=problem_seed,
        n_classes=draw(st.integers(2, 4)), n_samples=draw(st.integers(4 * n, 80)),
        hidden=3,
    )
    # Dirichlet-ragged local sets of at least one sample each
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 0.5, 100.0]))))
    sizes = 1 + rng.multinomial(spec.n_samples - n, share)
    assignments = np.split(rng.permutation(spec.n_samples), np.cumsum(sizes)[:-1])
    return make_problem(spec, assignments=assignments), sizes


class TestBatchedOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        case=problems(),
        seed=st.integers(0, 2**70),
        rnd=st.integers(0, 2**33),
        batch_pick=st.sampled_from(["none", "below", "above"]),
        data=st.data(),
    )
    def test_matches_per_agent_reference(self, case, seed, rnd, batch_pick, data):
        problem, sizes = case
        if batch_pick == "none" or sizes is None:
            batch = None if batch_pick == "none" else 4
        elif batch_pick == "below":
            # below the largest local set, so at least one agent samples
            batch = max(1, max(sizes) - 1)
        else:
            batch = max(sizes) + data.draw(st.integers(0, 3))
        x_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = x_rng.standard_normal((problem.n_agents, problem.dim))
        losses, G = make_oracle(problem, batch, seed=seed)(X, rnd)
        ref_losses, ref_G = reference_oracle(problem, batch, seed)(X, rnd)
        assert G.shape == X.shape and losses.shape == (problem.n_agents,)
        if problem.kind == "quadratic":
            assert np.array_equal(G, ref_G)
        else:
            assert_rel_close(G, ref_G, 1e-12)
        assert_rel_close(losses, ref_losses, 1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        case=problems(kinds=("softmax", "mlp")),
        seed=st.integers(0, 2**70),
        rnd=st.integers(0, 2**33),
        data=st.data(),
    )
    def test_batches_are_draw_batch_bit_for_bit(self, case, seed, rnd, data):
        problem, sizes = case
        batch = data.draw(st.integers(1, max(sizes) + 1))
        tables = []
        stacked = problem._stacked_loss_grad

        def capture(batches, X):
            tables.append(batches.table.copy())
            return stacked(batches, X)

        problem._stacked_loss_grad = capture
        X = np.random.default_rng(0).standard_normal((problem.n_agents, problem.dim))
        oracle = make_oracle(problem, batch, seed=seed)
        _, G = oracle(X, rnd)
        for agent, size in enumerate(sizes):
            picked = problem.draw_batch(agent, rnd, batch, seed=seed).indices
            assert np.array_equal(tables[0][agent, : min(size, batch)], picked)
        if problem.kind == "mlp":  # the MLP's stacked path is the per-agent one
            assert np.array_equal(G, reference_oracle(problem, batch, seed)(X, rnd)[1])
        oracle(X, rnd + 1)
        for agent in range(problem.n_agents):
            picked = problem.draw_batch(agent, rnd + 1, batch, seed=seed).indices
            assert np.array_equal(tables[1][agent, : len(picked)], picked)

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_no_generator_on_the_minibatch_path(self, kind, monkeypatch):
        built = []
        generator = np.random.Generator
        monkeypatch.setattr(
            np.random, "Generator", lambda bit_gen: built.append(1) or generator(bit_gen)
        )
        spec = SyntheticProblemSpec(kind=kind, d=20, n_agents=32, n_samples=8000, hidden=4)
        problem = make_problem(spec)
        oracle = make_oracle(problem, 32, seed=5)
        X = np.zeros((32, problem.dim))
        for rnd in range(20):
            oracle(X, rnd)
        assert built == []
        # the count sees a per-agent Generator, as the rejection fallback builds
        for words in spawned_words(5, [0, 1], 0):
            models._generator(words)
        assert built == [1, 1]

    @pytest.mark.parametrize("kind", ["GUT", "QG-GUTm", "DSGD", "GT"])
    def test_quadratic_trajectories_bit_identical(self, kind):
        W = build_topology("ring", 32)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=4, n_agents=32, zeta=1.0, sigma=0.2, seed=3)
        )
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.1, beta=0.5)
        X0 = np.random.default_rng(4).standard_normal((32, 4))
        runs = []
        for oracle in (make_oracle(problem, seed=9), reference_oracle(problem, None, 9)):
            state = init_states(X0, W)
            traj = []
            for _ in range(6):
                state = run_round(state, W, spec, oracle)
                traj.append(state.X)
            runs.append(traj)
        for X, R in zip(*runs):
            assert np.array_equal(X, R)

    def test_one_call_per_round(self, monkeypatch):
        calls = []
        make = models.make_oracle

        def counting(*args, **kwargs):
            oracle = make(*args, **kwargs)

            def counted(X, rnd):
                calls.append(rnd)
                return oracle(X, rnd)

            return counted

        monkeypatch.setattr(models, "make_oracle", counting)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1)
        )
        result = harness.run_training(
            build_topology("ring", 8), problem, AlgorithmSpec(kind="GUT", eta=0.1, mu=0.1),
            T=5, seeds=(1, 2),
        )
        assert calls == [0, 1, 2, 3, 4] * 2
        assert all(row.mean_loss is not None for tr in result.traces for row in tr.rows)

    def test_invalid_batch_size_rejected(self):
        problem = make_problem(SyntheticProblemSpec(kind="softmax", d=3, n_agents=4))
        for batch in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                make_oracle(problem, batch)

    def test_empty_assignment_rejected(self):
        spec = SyntheticProblemSpec(kind="mlp", d=3, n_agents=3, n_samples=30)
        parts = [np.arange(10), np.array([], dtype=int), np.arange(10, 30)]
        with pytest.raises(ValueError, match="agent 1"):
            make_problem(spec, assignments=parts)

    def test_bad_parameters_rejected(self):
        problem = make_problem(SyntheticProblemSpec(kind="quadratic", d=3, n_agents=4))
        oracle = make_oracle(problem)
        X = np.zeros((4, 3))
        X[2, 1] = np.inf
        with pytest.raises(ValueError, match="agent 2"):
            oracle(X, 0)
        with pytest.raises(ValueError, match="parameters"):
            oracle(np.zeros((1, 3)), 0)


class TestQuadraticNoise:
    """The quadratic oracle's noise: one PCG64 per oracle, numpy's own draws."""

    def quadratic(self, n, sigma, d=5):
        return make_problem(
            SyntheticProblemSpec(kind="quadratic", d=d, n_agents=n, zeta=1.0, sigma=sigma, seed=2)
        )

    @pytest.mark.parametrize("sigma,per_oracle", [(0.3, 1), (0.0, 0)])
    def test_one_bit_generator_per_oracle(self, sigma, per_oracle, monkeypatch):
        problem = self.quadratic(12, sigma)
        built = []
        pcg64, generator = np.random.PCG64, np.random.Generator
        monkeypatch.setattr(np.random, "PCG64", lambda *a: built.append("PCG64") or pcg64(*a))
        monkeypatch.setattr(
            np.random, "Generator", lambda *a: built.append("Generator") or generator(*a)
        )
        oracle = make_oracle(problem, seed=6)
        assert built == ["PCG64", "Generator"] * per_oracle
        for rnd in range(3):
            oracle(np.zeros((12, 5)), rnd)
        assert built == ["PCG64", "Generator"] * per_oracle

    def test_long_rows_are_generator_draws(self):
        # at d = 4096 a row takes the ziggurat's tail and wedge branches,
        # which read extra raw words; each agent's write still resets the
        # stream.  At X = b with sigma = 1, G is the noise exactly
        problem = self.quadratic(8, 1.0, d=4096)
        _, G = make_oracle(problem, seed=9)(problem.b.copy(), 5)
        extra = []
        for row, words in zip(G, spawned_words(9, range(8), 5)):
            generator = models._generator(words)
            assert np.array_equal(row, generator.standard_normal(4096))
            plain = np.random.PCG64(models._StateWords(words)).advance(4096)
            extra.append(generator.bit_generator.state != plain.state)
        assert all(extra)

    def test_rounds_out_of_order_and_interleaved_oracles(self):
        problem = self.quadratic(6, 0.5)
        X = np.random.default_rng(1).standard_normal((6, 5))
        first, second = make_oracle(problem, seed=3), make_oracle(problem, seed=4)
        got = {}
        for rnd in (3, 1, 3):
            for seed, oracle in ((3, first), (4, second)):
                got.setdefault((seed, rnd), []).append(oracle(X, rnd)[1])
        assert np.array_equal(*got[3, 3]) and np.array_equal(*got[4, 3])
        for (seed, rnd), (G, *_) in got.items():
            noise = np.stack([reference_rng(seed, i, rnd).standard_normal(5) for i in range(6)])
            assert np.array_equal(G, problem.L * (X - problem.b) + 0.5 * noise)

    def test_view_writes_the_public_state(self):
        normals = models._SeededNormals()
        words = np.random.default_rng(2).integers(0, 2**64, size=(3, 4), dtype=np.uint64)
        for row, seeded in zip(words, models._pcg64_seeded(words)):
            np.copyto(normals.view, seeded[normals.order])
            state = np.random.PCG64(models._StateWords(row)).state
            assert normals.bit_generator.state == state

    def test_unknown_word_order_names_numpy(self, monkeypatch):
        order = tuple(models._SeededNormals().order)
        others = tuple(o for o in models._PCG64_WORD_ORDERS if o != order)
        monkeypatch.setattr(models, "_PCG64_WORD_ORDERS", others)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__} "):
            models._SeededNormals()

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 11, 2**100 + 5])
    @pytest.mark.parametrize("rnd", [2**32, 2**32 + 7, 2**40 + 1])
    def test_rows_are_generator_draws(self, seed, rnd):
        # at X = b the exact gradient is zero, so G is sigma * noise exactly
        problem = self.quadratic(6, 1.0)
        _, G = make_oracle(problem, seed=seed)(problem.b.copy(), rnd)
        for agent, words in enumerate(spawned_words(seed, range(6), rnd)):
            assert np.array_equal(G[agent], models._generator(words).standard_normal(5))
            assert np.array_equal(G[agent], reference_rng(seed, agent, rnd).standard_normal(5))

    @pytest.mark.parametrize("n_words,dtype", [(624, np.uint32), (4, np.uint32), (2, np.uint64)])
    def test_state_words_reject_other_requests(self, n_words, dtype):
        shim = models._StateWords(spawned_words(3, [0], 1)[0])
        with pytest.raises(ValueError, match="precomputed 4 uint64 words"):
            shim.generate_state(n_words, dtype)

    @pytest.mark.parametrize("dtype", [np.uint64, np.dtype("uint64"), "uint64"])
    def test_state_words_accept_uint64(self, dtype):
        words = spawned_words(3, [0], 1)[0]
        assert models._StateWords(words).generate_state(4, dtype) is words


class TestQuadraticNoiseBuffer:
    def test_calls_return_arrays_that_share_no_memory(self):
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=5, n_agents=12, zeta=1.0, sigma=0.3, seed=2)
        )
        oracle = make_oracle(problem, seed=6)
        X = np.random.default_rng(0).standard_normal((12, 5))
        _, first = oracle(X, 0)
        kept = first.copy()
        _, second = oracle(X, 1)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        # the buffer is scaled in place: the same roundings as G + sigma * noise
        for rnd, G in ((0, first), (1, second)):
            noise = np.stack([reference_rng(6, i, rnd).standard_normal(5) for i in range(12)])
            assert np.array_equal(G, problem.L * (X - problem.b) + 0.3 * noise)


class TestClassMajorSoftmaxOracle:
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("batch", [None, 32])
    def test_matches_loss_and_grad(self, scale, batch):
        # ragged local sets: with batch 32 the first four agents use their
        # full sets (padded in the index table), the rest sample
        spec = SyntheticProblemSpec(
            kind="softmax", d=6, n_agents=8, seed=3, n_classes=10, n_samples=400
        )
        sizes = [1, 3, 10, 30, 50, 70, 100, 136]
        perm = np.random.default_rng(0).permutation(spec.n_samples)
        problem = make_problem(spec, assignments=np.split(perm, np.cumsum(sizes)[:-1]))
        X = scale * np.random.default_rng(1).standard_normal((spec.n_agents, problem.dim))
        logits = X.reshape(spec.n_agents, spec.n_classes, spec.d) @ problem.features.T
        assert scale == 1.0 or np.abs(logits).max() > np.log(np.finfo(float).max)
        for rnd in (0, 7):
            losses, G = make_oracle(problem, batch, seed=4)(X, rnd)
            ref_losses, ref_G = reference_oracle(problem, batch, 4)(X, rnd)
            assert_rel_close(G, ref_G, 1e-12)
            assert_rel_close(losses, ref_losses, 1e-12)


def fancy_index_softmax(problem, batches, X):
    """The stacked softmax oracle gathering with ``features[table]`` and picking
    the true classes with ``probs[labels, agent, slot]``, the reference of the
    flat pick."""
    n = len(X)
    k, d = problem.spec.n_classes, problem.spec.d
    counts, mask = batches.counts, batches.mask
    agent, slot = np.ogrid[:n, : batches.table.shape[1]]
    feats = problem.features[batches.table]
    labels = problem.labels[batches.table]
    logits = X.reshape(n, k, d) @ feats.transpose(0, 2, 1)
    probs = models._softmax(np.ascontiguousarray(logits.transpose(1, 0, 2)), axis=0)
    log_true = np.log(probs[labels, agent, slot] + 1e-300)
    losses = -np.sum(log_true * mask, axis=1) / counts
    probs[labels, agent, slot] -= 1.0
    probs *= mask
    grads = (probs.transpose(1, 0, 2) @ feats) / counts[:, None, None]
    return losses, grads.reshape(n, k * d)


def transposed_pick_loss(problem, params):
    """``evaluate``'s test loss with the true classes picked from the transposed probabilities."""
    logits, labels = problem._class_logits(problem.test_features.T, params), problem.test_labels
    probs = models._softmax(logits, axis=0).T
    return float(-np.mean(np.log(probs[np.arange(len(labels)), labels] + 1e-300)))


def drawn_batch_and_params(problem, sizes, data):
    """A batch size (None or up to one above the largest local set) and
    parameters at unit scale or at 30x, where the softmax saturates."""
    batch = data.draw(st.one_of(st.none(), st.integers(1, max(sizes) + 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1.0, 30.0]))
    return batch, scale * rng.standard_normal((problem.n_agents, problem.dim))


class TestStackedClassificationOracles:
    """Both classification oracles are stacked and equal their references bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        case=problems(kinds=("softmax",)),
        seed=st.integers(0, 2**70),
        rnd=st.integers(0, 2**33),
        data=st.data(),
    )
    def test_softmax_flat_pick_is_fancy_index_bit_for_bit(self, case, seed, rnd, data):
        # batches above the smallest local set leave padded table cells
        problem, sizes = case
        batch, X = drawn_batch_and_params(problem, sizes, data)
        seen = []
        stacked = problem._stacked_loss_grad
        problem._stacked_loss_grad = lambda b, X: seen.append(b) or stacked(b, X)
        losses, G = make_oracle(problem, batch, seed=seed)(X, rnd)
        ref_losses, ref_G = fancy_index_softmax(problem, seen[0], X)
        assert np.array_equal(losses, ref_losses) and np.array_equal(G, ref_G)
        assert problem.evaluate(X[0])[0] == transposed_pick_loss(problem, X[0])

    @settings(max_examples=100, deadline=None)
    @given(
        case=problems(kinds=("mlp",)),
        seed=st.integers(0, 2**70),
        rnd=st.integers(0, 2**33),
        data=st.data(),
    )
    def test_mlp_losses_and_grads_are_per_agent_bit_for_bit(self, case, seed, rnd, data):
        # a batch above the smallest local set gives agents fewer samples
        # than the batch, in groups of their own sizes
        problem, sizes = case
        batch, X = drawn_batch_and_params(problem, sizes, data)
        losses, G = make_oracle(problem, batch, seed=seed)(X, rnd)
        ref_losses, ref_G = reference_oracle(problem, batch, seed)(X, rnd)
        assert np.array_equal(losses, ref_losses) and np.array_equal(G, ref_G)
        assert problem.evaluate(X[0])[0] == transposed_pick_loss(problem, X[0])

    @pytest.mark.parametrize("batch", [32, None])
    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_no_per_agent_call_on_an_even_partition(self, kind, batch):
        # alpha = 100 gives every agent more samples than the batch, so one
        # stack serves all of them; the full batch leaves most agents alone
        # in their size, and a stack of one serves each of them.  Softmax
        # never calls the per-agent pass; the MLP calls it once per batch
        # size and round, on the stack of all agents of that size
        spec = SyntheticProblemSpec(
            kind=kind, d=20, n_agents=32, n_classes=10, n_samples=8000, hidden=16, seed=1
        )
        part = dirichlet_partition(make_problem(spec).labels, 32, alpha=100.0, seed=2)
        problem = make_problem(spec, assignments=part.assignments)
        sizes = [len(a) for a in problem.assignments]
        assert min(sizes) > 32
        calls = []
        per_agent = problem._batch_loss_grad

        def counted(feats, labels, params):
            calls.append(params.shape[:-1])
            return per_agent(feats, labels, params)

        problem._batch_loss_grad = counted
        oracle = make_oracle(problem, batch, seed=3)
        X = 0.1 * np.random.default_rng(4).standard_normal((32, problem.dim))
        for rnd in range(20):
            oracle(X, rnd)
        _, per_size = np.unique(np.minimum(sizes, batch or max(sizes)), return_counts=True)
        assert len(per_size) == (1 if batch else 19)
        assert calls == ([] if kind == "softmax" else [(g,) for g in per_size] * 20)
        calls.clear()
        problem.loss_and_grad(0, X[0], problem.draw_batch(0, 0, 32, seed=3))
        assert calls == [()]  # the counter sees the per-agent path


def seed_words_for(bit_gen: np.random.PCG64) -> np.ndarray:
    """State words from which numpy seeds ``bit_gen``'s current state.

    numpy seeds words (s_hi, s_lo, i_hi, i_lo) as inc = 2i + 1 and
    state = (s + inc) * MULT + inc, both mod 2**128; this solves for s and i.
    """
    state = bit_gen.state["state"]
    inc = state["inc"]
    s = ((state["state"] - inc) * pow(PCG_MULT, -1, 2**128) - inc) % 2**128
    i = inc >> 1
    return np.array([s >> 64, s & MASK64, i >> 64, i & MASK64], dtype=np.uint64)


class TestPcg64Raw:
    """The closed-form PCG64 against numpy's ``random_raw``."""

    @pytest.mark.parametrize("m", [1, 2, 16, 17])
    def test_matches_random_raw(self, m):
        keys = np.random.default_rng(m).integers(0, 2**64, size=(2000, 4), dtype=np.uint64)
        edges = np.array([[0] * 4, [MASK64] * 4], dtype=np.uint64)
        words = np.concatenate((edges, keys))
        got = models._pcg64_raw(words, m)
        assert got.shape == (len(words), m) and got.dtype == np.uint64
        for row, key in zip(got, words):
            assert np.array_equal(row, np.random.PCG64(models._StateWords(key)).random_raw(m))

    def test_seeded_states_match_numpy(self):
        keys = np.random.default_rng(5).integers(0, 2**64, size=(2000, 4), dtype=np.uint64)
        edges = np.array([[0] * 4, [MASK64] * 4], dtype=np.uint64)
        streams = [
            seed_words_for(pcg64_emitting((0x7F4A7C15 << 32) | u))
            for u in (0, 1, 2**31, 2**32 - 1, 0x1234567)
        ]
        words = np.concatenate((edges, keys, streams))
        got = models._pcg64_seeded(words)
        assert got.shape == (len(words), 4) and got.dtype == np.uint64
        for (s_lo, s_hi, inc_lo, inc_hi), key in zip(got.tolist(), words):
            state = np.random.PCG64(models._StateWords(key)).state["state"]
            assert state == {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo}

    @pytest.mark.parametrize("m", [1, 16, 17])
    @pytest.mark.parametrize("bound", [37, 2**32 - 1, 3 * 2**30 + 1, 999_999_937])
    def test_matches_threshold_streams(self, bound, m):
        # the streams of TestBoundedDraws.test_threshold_is_exact, reached
        # from seed words instead of a set state
        threshold = 2**32 % bound
        for leftover in (threshold, threshold - 1):
            first = (0x7F4A7C15 << 32) | (leftover * pow(bound, -1, 2**32) % 2**32)
            words = seed_words_for(pcg64_emitting(first))
            assert np.random.PCG64(models._StateWords(words)).state == pcg64_emitting(first).state
            got = models._pcg64_raw(words[None], m)[0]
            assert got[0] == first
            assert np.array_equal(got, pcg64_emitting(first).random_raw(m))

    def test_block_state_words_match_seed_sequence(self):
        agents = np.array([0, 5, 2**32 - 1])
        keys = models._KeyPool(2**40 + 3, agents)
        for rounds in (range(16), range(2**32 - 16, 2**32), [2**64, 2**64 + 9]):
            words = keys.state_words(rounds)
            assert words.shape == (len(rounds), len(agents), 4)
            for rnd, block_row in zip(rounds, words):
                expected = [
                    np.random.SeedSequence(2**40 + 3, spawn_key=(int(a), rnd)).generate_state(
                        4, np.uint64
                    )
                    for a in agents
                ]
                assert np.array_equal(block_row, np.stack(expected))

    def test_block_of_mixed_word_counts_rejected(self):
        keys = models._KeyPool(7, np.arange(3))
        with pytest.raises(ValueError, match="word"):
            keys.state_words([2**32 - 1, 2**32])


class TestRoundBlocks:
    """Minibatch indices drawn a block of rounds at a time."""

    ROUNDS = [0, 1, 15, 16, 17, 5, 0, 31, 32, 20, 47, 46, 3,
              2**32 - 3, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 2, 2**32 - 1, 2**32 - 3, 16]

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_tables_equal_draw_batch(self, kind, monkeypatch):
        spec = SyntheticProblemSpec(kind=kind, d=3, n_agents=6, n_samples=300, hidden=2, seed=4)
        sizes = [2, 9, 40, 64, 85, 100]  # batch 16: two agents use their full sets
        perm = np.random.default_rng(1).permutation(spec.n_samples)
        problem = make_problem(spec, assignments=np.split(perm, np.cumsum(sizes)[:-1]))
        tables, draws = [], []
        stacked, bounded = problem._stacked_loss_grad, models._bounded_draws
        problem._stacked_loss_grad = lambda b, X: tables.append(b.table.copy()) or stacked(b, X)
        monkeypatch.setattr(
            models, "_bounded_draws", lambda *args: draws.append(1) or bounded(*args)
        )
        oracle = make_oracle(problem, 16, seed=2**64 + 11)
        X = np.zeros((spec.n_agents, problem.dim))
        for rnd in self.ROUNDS:
            oracle(X, rnd)
        for rnd, table in zip(self.ROUNDS, tables):
            for agent, size in enumerate(sizes):
                picked = problem.draw_batch(agent, rnd, 16, seed=2**64 + 11).indices
                assert np.array_equal(table[agent, : min(size, 16)], picked)
        # a pass only where a round leaves the block drawn last: 12 of 22 calls
        assert len(draws) == 12

    def test_negative_round_named_in_error(self):
        problem = make_problem(SyntheticProblemSpec(kind="softmax", d=3, n_agents=4))
        oracle = make_oracle(problem, 8)
        with pytest.raises(ValueError, match="got -3$"):
            oracle(np.zeros((4, problem.dim)), -3)

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_no_bit_generator_on_the_minibatch_path(self, kind, monkeypatch):
        words = spawned_words(11, np.arange(200), 3)
        bounds = np.full(200, 3 * 2**30, dtype=np.uint64)
        raw = np.stack([np.random.PCG64(models._StateWords(w)).random_raw(1) for w in words])
        _, rejected = models._lemire_map(raw, bounds, 1)
        built = []
        pcg64 = np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(1) or pcg64(seed))
        spec = SyntheticProblemSpec(kind=kind, d=20, n_agents=32, n_samples=8000, hidden=4)
        problem = make_problem(spec)
        oracle = make_oracle(problem, 32, seed=5)
        X = np.zeros((32, problem.dim))
        for rnd in range(20):
            oracle(X, rnd)
        assert built == []
        # the count sees the rejection fallback's bit generators
        models._bounded_draws(words, bounds, 1)
        assert len(built) == rejected.sum() > 30
