"""The batched gradient oracle against the per-agent reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentrack import harness, models
from decentrack.algorithms import AlgorithmSpec, init_states, run_round
from decentrack.models import SyntheticProblemSpec, make_oracle, make_problem
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
