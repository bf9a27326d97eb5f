"""The batched gradient oracle against the per-agent reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentrack import harness, models
from decentrack.algorithms import AlgorithmSpec, init_states, run_round
from decentrack.models import SyntheticProblemSpec, make_oracle, make_problem, substreams
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


class TestSubstreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rnd", ROUNDS)
    def test_standard_normal_matches_seed_sequence(self, seed, rnd):
        for agent, rng in substreams(seed, AGENTS, rnd):
            assert np.array_equal(
                rng.standard_normal(9), reference_rng(seed, agent, rnd).standard_normal(9)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rnd", ROUNDS)
    def test_integers_match_seed_sequence(self, seed, rnd):
        for agent, rng in substreams(seed, AGENTS, rnd):
            assert np.array_equal(
                rng.integers(0, 37, size=11),
                reference_rng(seed, agent, rnd).integers(0, 37, size=11),
            )

    def test_state_words_match_seed_sequence(self):
        agents = np.arange(300)
        words = models._spawned_state_words(2**64 + 11, agents, 5)
        expected = np.stack(
            [
                np.random.SeedSequence(2**64 + 11, spawn_key=(int(a), 5)).generate_state(
                    4, np.uint64
                )
                for a in agents
            ]
        )
        assert np.array_equal(words, expected)

    def test_yields_agents_in_order(self):
        assert [a for a, _ in substreams(3, [5, 0, 2], 1)] == [5, 0, 2]
        assert list(substreams(3, [], 1)) == []

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError):
            list(substreams(-1, [0], 0))
        with pytest.raises(ValueError):
            list(substreams(0, [0], -1))
        with pytest.raises(ValueError):
            list(substreams(0, [2**32], 0))


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(["quadratic", "softmax", "mlp"]))
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
            state = init_states(X0, W, spec)
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
