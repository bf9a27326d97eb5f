"""The consensus loop's one product with W per round, and its input checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentrack.algorithms import AlgorithmSpec, init_states, run_round
from decentrack.harness import CONSENSUS_METHODS, run_consensus, run_training
from decentrack.models import SyntheticProblemSpec, make_quadratic
from decentrack.topology import GATHER_MIN_N, build_topology
from test_mixing import gather_graphs, irregular_graph

# Graphs on both sides of the gather crossover.  The tori have a side of 3,
# which keeps W's smallest eigenvalue at -0.4 or above; with two even sides
# it is -0.6, and the tracked recursion then grows ~3000x in 40 rounds at
# mu = 0.19 (its per-mode radius passes 1 at mu = 1/11), so rounding
# differences scale past any bound relative to X0.
GRAPHS = {
    "ring8": lambda: build_topology("ring", 8),
    "ring256": lambda: build_topology("ring", 256),
    "torus3x5": lambda: build_topology("torus", 15, grid=(3, 5)),
    "torus3x55": lambda: build_topology("torus", 165, grid=(3, 55)),
    "irregular40": lambda: irregular_graph(40, chords=8),
    "irregular200": lambda: irregular_graph(200, chords=30),
}


def two_product_consensus(w, X0, method, mu, beta, T):
    """Plain transcription of the recursion that mixes the last update afresh:
    U^t = (W - I) X^t + mu [W U^{t-1} - (W - I)(X^{t-1} - X^t)], filtered
    through M^t = beta M^{t-1} + (1 - beta)(X^t - X^{t-1}) as
    beta M^t + (1 - beta) U^t for the momentum methods, and
    X^{t+1} = X^t + U^t, with X^{-1} = X^0 and U^{-1} = 0."""
    if method in ("gossip", "qg-gossip"):
        mu = 0.0
    X, Xp = X0.copy(), X0.copy()
    Up, M = np.zeros_like(X0), np.zeros_like(X0)
    out = []
    for _ in range(T):
        U = (w @ X - X) + mu * (w @ Up - (w @ Xp - Xp) + (w @ X - X))
        if method.startswith("qg-"):
            M = beta * M + (1.0 - beta) * (X - Xp)
            U = beta * M + (1.0 - beta) * U
        Xp, X, Up = X, X + U, U
        out.append(X)
    return out


class TestOneProductPerRound:
    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("method", CONSENSUS_METHODS)
    def test_one_mix_call_per_round(self, method, n):
        W = build_topology("ring", n)
        mix, calls = W.mix, []

        def counted(X):
            calls.append(X.shape)
            return mix(X)

        W.mix = counted
        X0 = np.random.default_rng(n).standard_normal((n, 4))
        trace = run_consensus(W, X0, method, mu=0.15, beta=0.9, T=25)
        assert not trace.divergent
        assert len(calls) == 25

    @settings(max_examples=60, deadline=None)
    @given(
        graph=st.sampled_from(sorted(GRAPHS)),
        method=st.sampled_from(CONSENSUS_METHODS),
        mu=st.floats(0.0, 0.19),
        beta=st.floats(0.0, 0.95),
        T=st.integers(1, 40),
        d=st.integers(1, 5),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_product_recursion(self, graph, method, mu, beta, T, d, scale, seed):
        W = GRAPHS[graph]()
        X0 = scale * np.random.default_rng(seed).standard_normal((W.n, d))
        got = []
        trace = run_consensus(
            W, X0, method, mu=mu, beta=beta, T=T, on_round=lambda t, X: got.append(X)
        )
        ref = two_product_consensus(W.weights, X0, method, mu, beta, T)
        assert not trace.divergent
        assert np.array_equal(got[0], X0)
        assert len(got) == T + 1
        tol = 1e-12 * np.max(np.abs(X0))
        for t, (a, b) in enumerate(zip(got[1:], ref), start=1):
            assert np.max(np.abs(a - b)) <= tol, t

    def test_graphs_straddle_the_crossover(self):
        ns = [make().n for make in GRAPHS.values()]
        assert min(ns) < GATHER_MIN_N <= max(ns)

    def test_arrays_passed_to_on_round_are_never_written(self):
        W = build_topology("ring", 256)
        X0 = np.random.default_rng(0).standard_normal((256, 3))
        for method in CONSENSUS_METHODS:
            seen, copies = [], []

            def keep(t, X):
                seen.append(X)
                copies.append(X.copy())

            run_consensus(W, X0, method, mu=0.15, beta=0.9, T=12, on_round=keep)
            assert len({id(X) for X in seen}) == len(seen) == 13
            for X, C in zip(seen, copies):
                assert np.array_equal(X, C)


def zero_oracle(X, rnd):
    return np.zeros(len(X)), np.zeros_like(X)


class TestZeroGradientTraining:
    """``gossip`` and ``gut`` are the rule table's DSGD and GUT-bias with a zero gradient."""

    TOPOLOGIES = {
        "ring16": lambda: build_topology("ring", 16),
        "ring256": lambda: build_topology("ring", 256),
        "torus3x5": lambda: build_topology("torus", 15, grid=(3, 5)),
        "dyck32": lambda: build_topology("dyck", 32),
    }

    def rounds(self, W, X0, kind, mu, T=40):
        state, out = init_states(X0, W), []
        for _ in range(T):
            state = run_round(state, W, AlgorithmSpec(kind=kind, eta=1.0, mu=mu), zero_oracle)
            out.append(state.X)
        return out

    def consensus(self, W, X0, method, mu, T=40):
        out = []
        run_consensus(W, X0, method, mu=mu, T=T, on_round=lambda t, X: out.append(X))
        assert len(out) == T + 1
        return out[1:]

    @pytest.mark.parametrize("graph", sorted(TOPOLOGIES))
    def test_gossip_is_dsgd_bit_for_bit(self, graph):
        W = self.TOPOLOGIES[graph]()
        X0 = np.random.default_rng(3).standard_normal((W.n, 8))
        for a, b in zip(self.consensus(W, X0, "gossip", 0.0), self.rounds(W, X0, "DSGD", 0.0)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("graph", sorted(TOPOLOGIES))
    def test_gut_is_gut_bias_at_unit_step(self, graph):
        W = self.TOPOLOGIES[graph]()
        X0 = np.random.default_rng(3).standard_normal((W.n, 8))
        for a, b in zip(self.consensus(W, X0, "gut", 0.0), self.rounds(W, X0, "GUT-bias", 0.0)):
            assert np.array_equal(a, b)
        tol = 1e-12 * np.max(np.abs(X0))
        for a, b in zip(self.consensus(W, X0, "gut", 0.15), self.rounds(W, X0, "GUT-bias", 0.15)):
            assert np.max(np.abs(a - b)) <= tol


class TestGather:
    @pytest.mark.parametrize("name", sorted(gather_graphs()))
    @pytest.mark.parametrize("shape", [(), (1,), (32,), (4, 3)])
    def test_equals_fancy_index_einsum(self, name, shape):
        # training traces stay bit for bit those built with X[W.peers]
        W = gather_graphs()[name]
        X = np.random.default_rng(len(shape)).standard_normal((W.n, *shape))
        w = np.take(W.weights, W.slots) * W.real
        assert np.array_equal(W.mix(X), np.einsum("nk,nk...->n...", w, X[W.peers]))

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("rows", [-1, 1, 44])
    def test_wrong_row_count_rejected(self, n, rows):
        W = build_topology("ring", n)
        with pytest.raises(ValueError, match=f"mix needs {n} rows"):
            W.mix(np.ones((n + rows, 4)))


class TestInputChecks:
    W = build_topology("ring", 16)
    X0 = np.random.default_rng(0).standard_normal((16, 3))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mu": 1.5}, r"mu must lie in \[0, 1\), got 1.5"),
            ({"mu": -0.5}, r"mu must lie in \[0, 1\), got -0.5"),
            ({"mu": float("nan")}, r"mu must lie in \[0, 1\)"),
            ({"beta": 1.0}, r"beta must lie in \[0, 1\), got 1.0"),
            ({"beta": -0.1}, r"beta must lie in \[0, 1\), got -0.1"),
        ],
    )
    @pytest.mark.parametrize("method", CONSENSUS_METHODS)
    def test_mu_beta_range(self, method, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_consensus(self.W, self.X0, method, **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start(self, bad):
        X0 = self.X0.copy()
        X0[3, 1] = bad
        with pytest.raises(ValueError, match="X0 must be finite"):
            run_consensus(self.W, X0, "gut", mu=0.15)

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("shape", ["few rows", "many rows", "vector", "3-d"])
    def test_start_shape(self, n, shape):
        W = build_topology("ring", n)
        dims = {"few rows": (n - 6, 3), "many rows": (n + 44, 3), "vector": (n,), "3-d": (n, 3, 1)}
        with pytest.raises(ValueError, match=rf"X0 must be \({n}, d\)"):
            run_consensus(W, np.ones(dims[shape]), "gut", mu=0.15)


class TestTrainingChecks:
    W = build_topology("ring", 16)
    spec = AlgorithmSpec(kind="DSGD", eta=0.1)
    problem = make_quadratic(
        SyntheticProblemSpec(kind="quadratic", d=3, n_agents=16, zeta=0.0, sigma=0.0, seed=0)
    )

    @pytest.mark.parametrize("T", [0, -2])
    def test_needs_a_round(self, T):
        with pytest.raises(ValueError, match=f"T must be >= 1, got {T}"):
            run_training(self.W, self.problem, self.spec, T=T)

    @pytest.mark.parametrize("eval_every", [0, -3])
    def test_eval_interval(self, eval_every):
        with pytest.raises(ValueError, match=f"eval_every must be >= 1, got {eval_every}"):
            run_training(self.W, self.problem, self.spec, T=5, eval_every=eval_every)

    def test_one_round_evaluates_its_row(self):
        result = run_training(self.W, self.problem, self.spec, T=1, eval_every=7, seeds=(1,))
        (row,) = result.traces[0].rows
        assert row.avg_model_loss == result.summary["final_loss_mean"]
