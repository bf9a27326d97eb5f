"""The mixing operator W.mix, the neighbour table and the stacked State."""

import tracemalloc

import numpy as np
import pytest

from decentrack import topology
from decentrack.algorithms import (
    AlgorithmSpec,
    comm_cost,
    init_states,
    run_round,
)
from decentrack.harness import run_consensus
from decentrack.topology import as_mixing, build_topology
from test_algorithms import quad_oracle


def irregular_graph(n=256, chords=40, seed=0):
    """Ring plus random chords with Metropolis weights: doubly stochastic,
    symmetric, degrees 2 to about 5."""
    return as_mixing(irregular_weights(n, chords, seed))


def irregular_weights(n=256, chords=40, seed=0):
    """The weight matrix of ``irregular_graph``."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    i = np.arange(n)
    adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    for a, b in rng.integers(0, n, size=(chords, 2)):
        if a != b:
            adj[a, b] = adj[b, a] = True
    deg = adj.sum(axis=1)
    w = np.where(adj, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def gather_graphs():
    return {
        "ring256": build_topology("ring", 256),
        "ring1024": build_topology("ring", 1024),
        "torus32x32": build_topology("torus", 1024, grid=(32, 32)),
        "irregular256": irregular_graph(),
    }


def dense_graphs():
    return {
        "ring8": build_topology("ring", 8),
        "ring64": build_topology("ring", 64),
        "dyck32": build_topology("dyck", 32),
        "torus144": build_topology("torus", 144),
        "complete2": as_mixing(np.full((2, 2), 0.5)),
    }


TABLE_GRAPHS = [
    ("ring", 3, None),
    ("ring", 4, None),
    ("ring", 8, None),
    ("ring", 1024, None),
    ("dyck", 32, None),
    ("torus", 9, None),
    ("torus", 32, (4, 8)),
    ("torus", 1024, None),
    ("irregular", 256, None),
]


class TestMix:
    @pytest.mark.parametrize("name", sorted(gather_graphs()))
    @pytest.mark.parametrize("d", [1, 32, 200])
    def test_gather_matches_dense_product(self, name, d):
        W = gather_graphs()[name]
        assert W.gather
        X = np.random.default_rng(d).standard_normal((W.n, d))
        out = W.mix(X)
        assert out.shape == X.shape
        assert np.max(np.abs(out - W.weights @ X)) <= 1e-14 * np.max(np.abs(X))
        assert np.max(np.abs(out.mean(axis=0) - X.mean(axis=0))) <= 1e-12

    def test_gather_on_vectors(self):
        W = build_topology("ring", 1024)
        x = np.random.default_rng(0).standard_normal(1024)
        out = W.mix(x)
        assert out.shape == x.shape
        assert np.max(np.abs(out - W.weights @ x)) <= 1e-14 * np.max(np.abs(x))

    @pytest.mark.parametrize("name", sorted(dense_graphs()))
    def test_dense_below_crossover_is_exact_product(self, name):
        W = dense_graphs()[name]
        assert not W.gather
        for d in (1, 32, 200):
            X = np.random.default_rng(d).standard_normal((W.n, d))
            assert np.array_equal(W.mix(X), W.weights @ X)

    @pytest.mark.parametrize("n", [8, 256])
    def test_reads_weights_at_call_time(self, n):
        W = build_topology("ring", n)
        X = np.random.default_rng(0).standard_normal((n, 3))
        W.weights = np.eye(n)
        assert np.array_equal(W.mix(X), X)
        edited = build_topology("ring", n).weights.copy()
        edited[0, [0, 1, n - 1]] = [0.5, 0.25, 0.25]
        W.weights = edited
        assert np.max(np.abs(W.mix(X) - edited @ X)) <= 1e-14 * np.max(np.abs(X))

    @pytest.mark.parametrize("n", [16, 256])  # dense and gather mixing
    def test_wrongly_shaped_weights_rejected(self, n):
        W = build_topology("ring", n)
        X = np.random.default_rng(0).standard_normal((n, 3))
        mixed = W.mix(X)
        for bad in (np.eye(5), np.eye(n)[:, :-1], np.ones(n), np.eye(n + 1)):
            with pytest.raises(ValueError, match=rf"weights must be \({n}, {n}\), got shape"):
                W.weights = bad
        assert np.array_equal(W.mix(X), mixed)

    def test_gather_keeps_negative_weights(self):
        n = 256
        i = np.arange(n)
        w = np.eye(n)
        for shift, weight in ((1, 0.6), (2, -0.1)):
            w[i, (i + shift) % n] = w[(i + shift) % n, i] = weight
        w[i, i] = 1.0 - (w.sum(axis=1) - 1.0)
        W = as_mixing(w)
        assert W.gather and np.all(W.degrees == 4)
        X = np.random.default_rng(2).standard_normal((n, 5))
        assert np.max(np.abs(W.mix(X) - w @ X)) <= 1e-14 * np.max(np.abs(X))

    @pytest.mark.parametrize(
        "kind, n, grid", [("ring", 16, None), ("dyck", 32, None), ("torus", 15, (3, 5)),
                          ("ring", 256, None)],
    )
    def test_stacks_mix_over_agents_on_both_paths(self, kind, n, grid):
        W = build_topology(kind, n, grid)
        assert W.gather == (n >= topology.GATHER_MIN_N)
        rng = np.random.default_rng(n)
        for shape in ((n, 3, 4), (n, n, 4), (n, 2, 3, 2)):
            X = rng.standard_normal(shape)
            out = W.mix(X)
            assert out.shape == X.shape
            expected = np.einsum("ij,j...->i...", W.weights, X)
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(X))

    def test_crossover_rule(self):
        assert not build_topology("ring", topology.GATHER_MIN_N - 1).gather
        assert build_topology("ring", topology.GATHER_MIN_N).gather

    def test_consensus_gather_matches_dense(self, monkeypatch):
        W = build_topology("ring", 256)
        X0 = np.random.default_rng(5).standard_normal((256, 8))
        gathered = run_consensus(W, X0, "gut", mu=0.15, T=60)
        monkeypatch.setattr(topology, "GATHER_MIN_N", 10**9)
        W_dense = build_topology("ring", 256)
        assert not W_dense.gather
        dense = run_consensus(W_dense, X0, "gut", mu=0.15, T=60)
        for a, b in zip(gathered.rows, dense.rows):
            assert a.consensus_error == pytest.approx(b.consensus_error, rel=1e-12)


def edge_scan_degree(W, i):
    return sum(1 for a, b in W.edges if i in (a, b))


def edge_scan_neighbors(W, i):
    return sorted(b if a == i else a for a, b in W.edges if i in (a, b))


def loop_edges(kind, n, grid):
    """The graph's edges built one at a time, as sorted (min, max) pairs."""
    if kind == "ring":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "dyck":
        pairs = [(i, (i + 1) % n) for i in range(n)] + topology._DYCK_CHORDS
    else:
        rows, cols = grid if grid is not None else topology._square_grid(n)
        pairs = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                pairs.append((i, r * cols + (c + 1) % cols))
                pairs.append((i, ((r + 1) % rows) * cols + c))
    return sorted({(min(a, b), max(a, b)) for a, b in pairs})


class TestNeighbourTable:
    @pytest.mark.parametrize("kind,n,grid", [g for g in TABLE_GRAPHS if g[0] != "irregular"])
    def test_builtin_edges_and_weights_match_loop_construction(self, kind, n, grid):
        W = build_topology(kind, n, grid)
        edges = loop_edges(kind, n, grid)
        assert W.edges == edges
        expected = np.zeros((n, n))
        np.fill_diagonal(expected, W.weights[0, 0])
        for a, b in edges:
            expected[a, b] = expected[b, a] = W.weights[0, 0]
        assert np.array_equal(W.weights, expected)

    @pytest.mark.parametrize("kind,n,grid", TABLE_GRAPHS)
    def test_degree_and_neighbors_match_edge_scan(self, kind, n, grid):
        W = irregular_graph(n) if kind == "irregular" else build_topology(kind, n, grid)
        for i in range(W.n):
            assert W.degrees[i] == edge_scan_degree(W, i)
            assert W.peers[i, 1 : 1 + W.degrees[i]].tolist() == edge_scan_neighbors(W, i)

    def test_padding_points_at_self_with_zero_weight(self):
        W = irregular_graph()
        width = W.peers.shape[1]
        for i in range(W.n):
            pad = slice(1 + W.degrees[i], width)
            assert np.all(W.peers[i, pad] == i)
            assert np.all(W.real[i, pad] == 0) and np.all(W.real[i, : 1 + W.degrees[i]] == 1)
        assert np.allclose(W.mix(np.ones(W.n)), 1.0)

    def test_comm_cost_irregular_mean_degree(self):
        W = irregular_graph()
        degrees = [edge_scan_degree(W, i) for i in range(W.n)]
        assert len(set(degrees)) > 1
        # the exact mean degree times d, rounded once; not truncated
        expected = sum(degrees) * 7 / len(degrees)
        assert expected != int(expected)
        assert comm_cost(AlgorithmSpec(kind="GUT", eta=0.1), 7, W) == expected
        small = irregular_graph(40, 7, 0)
        assert comm_cost(AlgorithmSpec(kind="GUT", eta=0.1), 3, small) == 7.05


class TestOneCopy:
    """``peer_weights`` is the one copy of W that ``mix`` gathers with, and
    ``weights`` a read-only view of it or of the matrix last assigned."""

    @staticmethod
    def products(W, X):
        return W.mix(X), W.mix(X[:, 0])

    @pytest.mark.parametrize("n", [16, 256])  # dense and gather mixing
    def test_off_pattern_assignment_raises(self, n):
        W = build_topology("ring", n)
        assert W.gather == (n == 256) and "peer_weights" in vars(W)
        X = np.random.default_rng(1).standard_normal((n, 3))
        before, table = self.products(W, X), W.peer_weights
        # two gossip steps reach two hops: nonzeros off the ring's edges
        with pytest.raises(ValueError, match="zero off the diagonal and the edges"):
            W.weights = W.weights @ W.weights
        assert W.peer_weights is table
        assert all(map(np.array_equal, self.products(W, X), before))

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("assigned", [False, True])
    def test_writes_change_no_product(self, n, assigned):
        W = build_topology("ring", n)
        w = (np.eye(n) + build_topology("ring", n).weights) / 2
        if assigned:
            W.weights = w
        X = np.random.default_rng(2).standard_normal((n, 3))
        before = self.products(W, X)
        with pytest.raises(ValueError, match="read-only"):
            W.weights[0, 1] = 0.5
        w[0, 1] = w[1, 0] = 0.5
        assert all(map(np.array_equal, self.products(W, X), before))
        assert W.weights[0, 1] == (0.5 / 3 if assigned else 1 / 3)

    @pytest.mark.parametrize("n", [16, 256])
    def test_lazy_assignment_equals_lazy_matrix(self, n):
        W = build_topology("ring", n)
        lazy = (np.eye(n) + W.weights) / 2
        W.weights = lazy
        X = np.random.default_rng(3).standard_normal((n, 5))
        assert all(map(np.array_equal, self.products(W, X), self.products(as_mixing(lazy), X)))

    def test_read_only_views_are_kept_only_when_nothing_can_write(self):
        W = build_topology("ring", 16)
        view = W.weights.view()
        W.weights = view
        assert W.weights is view
        base = (np.eye(16) + W.weights) / 2
        view = base.view()
        view.setflags(write=False)
        W.weights = view
        assert W.weights is not view and not W.weights.flags.writeable
        base[0, 0] = 0.0
        assert W.weights[0, 0] == 2 / 3


def matrix_from_edges(n, ends, peers):
    """The eager dense build ``build_topology`` used before the weights were
    held in the neighbour table: 1 / peers on the diagonal and every edge."""
    w = np.zeros((n, n))
    v = 1.0 / peers
    np.fill_diagonal(w, v)
    w[ends[:, 0], ends[:, 1]] = v
    w[ends[:, 1], ends[:, 0]] = v
    return w


class TestTableWeights:
    PEERS = {"ring": 3, "dyck": 4, "torus": 5}

    @pytest.mark.parametrize("kind,n,grid", [g for g in TABLE_GRAPHS if g[0] != "irregular"])
    def test_lazy_weights_equal_eager_build(self, kind, n, grid):
        W = build_topology(kind, n, grid)
        assert W._weights is None
        expected = matrix_from_edges(n, np.array(W.edges), self.PEERS[kind])
        assert np.array_equal(W.weights, expected)
        assert W.weights is W.weights

    def test_as_mixing_round_trips_padded_irregular_graph(self):
        w = irregular_weights()
        W = as_mixing(w)
        assert len(set(W.degrees.tolist())) > 1 and np.any(W.real == 0)
        assert np.array_equal(W.peer_weights, np.take(w, W.slots) * W.real)
        X = np.random.default_rng(4).standard_normal((W.n, 6))
        from_table = W.mix(X)
        assert np.array_equal(W.weights, w)
        assert np.array_equal(W.mix(X), from_table)

    def test_large_ring_builds_no_dense_matrix(self):
        # the dense ring-16384 matrix alone would take 2 GiB
        X = np.random.default_rng(0).standard_normal((16384, 4))
        tracemalloc.start()
        try:
            W = build_topology("ring", 16384)
            out = W.mix(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        ring = (X + np.roll(X, 1, axis=0) + np.roll(X, -1, axis=0)) / 3
        assert np.max(np.abs(out - ring)) <= 1e-14 * np.max(np.abs(X))


def reference_table(n, edges):
    """peers, degrees, slots and real written out row by row from (min, max) pairs."""
    nbrs = [sorted({b for a, b in edges if a == i} | {a for a, b in edges if b == i})
            for i in range(n)]
    width = 1 + max(len(row) for row in nbrs)
    peers = np.array([[i, *row] + [i] * (width - 1 - len(row)) for i, row in enumerate(nbrs)])
    degrees = np.array([len(row) for row in nbrs])
    real = np.array([[1.0] * (1 + len(row)) + [0.0] * (width - 1 - len(row)) for row in nbrs])
    return peers, degrees, peers + n * np.arange(n)[:, None], real


EDGE_ARRAY_GRAPHS = [
    ("ring", 3, None), ("ring", 16, None), ("ring", 160, None), ("ring", 1024, None),
    ("dyck", 32, None), ("torus", 9, None), ("torus", 15, (3, 5)), ("torus", 1024, None),
    ("irregular", 256, None),
]


class TestEdgeArray:
    """The table is the same whether the edges come as an array or a list."""

    @pytest.mark.parametrize("kind,n,grid", EDGE_ARRAY_GRAPHS)
    def test_array_and_list_build_equal_matrices(self, kind, n, grid):
        if kind == "irregular":
            w = irregular_weights(n)
            i, j = np.nonzero(np.triu(w != 0, 1))
            pairs, built = list(zip(i.tolist(), j.tolist())), as_mixing(w)
        else:
            w, pairs, built = None, loop_edges(kind, n, grid), build_topology(kind, n, grid)
        dense = w if w is not None else matrix_from_edges(
            n, np.array(pairs), TestTableWeights.PEERS[kind]
        )
        # the array in shuffled order, every other edge reversed
        rng = np.random.default_rng(n)
        ends = np.array(pairs)[rng.permutation(len(pairs))]
        ends[::2] = ends[::2, ::-1]
        from_array = topology.MixingMatrix(n, ends)
        from_list = topology.MixingMatrix(n, pairs)
        if w is not None:
            from_array.weights = from_list.weights = w
        peers, degrees, slots, real = reference_table(n, pairs)
        X, x = rng.standard_normal((n, 7)), rng.standard_normal(n)
        for W in (built, from_array, from_list):
            assert np.array_equal(W.peers, peers) and W.peers.dtype == np.intp
            assert np.array_equal(W.degrees, degrees) and np.array_equal(W.slots, slots)
            assert np.array_equal(W.real, real) and W.real.dtype == float
            assert W.edges == pairs and W.edges is W.edges
            assert all(type(v) is int for edge in W.edges for v in edge)
            assert np.array_equal(W.peer_weights, from_list.peer_weights)
            assert np.array_equal(W.mix(X), from_list.mix(X))
            assert np.array_equal(W.mix(x), from_list.mix(x))
            assert np.array_equal(W.weights, dense)


class TestEdgeChecks:
    """An edge list that would make ``mix`` and ``weights`` disagree is refused:
    a repeated pair or a pair (i, i) counts twice in the table's degrees and
    peers but once in the dense W, and an endpoint outside the agents has no row."""

    @pytest.mark.parametrize("repeat", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("n", [16, 200])  # the dense product and the gather
    def test_an_edge_listed_twice_is_refused(self, n, repeat):
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        with pytest.raises(ValueError, match="listed once"):
            topology.MixingMatrix(n, np.concatenate([ring, [repeat]]))

    @pytest.mark.parametrize("n", [16, 200])
    def test_a_self_loop_pair_is_refused(self, n):
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(5, 5)]
        with pytest.raises(ValueError, match="two distinct agents"):
            topology.MixingMatrix(n, pairs)

    @pytest.mark.parametrize("end", [4, -1])
    def test_an_endpoint_outside_the_agents_is_refused(self, end):
        with pytest.raises(ValueError, match=r"must lie in \[0, 4\)"):
            topology.MixingMatrix(4, [(0, 1), (1, 2), (2, 3), (3, end)])


class TestGatherBuffer:
    SHAPES = [((), np.float64), ((1,), np.float64), ((32,), np.float64), ((4, 3), np.float64),
              ((32,), np.float32)]

    @pytest.mark.parametrize("name", sorted(gather_graphs()))
    def test_outputs_are_fresh_and_bit_equal_across_shapes(self, name):
        W = gather_graphs()[name]
        rng = np.random.default_rng(7)
        outs = []
        for shape, dtype in self.SHAPES * 2:
            X = rng.standard_normal((W.n, *shape)).astype(dtype)
            out = W.mix(X)
            assert np.array_equal(out, np.einsum("nk,nk...->n...", W.peer_weights, X[W.peers]))
            outs.append(out)
        buffers = list(W._gathered.values())
        assert len(buffers) == len(self.SHAPES)
        for i, out in enumerate(outs):
            for other in outs[i + 1 :] + buffers:
                assert not np.shares_memory(out, other)

    def test_buffer_is_kept_per_shape(self):
        W = build_topology("ring", 256)
        X = np.ones((256, 8))
        W.mix(X)
        (buffer,) = W._gathered.values()
        W.mix(2 * X)
        assert list(W._gathered.values()) == [buffer]
        assert buffer.shape == (256, 3, 8)

    BLOCKED_GRAPHS = {
        "ring1031": lambda: build_topology("ring", 1031),
        "torus32x32": lambda: build_topology("torus", 1024, grid=(32, 32)),
        "irregular512": lambda: irregular_graph(512, 80, 3),
    }
    STACKS = [(), (200,), (4, 3), (0,), (32, 16)]

    @staticmethod
    def one_shot(W, X):
        return np.einsum("nk,nk...->n...", W.peer_weights, X[W.peers])

    @pytest.mark.parametrize("name", sorted(BLOCKED_GRAPHS))
    def test_blocks_are_bit_equal_to_one_gather(self, name):
        W = self.BLOCKED_GRAPHS[name]()
        assert W.gather and (name != "irregular512" or np.any(W.real == 0))
        rng = np.random.default_rng(11)
        for trailing in self.STACKS:
            X = rng.standard_normal((W.n, *trailing))
            out = W.mix(X)
            assert out.shape == X.shape and np.array_equal(out, self.one_shot(W, X))
        X = rng.standard_normal((W.n, 200))
        for sample in (X.astype(np.float32), X[:, ::2]):
            out = W.mix(sample)
            assert out.dtype == np.float64 and np.array_equal(out, self.one_shot(W, sample))
        # more than one block on every graph, the last ragged on ring-1031
        rows = len(W._gathered[((200,), np.dtype(float))])
        assert rows < W.n
        assert name != "ring1031" or W.n % rows

    def test_blocks_read_reassigned_weights(self):
        W = build_topology("ring", 1031)
        X = np.random.default_rng(12).standard_normal((1031, 200))
        edited = W.weights.copy()
        edited[3, [3, 4, 2]] = [0.5, 0.3, 0.2]
        W.weights = edited
        assert np.array_equal(W.mix(X), self.one_shot(W, X))
        assert np.max(np.abs(W.mix(X) - edited @ X)) <= 1e-14 * np.max(np.abs(X))

    @pytest.mark.parametrize("budget", [topology.GATHER_BLOCK_BYTES, 64])
    def test_kept_scratch_fits_the_block_budget(self, monkeypatch, budget):
        monkeypatch.setattr(topology, "GATHER_BLOCK_BYTES", budget)
        for W in (build_topology("ring", 1024), build_topology("ring", 1031),
                  build_topology("torus", 1024), irregular_graph(512, 80, 3)):
            rng = np.random.default_rng(W.n)
            for trailing in self.STACKS + [(32,), (7,)]:
                X = rng.standard_normal((W.n, *trailing))
                assert np.array_equal(W.mix(X), self.one_shot(W, X))
            for buffer in W._gathered.values():
                one_row = buffer[:1].nbytes
                assert buffer.nbytes <= max(budget, one_row)

    @pytest.mark.parametrize("n", [16, 256])
    def test_0d_input_is_a_value_error(self, n):
        with pytest.raises(ValueError, match=f"mix needs {n} rows"):
            build_topology("ring", n).mix(np.array(1.0))


class TestState:
    def test_init_state_owns_its_arrays(self):
        W = build_topology("ring", 4)
        X0 = np.ones((4, 2))
        state = init_states(X0, W)
        X0[:] = 5.0
        assert np.all(state.X == 1.0)

    def test_round_counter_and_start_state_untouched(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(1)
        X0 = rng.standard_normal((8, 3))
        spec = AlgorithmSpec(kind="GUT", eta=0.1, mu=0.1)
        first = init_states(X0, W)
        second = run_round(first, W, spec, quad_oracle(rng.standard_normal((8, 3))))
        assert second.round == 1
        assert np.array_equal(first.X, X0)

    def test_overflowing_agents_return_non_finite_rows(self):
        W = build_topology("ring", 8)
        b = np.zeros((8, 1))
        b[5] = b[2] = -1e200
        spec = AlgorithmSpec(kind="GUT", eta=1e150)
        state = init_states(np.zeros((8, 1)), W)
        state = run_round(state, W, spec, quad_oracle(np.zeros((8, 1))))
        state = run_round(state, W, spec, quad_oracle(b))
        assert state.round == 2
        assert np.flatnonzero(~np.isfinite(state.X).all(axis=1)).tolist() == [2, 5]
        assert np.all(state.X[[2, 5]] == -np.inf)
