import dataclasses
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from decentrack import harness
from decentrack.algorithms import KINDS, AlgorithmSpec, comm_cost, init_states, run_round
from decentrack.harness import (
    CONSENSUS_METHODS,
    CSV_HEADER,
    check_equivalence,
    consensus_error,
    decayed_schedule,
    run_consensus,
    run_training,
)
from decentrack.models import SyntheticProblemSpec, make_oracle, make_problem
from decentrack.topology import as_mixing, build_topology
from test_algorithms import zero_oracle
from test_consensus import two_product_consensus

COMPLETE2 = as_mixing(np.full((2, 2), 0.5))


class TestConsensusError:
    def test_zero_at_consensus(self):
        assert consensus_error(np.tile([1.0, 2.0], (5, 1))) == 0.0

    def test_two_agent_hand_value(self):
        assert consensus_error(np.array([[0.0], [2.0]])) == 1.0

    def test_quadratic_homogeneity(self):
        X = np.random.default_rng(0).standard_normal((6, 3))
        Xbar = X.mean(axis=0)
        scaled = Xbar + 2.5 * (X - Xbar)
        assert consensus_error(scaled) == pytest.approx(2.5**2 * consensus_error(X))

    @pytest.mark.parametrize(
        "X",
        [
            np.random.default_rng(1).standard_normal((1024, 32)),
            np.random.default_rng(2).standard_normal((7, 5)) * 1e300,  # squares overflow
            np.random.default_rng(3).standard_normal(9),  # 1-D: nine agents of dimension 1
            np.array([[1.0, np.inf], [2.0, 3.0]]),
            np.array([[1.0, np.nan], [2.0, 3.0]]),
        ],
    )
    def test_matches_two_temporary_form(self, X):
        # the in-place square sums the same products in the same order
        before = X.copy()
        X2 = X[:, None] if X.ndim == 1 else X
        with np.errstate(over="ignore", invalid="ignore"):
            centered = X2 - X2.mean(axis=0)
            expected = float(np.sum(centered * centered) / X2.shape[0])
            got = consensus_error(X)
        assert got == expected or (np.isnan(got) and np.isnan(expected))
        assert np.array_equal(X, before, equal_nan=True)  # the input is not squared

    def test_1d_is_agents_of_dimension_1(self):
        # W.mix reads an (n,) array as n agents, so consensus_error does too
        assert consensus_error(np.array([0.0, 1.0, 2.0, 3.0])) == 1.25
        for x in (np.array([0.0, 1.0, 2.0, 3.0]), np.arange(7.0) ** 3):
            assert consensus_error(x) == consensus_error(x[:, None])

    @pytest.mark.parametrize("shape", [(4, 2, 3), (), (3, 1, 1, 1)])
    def test_other_shapes_name_the_accepted_ones(self, shape):
        with pytest.raises(ValueError, match=r"\(n,\) or \(n, d\)"):
            consensus_error(np.ones(shape))


class TestConsensusErrorBuffer:
    @pytest.mark.parametrize(
        "X",
        [
            np.random.default_rng(1).standard_normal((1024, 32)),
            np.random.default_rng(2).standard_normal((7, 5)) * 1e300,  # squares overflow
            np.random.default_rng(3).standard_normal((9, 1)),
            np.asfortranarray(np.random.default_rng(4).standard_normal((6, 4))),
            np.array([[1.0, np.inf], [2.0, 3.0]]),
            np.array([[1.0, np.nan], [2.0, 3.0]]),
        ],
    )
    def test_out_matches_fresh_array(self, X):
        before = X.copy(order="K")
        out = np.full(X.shape, 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = consensus_error(X)
            got = consensus_error(X, out)
            again = consensus_error(X, out)
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert again == got or (math.isnan(again) and math.isnan(got))
        assert np.array_equal(X, before, equal_nan=True)


def two_temporary_form(X):
    """The reference value: mean-centred copy, squared copy, pairwise sum."""
    X = np.atleast_2d(X)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = X - X.mean(axis=0)
        return float(np.sum(centered * centered) / X.shape[0])


def assert_matches_two_temporary_form(X):
    before = X.copy(order="K")
    expected = two_temporary_form(X)
    with np.errstate(over="ignore", invalid="ignore"):
        got = consensus_error(X)
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    assert np.array_equal(X, before, equal_nan=True)


def magnitude_stack(n, d, seed):
    """Rows scaled by 10**[-8, 8), so the column sums depend on their order."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))


def offset_stack(n, d, seed):
    """Columns far from zero, so the rounding of the centred values
    depends on the last bits of the column means."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + rng.uniform(-1e3, 1e3, size=d)


class TestConsensusErrorLayouts:
    # einsum's column sums are taken only on C-ordered stacks with d >= 2;
    # on other layouts, and at d = 1, they differ from mean's in the last
    # bits, which moves the value in some of the seeds below

    @pytest.mark.parametrize("d", [1, 2, 3, 32, 200])
    @pytest.mark.parametrize("n", [1, 2, 3, 33, 1024, 4096])
    def test_c_ordered(self, n, d):
        for seed in range(3):
            for X in (magnitude_stack(n, d, seed), offset_stack(n, d, seed)):
                assert X.flags.c_contiguous
                assert_matches_two_temporary_form(X)

    @pytest.mark.parametrize("d", [2, 3, 32, 200])
    @pytest.mark.parametrize("n", [2, 33, 1024])
    def test_f_ordered(self, n, d):
        for seed in range(10):
            for stack in (magnitude_stack, offset_stack):
                X = np.asfortranarray(stack(n, d, seed))
                assert not X.flags.c_contiguous
                assert_matches_two_temporary_form(X)
                assert_matches_two_temporary_form(stack(d, n, seed).T)

    @pytest.mark.parametrize("cols", [slice(None, None, 2), slice(1, None, 3), slice(5, 6)])
    @pytest.mark.parametrize("n", [3, 33, 1024])
    def test_strided_views(self, n, cols):
        for seed in range(3):
            for X in (magnitude_stack(n, 64, seed), offset_stack(n, 64, seed)):
                assert_matches_two_temporary_form(X[:, cols])
                assert_matches_two_temporary_form(X[::2, cols])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize(
        "case",
        ["inf", "-inf", "inf and -inf", "nan", "squares overflow", "sums overflow"],
    )
    def test_non_finite(self, case, d, order):
        X = magnitude_stack(1024, d, seed=d)
        if case == "inf":
            X[7, 0] = np.inf
        elif case == "-inf":
            X[1000, d - 1] = -np.inf
        elif case == "inf and -inf":
            X[3, 0], X[900, 0] = np.inf, -np.inf
        elif case == "nan":
            X[512, d // 2] = np.nan
        elif case == "squares overflow":
            X = np.random.default_rng(d).standard_normal((1024, d)) * 1e200
        else:
            X = np.full((1024, d), 1.5e308)
            X[::2] *= 0.5
        X = np.asarray(X, order=order)
        assert_matches_two_temporary_form(X)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(consensus_error(X))


def scanning_gut_consensus(W, X0, mu, T):
    """GUT-bias rounds at eta = 1 with a zero gradient from B = S0 - X0, the
    consensus ``gut`` method, scanning every round for a non-finite entry;
    returns the finite iterates X^1, X^2, ..."""
    state = init_states(X0, W)
    state = dataclasses.replace(state, B=state.S - state.X)
    spec = AlgorithmSpec(kind="GUT-bias", eta=1.0, mu=mu)
    out = []
    for _ in range(T):
        state = run_round(state, W, spec, zero_oracle)
        if not np.all(np.isfinite(state.X)):
            break
        out.append(state.X)
    return out


class TestConsensusLoopMetric:
    GRAPHS = {
        "ring16": ("ring", 16),
        "ring1024": ("ring", 1024),
        "torus64": ("torus", 64),
        "dyck32": ("dyck", 32),
    }

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("method", ["gossip", "gut", "qg-gutm"])
    def test_rows_are_the_error_of_the_iterates(self, method, graph, d):
        W = build_topology(*self.GRAPHS[graph])
        X0 = np.random.default_rng(d).standard_normal((W.n, d))
        seen = []
        trace = run_consensus(
            W, X0, method=method, mu=0.1, beta=0.9, T=30,
            on_round=lambda t, X: seen.append(two_temporary_form(X)),
        )
        assert not trace.divergent
        assert [r.consensus_error for r in trace.rows] == seen

    def test_divergence_round_matches_a_scan_every_round(self):
        W = build_topology("ring", 8)
        X0 = np.random.default_rng(5).standard_normal((8, 4))
        ref = scanning_gut_consensus(W, X0, mu=0.9, T=2000)
        trace = run_consensus(W, X0, method="gut", mu=0.9, T=2000)
        assert trace.divergent and len(ref) < 2000
        assert trace.rows[-1].round == len(ref)
        errors = [r.consensus_error for r in trace.rows[1:]]
        assert errors == [two_temporary_form(X) for X in ref]
        # the last rows are finite stacks whose squares overflow
        assert errors[-1] == math.inf and np.all(np.isfinite(ref[-1]))

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("n", [16, 1024])
    def test_finite_stack_with_overflowing_squares_is_not_flagged(self, n, d):
        W = build_topology("ring", n)
        X0 = np.random.default_rng(n + d).standard_normal((n, d)) * 1e200
        finite = []
        trace = run_consensus(
            W, X0, method="gossip", T=20,
            on_round=lambda t, X: finite.append(bool(np.all(np.isfinite(X)))),
        )
        assert not trace.divergent
        assert all(finite)
        assert [r.consensus_error for r in trace.rows] == [math.inf] * 21


class TestRunConsensus:
    def test_complete_graph_hand_rounds(self):
        mu = 0.4
        X0 = np.array([[0.0], [2.0]])
        seen = {}
        run_consensus(
            COMPLETE2, X0, method="gut", mu=mu, T=2,
            on_round=lambda t, X: seen.__setitem__(t, X.copy()),
        )
        assert np.array_equal(seen[1], [[1.0], [1.0]])
        assert np.allclose(seen[2], [[1 - mu], [1 + mu]], atol=1e-15)
        for X in seen.values():
            assert X.mean() == pytest.approx(1.0, abs=1e-12)

    def test_mu_zero_equals_gossip(self):
        W = build_topology("ring", 16)
        X0 = np.random.default_rng(1).standard_normal((16, 4))
        a = run_consensus(W, X0, method="gut", mu=0.0, T=50)
        b = run_consensus(W, X0, method="gossip", T=50)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.consensus_error == rb.consensus_error

    def test_consensus_start_is_fixed_point(self):
        W = build_topology("ring", 8)
        X0 = np.tile(np.array([3.0, -1.0]), (8, 1))
        for method in ("gossip", "gut", "qg-gossip", "qg-gutm"):
            trace = run_consensus(W, X0, method=method, mu=0.15, beta=0.9, T=20)
            assert all(r.consensus_error == 0.0 for r in trace.rows)

    def test_gossip_monotone(self):
        W = build_topology("ring", 32)
        X0 = np.random.default_rng(2).standard_normal((32, 8))
        errors = [r.consensus_error for r in run_consensus(W, X0, method="gossip", T=200).rows]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_mean_preserved_at_stable_mu(self):
        W = build_topology("ring", 64)
        X0 = np.random.default_rng(3).standard_normal((64, 32))
        mean0 = X0.mean()
        tol = 1e-10 * (1 + abs(mean0))
        for method, mu in (("gut", 0.19), ("qg-gutm", 0.9)):
            drift = []
            run_consensus(
                W, X0, method=method, mu=mu, beta=0.9, T=500,
                on_round=lambda t, X: drift.append(abs(X.mean() - mean0)),
            )
            assert max(drift) <= tol

    def test_tracked_update_beats_gossip_in_stable_regime(self):
        W = build_topology("ring", 64)
        X0 = np.random.default_rng(4).standard_normal((64, 32))
        gossip = run_consensus(W, X0, method="gossip", T=500).rows[-1].consensus_error
        gut = run_consensus(W, X0, method="gut", mu=0.19, T=500).rows[-1].consensus_error
        assert gut < gossip

    def test_divergent_run_truncated_and_flagged(self):
        W = build_topology("ring", 8)
        X0 = np.random.default_rng(5).standard_normal((8, 4))
        trace = run_consensus(W, X0, method="gut", mu=0.9, T=2000)
        assert trace.divergent
        assert trace.rows[-1].round < 2000

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown consensus method"):
            run_consensus(COMPLETE2, np.zeros((2, 1)), method="push-sum")

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 1, got 0"):
            run_consensus(COMPLETE2, np.zeros((2, 1)), method="gossip", T=0)

    def test_comm_accounting_cumulative(self):
        W = build_topology("ring", 16)
        X0 = np.random.default_rng(6).standard_normal((16, 4))
        trace = run_consensus(W, X0, method="gossip", T=10)
        per_round = 2 * 4
        assert [r.comm_scalars for r in trace.rows] == [per_round * t for t in range(11)]


class TestAgainstReferenceRecursions:
    def test_tracked_consensus_matches_transcription(self):
        W = build_topology("ring", 8)
        X0 = np.random.default_rng(7).standard_normal((8, 3))
        ref = two_product_consensus(W.weights, X0, "gut", mu=0.15, beta=0.0, T=40)
        got = []
        run_consensus(
            W, X0, method="gut", mu=0.15, T=40,
            on_round=lambda t, X: got.append(X.copy()) if t > 0 else None,
        )
        for a, b in zip(got, ref):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_exact_arithmetic_mean_preservation_at_large_mu(self):
        # rational-arithmetic oracle: even where floating point overflows,
        # the recursion preserves the agent mean identically
        n, mu = 4, Fraction(9, 10)
        w = [[Fraction(1, 3) if j in (i, (i + 1) % n, (i - 1) % n) else Fraction(0)
              for j in range(n)] for i in range(n)]

        def matvec(m, v):
            return [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]

        X = [Fraction(k, 7) for k in (3, -2, 5, 1)]
        Xp, Yp = list(X), [Fraction(0)] * n
        mean0 = sum(X) / n
        for _ in range(30):
            wX, wXp, wYp = matvec(w, X), matvec(w, Xp), matvec(w, Yp)
            Y = [
                (wX[i] - X[i])
                + mu * (wYp[i] - (wXp[i] - Xp[i]) + (wX[i] - X[i]))
                for i in range(n)
            ]
            Xp, X = X, [X[i] + Y[i] for i in range(n)]
            Yp = Y
            assert sum(X) / n == mean0
        assert max(abs(x) for x in X) > 10**6  # genuinely divergent regime

    def test_momentum_consensus_differs_from_zero_gradient_training_round(self):
        # the momentum consensus recursion keeps a separate displacement
        # buffer; it is NOT the zero-gradient limit of the training-side
        # momentum round (documented behavioral difference)
        from decentrack.algorithms import init_states, run_round

        W = build_topology("ring", 8)
        X0 = np.random.default_rng(8).standard_normal((8, 3))
        trace_states = []
        run_consensus(
            W, X0, method="qg-gutm", mu=0.0, beta=0.9, T=10,
            on_round=lambda t, X: trace_states.append(X.copy()),
        )
        spec = AlgorithmSpec(kind="QG-GUTm", eta=1.0, mu=0.0, beta=0.9)
        states = init_states(X0, W)
        max_dev = 0.0
        for t in range(1, 11):
            states = run_round(states, W, spec, lambda X, r: (np.zeros(len(X)), np.zeros_like(X)))
            max_dev = max(max_dev, float(np.max(np.abs(states.X - trace_states[t]))))
        assert max_dev > 1e-3


class TestDecayedSchedule:
    def test_ten_x_drops_at_half_and_three_quarters(self):
        sched = decayed_schedule(0.1, 100)
        assert sched(0) == 0.1
        assert sched(49) == 0.1
        assert sched(50) == pytest.approx(0.01)
        assert sched(74) == pytest.approx(0.01)
        assert sched(75) == pytest.approx(0.001)
        assert sched(99) == pytest.approx(0.001)


class TestRunTraining:
    def quad_problem(self, **kw):
        base = dict(kind="quadratic", d=4, n_agents=16, zeta=0.0, sigma=0.0, seed=0)
        base.update(kw)
        return make_problem(SyntheticProblemSpec(**base))

    def test_iid_noiseless_reaches_optimum(self):
        W = build_topology("ring", 16)
        problem = self.quad_problem()
        eta = 0.9 * spectral_gap_eta(W)
        result = run_training(
            W, problem, AlgorithmSpec(kind="DSGD", eta=eta), T=4000,
            batch_size=None, seeds=(1,), eval_every=500, decay=False,
        )
        assert result.summary["final_loss_mean"] <= problem.f_star + 1e-6

    def test_comm_accounting(self):
        W = build_topology("ring", 16)
        problem = self.quad_problem()
        spec = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1)
        result = run_training(
            W, problem, spec, T=20, batch_size=None, seeds=(1,), eval_every=5
        )
        assert result.traces[0].rows[-1].comm_scalars == 20 * comm_cost(spec, 4, W)

    def test_no_seeds_rejected(self):
        W = build_topology("ring", 16)
        spec = AlgorithmSpec(kind="DSGD", eta=0.05)
        with pytest.raises(ValueError, match="at least one seed is required"):
            run_training(W, self.quad_problem(), spec, T=5, seeds=())

    @pytest.mark.parametrize(
        "kind", ["DSGD", "DSGDm", "DSGDmN", "QG-DSGDm", "QG-DSGDmN", "GT", "GUT-bias"]
    )
    def test_comm_column_counts_mixed_vectors(self, kind):
        W, d = build_topology("ring", 16), 10
        mix, calls = W.mix, []

        def counted(X):
            calls.append(X.shape)
            return mix(X)

        W.mix = counted
        problem = self.quad_problem(d=d, zeta=1.0, sigma=0.1)
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.15, beta=0.9)
        column = []
        # a T-round trace is the first T rows of a longer one, so each run's
        # last row is checked against the products counted in that run
        for T in range(1, 5):
            calls.clear()
            rows = run_training(
                W, problem, spec, T=T, batch_size=None, seeds=(1,), eval_every=T
            ).traces[0].rows
            # init_states mixes the shared start, which every agent already holds
            column.append(rows[-1].comm_scalars)
            assert column[-1] == (len(calls) - 1) * 2 * d, T
        if kind == "GT":
            assert column == [20, 60, 100, 140]  # x alone in round 0, x and y after

    def test_deterministic_traces(self):
        W = build_topology("ring", 16)
        spec = SyntheticProblemSpec(
            kind="quadratic", d=4, n_agents=16, zeta=1.0, sigma=0.1, seed=0
        )
        csvs = []
        for _ in range(2):
            result = run_training(
                build_topology("ring", 16),
                make_problem(spec),
                AlgorithmSpec(kind="QG-GUTm", eta=0.05, mu=0.05, beta=0.9),
                T=30, batch_size=None, seeds=(1, 2), eval_every=10,
            )
            csvs.append([tr.to_csv() for tr in result.traces])
        assert csvs[0] == csvs[1]

    def test_divergent_run_flagged_not_raised(self):
        W = build_topology("ring", 16)
        problem = self.quad_problem(zeta=1.0)
        result = run_training(
            W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.9), T=1200,
            batch_size=None, seeds=(1,), eval_every=100, decay=False,
        )
        assert result.traces[0].divergent

    @pytest.mark.parametrize("eta,mu", [(1e300, 0.5), (0.05, 0.1)], ids=["diverging", "stable"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_divergence_matches_a_scan_every_round(self, kind, eta, mu):
        # run_round returns a non-finite X as it is; the trace stops before
        # the first round whose X holds a non-finite entry
        W, T, seed = build_topology("ring", 8), 50, 1
        problem = self.quad_problem(n_agents=8, zeta=1.0, sigma=0.1)
        spec = AlgorithmSpec(kind=kind, eta=eta, mu=mu, beta=0.5)
        x0 = 0.1 * np.random.default_rng(seed).standard_normal(problem.dim)
        oracle = make_oracle(problem, None, seed=seed)
        state = init_states(np.broadcast_to(x0, (8, problem.dim)), W)
        finite_rounds, scanned_divergent = 0, False
        for _ in range(T):
            state = run_round(state, W, spec, oracle)
            if not np.all(np.isfinite(state.X)):
                scanned_divergent = True
                break
            finite_rounds += 1
        trace = run_training(
            W, problem, spec, T=T, batch_size=None, seeds=(seed,), decay=False
        ).traces[0]
        assert (trace.divergent, len(trace.rows)) == (scanned_divergent, finite_rounds)

    def test_csv_header_and_shape(self):
        W = build_topology("ring", 16)
        result = run_training(
            W, self.quad_problem(), AlgorithmSpec(kind="DSGD", eta=0.01),
            T=10, batch_size=None, seeds=(1,), eval_every=5,
        )
        lines = result.traces[0].to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        assert all(len(line.split(",")) == 7 for line in lines)


def spectral_gap_eta(W):
    from decentrack.algorithms import validate_hyperparameters
    from decentrack.topology import spectral_stats

    return validate_hyperparameters(0.1, 0.0, spectral_stats(W).rho, 1.0).eta_max


class TestCheckEquivalence:
    def test_mu_zero_near_exact(self):
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        report = check_equivalence(
            W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.0), T=50
        )
        assert report.max_deviation <= 1e-12

    def test_zero_tolerance_fails(self):
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        report = check_equivalence(
            W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.5), T=20, tol=0.0
        )
        assert not report.passed
        assert report.max_deviation > 0

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # a negative or NaN tolerance failed every run and an infinite one
        # passed every run, whatever the deviation
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        spec = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1)
        message = f"equivalence tol must be finite and >= 0, got {tol}"
        with pytest.raises(ValueError, match=message):
            check_equivalence(W, problem, spec, T=5, tol=tol)

    def test_memory_does_not_grow_with_rounds(self):
        # the formulations run in lockstep with one state each; keeping every
        # round of the four trajectories took 4x the peak at 4x the rounds
        W = build_topology("ring", 64)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=8, n_agents=64, zeta=1.0, sigma=0.1, seed=0)
        )
        spec = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.5)
        check_equivalence(W, problem, spec, T=1)
        peaks = {}
        for T in (100, 400):
            tracemalloc.start()
            try:
                check_equivalence(W, problem, spec, T=T)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] <= 1.25 * peaks[100]


class TestStartLifetime:
    """No frame keeps a driver's start once the rounds have replaced it.  A
    training local that held the start State through the run took 769 minor
    faults per quad-ring1024 run against 641 (README performance notes)."""

    def test_training_start_is_freed_once_round_1_begins(self, monkeypatch):
        starts, alive = [], []
        init, step = harness.init_states, harness.run_round

        def capture(*args):
            state = init(*args)
            starts.append(weakref.ref(state))
            return state

        def observe(*args):
            alive.append(starts[-1]() is not None)
            return step(*args)

        monkeypatch.setattr(harness, "init_states", capture)
        monkeypatch.setattr(harness, "run_round", observe)
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        spec = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1)
        run_training(W, problem, spec, T=3, seeds=(1, 2))
        assert alive == [True, False, False] * 2

    @pytest.mark.parametrize("method", CONSENSUS_METHODS)
    def test_consensus_start_is_freed_by_round_2(self, method):
        start, alive = [], {}

        def on_round(t, X):
            if t == 0:
                start.append(weakref.ref(X))
            alive[t] = start[0]() is not None

        X0 = np.random.default_rng(7).standard_normal((8, 3))
        run_consensus(
            build_topology("ring", 8), X0, method, mu=0.1, beta=0.5, T=4, on_round=on_round
        )
        assert alive[0] and not any(alive[t] for t in (2, 3, 4))


class TestTracerHooks:
    """The names the benchmark's tracer swaps to time the package, hard-coded
    from ``perfbench/spans.py``: it wraps these ``harness`` attributes and
    assigns a timed ndarray-subclass view to ``W.weights``."""

    # harness attribute -> the drivers that call it through that name
    USES = {
        "run_round": {"run_training", "check_equivalence"},
        "init_states": {"run_training", "check_equivalence"},
        "comm_cost": {"run_training", "run_consensus"},
        "consensus_error": {"run_training", "run_consensus"},
    }

    def test_swapped_harness_names_are_seen_by_the_drivers(self, monkeypatch):
        seen = set()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                seen.add(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in self.USES:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        spec = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1)
        X0 = np.random.default_rng(4).standard_normal((8, 3))
        drivers = {
            "run_training": lambda: harness.run_training(W, problem, spec, T=3, seeds=(1,)),
            "run_consensus": lambda: harness.run_consensus(W, X0, "gut", mu=0.1, T=3),
            "check_equivalence": lambda: harness.check_equivalence(W, problem, spec, T=3),
        }
        for driver, run in drivers.items():
            seen.clear()
            run()
            assert seen == {name for name, users in self.USES.items() if driver in users}, driver

    def test_subclass_weights_view_is_kept_and_reached_by_dense_mix(self):
        matmuls = []

        class Timed(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul and method == "__call__":
                    matmuls.append(ufunc)
                plain = tuple(x.view(np.ndarray) if isinstance(x, Timed) else x for x in inputs)
                return getattr(ufunc, method)(*plain, **kwargs)

        W = build_topology("ring", 16)
        assert not W.gather
        X = np.random.default_rng(5).standard_normal((16, 3))
        expected = W.mix(X)
        view = W.weights.view(Timed)
        assert not view.flags.writeable
        W.weights = view
        assert W.weights is view
        assert np.array_equal(W.mix(X), expected) and len(matmuls) == 1
