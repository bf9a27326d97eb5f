import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decentrack.algorithms import (
    GUT_FAMILY,
    KINDS,
    RULES,
    AlgorithmSpec,
    comm_cost,
    init_states,
    run_round,
    validate_hyperparameters,
)
from decentrack.harness import decayed_schedule
from decentrack.models import SyntheticProblemSpec, make_oracle, make_problem
from decentrack.topology import as_mixing, build_topology

UNIFORM2 = as_mixing(np.full((2, 2), 0.5))


def zero_oracle(X, rnd):
    return np.zeros(len(X)), np.zeros_like(X)


def quad_oracle(b):
    b = np.asarray(b, dtype=float)

    def oracle(X, rnd):
        diff = X - b
        return 0.5 * np.sum(diff * diff, axis=1), diff

    return oracle


def run_trajectory(kind, W, X0, oracle, T, eta, **hp):
    """The iterates of T rounds; ``eta`` is a step size or a schedule t -> step,
    run as one spec per round."""
    states = init_states(np.asarray(X0, dtype=float), W)
    out = []
    for t in range(T):
        spec = AlgorithmSpec(kind=kind, eta=eta(t) if callable(eta) else eta, **hp)
        states = run_round(states, W, spec, oracle)
        out.append(states.X)
    return out


class TestInitStates:
    def test_identical_rows_aggregate_is_self(self):
        W = build_topology("ring", 8)
        X0 = np.tile(np.arange(3.0), (8, 1))
        states = init_states(X0, W)
        assert np.array_equal(states.S, states.X)

    def test_two_agent_aggregate(self):
        states = init_states(np.array([[0.0], [2.0]]), UNIFORM2)
        assert states.S[:, 0].tolist() == [1.0, 1.0]

    def test_buffers_zero(self):
        W = build_topology("ring", 4)
        X0 = np.random.default_rng(0).standard_normal((4, 3))
        states = init_states(X0, W)
        for buf in (states.Y, states.D, states.M, states.B):
            assert np.all(buf == 0)

    def test_zero_buffers_are_one_broadcast_view(self):
        # a view of one scalar: read-only by construction, and it allocates nothing
        states = init_states(np.ones((4, 2)), build_topology("ring", 4))
        for buf in (states.D, states.M, states.B):
            assert buf is states.Y
        assert not states.Y.flags.writeable
        assert states.Y.strides == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="must be"):
            init_states(np.zeros((3, 2)), UNIFORM2)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="d >= 1"):
            init_states(np.zeros((8, 0)), build_topology("ring", 8))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            init_states(np.full((2, 1), np.inf), UNIFORM2)


class TestTrackedUpdateRound:
    def test_hand_example_two_agents(self):
        # quadratic targets b = [0, 2]; from x = [0, 2] the mixed points are
        # [1, 1], gradients [1, -1], deltas [-1, 1] and one eta=0.5, mu=0
        # step lands on [0.5, 1.5]
        traj = run_trajectory(
            "GUT", UNIFORM2, [[0.0], [2.0]], quad_oracle([[0.0], [2.0]]),
            T=1, eta=0.5, mu=0.0,
        )
        assert np.array_equal(traj[0], [[0.5], [1.5]])

    def test_mu_zero_is_exactly_mixed_gradient_step(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(1)
        X0 = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        eta = 0.2
        traj = run_trajectory("GUT", W, X0, quad_oracle(b), T=1, eta=eta, mu=0.0)
        S = W.weights @ X0
        assert np.array_equal(traj[0], S - eta * (S - b))

    def test_consensus_fixed_point(self):
        W = build_topology("ring", 8)
        X0 = np.tile(np.array([2.0, -1.0]), (8, 1))
        traj = run_trajectory("GUT", W, X0, zero_oracle, T=3, eta=0.1, mu=0.9)
        for X in traj:
            assert np.array_equal(X, X0)

    def test_zero_gradient_mean_preserved(self):
        W = build_topology("ring", 16)
        X0 = np.random.default_rng(2).standard_normal((16, 4))
        for kind in ("GUT", "QG-GUTm", "GUT-matrix", "GUT-bias", "GUT-memeff"):
            traj = run_trajectory(
                kind, W, X0, zero_oracle, T=20, eta=0.1, mu=0.15, beta=0.9
            )
            for X in traj:
                assert np.max(np.abs(X.mean(axis=0) - X0.mean(axis=0))) <= 1e-12

    def test_neighbor_copy_consistency(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(3)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        for kind in ("GUT", "GUT-memeff", "QG-GUTm"):
            spec = AlgorithmSpec(kind=kind, eta=0.1, mu=0.15, beta=0.9)
            states = init_states(X0, W)
            for _ in range(10):
                states = run_round(states, W, spec, oracle)
                assert np.max(np.abs(states.S - W.weights @ states.X)) <= 1e-10

    def test_one_oracle_call_at_the_rule_point_and_losses_returned(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(16)
        X0 = rng.standard_normal((8, 3))
        base = quad_oracle(rng.standard_normal((8, 3)))
        local = {"DSGD", "DSGDm", "DSGDmN", "QG-DSGDm", "QG-DSGDmN", "GT"}
        for kind in KINDS:
            calls = []

            def oracle(X, rnd):
                out = base(X, rnd)
                calls.append((X.copy(), rnd, out[0]))
                return out

            spec = AlgorithmSpec(kind=kind, eta=0.1, mu=0.1, beta=0.5)
            states = init_states(X0, W)
            assert states.losses is None
            states = run_round(states, W, spec, oracle)
            (point, rnd, losses), = calls
            assert rnd == 0
            assert np.array_equal(point, X0 if kind in local else W.weights @ X0), kind
            assert states.losses is losses

    def test_overflowing_round_returns_non_finite_rows(self):
        # the round returns what its rule computed; the drivers decide divergence
        spec = AlgorithmSpec(kind="GUT", eta=1e150, mu=0.0)
        states = init_states(np.array([[1.0], [1.0]]), UNIFORM2)
        states = run_round(states, UNIFORM2, spec, quad_oracle([[1e200], [1e200]]))
        assert states.round == 1
        assert np.array_equal(states.X, np.full((2, 1), np.inf))


class TestMomentumVariants:
    def test_beta_zero_matches_plain_tracked_update(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(4)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        ref = run_trajectory("GUT", W, X0, oracle, T=15, eta=0.05, mu=0.15)
        for kind in ("QG-GUTm", "QG-GUTm-impl", "GUTm", "GUTmN", "QG-GUTmN"):
            traj = run_trajectory(kind, W, X0, oracle, T=15, eta=0.05, mu=0.15, beta=0.0)
            for X, R in zip(traj, ref):
                assert np.array_equal(X, R)

    def test_mu_beta_zero_is_mixed_gradient_step(self):
        rng = np.random.default_rng(5)
        X0 = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        traj = run_trajectory("QG-GUTm", UNIFORM2, X0, quad_oracle(b), T=1, eta=0.3)
        S = UNIFORM2.weights @ X0
        assert np.array_equal(traj[0], S - 0.3 * (S - b))

    def test_variants_distinct_at_positive_beta(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(6)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        kinds = ("QG-GUTm", "QG-GUTm-impl", "GUTm")
        finals = {
            k: run_trajectory(k, W, X0, oracle, T=10, eta=0.05, mu=0.05, beta=0.9)[-1]
            for k in kinds
        }
        assert np.max(np.abs(finals["QG-GUTm"] - finals["QG-GUTm-impl"])) > 1e-8
        assert np.max(np.abs(finals["QG-GUTm"] - finals["GUTm"])) > 1e-8

    def test_nesterov_flag_changes_trajectory(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal((8, 2))
        oracle = quad_oracle(rng.standard_normal((8, 2)))
        plain = run_trajectory("QG-GUTm", W, X0, oracle, T=5, eta=0.05, mu=0.05, beta=0.9)
        nest = run_trajectory("QG-GUTmN", W, X0, oracle, T=5, eta=0.05, mu=0.05, beta=0.9)
        assert np.max(np.abs(plain[-1] - nest[-1])) > 0


def transcription(kind, Wd, X, b, T, eta, mu, beta):
    """The rules written out from their update equations, with a dense W, every
    product taken fresh (W y_prev, W m, W(x - x_prev)), and the gradient
    g = x - b of quad_oracle(b); ``eta`` is a step size or a schedule t -> step."""
    m = np.zeros_like(X)
    y = np.zeros_like(X)
    delta_prev = np.zeros_like(X)
    X_prev = X
    out = []
    steps = [eta(t) if callable(eta) else eta for t in range(T)]
    for eta in steps:
        if kind in ("DSGDm", "DSGDmN"):
            g = X - b
            m = beta * m + g
            step = g + beta * m if kind == "DSGDmN" else m
            Xn = Wd @ (X - eta * step)
        elif kind in ("QG-DSGDm", "QG-DSGDmN"):
            g = X - b
            look = beta * m + (1 - beta) * g if kind == "QG-DSGDmN" else m
            Xn = Wd @ (X - eta * (g + beta * look))
            m = beta * m + (1 - beta) * (X - Xn) / eta
        else:
            # tracked update at the mixed point
            s = Wd @ X
            g = s - b
            delta = g - (s - X) / eta
            if kind in ("GUT", "GUT-matrix"):
                y = delta + mu * (Wd @ y - (s - X) / eta - delta_prev)
            elif kind == "RuleA":
                y = delta + mu * (Wd @ y - delta_prev)
            elif kind == "RuleB":
                dx = X - X_prev
                y = delta + mu * (-(Wd @ dx - dx) / eta)
            else:
                # the momentum kinds correct with W m
                scale = 1 + beta if kind == "QG-GUTm-impl" else 1
                y = delta + mu * (Wd @ m - scale * (s - X) / eta - delta_prev)
            if kind in ("QG-GUTm", "QG-GUTmN"):
                m_new = beta * m + (1 - beta) * y
                Xn = X - eta * (1 - beta) * y - eta * beta * (m_new if kind == "QG-GUTmN" else m)
            elif kind in ("GUTm", "GUTmN", "QG-GUTm-impl"):
                m_new = beta * m + y
                Xn = X - eta * y - eta * beta * (m_new if kind == "GUTmN" else m)
            else:
                m_new, Xn = m, X - eta * y
            m, delta_prev = m_new, delta
        X_prev, X = X, Xn
        out.append(X)
    return out


def cycling_step(t):
    return (0.05, 0.1, 0.02)[t % 3]


class TestMomentumTranscriptions:
    @pytest.mark.parametrize(
        "kind",
        [
            "DSGDm", "DSGDmN", "QG-DSGDm", "QG-DSGDmN",
            "GUTm", "GUTmN", "QG-GUTm", "QG-GUTmN", "QG-GUTm-impl",
            "GUT", "GUT-matrix", "RuleA", "RuleB",
        ],
    )
    def test_matches_update_equations(self, kind):
        # the rules take W sent from their one product per round, (S - S')/eta
        # with the step of the round that sent it; the transcription mixes it
        # afresh, so this pins the two-product equations, at a constant step
        # and at a cycling one
        W = build_topology("ring", 8)
        rng = np.random.default_rng(15)
        X0 = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        hp = dict(mu=0.15, beta=0.9)
        for step in (0.05, cycling_step):
            traj = run_trajectory(kind, W, X0, quad_oracle(b), T=200, eta=step, **hp)
            ref = transcription(kind, W.weights, X0, b, T=200, eta=step, **hp)
            for X, R in zip(traj, ref):
                # 1e-12 absolute while the iterate stays below 100; at beta = 0.9
                # GUTmN (and GUTm and QG-GUTm-impl under the cycling step) grow
                # without bound, to 5e42 by round 200, and are then held to
                # 1e-12 of the iterate's size
                size = np.max(np.abs(R))
                assert np.max(np.abs(X - R)) <= 1e-12 * (size if size > 100 else 1.0), step


class TestBaselines:
    def test_dsgd_zero_gradients_is_gossip(self):
        W = build_topology("ring", 8)
        X0 = np.random.default_rng(8).standard_normal((8, 2))
        traj = run_trajectory("DSGD", W, X0, zero_oracle, T=1, eta=0.1)
        assert np.array_equal(traj[0], W.weights @ X0)

    def test_dsgd_hand_example(self):
        # local gradients vanish at x = b, so one step is pure averaging
        traj = run_trajectory(
            "DSGD", UNIFORM2, [[0.0], [2.0]], quad_oracle([[0.0], [2.0]]), T=1, eta=0.1
        )
        assert np.array_equal(traj[0], [[1.0], [1.0]])

    def test_qg_dsgdm_beta_zero_is_dsgd(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(9)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        b = run_trajectory("DSGD", W, X0, oracle, T=10, eta=0.1)
        for kind in ("QG-DSGDm", "DSGDm", "DSGDmN", "QG-DSGDmN"):
            a = run_trajectory(kind, W, X0, oracle, T=10, eta=0.1, beta=0.0)
            for X, R in zip(a, b):
                assert np.array_equal(X, R)

    def test_local_vs_mixed_evaluation_points_differ(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(10)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        dsgd = run_trajectory("DSGD", W, X0, oracle, T=1, eta=0.1)
        gut0 = run_trajectory("GUT", W, X0, oracle, T=1, eta=0.1, mu=0.0)
        assert np.max(np.abs(dsgd[0] - gut0[0])) > 1e-8


class TestGradientTracking:
    def test_identical_setup_matches_dsgd(self):
        W = build_topology("ring", 8)
        X0 = np.tile(np.array([1.0, -2.0]), (8, 1))
        b = np.tile(np.array([0.0, 0.0]), (8, 1))
        gt = run_trajectory("GT", W, X0, quad_oracle(b), T=1, eta=0.1)
        dsgd = run_trajectory("DSGD", W, X0, quad_oracle(b), T=1, eta=0.1)
        assert np.allclose(gt[0], dsgd[0], atol=1e-14)

    def test_second_round_tracks_mean_gradient(self):
        # constant per-agent gradients: after y^0 = g^0, the next round gives
        # y^1 = W g - g + g = mean gradient at both agents (uniform n=2 mix)
        g = np.array([[3.0], [-1.0]])

        def oracle(X, rnd):
            return np.zeros(len(X)), g.copy()

        spec = AlgorithmSpec(kind="GT", eta=0.1)
        states = init_states(np.array([[0.0], [2.0]]), UNIFORM2)
        states = run_round(states, UNIFORM2, spec, oracle)
        states = run_round(states, UNIFORM2, spec, oracle)
        assert np.allclose(states.Y, np.tile(g.mean(axis=0), (2, 1)), atol=1e-12)

    def test_double_communication_cost(self):
        W = build_topology("ring", 16)
        gt = comm_cost(AlgorithmSpec(kind="GT", eta=0.1), 100, W)
        gut = comm_cost(AlgorithmSpec(kind="GUT", eta=0.1), 100, W)
        assert (gut, gt) == (200, 400)


class TestAblationRules:
    def test_mu_zero_coincides_with_tracked_update(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(11)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        ref = run_trajectory("GUT", W, X0, oracle, T=10, eta=0.1, mu=0.0)
        for kind in ("RuleA", "RuleB"):
            traj = run_trajectory(kind, W, X0, oracle, T=10, eta=0.1, mu=0.0)
            for X, R in zip(traj, ref):
                assert np.array_equal(X, R)

    def test_rule_b_first_round_correction_vanishes(self):
        # X^{-1} = X^0, so Rule-b's displacement correction is zero and the
        # first round equals the mu=0 step even at mu > 0
        W = build_topology("ring", 8)
        rng = np.random.default_rng(12)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        with_mu = run_trajectory("RuleB", W, X0, oracle, T=1, eta=0.1, mu=0.9)
        without = run_trajectory("RuleB", W, X0, oracle, T=1, eta=0.1, mu=0.0)
        assert np.array_equal(with_mu[0], without[0])

    def test_rules_distinct_from_tracked_update(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(13)
        X0 = rng.standard_normal((8, 3))
        oracle = quad_oracle(rng.standard_normal((8, 3)))
        ref = run_trajectory("GUT", W, X0, oracle, T=10, eta=0.05, mu=0.9)
        for kind in ("RuleA", "RuleB"):
            traj = run_trajectory(kind, W, X0, oracle, T=10, eta=0.05, mu=0.9)
            assert np.max(np.abs(traj[-1] - ref[-1])) > 1e-6


class TestFormulationsOffTheCommonStart:
    """The four GUT formulations agree from any start at any step: GUT-bias's
    B is GUT's Y - D, formed at the step of the round before."""

    @staticmethod
    def assert_agree(W, X0, oracle, T, eta, mu):
        ref = run_trajectory("GUT", W, X0, oracle, T=T, eta=eta, mu=mu)
        for kind in GUT_FAMILY[1:]:
            traj = run_trajectory(kind, W, X0, oracle, T=T, eta=eta, mu=mu)
            for t, (X, R) in enumerate(zip(traj, ref)):
                assert np.max(np.abs(X - R) / (1.0 + np.abs(R))) <= 1e-12, (kind, t)

    @pytest.mark.parametrize("graph, n", [("ring", 16), ("ring", 256), ("dyck", 32)])
    def test_four_formulations_agree_from_a_random_start_under_decay(self, graph, n):
        W = build_topology(graph, n)
        rng = np.random.default_rng(20)
        oracle = quad_oracle(rng.standard_normal((n, 5)))
        X0 = rng.standard_normal((n, 5))
        self.assert_agree(W, X0, oracle, T=200, eta=decayed_schedule(0.1, 200), mu=0.1)

    # torus-16's tracked recursion is stable only below mu = 1/11
    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.sampled_from([("ring", 16), ("dyck", 32), ("torus", 16)]),
        mu=st.floats(0.0, 0.08),
        steps=st.lists(st.floats(0.01, 0.1), min_size=50, max_size=50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_four_formulations_agree_at_any_step_schedule(self, graph, mu, steps, seed):
        W = build_topology(*graph)
        rng = np.random.default_rng(seed)
        oracle = quad_oracle(rng.standard_normal((W.n, 3)))
        X0 = rng.standard_normal((W.n, 3))
        # round t runs at steps[t]
        self.assert_agree(W, X0, oracle, T=50, eta=steps.__getitem__, mu=mu)


class TestMemeffAggregate:
    """GUT-memeff updates its aggregate S = W X by W y and never recomputes
    it, so S carries the rounding of every round."""

    def test_aggregate_stays_w_x_in_float64(self):
        # on the noisy ring-16 quadratic the gap read 2.8e-15 max|X| at
        # round 1000 and 9.2e-15 at round 5000; a change to the order of
        # the aggregate's arithmetic shows here
        W = build_topology("ring", 16)
        spec = SyntheticProblemSpec(kind="quadratic", d=8, n_agents=16, zeta=1.0, sigma=0.1)
        oracle = make_oracle(make_problem(spec))
        algo = AlgorithmSpec(kind="GUT-memeff", eta=0.05, mu=0.1)
        state = init_states(np.zeros((16, 8)), W)
        for t in range(5000):
            state = run_round(state, W, algo, oracle)
            gap = np.max(np.abs(state.S - W.mix(state.X)))
            assert gap <= 1e-12 * np.max(np.abs(state.X)), t


def expression_round(kind, st, W, G, eta, mu):
    """A GUT, GUT-matrix, RuleA or RuleB round as fresh-array expressions of its
    one-product update equations: Y holds W y_prev; RuleB keeps only X, S and
    B, its last mixing residual r = s - x."""
    correction = (st.S - st.X) / eta
    delta = G - correction
    if kind in ("GUT", "GUT-matrix"):
        mc = mu * (st.Y - correction - st.D)
    elif kind == "RuleA":
        mc = mu * (st.Y - st.D)
    else:
        r = st.S - st.X
        mc = mu * (-(r - (r if st.round == 0 else st.B)) / eta)
    Xn = st.X - eta * (delta + mc) if kind == "GUT-matrix" else st.S - eta * (G + mc)
    Sn = W.mix(Xn)
    if kind == "RuleB":
        return dict(X=Xn, S=Sn, B=r)
    return dict(X=Xn, S=Sn, Y=(st.S - Sn) / eta, D=delta)


class TestInPlaceRounds:
    """The rounds that compute in place give the expressions' bits and
    leave the state they start from untouched."""

    @pytest.mark.parametrize("n", [8, 256])  # dense and gather mixing
    @pytest.mark.parametrize("kind", ["GUT", "GUT-matrix", "RuleA", "RuleB"])
    def test_match_fresh_array_expressions(self, kind, n):
        W = build_topology("ring", n)
        prob = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=5, n_agents=n, zeta=1.0, sigma=0.1, seed=3)
        )
        oracle = make_oracle(prob, seed=9)
        spec = AlgorithmSpec(kind=kind, eta=0.1, mu=0.3)
        state = init_states(np.random.default_rng(15).standard_normal((n, 5)), W)
        for _ in range(12):
            for array in (state.X, state.S, state.Y, state.D, state.B):
                array.setflags(write=False)
            _, G = oracle(state.S, state.round)
            expected = expression_round(kind, state, W, G, spec.eta, spec.mu)
            state = run_round(state, W, spec, oracle)
            for name, array in expected.items():
                assert getattr(state, name).tobytes() == array.tobytes(), name

    @pytest.mark.parametrize("n", [8, 256])  # dense and gather mixing
    @pytest.mark.parametrize("kind", ["GUTm", "GUTmN", "QG-GUTm", "QG-GUTmN", "QG-GUTm-impl"])
    def test_momentum_rounds_leave_their_start_state_untouched(self, kind, n):
        W = build_topology("ring", n)
        rng = np.random.default_rng(16)
        oracle = quad_oracle(rng.standard_normal((n, 5)))
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.15, beta=0.9)
        state = init_states(rng.standard_normal((n, 5)), W)
        for _ in range(12):
            for name in ("X", "S", "Y", "D", "M", "B"):
                getattr(state, name).setflags(write=False)
            state = run_round(state, W, spec, oracle)

    @pytest.mark.parametrize("n", [8, 256])  # dense and gather mixing
    def test_memeff_matches_fresh_array_transcription(self, n):
        # GUT-memeff's Y holds W y_prev, so the transcription keeps its own y_prev
        W = build_topology("ring", n)
        rng = np.random.default_rng(18)
        oracle = quad_oracle(rng.standard_normal((n, 5)))
        spec = AlgorithmSpec(kind="GUT-memeff", eta=0.1, mu=0.3)
        state = init_states(rng.standard_normal((n, 5)), W)
        X, S, Y, D = state.X, state.S, np.zeros_like(state.X), np.zeros_like(state.X)
        for _ in range(12):
            for name in ("X", "S", "Y", "D"):
                getattr(state, name).setflags(write=False)
            _, G = oracle(S, state.round)
            correction = (S - X) / spec.eta
            delta = G - correction
            Y = delta + spec.mu * (W.mix(Y) - correction - D)
            X, S, D = X - spec.eta * Y, S - spec.eta * W.mix(Y), delta
            state = run_round(state, W, spec, oracle)
            assert state.X.tobytes() == X.tobytes()
            assert state.S.tobytes() == S.tobytes()


class TestKeptBuffers:
    """A round returns exactly the buffers that a later round of its kind reads."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_returned_buffers_are_the_read_ones(self, kind):
        W = build_topology("ring", 16)
        rng = np.random.default_rng(19)
        oracle = quad_oracle(rng.standard_normal((16, 4)))
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.15, beta=0.5)
        start = init_states(rng.standard_normal((16, 4)), W)
        for _ in range(2):  # past GT's and RuleB's round-0 branches
            start = run_round(start, W, spec, oracle)
        after = run_round(start, W, spec, oracle)
        buffers = ("Y", "D", "M", "B")
        returned = {name for name in buffers if getattr(after, name) is not getattr(start, name)}
        read = set()
        for name in buffers:
            # a buffer is read when its NaN reaches X within two rounds
            state = dataclasses.replace(start, **{name: np.full_like(start.X, np.nan)})
            for _ in range(2):
                state = run_round(state, W, spec, oracle)
            if not np.all(np.isfinite(state.X)):
                read.add(name)
        assert read == returned


class TestMixCount:
    """Each rule makes one product with W per vector its agents send."""

    @pytest.mark.parametrize("n", [16, 256])  # dense and gather mixing
    @pytest.mark.parametrize("kind", KINDS)
    def test_mix_calls_per_round_equal_sends(self, kind, n):
        W = build_topology("ring", n)
        mix, calls = W.mix, []

        def counted(X):
            calls.append(X.shape)
            return mix(X)

        W.mix = counted
        rng = np.random.default_rng(17)
        oracle = quad_oracle(rng.standard_normal((n, 4)))
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.15, beta=0.9)
        state = init_states(rng.standard_normal((n, 4)), W)
        for t in range(20):
            calls.clear()
            state = run_round(state, W, spec, oracle)
            # GT's first y is the local gradient, which nothing mixes
            rule = RULES[kind]
            sends = rule.first_sends if t == 0 and rule.first_sends is not None else rule.sends
            assert len(calls) == sends, t


class TestMeanPath:
    """W is doubly stochastic and every rule is linear in its buffers with
    scalar coefficients, so the agents' mean follows the same kind run on one
    agent whose oracle returns, each round, the n-agent run's mean gradient."""

    GRAPHS = {"ring16": ("ring", 16), "dyck32": ("dyck", 32), "torus16": ("torus", 16)}

    def quadratics(self, graph, seed):
        """W, a start, and the oracle of heterogeneous diagonal quadratics
        f_i(x) = sum_k a_ik (x_k - b_ik)^2 / 2 with the list it appends
        each round's mean gradient to."""
        W = build_topology(*self.GRAPHS[graph])
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, (W.n, 6))
        b = rng.standard_normal((W.n, 6))
        X0 = rng.standard_normal((W.n, 6))
        mean_grads = []

        def oracle(X, rnd):
            diff = X - b
            G = a * diff
            mean_grads.append(G.mean(axis=0))
            return 0.5 * np.sum(G * diff, axis=1), G

        return W, X0, oracle, mean_grads

    def mean_path(self, kind, graph, seed, T, **hp):
        """The n-agent iterates and the one-agent run fed their mean gradient."""
        W, X0, oracle, mean_grads = self.quadratics(graph, seed)

        def mean_oracle(x, rnd):
            return np.zeros(1), mean_grads[rnd][None, :].copy()

        agents = run_trajectory(kind, W, X0, oracle, T=T, **hp)
        single = run_trajectory(
            kind, as_mixing([[1.0]]), X0.mean(axis=0, keepdims=True), mean_oracle, T=T, **hp
        )
        return agents, single

    @staticmethod
    def assert_mean_followed(agents, single, stack_scale=False):
        """The mean x_bar of each X_t is the one-agent x_t within 1e-10
        relative to 1 + |x_bar|, or, with ``stack_scale``, to 1 + max|X_t|:
        the scale of the values the mean sums, and so of its rounding."""
        for X, x in zip(agents, single):
            x_bar = X.mean(axis=0)
            scale = 1.0 + (np.max(np.abs(X)) if stack_scale else np.abs(x_bar))
            assert np.max(np.abs(x_bar - x[0]) / scale) <= 1e-10

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_mean_follows_one_agent_fed_the_mean_gradient(self, kind, graph):
        hp = dict(eta=0.05, mu=0.1, beta=0.5)
        self.assert_mean_followed(*self.mean_path(kind, graph, 13, T=300, **hp))

    @settings(max_examples=150, deadline=None)
    @given(
        graph=st.sampled_from(list(GRAPHS)),
        kind=st.sampled_from(KINDS),
        eta=st.floats(0.005, 0.2),
        mu=st.floats(0.0, 0.3),
        beta=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    # max|X_t| reaches 7.7e5 here, where GUT-memeff's mean is 1.28e-10 of
    # 1 + |x_bar| and 1.5e-15 of 1 + max|X_t| from the one-agent run
    @example(graph="ring16", kind="GUT-memeff", eta=0.0546875, mu=0.240234375, beta=0.0, seed=180)
    def test_mean_path_over_hyperparameters(self, graph, kind, eta, mu, beta, seed):
        # the one-agent run is fed recorded gradients, so nothing damps its
        # rounding error; at mu + beta >= 1 a momentum buffer mode of GUTm and
        # QG-GUTm-impl grows by about mu + beta per round (a 1e-16 buffer
        # change grew to 1.6e-8 in 200 rounds), so those draws are left out
        assume(mu + beta < 1)
        # mu reaches past the stable cap of some kinds and graphs: a run that
        # grows past 1e6 is discarded, and one that overflows does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            agents, single = self.mean_path(kind, graph, seed, T=200, eta=eta, mu=mu, beta=beta)
        assume(all(np.max(np.abs(X)) <= 1e6 for X in agents))
        # a kept run's X_t reach 1e6 while its mean can stay near 0, so the
        # mean's rounding is bounded at the scale of X_t, not of the mean
        self.assert_mean_followed(agents, single, stack_scale=True)

    def rounds_keep_the_mean(self, kind, graph, seed, T, **hp):
        """Each round, one agent started from the agent-means of every buffer
        of the n-agent state, at its round, and fed the round's mean gradient
        reaches the means of the next n-agent state: X and S within 1e-10
        relative to 1 + |x_bar|.  Y, D, M and B are in gradient units,
        differences of x over eta, so eta times each is held to that bound.
        Returns the number of rounds checked: all T, or those before the
        n-agent run grows past 1e6."""
        W, X0, oracle, mean_grads = self.quadratics(graph, seed)
        spec = AlgorithmSpec(kind=kind, **hp)
        state, one = init_states(X0, W), as_mixing([[1.0]])
        buffers = ("X", "S", "Y", "D", "M", "B")
        for t in range(T):
            mean = {name: getattr(state, name).mean(axis=0, keepdims=True) for name in buffers}
            start, state = dataclasses.replace(state, **mean), run_round(state, W, spec, oracle)
            if not np.max(np.abs(state.X)) <= 1e6:
                return t
            g = mean_grads[-1][None, :]
            step = run_round(start, one, spec, lambda x, rnd: (np.zeros(1), g.copy()))
            scale = 1.0 + np.abs(state.X.mean(axis=0))
            for name in buffers:
                gap = np.abs(getattr(step, name)[0] - getattr(state, name).mean(axis=0))
                gap *= 1.0 if name in ("X", "S") else spec.eta
                assert np.max(gap / scale) <= 1e-10, (name, state.round)
        return T

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_round_keeps_the_mean_at_mu_plus_beta_past_one(self, kind, graph):
        # GUTmN itself grows at these settings, past 1e6 from round 21 on
        # torus-16 to round 39 on ring-16; its earlier rounds are checked
        checked = self.rounds_keep_the_mean(kind, graph, 13, T=200, eta=0.05, mu=0.1, beta=0.95)
        assert checked == 200 or (kind == "GUTmN" and checked >= 20)

    @settings(max_examples=150, deadline=None)
    @given(
        graph=st.sampled_from(list(GRAPHS)),
        kind=st.sampled_from(KINDS),
        eta=st.floats(0.005, 0.2),
        mu=st.floats(0.0, 0.3),
        beta=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_round_keeps_the_mean_over_hyperparameters(
        self, graph, kind, eta, mu, beta, seed
    ):
        # started afresh each round, the one-agent round carries no rounding
        # of its own from round to round, so mu + beta >= 1 is drawn too; a
        # run that grows past 1e6 is discarded, and one that overflows does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            checked = self.rounds_keep_the_mean(kind, graph, seed, T=200, eta=eta, mu=mu, beta=beta)
        assume(checked == 200)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["GUT", "QG-GUTm", "DSGD", "GT", "RuleA"])
    def test_replay_is_bit_identical(self, kind):
        W = build_topology("ring", 8)
        prob = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        X0 = np.random.default_rng(14).standard_normal((8, 3))
        runs = []
        for _ in range(2):
            oracle = make_oracle(prob, seed=5)
            runs.append(
                run_trajectory(kind, W, X0, oracle, T=10, eta=0.05, mu=0.1, beta=0.5)
            )
        for X, R in zip(*runs):
            assert np.array_equal(X, R)


class TestHyperparameterValidator:
    def test_unit_gap_bounds(self):
        check = validate_hyperparameters(eta=0.1, mu=0.01, rho=1.0, L=1.0)
        assert check.eta_max == pytest.approx(1 / 7)
        assert check.mu_max == pytest.approx(1 / 43)
        assert check.eta_ok and check.mu_ok

    def test_mu_zero_always_compliant(self):
        for rho in (1e-3, 0.05, 1.0):
            assert validate_hyperparameters(eta=1e-9, mu=0.0, rho=rho, L=1.0).mu_ok

    def test_mu_bound_solves_ratio_equation(self):
        rho = 0.05
        mu_max = validate_hyperparameters(eta=0.1, mu=0.5, rho=rho, L=1.0).mu_max
        assert mu_max / (1 - mu_max) == pytest.approx(rho / 42)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            validate_hyperparameters(eta=0.1, mu=0.1, rho=0.0, L=1.0)
        with pytest.raises(ValueError):
            validate_hyperparameters(eta=0.1, mu=0.1, rho=0.5, L=-1.0)

    @pytest.mark.parametrize("mu", [-0.5, 1.5, float("nan")])
    def test_mu_outside_the_spec_range_raises(self, mu):
        # the same rule, and message, as AlgorithmSpec's
        with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\), got"):
            AlgorithmSpec(kind="GUT", eta=0.1, mu=mu)
        with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\), got"):
            validate_hyperparameters(eta=0.1, mu=mu, rho=1.0, L=1.0)


class TestCommCost:
    def test_single_transmission_kinds(self):
        W = build_topology("ring", 16)
        for kind in ("GUT", "QG-GUTm", "RuleA", "RuleB", "DSGD"):
            assert comm_cost(AlgorithmSpec(kind=kind, eta=0.1), 100, W) == 200

    def test_dyck_degree(self):
        W = build_topology("dyck", 32)
        assert comm_cost(AlgorithmSpec(kind="GUT", eta=0.1), 10, W) == 30

    def test_zero_dimension(self):
        W = build_topology("ring", 8)
        assert comm_cost(AlgorithmSpec(kind="GT", eta=0.1), 0, W) == 0


class TestAlgorithmSpec:
    def test_all_kinds_constructible(self):
        for kind in KINDS:
            AlgorithmSpec(kind=kind, eta=0.1, mu=0.1, beta=0.5)
        assert set(GUT_FAMILY) <= set(KINDS)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="SGD", eta=0.1),
            dict(kind="GUT", eta=0.0),
            dict(kind="GUT", eta=0.1, mu=1.0),
            dict(kind="GUT", eta=0.1, beta=-0.1),
        ],
    )
    def test_invalid_specs(self, kw):
        with pytest.raises(ValueError):
            AlgorithmSpec(**kw)
