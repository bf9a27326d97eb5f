import numpy as np
import pytest

from decentrack.algorithms import (
    GUT_FAMILY,
    KINDS,
    AlgorithmSpec,
    DivergenceError,
    comm_cost,
    init_states,
    run_round,
    validate_hyperparameters,
)
from decentrack.models import SyntheticProblemSpec, make_oracle, make_quadratic
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


def run_trajectory(kind, W, X0, oracle, T, **hp):
    spec = AlgorithmSpec(kind=kind, **hp)
    states = init_states(np.asarray(X0, dtype=float), W, spec)
    out = []
    for _ in range(T):
        states = run_round(states, W, spec, oracle)
        out.append(np.stack([st.x for st in states]))
    return out


class TestInitStates:
    def test_identical_rows_aggregate_is_self(self):
        W = build_topology("ring", 8)
        X0 = np.tile(np.arange(3.0), (8, 1))
        for st in init_states(X0, W, AlgorithmSpec(kind="GUT", eta=0.1)):
            assert np.array_equal(st.s, st.x)

    def test_two_agent_aggregate(self):
        states = init_states(
            np.array([[0.0], [2.0]]), UNIFORM2, AlgorithmSpec(kind="GUT", eta=0.1)
        )
        assert [st.s[0] for st in states] == [1.0, 1.0]

    def test_buffers_zero(self):
        W = build_topology("ring", 4)
        X0 = np.random.default_rng(0).standard_normal((4, 3))
        for st in init_states(X0, W, AlgorithmSpec(kind="GUT", eta=0.1)):
            for buf in (st.y_prev, st.delta_prev, st.m, st.bias):
                assert np.all(buf == 0)
            assert np.array_equal(st.x_prev, st.x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="must be"):
            init_states(np.zeros((3, 2)), UNIFORM2, AlgorithmSpec(kind="GUT", eta=0.1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            init_states(np.full((2, 1), np.inf), UNIFORM2, AlgorithmSpec(kind="GUT", eta=0.1))


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
            states = init_states(X0, W, spec)
            for _ in range(10):
                states = run_round(states, W, spec, oracle)
                X = np.stack([st.x for st in states])
                S = np.stack([st.s for st in states])
                assert np.max(np.abs(S - W.weights @ X)) <= 1e-10

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
            states = init_states(X0, W, spec)
            assert states.losses is None
            states = run_round(states, W, spec, oracle)
            (point, rnd, losses), = calls
            assert rnd == 0
            assert np.array_equal(point, X0 if kind in local else W.weights @ X0), kind
            assert states.losses is losses

    def test_divergence_error_names_agent_and_round(self):
        spec = AlgorithmSpec(kind="GUT", eta=1e150, mu=0.0)
        states = init_states(np.array([[1.0], [1.0]]), UNIFORM2, spec)
        with pytest.raises(DivergenceError, match="agent 0, round 0"):
            run_round(states, UNIFORM2, spec, quad_oracle([[1e200], [1e200]]))


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


def momentum_transcription(kind, Wd, X, b, T, eta, mu, beta):
    """The momentum rules written out from their update equations, with a
    dense W and the gradient g = x - b of quad_oracle(b)."""
    m = np.zeros_like(X)
    delta_prev = np.zeros_like(X)
    out = []
    for _ in range(T):
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
            # tracked update at the mixed point, correcting with W m
            s = Wd @ X
            g = s - b
            delta = g - (s - X) / eta
            scale = 1 + beta if kind == "QG-GUTm-impl" else 1
            y = delta + mu * (Wd @ m - scale * (s - X) / eta - delta_prev)
            if kind in ("QG-GUTm", "QG-GUTmN"):
                m_new = beta * m + (1 - beta) * y
                Xn = X - eta * (1 - beta) * y - eta * beta * (m_new if kind == "QG-GUTmN" else m)
            else:
                m_new = beta * m + y
                Xn = X - eta * y - eta * beta * (m_new if kind == "GUTmN" else m)
            m, delta_prev = m_new, delta
        X = Xn
        out.append(X)
    return out


class TestMomentumTranscriptions:
    @pytest.mark.parametrize(
        "kind",
        [
            "DSGDm", "DSGDmN", "QG-DSGDm", "QG-DSGDmN",
            "GUTm", "GUTmN", "QG-GUTm", "QG-GUTmN", "QG-GUTm-impl",
        ],
    )
    def test_matches_update_equations(self, kind):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(15)
        X0 = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        hp = dict(eta=0.05, mu=0.15, beta=0.9)
        traj = run_trajectory(kind, W, X0, quad_oracle(b), T=5, **hp)
        ref = momentum_transcription(kind, W.weights, X0, b, T=5, **hp)
        for X, R in zip(traj, ref):
            assert np.max(np.abs(X - R)) <= 1e-12


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
        states = init_states(np.array([[0.0], [2.0]]), UNIFORM2, spec)
        states = run_round(states, UNIFORM2, spec, oracle)
        states = run_round(states, UNIFORM2, spec, oracle)
        Y = np.stack([st.y_prev for st in states])
        assert np.allclose(Y, np.tile(g.mean(axis=0), (2, 1)), atol=1e-12)

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


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["GUT", "QG-GUTm", "DSGD", "GT", "RuleA"])
    def test_replay_is_bit_identical(self, kind):
        W = build_topology("ring", 8)
        prob = make_quadratic(
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

    def test_schedule_used(self):
        spec = AlgorithmSpec(kind="GUT", eta=0.1, eta_schedule=lambda t: 0.1 if t < 5 else 0.01)
        assert spec.lr(0) == 0.1
        assert spec.lr(9) == 0.01
