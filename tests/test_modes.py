"""Per-mode stability of the update rules, probed through the unchanged round.

When every agent's gradient is a * x (plus a constant, which moves the fixed
point and not the stability), a round is linear in the stacked state and
commutes with W, so it splits into W's eigenmodes.  The round of mode lam is
the round of one agent whose ``mix`` multiplies by lam.  Its transfer matrix
comes from one ``run_round``: the kept buffers are the unit columns of a
(1, k) stack, so column c of the returned buffers is the image of the c-th
unit state.  The modes below 1 carry the disagreement between agents and
the mode at 1 their mean; the largest spectral radius over a set of modes
says whether they grow.
"""

import numpy as np
import pytest

from decentrack.algorithms import AlgorithmSpec, State, comm_cost, init_states, run_round
from decentrack.harness import run_consensus
from decentrack.topology import as_mixing, build_topology, spectral_stats

BUFFERS = ("X", "S", "Y", "D", "M", "B")


class ModeMix:
    """The mixing of one eigenmode: one agent, mix(Z) = lam * Z."""

    n = 1

    def __init__(self, lam):
        self.lam = lam

    def mix(self, Z):
        return self.lam * Z


def linear_oracle(a):
    def oracle(X, rnd):
        return np.zeros(len(X)), a * X

    return oracle


def probe(spec, lam, a, columns):
    """The state after one round from round 1, past GT's and RuleB's round-0
    branches, with the named buffers set to columns and the rest zero."""
    zero = np.zeros_like(next(iter(columns.values())))
    start = State(**{name: columns.get(name, zero) for name in BUFFERS}, round=1)
    return run_round(start, ModeMix(lam), spec, linear_oracle(a))


def kept_buffers(spec):
    """X and the buffers the rule's round returns; a round carries the others
    over unread, so each would add an eigenvalue of 1."""
    zero = np.zeros((1, 1))
    after = probe(spec, 0.5, 1.0, {name: zero for name in BUFFERS})
    return [name for name in BUFFERS if getattr(after, name) is not zero]


def transfer(spec, lam, a=0.0):
    """The k x k round map of mode lam over the k kept buffers."""
    kept = kept_buffers(spec)
    unit = np.eye(len(kept))
    after = probe(spec, lam, a, {name: unit[i : i + 1] for i, name in enumerate(kept)})
    return np.vstack([getattr(after, name) for name in kept])


def disagreement_modes(W):
    """W's eigenvalues below 1.  The one at 1 is the agents' mean, which a
    zero gradient leaves where it is: its round map has an eigenvalue 1."""
    lams = np.linalg.eigvalsh(W.weights)
    return lams[lams < 1 - 1e-9]


def radius(spec, lams, a=0.0):
    """The largest spectral radius of the round maps of the modes lams."""
    return max(np.max(np.abs(np.linalg.eigvals(transfer(spec, lam, a)))) for lam in lams)


def stable_mu_cap(kind, W):
    """The mu below which the zero-gradient, eta = 1 round is stable on W, by bisection."""
    lams = disagreement_modes(W)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if radius(AlgorithmSpec(kind=kind, eta=1.0, mu=mid), lams) < 1:
            lo = mid
        else:
            hi = mid
    return lo


def gut(mu):
    return AlgorithmSpec(kind="GUT", eta=1.0, mu=mu)


def lazy(W):
    """The lazy matrix (I + W) / 2: W's edges, eigenvalues (1 + lam) / 2."""
    return as_mixing(0.5 * (np.eye(W.n) + W.weights))


BUILT_INS = {"ring64": ("ring", 64), "dyck32": ("dyck", 32), "torus16": ("torus", 16)}


class TestProbe:
    def test_kept_buffers_follow_the_rules(self):
        assert kept_buffers(gut(0.1)) == ["X", "S", "Y", "D"]
        assert kept_buffers(AlgorithmSpec(kind="GUT-bias", eta=1.0)) == ["X", "S", "B"]
        assert kept_buffers(AlgorithmSpec(kind="DSGD", eta=1.0)) == ["X"]

    def test_dsgd_mode_is_lam_times_one_minus_eta_a(self):
        spec = AlgorithmSpec(kind="DSGD", eta=0.1)
        T = transfer(spec, -1 / 3, a=2.0)
        assert T.shape == (1, 1) and T[0, 0] == pytest.approx(-0.8 / 3, abs=1e-15)


class TestStableMu:
    @pytest.mark.parametrize(
        "kind, n, grid, cap",
        [
            ("ring", 64, None, 0.2),
            ("dyck", 32, None, 0.125),
            ("torus", 16, None, 1 / 11),
        ],
    )
    def test_zero_gradient_cap_is_the_closed_form(self, kind, n, grid, cap):
        # mode lam of the zero-gradient, eta = 1 tracked round is stable iff
        # mu < (1 + lam) / (2 (1 - 2 lam)), a bound only for lam < 1/2
        W = build_topology(kind, n, grid)
        lams = disagreement_modes(W)
        low = lams[lams < 0.5]
        closed_form = np.min((1 + low) / (2 * (1 - 2 * low)))
        assert closed_form == pytest.approx(cap, abs=1e-12)
        for rule in ("GUT", "GUT-bias"):
            assert stable_mu_cap(rule, W) == pytest.approx(closed_form, abs=1e-9), rule

    def test_radius_is_the_growth_of_tracked_consensus(self):
        # acceptance 1 and 4 run this recursion at mu >= 0.3 on even rings,
        # past the cap of 0.2 that the lam = -1/3 mode sets
        W = build_topology("ring", 64)
        lams = disagreement_modes(W)
        predicted = radius(gut(0.3), lams)
        assert predicted == pytest.approx(1.237405, abs=1e-6)
        bias = AlgorithmSpec(kind="GUT-bias", eta=1.0, mu=0.3)
        assert radius(bias, lams) == pytest.approx(predicted, abs=1e-12)
        X0 = np.random.default_rng(0).standard_normal((64, 8))
        errors = [r.consensus_error for r in run_consensus(W, X0, "gut", mu=0.3, T=400).rows]
        observed = (errors[400] / errors[200]) ** (1 / (2 * 200))
        assert observed == pytest.approx(predicted, rel=0.01)
        # at acceptance 1's mu = 0.9 the README's radius of about 2.4
        assert radius(gut(0.9), lams) == pytest.approx(2.446, abs=5e-4)


class TestMomentumRadius:
    @pytest.mark.parametrize(
        "kind, mean, disagreement",
        [
            ("GUTm", 1.021029, 0.992666),
            ("QG-GUTm-impl", 1.021029, 0.992666),
            ("GUTmN", 1.001968, 1.640418),
            ("QG-GUTm", 0.956164, 0.953173),
        ],
    )
    def test_transcription_setting(self, kind, mean, disagreement):
        # TestMomentumTranscriptions's ring-8, g = x - b, eta = 0.05,
        # mu = 0.15 and beta = 0.9: GUTm, QG-GUTm-impl and GUTmN grow there
        # and QG-GUTm settles, as the README reports.  GUTm and QG-GUTm-impl
        # grow in their mean, through the tracked term mu * (W m - delta_prev);
        # GUTmN grows in the lam = -1/3 mode
        spec = AlgorithmSpec(kind=kind, eta=0.05, mu=0.15, beta=0.9)
        W = build_topology("ring", 8)
        assert radius(spec, [1.0], a=1.0) == pytest.approx(mean, abs=5e-7)
        assert radius(spec, disagreement_modes(W), a=1.0) == pytest.approx(disagreement, abs=5e-7)

    def test_gutm_mean_grows_at_the_predicted_rate(self):
        W = build_topology("ring", 8)
        rng = np.random.default_rng(15)
        X0, b = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
        spec = AlgorithmSpec(kind="GUTm", eta=0.05, mu=0.15, beta=0.9)
        state, means = init_states(X0, W), []
        for _ in range(600):
            state = run_round(state, W, spec, lambda X, rnd: (np.zeros(len(X)), X - b))
            means.append(np.linalg.norm(state.X.mean(axis=0)))
        observed = (means[599] / means[399]) ** (1 / 200)
        assert observed == pytest.approx(radius(spec, [1.0], a=1.0), rel=0.01)


class TestLazyMatrix:
    """The lazy matrix lifts lam_min above the 0.174 that GUT's cap of
    (1 + lam) / (2 (1 - 2 lam)) needs to pass mu = 0.9, at 1x communication."""

    @pytest.mark.parametrize(
        "name, scalars, lam_min, lazy_lam_min",
        [
            ("ring64", 16, -1 / 3, 1 / 3),
            ("dyck32", 24, -1 / 2, 1 / 4),
            ("torus16", 32, -3 / 5, 1 / 5),
        ],
    )
    def test_same_edges_and_lifted_spectrum(self, name, scalars, lam_min, lazy_lam_min):
        W = build_topology(*BUILT_INS[name])
        half = lazy(W)
        spec = AlgorithmSpec(kind="GUT", eta=1.0)
        assert comm_cost(spec, 8, W) == comm_cost(spec, 8, half) == scalars
        assert spectral_stats(W).lambda_n == pytest.approx(lam_min, abs=1e-12)
        assert spectral_stats(half).lambda_n == pytest.approx(lazy_lam_min, abs=1e-12)

    def test_tracked_consensus_converges_at_mu_09(self):
        W = build_topology("ring", 64)
        X0 = np.random.default_rng(3).standard_normal((64, 8))
        tracked = run_consensus(lazy(W), X0, "gut", mu=0.9, T=500)
        assert tracked.final_row().consensus_error < 1e-6
        # on W itself gossip is still far off and tracking overflows
        assert run_consensus(W, X0, "gossip", T=500).final_row().consensus_error > 1e-6
        on_w = run_consensus(W, X0, "gut", mu=0.9, T=500)
        assert not np.isfinite(on_w.final_row().consensus_error)


class TestLazyModes:
    @pytest.mark.parametrize("name", BUILT_INS)
    def test_caps(self, name):
        # the zero-gradient, eta = 1 caps: RuleB's is (1 + lam) / (2 (1 - lam))
        # at lam_min, and every other tracked rule is stable below mu = 1
        half = lazy(build_topology(*BUILT_INS[name]))
        for rule in ("GUT", "GUT-bias", "RuleA"):
            assert stable_mu_cap(rule, half) == pytest.approx(1.0, abs=1e-9), rule
        lam = spectral_stats(half).lambda_n
        rule_b = (1 + lam) / (2 * (1 - lam))
        assert rule_b == pytest.approx({"ring64": 1, "dyck32": 5 / 6, "torus16": 3 / 4}[name])
        assert stable_mu_cap("RuleB", half) == pytest.approx(min(rule_b, 1.0), abs=1e-9)

    @pytest.mark.parametrize("name, predicted", [("dyck32", 1.06112), ("torus16", 1.147468)])
    def test_rule_b_unstable_at_mu_09(self, name, predicted):
        half = lazy(build_topology(*BUILT_INS[name]))
        spec = AlgorithmSpec(kind="RuleB", eta=1.0, mu=0.9)
        assert radius(spec, disagreement_modes(half)) == pytest.approx(predicted, abs=1e-6)

    def test_gut_radius_is_the_decay_of_tracked_consensus(self):
        half = lazy(build_topology("ring", 64))
        predicted = radius(gut(0.9), disagreement_modes(half))
        assert predicted == pytest.approx(0.981289, abs=1e-6)
        X0 = np.random.default_rng(3).standard_normal((64, 8))
        errors = [r.consensus_error for r in run_consensus(half, X0, "gut", mu=0.9, T=400).rows]
        observed = (errors[400] / errors[200]) ** (1 / (2 * 200))
        assert observed == pytest.approx(predicted, rel=0.01)
