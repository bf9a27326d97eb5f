"""Synchronous-round update rules for decentralized optimization.

The rules are one table, ``RULES``: for each kind it names the point the
gradient is taken at, the vectors each agent sends per round and the
round's arithmetic.  ``run_round`` is the one frame around them: it calls
the oracle once and applies the rule at step ``spec.eta`` to one stacked
``State`` of all agents; a caller that varies the step passes each round
its own spec.  The update-tracking family (GUT and its momentum
variants) evaluates gradients at the gossip-mixed point
``s_i = sum_j w_ij x_j`` and transmits a single vector per round; the
baselines evaluate at the local parameters.  Nesterov look-ahead variants
are kinds of their own (``DSGDmN``, ``QG-DSGDmN``, ``GUTmN``,
``QG-GUTmN``).  Every product with W goes through ``MixingMatrix.mix``,
one per vector sent: the tracked kinds derive W sent from W x - W x'.
Four formulations of the tracked update are provided so that their
trajectories can be cross-checked; they agree from any start at any step:

* ``GUT``         x' built around the mixed point as s - eta*(g + mc),
* ``GUT-matrix``  the stacked two-line recursion X' = X - eta*Y,
* ``GUT-bias``    the bias-correction form, GUT's Y - D kept as one buffer B,
* ``GUT-memeff``  O(1) extra memory, keeping only the running aggregate s.

The gradient oracle is called once per round for all agents:
``oracle(X, round) -> (losses, G)`` with ``X`` and ``G`` of shape
``(n, d)`` (row i is agent i) and ``losses`` of shape ``(n,)``.  Row i of
``G`` may depend only on row i of ``X``, i and the round, so trajectories
can be replayed across formulations.  The oracle must not write into
``X``, and ``G`` must be a fresh array: rounds keep it in the state.
A round returns what its rule computed, non-finite or not; the drivers in
``harness`` decide divergence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .topology import MixingMatrix

__all__ = [
    "KINDS",
    "AlgorithmSpec",
    "HyperparameterCheck",
    "State",
    "check_eta",
    "check_mu_beta",
    "check_start",
    "init_states",
    "RULES",
    "run_round",
    "validate_hyperparameters",
    "comm_cost",
]

GUT_FAMILY = ("GUT", "GUT-matrix", "GUT-bias", "GUT-memeff")


def check_mu_beta(mu: float, beta: float) -> None:
    """Raise ValueError unless the tracking weight mu and momentum beta lie in [0, 1)."""
    if not 0 <= mu < 1:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")


def check_eta(eta: float) -> None:
    """Raise ValueError unless the step size eta is positive and finite."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")


def check_start(X0: np.ndarray, W: MixingMatrix) -> np.ndarray:
    """A C-ordered float copy of X0; ValueError unless it is finite and (W.n, d), d >= 1."""
    X0 = np.array(X0, dtype=float, order="C")
    if X0.ndim != 2 or X0.shape[0] != W.n or X0.shape[1] == 0:
        raise ValueError(f"X0 must be ({W.n}, d) with d >= 1, got shape {X0.shape}")
    if not np.all(np.isfinite(X0)):
        raise ValueError("X0 must be finite")
    return X0


@dataclass
class AlgorithmSpec:
    """Update rule selection plus its hyperparameters."""

    kind: str
    eta: float
    mu: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        check_eta(self.eta)
        check_mu_beta(self.mu, self.beta)


@dataclass
class State:
    """All agents' buffers at a round boundary, one ``(n, d)`` array each.

    Row i is agent i.  ``X`` holds the parameters and ``S`` the weighted
    neighborhood aggregate sum_j w_ij x_j.  ``Y`` holds W times what the
    tracked kinds sent last round (W y_prev, or W m for the momentum-GUT
    kinds; GT keeps y itself), ``D`` delta_prev (GT: its previous
    gradient), ``M`` the momentum buffer and ``B`` the bias-correction
    form's W sent - delta of the round before, GUT's Y - D in one buffer
    (RuleB: its last mixing residual s - x).
    A round returns exactly the buffers that a later round reads and
    carries the rest over unread, current only for the kinds that keep them.
    ``losses`` holds the oracle's per-agent losses from the round that
    produced the state (None initially).  Rounds never write into a
    state's arrays; each returns a new state, holding what its rule
    computed even when that is not finite.
    """

    X: np.ndarray
    S: np.ndarray
    Y: np.ndarray
    D: np.ndarray
    M: np.ndarray
    B: np.ndarray
    round: int = 0
    losses: np.ndarray | None = None


def init_states(X0: np.ndarray, W: MixingMatrix) -> State:
    """Initial state: S = W X0; the other buffers share one read-only zero view."""
    X0 = check_start(X0, W)
    zeros = np.broadcast_to(0.0, X0.shape)
    return State(X=X0, S=W.mix(X0), Y=zeros, D=zeros, M=zeros, B=zeros)


# Each rule maps (state, W, G, eta, mu, beta) to the arrays of the next
# state that a later round reads, X among them, where G is the round's
# gradient, taken at the point its RULES entry names.


def _dsgd(st, W, G, eta, mu, beta):
    return dict(X=W.mix(st.X - eta * G))


def _dsgdm(st, W, G, eta, mu, beta, nesterov):
    """Heavy-ball on the local gradient; Nesterov steps along g + beta*m."""
    M = beta * st.M + G
    step = G + beta * M if nesterov else M
    return dict(X=W.mix(st.X - eta * step), M=M)


def _qg_dsgdm(st, W, G, eta, mu, beta, nesterov):
    """The buffer averages the realized displacements (x - x')/eta;
    Nesterov looks ahead with beta*m + (1 - beta)*g in place of m."""
    look = beta * st.M + (1.0 - beta) * G if nesterov else st.M
    Xn = W.mix(st.X - eta * (G + beta * look))
    return dict(X=Xn, M=beta * st.M + (1.0 - beta) * (st.X - Xn) / eta)


def _gt(st, W, G, eta, mu, beta):
    """Gradient tracking: y accumulates g - g_prev through the gossip mix.

    Both x and y are exchanged; y starts at the first local gradient.
    """
    Y = G if st.round == 0 else W.mix(st.Y) - st.D + G
    return dict(X=W.mix(st.X - eta * Y), Y=Y, D=G)


def _tracked(st, G, eta, mu, scale=1.0):
    """delta = g - (s - x)/eta and mc = mu*[W sent - scale*(s - x)/eta - delta_prev], W sent
    being ``st.Y``; in fresh arrays, the expressions' operations in order, so their roundings."""
    correction = np.subtract(st.S, st.X)
    scaled = scale * correction / eta if scale != 1.0 else None
    correction /= eta
    mc = np.subtract(st.Y, correction if scaled is None else scaled)
    mc -= st.D
    mc *= mu
    return np.subtract(G, correction, out=correction), mc


def _mixed(st, W, Xn, eta, lead=0.0, **changed):
    """S' = W x', the round's one product, and Y = W sent from S - S' = W(x - x'):
    x - x' is eta*sent, or eta*[(1 + lead)*m' - lead*m] under Nesterov (lead = beta)."""
    Sn = W.mix(Xn)
    WY = np.subtract(st.S, Sn)
    WY /= eta
    if lead:
        WY = (WY + lead * st.Y) / (1.0 + lead)
    return dict(X=Xn, S=Sn, Y=WY, **changed)


def _around_mix(st, W, G, eta, delta, mc):
    """x - eta*y rearranged around the mixed point as s - eta*(g + mc), exactly
    W x - eta g when mc = 0; x' is built in ``mc``, which must be the caller's own."""
    Xn = np.add(G, mc, out=mc)
    Xn *= eta
    np.subtract(st.S, Xn, out=Xn)
    return _mixed(st, W, Xn, eta, D=delta)


def _gut(st, W, G, eta, mu, beta):
    return _around_mix(st, W, G, eta, *_tracked(st, G, eta, mu))


def _gut_matrix(st, W, G, eta, mu, beta):
    delta, mc = _tracked(st, G, eta, mu)
    Y = np.add(delta, mc, out=mc)
    return _mixed(st, W, st.X - eta * Y, eta, D=delta)


def _gut_bias(st, W, G, eta, mu, beta):
    """GUT with B = W sent - delta of the round before, so mc = mu*(B - drift) for
    drift = (s - x)/eta; B' = (S - S')/eta + drift - G takes no second product."""
    drift = (st.S - st.X) / eta
    Xn = st.S - eta * (G + mu * (st.B - drift))
    Sn = W.mix(Xn)
    return dict(X=Xn, S=Sn, B=(st.S - Sn) / eta + drift - G)


def _gut_memeff(st, W, G, eta, mu, beta):
    """S is the incrementally kept aggregate, never recomputed; Y is W y, its one product."""
    delta, mc = _tracked(st, G, eta, mu)
    Y = np.add(delta, mc, out=mc)
    WY = W.mix(Y)
    return dict(X=st.X - eta * Y, S=st.S - eta * WY, Y=WY, D=delta)


def _gutm(st, W, G, eta, mu, beta, nesterov, scaled=False):
    """Heavy-ball on the tracked update; Nesterov applies the new buffer, and
    ``scaled`` (QG-GUTm-impl) puts (1 + beta)/eta on the displacement correction."""
    delta, mc = _tracked(st, G, eta, mu, 1.0 + beta if scaled else 1.0)
    Y = delta + mc
    M = beta * st.M + Y
    Xn = st.S - eta * (G + mc) - eta * beta * (M if nesterov else st.M)
    return _mixed(st, W, Xn, eta, beta if nesterov else 0.0, D=delta, M=M)


def _qg_gutm(st, W, G, eta, mu, beta, nesterov):
    """Exponential buffer over the tracked update; Nesterov applies the new buffer."""
    delta, mc = _tracked(st, G, eta, mu)
    step = st.S - eta * (G + mc)
    Y = delta + mc
    M = beta * st.M + (1.0 - beta) * Y
    Xn = beta * st.X + (1.0 - beta) * step - eta * beta * (M if nesterov else st.M)
    return _mixed(st, W, Xn, eta, beta if nesterov else 0.0, D=delta, M=M)


def _rule_a(st, W, G, eta, mu, beta):
    """GUT without the -(s - x)/eta term in the correction."""
    return _around_mix(st, W, G, eta, G - (st.S - st.X) / eta, mu * (st.Y - st.D))


def _rule_b(st, W, G, eta, mu, beta):
    """s - eta*(g + mc) with mc = -mu*(r - r_prev)/eta, the mixing residual change
    (W - I)(x - x_prev) for r = s - x; B keeps r (r_prev = r in round 0)."""
    r = st.S - st.X
    r_prev = r if st.round == 0 else st.B
    Xn = st.S - eta * (G + mu * (-(r - r_prev) / eta))
    return dict(X=Xn, S=W.mix(Xn), B=r)


class Rule(NamedTuple):
    """How a kind runs: the State field its gradient is taken at (``S``,
    the mixed point, or ``X``), the vectors each agent sends per round,
    the round's arithmetic and, where it differs, the vectors sent in
    round 0."""

    at: str
    sends: int
    step: Callable
    first_sends: int | None = None


RULES = {
    "DSGD": Rule("X", 1, _dsgd),
    "DSGDm": Rule("X", 1, partial(_dsgdm, nesterov=False)),
    "DSGDmN": Rule("X", 1, partial(_dsgdm, nesterov=True)),
    "QG-DSGDm": Rule("X", 1, partial(_qg_dsgdm, nesterov=False)),
    "QG-DSGDmN": Rule("X", 1, partial(_qg_dsgdm, nesterov=True)),
    "GT": Rule("X", 2, _gt, first_sends=1),  # y starts at the local gradient
    "GUT": Rule("S", 1, _gut),
    "GUTm": Rule("S", 1, partial(_gutm, nesterov=False)),
    "GUTmN": Rule("S", 1, partial(_gutm, nesterov=True)),
    "QG-GUTm": Rule("S", 1, partial(_qg_gutm, nesterov=False)),
    "QG-GUTmN": Rule("S", 1, partial(_qg_gutm, nesterov=True)),
    "QG-GUTm-impl": Rule("S", 1, partial(_gutm, nesterov=False, scaled=True)),
    "GUT-matrix": Rule("S", 1, _gut_matrix),
    "GUT-bias": Rule("S", 1, _gut_bias),
    "GUT-memeff": Rule("S", 1, _gut_memeff),
    "RuleA": Rule("S", 1, _rule_a),
    "RuleB": Rule("S", 1, _rule_b),
}

KINDS = tuple(RULES)


def run_round(state: State, W, spec, oracle) -> State:
    """One synchronous round of spec.kind at step spec.eta, with one oracle call.

    The returned state carries the oracle's losses and whatever the rule
    computed, non-finite parameters included: divergence is an intended
    experimental condition, decided by the drivers in ``harness``, so
    overflow is not a warning here either.
    """
    rule = RULES[spec.kind]
    with np.errstate(over="ignore", invalid="ignore"):
        losses, G = oracle(getattr(state, rule.at), state.round)
        changed = rule.step(state, W, G, spec.eta, spec.mu, spec.beta)
    return dataclasses.replace(state, round=state.round + 1, losses=losses, **changed)


@dataclass
class HyperparameterCheck:
    """Convergence-regime bounds; advisory, runs outside them are allowed."""

    eta_ok: bool
    mu_ok: bool
    eta_max: float
    mu_max: float


def validate_hyperparameters(eta: float, mu: float, rho: float, L: float) -> HyperparameterCheck:
    """Check eta <= rho/(7L) and mu/(1-mu) <= rho/42, for mu in [0, 1) as in a spec."""
    check_eta(eta)
    check_mu_beta(mu, 0.0)
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L}")
    eta_max = rho / (7.0 * L)
    mu_max = rho / (42.0 + rho)
    return HyperparameterCheck(
        eta_ok=eta <= eta_max,
        mu_ok=mu <= mu_max,
        eta_max=eta_max,
        mu_max=mu_max,
    )


def comm_cost(
    spec: AlgorithmSpec, d: int, W: MixingMatrix, first_round: bool = False
) -> int | float:
    """Scalars transmitted per agent per round: mean degree * d * vectors sent,
    in round 0 when ``first_round`` is set, else in every later round.

    An int when that is whole, as on every regular graph; otherwise the
    float nearest to it.
    """
    rule = RULES[spec.kind]
    sends = rule.first_sends if first_round and rule.first_sends is not None else rule.sends
    total = int(W.degrees.sum()) * d * sends
    return total // W.n if total % W.n == 0 else total / W.n
