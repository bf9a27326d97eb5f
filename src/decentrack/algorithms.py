"""Synchronous-round update rules for decentralized optimization.

The rules are one table, ``RULES``: for each kind it names the point the
gradient is taken at, the vectors each agent sends per round and the
round's arithmetic.  ``run_round`` is the one frame around them: it reads
the step size, calls the oracle once and applies the rule to one stacked
``State`` of all agents.  The update-tracking family (GUT and its momentum
variants) evaluates gradients at the gossip-mixed point
``s_i = sum_j w_ij x_j`` and transmits a single vector per round; the
baselines evaluate at the local parameters.  Nesterov look-ahead variants
are kinds of their own (``DSGDmN``, ``QG-DSGDmN``, ``GUTmN``,
``QG-GUTmN``).  Every product with W goes through ``MixingMatrix.mix``.
Four algebraically equivalent formulations of the tracked update are
provided so that their trajectories can be cross-checked:

* ``GUT``         per-agent recursion with neighbor copies,
* ``GUT-matrix``  the stacked two-line recursion X' = X - eta*Y,
* ``GUT-bias``    the bias-correction form X' = WX - eta*(G + mu*B),
* ``GUT-memeff``  O(1) extra memory, keeping only the running aggregate s.

The gradient oracle is called once per round for all agents:
``oracle(X, round) -> (losses, G)`` with ``X`` and ``G`` of shape
``(n, d)`` (row i is agent i) and ``losses`` of shape ``(n,)``.  Row i of
``G`` may depend only on row i of ``X``, i and the round, so trajectories
can be replayed across formulations.  The oracle must not write into
``X``, and ``G`` must be a fresh array: rounds keep it in the state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .topology import MixingMatrix

__all__ = [
    "KINDS",
    "AlgorithmSpec",
    "DivergenceError",
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


class DivergenceError(RuntimeError):
    """Raised when a round produces non-finite parameters."""

    def __init__(self, agent: int, rnd: int):
        super().__init__(f"non-finite parameters at agent {agent}, round {rnd}")
        self.agent = agent
        self.round = rnd


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
    eta_schedule: Callable[[int], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        check_eta(self.eta)
        check_mu_beta(self.mu, self.beta)

    def lr(self, rnd: int) -> float:
        eta = self.eta_schedule(rnd) if self.eta_schedule is not None else self.eta
        if eta <= 0:
            raise ValueError(f"eta schedule produced non-positive step at t={rnd}")
        return eta


@dataclass
class State:
    """All agents' buffers at a round boundary, one ``(n, d)`` array each.

    Row i is agent i.  ``X`` holds the parameters and ``Xp`` the previous
    ones (X itself initially).  ``S`` is the weighted neighborhood
    aggregate sum_j w_ij x_j, ``Y`` and ``D`` the tracking history y_prev
    and delta_prev (GT keeps its previous gradient in ``D``), ``M`` the
    momentum buffer and ``B`` the B column of the bias-correction form.
    A round returns only the buffers its rule changes and carries the rest
    over, so a buffer is current only for the kinds whose rule keeps it.
    ``losses`` holds the oracle's per-agent losses from the round that
    produced the state (None initially).  Rounds never write into a
    state's arrays; each returns a new state.
    """

    X: np.ndarray
    S: np.ndarray
    Y: np.ndarray
    D: np.ndarray
    M: np.ndarray
    B: np.ndarray
    Xp: np.ndarray
    round: int = 0
    losses: np.ndarray | None = None

    def advance(self, *, X, losses=None, **changed) -> State:
        """The next round's state; raises DivergenceError on non-finite X."""
        finite = np.isfinite(X)
        if not finite.all():
            raise DivergenceError(int(np.argmin(finite.all(axis=1))), self.round)
        return dataclasses.replace(
            self, X=X, Xp=self.X, round=self.round + 1, losses=losses, **changed
        )


def init_states(X0: np.ndarray, W: MixingMatrix) -> State:
    """Initial state: S = W X0, x_prev = X0, all other buffers zero.

    Rounds never write into a state's arrays, so Xp is X itself and the
    zero buffers are one read-only array.
    """
    X0 = check_start(X0, W)
    zeros = np.zeros_like(X0)
    zeros.setflags(write=False)
    return State(X=X0, S=W.mix(X0), Y=zeros, D=zeros, M=zeros, B=zeros, Xp=X0)


# Each rule maps (state, W, G, eta, mu, beta) to the arrays of the next
# state that it changes, X among them, where G is the round's gradient,
# taken at the point its RULES entry names.


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


def _tracked(st, W, G, eta, mu, sent, scale=1.0):
    """delta = g - (s - x)/eta and mc = mu*[W sent - scale*(s - x)/eta - delta_prev]
    for the vector sent (y_prev for GUT, m for the momentum kinds), in place in
    fresh arrays with the expressions' operations in their order, so their roundings."""
    correction = np.subtract(st.S, st.X)
    scaled = scale * correction / eta if scale != 1.0 else None
    correction /= eta
    mc = W.mix(sent)
    mc -= correction if scaled is None else scaled
    mc -= st.D
    mc *= mu
    return np.subtract(G, correction, out=correction), mc


def _around_mix(st, W, G, eta, delta, mc):
    """y = delta + mc, and x - eta*y rearranged around the mixed point as
    s - eta*(g + mc), which is exactly W x - eta g when mc = 0.

    ``mc`` must be the caller's own array: y is summed into it.
    """
    Xn = np.add(G, mc)
    Xn *= eta
    np.subtract(st.S, Xn, out=Xn)
    mc += delta
    return dict(X=Xn, S=W.mix(Xn), Y=mc, D=delta)


def _gut(st, W, G, eta, mu, beta):
    return _around_mix(st, W, G, eta, *_tracked(st, W, G, eta, mu, st.Y))


def _gut_matrix(st, W, G, eta, mu, beta):
    correction = (st.S - st.X) / eta
    delta = G - correction
    Y = delta + mu * (W.mix(st.Y) - correction - st.D)
    Xn = st.X - eta * Y
    return dict(X=Xn, S=W.mix(Xn), Y=Y, D=delta)


def tracked_bracket(S, Sp, X, Xp):
    """2(S - Sp) - X + Xp in a fresh array, where S = W X and Sp = W Xp: the
    tracked correction W y_prev - (W - I)(Xp - X) of a unit step, with no product."""
    out = np.subtract(S, Sp)
    out *= 2.0
    out -= X
    out += Xp
    return out


def _gut_bias(st, W, G, eta, mu, beta):
    """X' = W X - eta*(G + mu*B); W(X' - X) is S' - S, so one product."""
    Xn = st.S - eta * (G + mu * st.B)
    Sn = W.mix(Xn)
    Bn = -(tracked_bracket(Sn, st.S, Xn, st.X) + eta * G) / eta
    return dict(X=Xn, S=Sn, B=Bn)


def _gut_memeff(st, W, G, eta, mu, beta):
    # S is the incrementally maintained aggregate, never recomputed
    correction = (st.S - st.X) / eta
    delta = G - correction
    Y = delta + mu * (W.mix(st.Y) - correction - st.D)
    return dict(X=st.X - eta * Y, S=st.S - eta * W.mix(Y), Y=Y, D=delta)


def _gutm(st, W, G, eta, mu, beta, nesterov, scaled=False):
    """Heavy-ball on the tracked update; Nesterov applies the new buffer, and
    ``scaled`` (QG-GUTm-impl) puts (1 + beta)/eta on the displacement correction."""
    delta, mc = _tracked(st, W, G, eta, mu, st.M, 1.0 + beta if scaled else 1.0)
    Y = delta + mc
    M = beta * st.M + Y
    Xn = st.S - eta * (G + mc) - eta * beta * (M if nesterov else st.M)
    return dict(X=Xn, S=W.mix(Xn), Y=Y, D=delta, M=M)


def _qg_gutm(st, W, G, eta, mu, beta, nesterov):
    """Exponential buffer over the tracked update; Nesterov applies the new buffer."""
    delta, mc = _tracked(st, W, G, eta, mu, st.M)
    step = st.S - eta * (G + mc)
    Y = delta + mc
    M = beta * st.M + (1.0 - beta) * Y
    Xn = beta * st.X + (1.0 - beta) * step - eta * beta * (M if nesterov else st.M)
    return dict(X=Xn, S=W.mix(Xn), Y=Y, D=delta, M=M)


def _rule_a(st, W, G, eta, mu, beta):
    """GUT without the -(s - x)/eta term in the correction."""
    return _around_mix(st, W, G, eta, G - (st.S - st.X) / eta, mu * (W.mix(st.Y) - st.D))


def _rule_b(st, W, G, eta, mu, beta):
    """Corrects with the mixing residual of the last displacement."""
    dx = st.X - st.Xp
    return _around_mix(st, W, G, eta, G - (st.S - st.X) / eta, mu * (-(W.mix(dx) - dx) / eta))


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
    """One synchronous round of spec.kind, with one oracle call.

    The returned state carries the oracle's losses.  Overflow is not a
    warning here: divergence is an intended experimental condition,
    detected and raised as DivergenceError.
    """
    rule = RULES[spec.kind]
    eta = spec.lr(state.round)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, G = oracle(getattr(state, rule.at), state.round)
        return state.advance(losses=losses, **rule.step(state, W, G, eta, spec.mu, spec.beta))


@dataclass
class HyperparameterCheck:
    """Convergence-regime bounds; advisory, runs outside them are allowed."""

    eta_ok: bool
    mu_ok: bool
    eta_max: float
    mu_max: float


def validate_hyperparameters(eta: float, mu: float, rho: float, L: float) -> HyperparameterCheck:
    """Check eta <= rho/(7L) and mu/(1-mu) <= rho/42."""
    check_eta(eta)
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
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
