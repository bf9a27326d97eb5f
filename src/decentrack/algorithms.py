"""Synchronous-round update rules for decentralized optimization.

Every rule is a pure transition ``(state, W, spec, oracle) -> state'``
over the full agent population, held as one stacked ``State``.  The
update-tracking family (GUT and its momentum variants) evaluates gradients
at the gossip-mixed point ``s_i = sum_j w_ij x_j`` and transmits a single
tracked update per round; the baselines evaluate at the local parameters.
Every product with W goes through ``MixingMatrix.mix``.  Four algebraically
equivalent formulations of the tracked update are provided so that their
trajectories can be cross-checked:

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

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .topology import MixingMatrix

__all__ = [
    "KINDS",
    "AgentState",
    "AlgorithmSpec",
    "DivergenceError",
    "HyperparameterCheck",
    "State",
    "check_mu_beta",
    "check_start",
    "init_states",
    "run_round",
    "gut_round",
    "qg_gutm_round",
    "baseline_round",
    "gradient_tracking_round",
    "rule_round",
    "gut_form_round",
    "validate_hyperparameters",
    "comm_cost",
]

KINDS = (
    "DSGD", "DSGDm", "DSGDmN", "QG-DSGDm", "QG-DSGDmN",
    "GT",
    "GUT", "GUTm", "GUTmN", "QG-GUTm", "QG-GUTmN", "QG-GUTm-impl",
    "GUT-matrix", "GUT-bias", "GUT-memeff",
    "RuleA", "RuleB",
)

GUT_FAMILY = ("GUT", "GUT-matrix", "GUT-bias", "GUT-memeff")


class DivergenceError(RuntimeError):
    """Raised when a round produces non-finite parameters."""

    def __init__(self, agent: int, rnd: int):
        super().__init__(f"non-finite parameters at agent {agent}, round {rnd}")
        self.agent = agent
        self.round = rnd


@dataclass
class AgentState:
    """One agent's buffers at a round boundary.

    ``s`` is the weighted neighborhood aggregate sum_j w_ij x_j, ``y_prev``
    and ``delta_prev`` the tracking history (GT reuses ``delta_prev`` for
    its previous gradient), ``m`` the momentum buffer, ``bias`` the B
    column of the bias-correction form and ``x_prev`` the previous
    parameters (initialized to x itself).
    """

    x: np.ndarray
    s: np.ndarray
    y_prev: np.ndarray
    delta_prev: np.ndarray
    m: np.ndarray
    bias: np.ndarray
    x_prev: np.ndarray
    round: int = 0


def check_mu_beta(mu: float, beta: float) -> None:
    """Raise ValueError unless the tracking weight mu and momentum beta lie in [0, 1)."""
    if not 0 <= mu < 1:
        raise ValueError(f"mu must lie in [0, 1), got {mu}")
    if not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")


def check_start(X0: np.ndarray, W: MixingMatrix) -> np.ndarray:
    """A C-ordered float copy of X0; ValueError unless it is finite and (W.n, d)."""
    X0 = np.array(X0, dtype=float, order="C")
    if X0.ndim != 2 or X0.shape[0] != W.n:
        raise ValueError(f"X0 must be ({W.n}, d), got shape {X0.shape}")
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
    nesterov: bool = False
    eta_schedule: Callable[[int], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        check_mu_beta(self.mu, self.beta)

    def lr(self, rnd: int) -> float:
        eta = self.eta_schedule(rnd) if self.eta_schedule is not None else self.eta
        if eta <= 0:
            raise ValueError(f"eta schedule produced non-positive step at t={rnd}")
        return eta

    def effective_kind(self) -> str:
        kind = self.kind
        if self.nesterov and kind in ("DSGDm", "QG-DSGDm", "GUTm", "QG-GUTm"):
            kind += "N"
        return kind


@dataclass
class State:
    """All agents' buffers at a round boundary, one ``(n, d)`` array each.

    Row i of ``X, S, Y, D, M, B, Xp`` is agent i's ``x, s, y_prev,
    delta_prev, m, bias, x_prev``.  ``len``, iteration and indexing give
    per-agent ``AgentState`` views of the rows.  Rounds never write into
    a state's arrays; each returns a new state.
    """

    X: np.ndarray
    S: np.ndarray
    Y: np.ndarray
    D: np.ndarray
    M: np.ndarray
    B: np.ndarray
    Xp: np.ndarray
    round: int = 0

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> AgentState:
        i = operator.index(i)
        return AgentState(
            x=self.X[i], s=self.S[i], y_prev=self.Y[i], delta_prev=self.D[i],
            m=self.M[i], bias=self.B[i], x_prev=self.Xp[i], round=self.round,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def advance(self, *, X, S, Y, D, M=None, B=None) -> State:
        """The next round's state; raises DivergenceError on non-finite X."""
        finite = np.isfinite(X)
        if not finite.all():
            raise DivergenceError(int(np.argmin(finite.all(axis=1))), self.round)
        return State(
            X=X, S=S, Y=Y, D=D,
            M=self.M if M is None else M,
            B=self.B if B is None else B,
            Xp=self.X,
            round=self.round + 1,
        )


def init_states(X0: np.ndarray, W: MixingMatrix, spec: AlgorithmSpec) -> State:
    """Initial state: S = W X0, x_prev = X0, all other buffers zero."""
    X0 = check_start(X0, W)
    Y, D, M, B = (np.zeros_like(X0) for _ in range(4))
    return State(X=X0, S=W.mix(X0), Y=Y, D=D, M=M, B=B, Xp=X0.copy())


def gut_round(st: State, W, spec, oracle) -> State:
    """One tracked-update round (per-agent recursion with neighbor copies).

    g is taken at the mixed point s_i; the transmitted update is
    y = delta + mu * [W y_prev - (s - x)/eta - delta_prev] with
    delta = g - (s - x)/eta, and x steps by -eta*y.
    """
    eta = spec.lr(st.round)
    mu = spec.mu
    X, S = st.X, st.S
    G = oracle(S, st.round)[1]
    disp = S - X
    delta = G - disp / eta
    corr = W.mix(st.Y) - disp / eta - st.D
    Y = delta + mu * corr
    # x - eta*y rearranged around the mixed point; reduces to W x - eta g
    # exactly when mu = 0
    Xn = S - eta * (G + mu * corr)
    return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=delta)


def gut_form_round(st: State, W, spec, oracle, form: str) -> State:
    """Alternative GUT formulations: ``matrix``, ``bias`` or ``memeff``."""
    rnd = st.round
    eta = spec.lr(rnd)
    mu = spec.mu
    X, S = st.X, st.S
    if form == "matrix":
        G = oracle(S, rnd)[1]
        delta = G - (S - X) / eta
        Y = delta + mu * (W.mix(st.Y) - (S - X) / eta - st.D)
        Xn = X - eta * Y
        return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=delta)
    if form == "bias":
        G = oracle(S, rnd)[1]
        Xn = S - eta * (G + mu * st.B)
        Bn = -((2.0 * W.mix(Xn - X) - (Xn - X)) + eta * G) / eta
        Y = (X - Xn) / eta
        delta = G - (S - X) / eta
        return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=delta, B=Bn)
    if form == "memeff":
        # S is the incrementally maintained aggregate, never recomputed
        G = oracle(S, rnd)[1]
        disp = S - X
        delta = G - disp / eta
        Y = delta + mu * (W.mix(st.Y) - disp / eta - st.D)
        Xn = X - eta * Y
        return st.advance(X=Xn, S=S - eta * W.mix(Y), Y=Y, D=delta)
    raise ValueError(f"unknown GUT form {form!r}")


def qg_gutm_round(st: State, W, spec, oracle) -> State:
    """Tracked update combined with a momentum buffer.

    Variants: QG-GUTm (exponential buffer, transmits m), QG-GUTm-impl
    (accumulating buffer with a (1+beta)/eta correction scale), GUTm
    (heavy-ball on the tracked update) and the Nesterov look-ahead
    versions of the latter two.
    """
    kind = spec.effective_kind()
    rnd = st.round
    eta = spec.lr(rnd)
    mu, beta = spec.mu, spec.beta
    X, S, Mp = st.X, st.S, st.M
    G = oracle(S, rnd)[1]
    disp = S - X
    delta = G - disp / eta
    scale = (1.0 + beta) if kind == "QG-GUTm-impl" else 1.0
    corr = W.mix(Mp) - scale * disp / eta - st.D
    Y = delta + mu * corr
    tracked_step = S - eta * (G + mu * corr)  # equals x - eta*y
    if kind == "QG-GUTm":
        M = beta * Mp + (1.0 - beta) * Y
        Xn = beta * X + (1.0 - beta) * tracked_step - eta * beta * Mp
    elif kind == "QG-GUTmN":
        M = beta * Mp + (1.0 - beta) * Y
        Xn = beta * X + (1.0 - beta) * tracked_step - eta * beta * M
    elif kind in ("GUTm", "QG-GUTm-impl"):
        M = beta * Mp + Y
        Xn = tracked_step - eta * beta * Mp
    elif kind == "GUTmN":
        M = beta * Mp + Y
        Xn = tracked_step - eta * beta * M
    else:
        raise ValueError(f"qg_gutm_round cannot run kind {spec.kind!r}")
    return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=delta, M=M)


def baseline_round(st: State, W, spec, oracle) -> State:
    """Gossip baselines with gradients at the local parameters."""
    kind = spec.effective_kind()
    rnd = st.round
    eta = spec.lr(rnd)
    beta = spec.beta
    X, Mp = st.X, st.M
    G = oracle(X, rnd)[1]
    if kind == "DSGD":
        M = Mp
        Xn = W.mix(X - eta * G)
    elif kind == "DSGDm":
        M = beta * Mp + G
        Xn = W.mix(X - eta * M)
    elif kind == "DSGDmN":
        M = beta * Mp + G
        Xn = W.mix(X - eta * (G + beta * M))
    elif kind == "QG-DSGDm":
        Xn = W.mix(X - eta * (G + beta * Mp))
        M = beta * Mp + (1.0 - beta) * (X - Xn) / eta
    elif kind == "QG-DSGDmN":
        look = beta * Mp + (1.0 - beta) * G
        Xn = W.mix(X - eta * (G + beta * look))
        M = beta * Mp + (1.0 - beta) * (X - Xn) / eta
    else:
        raise ValueError(f"baseline_round cannot run kind {spec.kind!r}")
    Y = (X - Xn) / eta
    return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=G, M=M)


def gradient_tracking_round(st: State, W, spec, oracle) -> State:
    """Gradient tracking: y accumulates g - g_prev through the gossip mix.

    Both x and y are exchanged (2x communication).  y is initialized to
    the first local gradient.
    """
    rnd = st.round
    eta = spec.lr(rnd)
    X = st.X
    G = oracle(X, rnd)[1]
    Y = G if rnd == 0 else W.mix(st.Y) - st.D + G
    Xn = W.mix(X - eta * Y)
    return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=G)


def rule_round(st: State, W, spec, oracle) -> State:
    """Naive tracking ablations (Rule-a, Rule-b).

    Both share the tracked first term G - (W - I)X/eta and transmit only
    Y; they differ in the mu-scaled correction.
    """
    rnd = st.round
    eta = spec.lr(rnd)
    mu = spec.mu
    X, S = st.X, st.S
    G = oracle(S, rnd)[1]
    disp = S - X
    delta = G - disp / eta
    if spec.kind == "RuleA":
        corr = W.mix(st.Y) - st.D
    elif spec.kind == "RuleB":
        dx = X - st.Xp
        corr = -(W.mix(dx) - dx) / eta
    else:
        raise ValueError(f"rule_round cannot run kind {spec.kind!r}")
    Y = delta + mu * corr
    Xn = S - eta * (G + mu * corr)
    return st.advance(X=Xn, S=W.mix(Xn), Y=Y, D=delta)


_DISPATCH = {
    "DSGD": baseline_round,
    "DSGDm": baseline_round,
    "DSGDmN": baseline_round,
    "QG-DSGDm": baseline_round,
    "QG-DSGDmN": baseline_round,
    "GT": gradient_tracking_round,
    "GUT": gut_round,
    "GUTm": qg_gutm_round,
    "GUTmN": qg_gutm_round,
    "QG-GUTm": qg_gutm_round,
    "QG-GUTmN": qg_gutm_round,
    "QG-GUTm-impl": qg_gutm_round,
    "RuleA": rule_round,
    "RuleB": rule_round,
}


def run_round(state: State, W, spec, oracle) -> State:
    """Dispatch one synchronous round for spec.kind.

    Overflow is not a warning here: divergence is an intended experimental
    condition, detected and raised as DivergenceError.
    """
    kind = spec.kind
    with np.errstate(over="ignore", invalid="ignore"):
        if kind.startswith("GUT-"):
            return gut_form_round(state, W, spec, oracle, form=kind.split("-", 1)[1].lower())
        return _DISPATCH[kind](state, W, spec, oracle)


@dataclass
class HyperparameterCheck:
    """Convergence-regime bounds; advisory, runs outside them are allowed."""

    eta_ok: bool
    mu_ok: bool
    eta_max: float
    mu_max: float


def validate_hyperparameters(eta: float, mu: float, rho: float, L: float) -> HyperparameterCheck:
    """Check eta <= rho/(7L) and mu/(1-mu) <= rho/42."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    eta_max = rho / (7.0 * L)
    mu_max = rho / (42.0 + rho)
    return HyperparameterCheck(
        eta_ok=eta <= eta_max,
        mu_ok=mu <= mu_max,
        eta_max=eta_max,
        mu_max=mu_max,
    )


def comm_cost(spec: AlgorithmSpec, d: int, W: MixingMatrix) -> int:
    """Scalars transmitted per agent per round: degree * d, doubled for GT."""
    mult = 2 if spec.kind == "GT" else 1
    return int(W.degrees.mean() * d * mult)
