"""Experiment drivers: consensus task, training runs, equivalence suite.

A trace is a pure function of (configuration, seed); divergent runs are
truncated and flagged rather than raised, by one rule, ``_diverged``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import models
from .algorithms import GUT_FAMILY, AlgorithmSpec, check_mu_beta, check_start
from .algorithms import comm_cost, init_states, run_round
from .topology import MixingMatrix

__all__ = [
    "TraceRow",
    "MetricTrace",
    "TrainingResult",
    "EquivalenceReport",
    "CSV_HEADER",
    "consensus_error",
    "run_consensus",
    "run_training",
    "check_equivalence",
    "decayed_schedule",
]

CONSENSUS_METHODS = ("gossip", "gut", "qg-gossip", "qg-gutm")
# a last error or loss this many times its column's smallest positive value,
# and above its first, flags a run as exploding
EXPLODING_GROWTH = 1e12


@dataclass
class TraceRow:
    round: int
    consensus_error: float
    mean_loss: float | None = None
    avg_model_loss: float | None = None
    avg_model_accuracy: float | None = None
    eta: float | None = None
    comm_scalars: int | float = 0


# the CSV columns are TraceRow's fields, in their order
_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRow))
CSV_HEADER = ",".join(_COLUMNS)
_row_values = attrgetter(*_COLUMNS)


@dataclass
class MetricTrace:
    """Per-round metric records of one run."""

    rows: list[TraceRow]
    divergent: bool = False

    def to_csv(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return format(float(v), ".17g")

        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(fmt(v) for v in _row_values(r)))
        return "\n".join(lines) + "\n"

    def final_row(self) -> TraceRow:
        return self.rows[-1]

    @property
    def nonfinite(self) -> bool:
        """Whether the last row holds a non-finite consensus error or loss.

        That happens with X finite too, when its squares overflow; a
        non-finite X is what ``divergent`` flags.
        """
        if not self.rows:
            return False
        r = self.rows[-1]
        values = (r.consensus_error, r.mean_loss, r.avg_model_loss)
        return not all(v is None or math.isfinite(v) for v in values)

    @property
    def exploding(self) -> bool:
        """Whether the last consensus error or mean loss exceeds the first
        row's and is more than EXPLODING_GROWTH times the smallest positive
        value of its column."""
        for column in ("consensus_error", "mean_loss"):
            values = [v for v in (getattr(r, column) for r in self.rows) if v is not None]
            positive = [v for v in values if v > 0]
            if positive and values[-1] > max(values[0], EXPLODING_GROWTH * min(positive)):
                return True
        return False


def consensus_error(X: np.ndarray, out: np.ndarray | None = None) -> float:
    """(1/n) * squared Frobenius distance of the rows from their mean; einsum
    adds the rows in mean's order, bit for bit, only on C-ordered stacks, d >= 2.
    A 1-D X holds n agents of dimension 1, as ``W.mix`` reads it.

    ``out``, an array of X's 2-D shape other than X, receives the centred
    rows instead of a new array.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"consensus_error takes an (n,) or (n, d) stack, got shape {X.shape}")
    n, d = X.shape
    mean = np.einsum("ij->j", X) / n if d > 1 and X.flags.c_contiguous else X.mean(axis=0)
    centered = np.subtract(X, mean, out=out)
    np.multiply(centered, centered, out=centered)
    return float(np.sum(centered) / n)


def _diverged(X: np.ndarray, err: float | None = None) -> bool:
    """Whether X holds a non-finite entry.  Given X's consensus error err, a
    finite err proves X finite, so stable rounds never scan, and a finite X
    whose squares overflow is not divergent; its row carries the non-finite
    err.  Given no err, X is scanned."""
    return not (err is not None and math.isfinite(err)) and not np.all(np.isfinite(X))


def run_consensus(
    W: MixingMatrix,
    X0: np.ndarray,
    method: str,
    mu: float = 0.9,
    beta: float = 0.9,
    T: int = 100,
    on_round=None,
) -> MetricTrace:
    """Gradient-free averaging with tracked updates and/or momentum.

    ``gossip``'s update is W X itself: DSGD with a zero gradient, bit for
    bit.  ``gut`` is GUT-bias at eta = 1 with a zero gradient, started from
    B = W X0 - X0, that is X_prev = X0: with drift = (W - I)X,
    X' = W X - mu*(B - drift) and B' = (W X - W X') + drift, bit for bit.
    ``qg-gossip`` and ``qg-gutm`` additionally filter the applied update
    X' - X of ``gossip`` and ``gut`` through a momentum buffer built from
    realized displacements.  The loop stays apart from ``run_round``
    because a rule round mixes its new iterate at its end (T + 1 products
    for T rounds, here T) and no rule has the momentum filter.
    Only ``gossip`` forms no difference of iterates: from a finite start
    with entries near +-1.7e308, whose averages are all finite, ``gut``'s
    drift W X - X and the momentum methods' X' - X and X - X_prev
    overflow, so ``gut``, ``qg-gossip`` and ``qg-gutm`` stop as divergent
    in round 1.
    """
    if method not in CONSENSUS_METHODS:
        raise ValueError(f"unknown consensus method {method!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    check_mu_beta(mu, beta)
    X = check_start(X0, W)
    d = X.shape[1]
    per_round_scalars = comm_cost(AlgorithmSpec(kind="DSGD", eta=1.0), d, W)
    centred = np.empty_like(X)
    divergent = False
    tracked = method in ("gut", "qg-gutm")
    use_momentum = method in ("qg-gossip", "qg-gutm")
    if use_momentum:
        M, Xp = np.zeros_like(X), X
    # divergence at aggressive mu, and squares that overflow from round 0 on,
    # are intended conditions: they show in the trace, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [TraceRow(round=0, consensus_error=consensus_error(X, centred), comm_scalars=0)]
        if on_round is not None:
            on_round(0, X)
        for t in range(1, T + 1):
            Xn = WX = W.mix(X)
            if tracked:
                if t == 1:
                    # X_prev = X, so W X_prev = W X and B = drift
                    WXp, drift = WX.copy(), WX - X
                # B = (W X_prev - W X) + drift_prev, then X' = W X - mu*(B - drift),
                # both in W X_prev's array
                Xn = np.subtract(WXp, WX, out=WXp)
                Xn += drift
                np.subtract(WX, X, out=drift)
                Xn -= drift
                Xn *= mu
                np.subtract(WX, Xn, out=Xn)
                WXp = WX
            if use_momentum:
                # Xn = X + beta M + (1 - beta)(Xn - X)
                M *= beta
                M += (1.0 - beta) * (X - Xp)
                Xn -= X
                Xn *= 1.0 - beta
                Xn += beta * M
                Xn += X
                Xp = X
            err = consensus_error(Xn, centred)
            if _diverged(Xn, err):
                divergent = True
                break
            X = Xn
            rows.append(TraceRow(round=t, consensus_error=err, comm_scalars=per_round_scalars * t))
            if on_round is not None:
                on_round(t, X)
    return MetricTrace(rows=rows, divergent=divergent)


def decayed_schedule(eta: float, T: int):
    """Step schedule with a 10x drop at 50% and 75% of T."""
    first, second = T // 2, (3 * T) // 4

    def schedule(t: int) -> float:
        if t >= second:
            return eta * 0.1 * 0.1
        if t >= first:
            return eta * 0.1
        return eta

    return schedule


@dataclass
class TrainingResult:
    traces: list[MetricTrace]
    summary: dict


def run_training(
    W: MixingMatrix,
    problem: models.Problem,
    spec: AlgorithmSpec,
    T: int,
    batch_size: int | None = 32,
    seeds=(1, 2, 3),
    eval_every: int = 10,
    decay: bool = True,
) -> TrainingResult:
    """Synchronous decentralized training, repeated per seed.

    All agents start from one shared parameter vector.  The averaged
    (consensus) model is evaluated every ``eval_every`` rounds.  Round t
    runs at step spec.eta, or, when ``decay`` is set, on a copy of spec at
    ``decayed_schedule(spec.eta, T)(t)``: 10x lower at 50% and 75% of T.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    schedule = decayed_schedule(spec.eta, T)
    d = problem.dim
    scalars_per_round = comm_cost(spec, d, W)
    # what round 0 sends less than a later round (GT's first y is local)
    unsent = scalars_per_round - comm_cost(spec, d, W, first_round=True)
    traces = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = 0.1 * rng.standard_normal(d)
        oracle = models.make_oracle(problem, batch_size, seed=seed)
        states = init_states(np.broadcast_to(x0, (W.n, d)), W)
        centred = np.empty_like(states.X)
        rows: list[TraceRow] = []
        divergent = False
        # overflow on a diverging run is expected and surfaces as the
        # divergent flag, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                # a copy of spec per decayed round, so every step passes its checks
                round_spec = dataclasses.replace(spec, eta=schedule(t)) if decay else spec
                states = run_round(states, W, round_spec, oracle)
                err = consensus_error(states.X, centred)
                if _diverged(states.X, err):
                    divergent = True
                    break
                row = TraceRow(
                    round=t,
                    consensus_error=err,
                    mean_loss=float(np.mean(states.losses)),
                    eta=round_spec.eta,
                    comm_scalars=scalars_per_round * (t + 1) - unsent,
                )
                if (t + 1) % eval_every == 0 or t == T - 1:
                    loss, acc = problem.evaluate(np.mean(states.X, axis=0))
                    row.avg_model_loss = loss
                    row.avg_model_accuracy = acc
                rows.append(row)
        traces.append(MetricTrace(rows=rows, divergent=divergent))
    # T >= 1, so a run that did not diverge evaluated its final row
    finals = [tr.final_row() for tr in traces if not tr.divergent]
    finals_loss = [r.avg_model_loss for r in finals]
    finals_acc = [r.avg_model_accuracy for r in finals if r.avg_model_accuracy is not None]
    # a final loss that overflowed is in the trace; its statistics are too
    with np.errstate(over="ignore", invalid="ignore"):
        summary = {
            "seeds": list(seeds),
            "divergent": [tr.divergent for tr in traces],
            "nonfinite": [tr.nonfinite for tr in traces],
            "final_loss_mean": float(np.mean(finals_loss)) if finals_loss else math.nan,
            "final_loss_std": float(np.std(finals_loss)) if finals_loss else math.nan,
            "final_accuracy_mean": float(np.mean(finals_acc)) if finals_acc else None,
            "final_accuracy_std": float(np.std(finals_acc)) if finals_acc else None,
        }
    return TrainingResult(traces=traces, summary=summary)


@dataclass
class EquivalenceReport:
    """Cross-formulation deviation of the tracked-update trajectories.

    ``rounds`` is the number of rounds compared: T, or fewer when the
    reference diverged.  ``diverged_at`` maps each formulation to the
    round in which it turned non-finite, or None.
    """

    max_deviation: float
    per_form: dict
    tol: float
    rounds: int
    diverged_at: dict

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def check_equivalence(
    W: MixingMatrix,
    problem: models.Problem,
    spec: AlgorithmSpec,
    T: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> EquivalenceReport:
    """Run all four tracked-update formulations on one gradient stream.

    Agents start from a shared parameter vector and run at the constant
    step spec.eta.  The report carries each one's max relative parameter
    deviation from the GUT reference over all rounds.  A diverging run is
    compared up to the round in which the reference turns non-finite; a
    formulation that diverges in another round, or a comparison of zero
    rounds, counts as an infinite deviation.  ``tol`` must be finite and
    >= 0.

    The formulations run in lockstep, one state each, so the suite holds
    O(n d) memory for any T.  Interleaving them gives each the gradients
    it would get alone: row i of the oracle's G depends only on row i of
    X, on i and on the round.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"equivalence tol must be finite and >= 0, got {tol}")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(problem.dim)
    start = init_states(np.broadcast_to(x0, (W.n, problem.dim)), W)
    oracle = models.make_oracle(problem, batch_size=None, seed=seed)
    specs = {kind: dataclasses.replace(spec, kind=kind) for kind in GUT_FAMILY}
    states = dict.fromkeys(GUT_FAMILY, start)
    diverged_at: dict[str, int | None] = dict.fromkeys(GUT_FAMILY)
    deviation = dict.fromkeys(GUT_FAMILY[1:], 0.0)
    # overflow on a diverging formulation surfaces in diverged_at
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            for kind in GUT_FAMILY:
                if diverged_at[kind] is None:
                    state = run_round(states[kind], W, specs[kind], oracle)
                    if _diverged(state.X):
                        diverged_at[kind] = t
                    states[kind] = state
            ref = states["GUT"].X
            for kind in deviation:
                if diverged_at["GUT"] is None and diverged_at[kind] is None:
                    dev = float(np.max(np.abs(states[kind].X - ref) / (1.0 + np.abs(ref))))
                    deviation[kind] = max(deviation[kind], dev)
    rounds = T if diverged_at["GUT"] is None else diverged_at["GUT"]
    per_form = {
        kind: dev if rounds and diverged_at[kind] == diverged_at["GUT"] else math.inf
        for kind, dev in deviation.items()
    }
    return EquivalenceReport(
        max_deviation=max(per_form.values()), per_form=per_form, tol=tol,
        rounds=rounds, diverged_at=diverged_at,
    )
