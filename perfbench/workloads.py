"""The benchmark's workloads: inputs from a seed, the timed call, output checks.

A workload builds its inputs from the workload seed (``setup``), makes one
call into ``decentrack.harness`` (``run``) and checks the returned trace
(``check``) against values ``expect`` computes once per invocation with the
independent implementations in ``reference.py``.  The package only ever
receives the generated inputs and seeds derived from the workload seed.

``probe`` reruns the reference trajectory of the workload.  It is part of
the benchmark, not of the package, so its time changes only with the
host's speed; run.py times it next to every repeat to take that speed out
of the reported timings.  ``probe_nominal_s`` is its time on the nominal
host (see run.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference
from decentrack import (
    AlgorithmSpec,
    SyntheticProblemSpec,
    build_topology,
    dirichlet_partition,
    make_problem,
    run_consensus,
    run_training,
)

# Relative tolerance between the package and the reference implementation.
# Reordered float sums differ by ~1e-13 here; a wrong rule differs by far
# more than 1e-3.
REFERENCE_RTOL = 1e-8
# The consensus recursion keeps every column mean of X; drift is measured
# relative to the RMS of X0.
MEAN_RTOL = 1e-10


@dataclass
class Inputs:
    W: object
    problem: object = None
    spec: AlgorithmSpec | None = None
    X0: np.ndarray | None = None
    train_seed: int = 0


@dataclass
class Outcome:
    trace: object
    X_final: np.ndarray | None = None


def derived_seeds(seed: int) -> list[int]:
    """Problem, partition, training and X0 seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name: str
    why: str
    rounds: int
    degree: int  # neighbours per agent on the workload's graph
    dim: int  # scalars per transmitted vector
    probe_calls = 1  # reference trajectories per probe
    probe_nominal_s: float  # time of one probe on the nominal host

    def setup(self, seed: int, tracer) -> Inputs:
        raise NotImplementedError

    def run(self, inputs: Inputs) -> Outcome:
        raise NotImplementedError

    def probe(self, inputs: Inputs):
        """The reference trajectory on ``inputs``; run.py times it."""
        raise NotImplementedError

    def expect(self, inputs: Inputs) -> dict:
        """Reference values: final_error, consensus_error and what check needs."""
        raise NotImplementedError

    def final_error(self, inputs: Inputs, outcome: Outcome, expected: dict) -> float:
        raise NotImplementedError

    def check(self, inputs: Inputs, outcome: Outcome, expected: dict) -> list[str]:
        """Failed output checks of one repeat; empty when the output is correct."""
        trace = outcome.trace
        if trace.divergent or len(trace.rows) != self.expected_rows():
            return [f"divergent or truncated trace ({len(trace.rows)} rows)"]
        problems = []
        for row in trace.rows:
            values = (row.consensus_error, row.mean_loss, row.avg_model_loss, row.avg_model_accuracy)
            if not all(v is None or math.isfinite(v) for v in values):
                problems.append(f"non-finite value in round {row.round}")
                break
        per_round = self.degree * self.dim
        for row in trace.rows:
            if row.comm_scalars != per_round * self.rounds_done(row.round):
                problems.append(f"comm_scalars {row.comm_scalars} at round {row.round}")
                break
        error = self.final_error(inputs, outcome, expected)
        if not _rel(error, expected["final_error"]) <= REFERENCE_RTOL:
            problems.append(f"final_error {error!r} != reference {expected['final_error']!r}")
        ce = trace.rows[-1].consensus_error
        if not _rel(ce, expected["consensus_error"]) <= REFERENCE_RTOL:
            problems.append(f"consensus_error {ce!r} != reference {expected['consensus_error']!r}")
        return problems

    def expected_rows(self) -> int:
        return self.rounds

    def rounds_done(self, row_round: int) -> int:
        return row_round + 1


class QuadRing(Workload):
    name = "quad-ring1024"
    why = "n=1024 quadratic GUT training; per-agent oracle calls and per-agent state dominate"
    rounds = 4
    degree = 2
    dim = 32
    probe_nominal_s = 0.12

    def setup(self, seed, tracer):
        problem_seed, _, train_seed, _ = derived_seeds(seed)
        with tracer.span("topology.build"):
            W = build_topology("ring", 1024)
        spec = SyntheticProblemSpec(
            kind="quadratic", d=self.dim, n_agents=1024, zeta=1.0, sigma=0.1, seed=problem_seed
        )
        with tracer.span("models.make_problem"):
            problem = make_problem(spec)
        algo = AlgorithmSpec(kind="GUT", eta=0.05, mu=0.15)
        return Inputs(W=W, problem=problem, spec=algo, train_seed=train_seed)

    def run(self, inputs):
        result = run_training(
            inputs.W, inputs.problem, inputs.spec, T=self.rounds,
            batch_size=None, seeds=(inputs.train_seed,),
        )
        return Outcome(trace=result.traces[0])

    def _gap_ratio(self, inputs, final_gap):
        """Optimality gap of the average model relative to the starting gap."""
        x0 = reference.initial_point(inputs.train_seed, self.dim)
        start = x0 - inputs.problem.x_star
        return final_gap / (0.5 * float(start @ start))

    def probe(self, inputs):
        return reference.quadratic_gut(
            inputs.problem, inputs.W, inputs.spec.eta, inputs.spec.mu, self.rounds,
            inputs.train_seed,
        )

    def expect(self, inputs):
        X = self.probe(inputs)
        gap = X.mean(axis=0) - inputs.problem.x_star
        return {
            "final_error": self._gap_ratio(inputs, 0.5 * float(gap @ gap)),
            "consensus_error": reference.consensus_error(X),
        }

    def final_error(self, inputs, outcome, expected):
        final_gap = outcome.trace.final_row().avg_model_loss - inputs.problem.f_star
        return self._gap_ratio(inputs, final_gap)


class ConsensusRing(Workload):
    name = "consensus-ring1024"
    why = "n=1024 tracked averaging with no oracle; dense W @ X mixing does almost all the work"
    rounds = 50
    degree = 2
    dim = 32
    mu = 0.15
    probe_calls = 4  # one trajectory takes ~5% of a repeat
    probe_nominal_s = 0.105

    def setup(self, seed, tracer):
        x0_seed = derived_seeds(seed)[3]
        with tracer.span("topology.build"):
            W = build_topology("ring", 1024)
        X0 = np.random.default_rng(x0_seed).standard_normal((1024, self.dim))
        return Inputs(W=W, X0=X0)

    def run(self, inputs):
        last = [None]

        def keep(t, X):
            last[0] = X

        trace = run_consensus(inputs.W, inputs.X0, "gut", mu=self.mu, T=self.rounds, on_round=keep)
        return Outcome(trace=trace, X_final=last[0])

    def probe(self, inputs):
        return reference.consensus_gut(inputs.W, inputs.X0, self.mu, self.rounds)

    def expect(self, inputs):
        ce = reference.consensus_error(self.probe(inputs))
        gossip = reference.consensus_error(
            reference.consensus_gut(inputs.W, inputs.X0, 0.0, self.rounds)
        )
        return {"final_error": ce / gossip, "consensus_error": ce, "gossip_consensus_error": gossip}

    def final_error(self, inputs, outcome, expected):
        """Final consensus error relative to plain gossip's from the same X0."""
        return outcome.trace.final_row().consensus_error / expected["gossip_consensus_error"]

    def check(self, inputs, outcome, expected):
        problems = super().check(inputs, outcome, expected)
        X0, X = inputs.X0, outcome.X_final
        if X is None or X.shape != X0.shape:
            problems.append("no final X")
            return problems
        drift = float(np.max(np.abs(X.mean(axis=0) - X0.mean(axis=0))))
        if not drift <= MEAN_RTOL * float(np.sqrt(np.mean(X0 * X0))):
            problems.append(f"column means drifted by {drift!r}")
        return problems

    def expected_rows(self):
        return self.rounds + 1

    def rounds_done(self, row_round):
        return row_round


class SoftmaxDyck(Workload):
    name = "softmax-dyck32"
    why = "n=32 label-skewed softmax QG-GUTm training; real per-call oracle compute, momentum rule, partition, periodic evaluate"
    rounds = 50
    degree = 3
    dim = 200  # 10 classes x 20 features
    probe_nominal_s = 0.17
    eta, mu, beta, batch = 0.1, 0.05, 0.9, 32

    def setup(self, seed, tracer):
        problem_seed, partition_seed, train_seed, _ = derived_seeds(seed)
        with tracer.span("topology.build"):
            W = build_topology("dyck", 32)
        # separation 1 gives overlapping classes, so the final test loss is
        # set by training quality rather than by how far weights have grown
        spec = SyntheticProblemSpec(
            kind="softmax", d=20, n_agents=32, n_classes=10, n_samples=8000,
            separation=1.0, seed=problem_seed,
        )
        with tracer.span("models.make_problem"):
            base = make_problem(spec)
        with tracer.span("partition.dirichlet"):
            part = dirichlet_partition(base.labels, 32, alpha=0.1, seed=partition_seed)
        with tracer.span("models.make_problem"):
            problem = make_problem(spec, assignments=part.assignments)
        algo = AlgorithmSpec(kind="QG-GUTm", eta=self.eta, mu=self.mu, beta=self.beta)
        return Inputs(W=W, problem=problem, spec=algo, train_seed=train_seed)

    def run(self, inputs):
        result = run_training(
            inputs.W, inputs.problem, inputs.spec, T=self.rounds,
            batch_size=self.batch, seeds=(inputs.train_seed,), eval_every=10,
        )
        return Outcome(trace=result.traces[0])

    def probe(self, inputs):
        return reference.softmax_qg_gutm(
            inputs.problem, inputs.W, self.eta, self.mu, self.beta, self.rounds, self.batch,
            inputs.train_seed,
        )

    def expect(self, inputs):
        p, seed = inputs.problem, inputs.train_seed
        X = self.probe(inputs)
        centralized = reference.softmax_test_loss(
            p, reference.softmax_centralized(p, self.eta, self.rounds, seed)
        )
        return {
            "final_error": reference.softmax_test_loss(p, X.mean(axis=0)) / centralized,
            "consensus_error": reference.consensus_error(X),
            "centralized_test_loss": centralized,
        }

    def final_error(self, inputs, outcome, expected):
        """Final test loss relative to centralized full-batch descent's."""
        return outcome.trace.final_row().avg_model_loss / expected["centralized_test_loss"]


WORKLOADS = {w.name: w for w in (QuadRing(), ConsensusRing(), SoftmaxDyck())}
