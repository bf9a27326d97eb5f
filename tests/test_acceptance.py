"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each test prints ``ACCEPTANCE <k>: PASS|FAIL - <detail>`` before asserting,
so the verdict line is visible for failing criteria too.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from decentrack.algorithms import (
    AlgorithmSpec,
    comm_cost,
    init_states,
    run_round,
    validate_hyperparameters,
)
from decentrack.cli import main as cli_main
from decentrack.harness import (
    check_equivalence,
    run_consensus,
    run_training,
)
from decentrack.models import (
    SyntheticProblemSpec,
    finite_diff_check,
    make_problem,
)
from decentrack.partition import dirichlet_partition, partition_histogram
from decentrack.topology import build_topology, spectral_stats


def verdict(k: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_1_average_preservation_at_mu_09():
    t0 = time.perf_counter()
    W = build_topology("ring", 64)
    X0 = np.random.default_rng(0).standard_normal((64, 32))
    mean0 = X0.mean()
    tol = 1e-10 * (1 + abs(mean0))
    drifts = []
    trace = run_consensus(
        W, X0, method="gut", mu=0.9, T=2000,
        on_round=lambda t, X: drifts.append(abs(X.mean() - mean0)),
    )
    elapsed = time.perf_counter() - t0
    completed = trace.rows[-1].round == 2000 and not trace.divergent
    worst = max(drifts)
    ok = completed and worst <= tol and elapsed < 5
    assert verdict(
        1,
        ok,
        f"max |mean drift| {worst:.3g} vs tol {tol:.3g}, "
        f"reached round {trace.rows[-1].round}/2000 "
        f"(divergent={trace.divergent}), {elapsed:.2f}s",
    )


def test_acceptance_2_four_form_equivalence():
    t0 = time.perf_counter()
    W = build_topology("ring", 8)
    problem = make_problem(
        SyntheticProblemSpec(
            kind="quadratic", d=4, n_agents=8, zeta=1.0, sigma=0.1, seed=0
        )
    )
    report = check_equivalence(
        W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.9), T=100, tol=1e-8
    )
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 1
    assert verdict(
        2,
        ok,
        f"max relative deviation {report.max_deviation:.3g} <= 1e-8 "
        f"across {sorted(report.per_form)}, {elapsed:.2f}s",
    )


def test_acceptance_3_mu_zero_reductions():
    W = build_topology("ring", 8)
    rng = np.random.default_rng(1)
    X0 = rng.standard_normal((8, 3))
    b = rng.standard_normal((8, 3))

    def oracle(X, rnd):
        return np.zeros(len(X)), X - b

    def one_round(kind, mu):
        spec = AlgorithmSpec(kind=kind, eta=0.2, mu=mu)
        states = run_round(init_states(X0, W), W, spec, oracle)
        return states.X

    S = W.weights @ X0
    exact_step = np.array_equal(one_round("GUT", 0.0), S - 0.2 * (S - b))

    X0c = rng.standard_normal((8, 4))
    gut_trace = run_consensus(W, X0c, method="gut", mu=0.0, T=100)
    gossip_trace = run_consensus(W, X0c, method="gossip", T=100)
    trace_dev = max(
        abs(a.consensus_error - g.consensus_error)
        for a, g in zip(gut_trace.rows, gossip_trace.rows)
    )

    ref = one_round("GUT", 0.0)
    rules_exact = all(
        np.array_equal(one_round(kind, 0.0), ref) for kind in ("RuleA", "RuleB")
    )
    ok = exact_step and trace_dev <= 1e-12 and rules_exact
    assert verdict(
        3,
        ok,
        f"mu=0 step exact={exact_step}, consensus trace deviation "
        f"{trace_dev:.3g} <= 1e-12, RuleA/RuleB coincide={rules_exact}",
    )


def test_acceptance_4_consensus_speedup_at_paper_scale():
    t0 = time.perf_counter()
    mus = (0.3, 0.5, 0.7, 0.9)
    details = []
    gut_ok = True
    for n in (64, 128, 256):
        W = build_topology("ring", n)
        X0 = np.random.default_rng(n).standard_normal((n, 32))
        gossip = run_consensus(W, X0, method="gossip", T=2000).rows[-1].consensus_error
        tracked = {
            mu: run_consensus(W, X0, method="gut", mu=mu, T=2000).rows[-1].consensus_error
            for mu in mus
        }
        best = min(tracked.values())
        exists = best < gossip
        gut_ok = gut_ok and exists
        details.append(f"n={n} gossip {gossip:.3g} best-tracked {best:.3g}")
    W = build_topology("ring", 256)
    X0 = np.random.default_rng(256).standard_normal((256, 32))
    qg_gossip = (
        run_consensus(W, X0, method="qg-gossip", beta=0.9, T=2000).rows[-1].consensus_error
    )
    qg_best = min(
        run_consensus(W, X0, method="qg-gutm", mu=mu, beta=beta, T=2000)
        .rows[-1].consensus_error
        for mu in mus
        for beta in (0.5, 0.9)
    )
    qg_ok = qg_best < qg_gossip
    elapsed = time.perf_counter() - t0
    ok = gut_ok and qg_ok and elapsed < 60
    assert verdict(
        4,
        ok,
        f"tracked-vs-gossip existence over mu {mus}: "
        + "; ".join(details)
        + f"; n=256 momentum pair {qg_best:.3g} vs quasi-global gossip "
        f"{qg_gossip:.3g}, {elapsed:.1f}s",
    )


def test_acceptance_5_hyperparameter_validator():
    W = build_topology("ring", 16)
    stats = spectral_stats(W)
    eigs = np.sort([(1 + 2 * np.cos(2 * np.pi * k / 16)) / 3 for k in range(16)])[::-1]
    rho_closed = 1.0 - max(abs(eigs[1]), abs(eigs[-1]))
    check = validate_hyperparameters(eta=0.1, mu=0.9, rho=stats.rho, L=1.0)
    oracle_match = abs(stats.rho - rho_closed) <= 1e-10
    formulas = (
        check.eta_max == stats.rho / 7 and check.mu_max == stats.rho / (42 + stats.rho)
    )
    quoted = (
        abs(stats.rho - 0.050756) <= 2e-5
        and abs(check.eta_max - 0.007251) <= 5e-6
        and abs(check.mu_max - 0.0012074) <= 1e-6
    )
    ok = oracle_match and formulas and quoted
    assert verdict(
        5,
        ok,
        f"rho {stats.rho:.7g} (closed form {rho_closed:.7g}), "
        f"eta_max {check.eta_max:.7g} ~ 0.007251, mu_max {check.mu_max:.7g} ~ 0.0012074",
    )


def test_acceptance_6_gradient_oracle():
    rng = np.random.default_rng(2)
    worsts = {}
    for kind, bound in (("quadratic", 1e-8), ("softmax", 1e-5), ("mlp", 1e-5)):
        spec = SyntheticProblemSpec(
            kind=kind, d=5, n_agents=4, zeta=1.0 if kind == "quadratic" else 0.0,
            seed=0, n_classes=4, n_samples=200, hidden=6,
        )
        problem = make_problem(spec)
        worst = max(
            finite_diff_check(problem, rng.standard_normal(problem.dim), eps=1e-5)
            for _ in range(20)
        )
        worsts[kind] = (worst, bound)
    fd_ok = all(w <= b for w, b in worsts.values())

    sigma, draws = 0.1, 10**5
    problem = make_problem(
        SyntheticProblemSpec(kind="quadratic", d=1, n_agents=2, zeta=0.0, sigma=sigma, seed=3)
    )
    x = np.array([0.4])
    exact = problem.exact_loss_and_grad(0, x)[1][0]
    mean = (
        sum(
            problem.loss_and_grad(0, x, problem.draw_batch(0, rnd))[1][0]
            for rnd in range(draws)
        )
        / draws
    )
    se = sigma / np.sqrt(draws)
    mc_ok = abs(mean - exact) <= 3 * se
    ok = fd_ok and mc_ok
    assert verdict(
        6,
        ok,
        "finite differences "
        + ", ".join(f"{k} {w:.2g}<={b:g}" for k, (w, b) in worsts.items())
        + f"; Monte-Carlo bias {abs(mean - exact):.2g} <= 3se {3 * se:.2g}",
    )


def test_acceptance_7_heterogeneity_benefit():
    t0 = time.perf_counter()
    W = build_topology("ring", 16)
    pspec = SyntheticProblemSpec(
        kind="softmax", d=20, n_agents=16, seed=11, n_classes=10,
        n_samples=8000, separation=2.5,
    )
    base = make_problem(pspec)
    part = dirichlet_partition(base.labels, 16, alpha=0.01, seed=7)
    problem = make_problem(pspec, assignments=part.assignments)

    def final(kind, mu=0.0, beta=0.0):
        # mu chosen inside the tracked update's linear-stability region for
        # even rings (mu < 0.2); the criterion fixes eta, not mu
        spec = AlgorithmSpec(kind=kind, eta=0.1, mu=mu, beta=beta)
        res = run_training(
            W, problem, spec, T=400, batch_size=32, seeds=(1, 2, 3), eval_every=50
        )
        accs = [tr.rows[-1].avg_model_accuracy for tr in res.traces]
        ces = [tr.rows[-1].consensus_error for tr in res.traces]
        return float(np.mean(accs)), float(np.mean(ces)), any(t.divergent for t in res.traces)

    acc_dsgd, ce_dsgd, div1 = final("DSGD")
    acc_gut, ce_gut, div2 = final("GUT", mu=0.15)
    acc_qgd, _, div3 = final("QG-DSGDm", beta=0.9)
    acc_qgg, _, div4 = final("QG-GUTm", mu=0.05, beta=0.9)
    elapsed = time.perf_counter() - t0
    margin_gut = acc_gut - acc_dsgd
    margin_qg = acc_qgg - acc_qgd
    ok = (
        margin_gut > -0.005
        and margin_qg > -0.005
        and ce_gut < ce_dsgd
        and not (div1 or div2 or div3 or div4)
        and elapsed < 120
    )
    assert verdict(
        7,
        ok,
        f"tracked {acc_gut:.4f} vs plain {acc_dsgd:.4f} (margin {margin_gut:+.4f}), "
        f"momentum {acc_qgg:.4f} vs baseline {acc_qgd:.4f} (margin {margin_qg:+.4f}), "
        f"consensus error {ce_gut:.3g} < {ce_dsgd:.3g}, {elapsed:.1f}s",
    )


def test_acceptance_8_communication_accounting():
    W = build_topology("ring", 16)
    problem = make_problem(
        SyntheticProblemSpec(kind="quadratic", d=4, n_agents=16, zeta=1.0, sigma=0.0, seed=0)
    )
    per_neighbor = {}
    for kind in ("GUT", "QG-GUTm", "RuleA", "RuleB", "GT"):
        spec = AlgorithmSpec(kind=kind, eta=0.01, mu=0.05, beta=0.5)
        res = run_training(
            W, problem, spec, T=15, batch_size=None, seeds=(1,), eval_every=5
        )
        rows = res.traces[0].rows
        increments = {
            rows[t].comm_scalars - rows[t - 1].comm_scalars for t in range(1, len(rows))
        }
        assert increments == {comm_cost(spec, 4, W)}
        per_neighbor[kind] = comm_cost(spec, 4, W) // 2  # ring: 2 neighbors
    ok = (
        len({per_neighbor[k] for k in ("GUT", "QG-GUTm", "RuleA", "RuleB")}) == 1
        and per_neighbor["GT"] == 2 * per_neighbor["GUT"]
    )
    assert verdict(
        8,
        ok,
        f"per-neighbor scalars/round {per_neighbor} (single transmission 1x, "
        "gradient tracking 2x)",
    )


def test_acceptance_9_byte_identical_reruns(tmp_path: Path):
    blobs = {"train": [], "consensus": []}
    for rep in ("a", "b"):
        out = tmp_path / f"train-{rep}"
        assert cli_main(
            [
                "train", "--algorithm.kind=QG-GUTm", "--algorithm.mu=0.05",
                "--problem.kind=quadratic", "--problem.zeta=1", "--problem.sigma=0.1",
                "--run.rounds=50", "--run.seeds=1,2", f"--run.output_dir={out}",
            ]
        ) == 0
        blobs["train"].append(
            (out / "trace_seed1.csv").read_bytes() + (out / "trace_seed2.csv").read_bytes()
        )
        out = tmp_path / f"cons-{rep}"
        assert cli_main(
            [
                "consensus", "--consensus.method=qg-gutm", "--algorithm.mu=0.9",
                "--topology.n=64", "--run.rounds=300", f"--run.output_dir={out}",
            ]
        ) == 0
        blobs["consensus"].append((out / "consensus_trace.csv").read_bytes())
    ok = blobs["train"][0] == blobs["train"][1] and blobs["consensus"][0] == blobs["consensus"][1]
    assert verdict(
        9,
        ok,
        f"train CSV identical={blobs['train'][0] == blobs['train'][1]}, "
        f"consensus CSV identical={blobs['consensus'][0] == blobs['consensus'][1]} "
        "(single-threaded numpy kernels; trajectories are pure functions of config+seed)",
    )


def test_acceptance_10_partition_integrity():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 10, size=2000)
    integrity_ok = True
    for _ in range(200):
        alpha = float(10 ** rng.uniform(-1.5, 2))
        seed = int(rng.integers(0, 1 << 30))
        part = dirichlet_partition(labels, 8, alpha=alpha, seed=seed, min_per_agent=1)
        joined = np.concatenate(part.assignments)
        integrity_ok = integrity_ok and (
            len(joined) == len(labels)
            and np.array_equal(np.sort(joined), np.arange(len(labels)))
            and min([len(a) for a in part.assignments]) >= 1
        )
    balanced = np.arange(10000) % 10
    _, skew = partition_histogram(
        dirichlet_partition(balanced, 16, alpha=1e6, seed=0), balanced
    )
    concentration_ok = True
    for seed in range(20):
        part = dirichlet_partition(
            balanced[:2000], 10, alpha=1e-6, seed=seed, min_per_agent=0
        )
        table, _ = partition_histogram(part, balanced[:2000])
        concentration_ok = concentration_ok and all(
            table[:, c].max() / table[:, c].sum() >= 0.99 for c in range(10)
        )
    ok = integrity_ok and skew < 0.01 and concentration_ok
    assert verdict(
        10,
        ok,
        f"200 draws disjoint/covering={integrity_ok}, alpha=1e6 skew {skew:.2g} ~ 0, "
        f"alpha=1e-6 per-class concentration >= 0.99: {concentration_ok}",
    )
