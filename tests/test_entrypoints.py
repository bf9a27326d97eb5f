"""Exit codes, divergent equivalence runs, the ``python -m`` entry point and the exports."""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decentrack
from decentrack import harness
from decentrack.algorithms import AlgorithmSpec
from decentrack.cli import main as cli_main
from decentrack.harness import check_equivalence
from decentrack.models import SyntheticProblemSpec, make_problem
from decentrack.topology import build_topology

SRC = Path(decentrack.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def run_module(args, blas_threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return subprocess.run(
        [sys.executable, "-m", "decentrack.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def diverging_run_round(kinds, at):
    """harness.run_round, but a state whose X is inf for the kinds in round ``at``."""
    run_round = harness.run_round

    def patched(state, W, spec, oracle):
        out = run_round(state, W, spec, oracle)
        if spec.kind in kinds and state.round == at:
            out = dataclasses.replace(out, X=np.full_like(out.X, np.inf))
        return out

    return patched


class TestDivergence:
    def test_equivalence_compares_diverging_run_up_to_blow_up(self):
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=4, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        report = check_equivalence(
            W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.9), T=3000, tol=1e-8
        )
        assert 0 < report.rounds < 3000
        assert set(report.diverged_at.values()) == {report.rounds}
        assert report.passed
        assert set(report.per_form) == {"GUT-matrix", "GUT-bias", "GUT-memeff"}

    def test_stable_run_compares_all_rounds(self):
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        report = check_equivalence(W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1), T=30)
        assert report.rounds == 30
        assert set(report.diverged_at.values()) == {None}

    @pytest.mark.parametrize(
        "diverging,at,rounds,failed",
        [
            ({"GUT-memeff"}, 5, 30, {"GUT-memeff"}),
            ({"GUT"}, 5, 5, {"GUT-matrix", "GUT-bias", "GUT-memeff"}),
            ({"GUT", "GUT-matrix", "GUT-bias", "GUT-memeff"}, 0, 0,
             {"GUT-matrix", "GUT-bias", "GUT-memeff"}),
        ],
        ids=["one-form", "reference-only", "all-in-round-0"],
    )
    def test_divergence_in_another_round_fails(self, monkeypatch, diverging, at, rounds, failed):
        monkeypatch.setattr(harness, "run_round", diverging_run_round(diverging, at))
        W = build_topology("ring", 8)
        problem = make_problem(
            SyntheticProblemSpec(kind="quadratic", d=3, n_agents=8, zeta=1.0, sigma=0.1, seed=0)
        )
        report = check_equivalence(W, problem, AlgorithmSpec(kind="GUT", eta=0.05, mu=0.1), T=30)
        assert report.rounds == rounds
        assert {k for k, v in report.per_form.items() if v == math.inf} == failed
        assert not report.passed
        assert {k for k, v in report.diverged_at.items() if v is not None} == diverging

    def test_cli_reports_rounds_and_fails_on_lone_divergence(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_round", diverging_run_round({"GUT-bias"}, 7))
        assert cli_main(["equivalence", f"--run.output_dir={tmp_path}"]) == 3
        assert "> 1e-08 rounds=100" in capsys.readouterr().out
        doc = json.loads((tmp_path / "equivalence.json").read_text())
        assert doc["diverged_at"]["GUT-bias"] == 7 and doc["diverged_at"]["GUT"] is None
        assert doc["passed"] is False


class TestRedRun:
    def test_failing_property_test_is_reported_and_the_session_goes_on(self, tmp_path):
        # an inner session under this repo's pytest configuration, warning
        # filters included: a falsified @given test is one failure, not an
        # INTERNALERROR that stops the tests after it
        (tmp_path / "test_red.py").write_text(
            "from hypothesis import given, strategies as st\n\n\n"
            "@given(st.integers())\n"
            "def test_falsified(x):\n"
            "    assert x < 10\n\n\n"
            "def test_after():\n"
            "    pass\n"
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-c", str(SRC.parent / "pyproject.toml"),
                "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_red.py",
            ],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        output = result.stdout + result.stderr
        assert "INTERNALERROR" not in output
        assert "1 failed, 1 passed" in output
        assert result.returncode == 1


class TestModuleEntryPoint:
    def test_python_m_runs_subcommand(self, tmp_path):
        out = tmp_path / "out"
        proc = run_module(["topology", "--topology.n=8", f"--run.output_dir={out}"])
        assert proc.returncode == 0, proc.stderr
        assert "topology ring n=8" in proc.stdout
        assert (out / "matrix.csv").read_text().count("\n") == 8
        assert (out / "spectral.json").is_file()


@pytest.mark.parametrize(
    "args,csvs",
    [
        (
            [
                "consensus", "--topology.n=1024", "--consensus.method=gut",
                "--algorithm.mu=0.15", "--run.rounds=50",
            ],
            ["consensus_trace.csv"],
        ),
        (
            [
                "train", "--algorithm.kind=QG-GUTm", "--algorithm.mu=0.05",
                "--problem.kind=quadratic", "--problem.zeta=1", "--problem.sigma=0.1",
                "--run.rounds=50", "--run.seeds=1,2",
            ],
            ["trace_seed1.csv", "trace_seed2.csv"],
        ),
        *(
            (
                [
                    "train", f"--problem.kind={kind}", "--topology.kind=dyck",
                    "--topology.n=32", "--partition.alpha=0.1", "--algorithm.kind=QG-GUTm",
                    "--algorithm.mu=0.05", "--run.rounds=50", "--run.seeds=1",
                ],
                ["trace_seed1.csv"],
            )
            for kind in ("softmax", "mlp")
        ),
    ],
    ids=["consensus-ring1024", "train-quadratic", "train-softmax", "train-mlp"],
)
def test_traces_independent_of_blas_threads(tmp_path, args, csvs):
    blobs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        proc = run_module([*args, f"--run.output_dir={out}"], blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
        blobs.append(b"".join((out / name).read_bytes() for name in csvs))
    assert blobs[0] == blobs[1]


MODULES = ("algorithms", "cli", "harness", "models", "partition", "topology")


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = decentrack if module is None else importlib.import_module(f"decentrack.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def readme_commands():
    """The ``decentrack`` commands of the README's "CLI examples" block, split
    into words, with their backslash continuations joined."""
    section = README.read_text().split("## CLI examples", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split() for line in lines if line.startswith("decentrack ")]


class TestReadmeExamples:
    def test_one_example_per_documented_subcommand(self):
        subs = [cmd[1] for cmd in readme_commands()]
        assert subs == ["topology", "partition", "consensus", "train", "validate"]

    # validate's example runs mu = 0.9, outside the convergence regime, so
    # it exits 3, the advisory failure
    @pytest.mark.parametrize(
        "sub, code", [("topology", 0), ("partition", 0), ("consensus", 0), ("train", 0),
                      ("validate", 3)],
    )
    def test_example_exits_with_documented_code(self, sub, code, tmp_path):
        (cmd,) = [c for c in readme_commands() if c[1] == sub]
        assert cli_main([*cmd[1:], f"--run.output_dir={tmp_path}"]) == code
