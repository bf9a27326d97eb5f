import json

import numpy as np
import pytest

from decentrack.cli import KEYS, emit_plot, main, parse_config
from decentrack.harness import MetricTrace, TraceRow


def run_cli(*args):
    return main(list(args))


class TestConfigParsing:
    def test_defaults_resolved(self):
        config = parse_config([])
        assert config["topology.kind"] == "ring"
        assert config["run.seeds"] == (1, 2, 3)

    def test_flag_overrides_default(self):
        config = parse_config(["--algorithm.mu=0.3"])
        assert config["algorithm.mu"] == 0.3

    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm.mu=0.5\nrun.rounds=77  # trailing comment\n\n")
        config = parse_config([f"--config={cfg}", "--algorithm.mu=0.25"])
        assert config["algorithm.mu"] == 0.25
        assert config["run.rounds"] == 77

    def test_unknown_key_lists_valid_keys(self, capsys):
        assert run_cli("train", "--bogus.key=1") == 1
        err = capsys.readouterr().err
        assert "unknown config key" in err
        assert "algorithm.mu" in err

    def test_bad_value_exits_one(self, capsys):
        assert run_cli("train", "--run.rounds=ten") == 1
        assert "bad value" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert run_cli("train", "--config=/nonexistent.cfg") == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli("benchmark") == 1
        assert "unknown subcommand" in capsys.readouterr().err

    def test_seeds_parse(self):
        assert parse_config(["--run.seeds=4,5"])["run.seeds"] == (4, 5)

    def test_grid_parse(self):
        assert parse_config(["--topology.grid=4x8"])["topology.grid"] == (4, 8)


class TestTopologySubcommand:
    def test_emits_matrix_and_spectral(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "topology", "--topology.kind=ring", "--topology.n=16",
            f"--run.output_dir={out}",
        ) == 0
        matrix = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in (out / "matrix.csv").read_text().strip().splitlines()
            ]
        )
        assert matrix.shape == (16, 16)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        doc = json.loads((out / "spectral.json").read_text())
        assert doc["rho"] == pytest.approx(0.0507470, abs=1e-6)
        assert doc["valid"] is True


class TestPartitionSubcommand:
    def test_histogram_and_skew(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(
            "partition", "--topology.n=16", "--partition.alpha=0.01",
            "--partition.seed=7", f"--run.output_dir={out}",
        ) == 0
        assert "skew=" in capsys.readouterr().out
        rows = (out / "histogram.csv").read_text().strip().splitlines()
        assert len(rows) == 16

    def test_quadratic_rejected(self, capsys):
        assert run_cli("partition", "--problem.kind=quadratic") == 1


class TestConsensusSubcommand:
    def test_trace_and_rerun_byte_identical(self, tmp_path):
        args = (
            "consensus", "--consensus.method=gut", "--algorithm.mu=0.15",
            "--topology.n=16", "--run.rounds=100",
        )
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(*args, f"--run.output_dir={out}") == 0
            blobs.append((out / "consensus_trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergent_exit_code(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "consensus", "--consensus.method=gut", "--algorithm.mu=0.9",
            "--topology.n=8", "--consensus.d=4", "--run.rounds=2000",
            f"--run.output_dir={out}",
        )
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["divergent"] is True

    @pytest.mark.parametrize("flag", ["--algorithm.mu=1.5", "--algorithm.mu=-0.5"])
    def test_mu_out_of_range_is_config_error(self, tmp_path, capsys, flag):
        assert run_cli("consensus", flag, f"--run.output_dir={tmp_path}") == 1
        assert "mu must lie in [0, 1)" in capsys.readouterr().err


class TestTrainSubcommand:
    def test_traces_and_manifest_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "train", "--algorithm.kind=GUT", "--algorithm.mu=0.15",
            "--run.rounds=40", "--run.seeds=1,2", "--run.eval_every=20",
            f"--run.output_dir={out}",
        ) == 0
        assert (out / "trace_seed1.csv").is_file()
        assert (out / "trace_seed2.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        echoed = [f"--{k}={v}" for k, v in manifest["config"].items() if k != "run.output_dir"]
        reparsed = parse_config(echoed)
        original = parse_config(
            [
                "--algorithm.kind=GUT", "--algorithm.mu=0.15", "--run.rounds=40",
                "--run.seeds=1,2", "--run.eval_every=20",
            ]
        )
        for key in KEYS:
            if key == "run.output_dir":
                continue
            assert reparsed[key] == original[key], key

    def test_plot_emitted(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "train", "--algorithm.kind=DSGD", "--run.rounds=10",
            "--run.seeds=1", "--run.plot=true", f"--run.output_dir={out}",
        ) == 0
        svg = (out / "train.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_nesterov_key_is_unknown(self, tmp_path, capsys):
        # Nesterov variants are selected by kind, not by a flag
        assert run_cli("train", "--algorithm.nesterov=true", f"--run.output_dir={tmp_path}") == 1
        assert "unknown config key 'algorithm.nesterov'" in capsys.readouterr().err

    def test_nesterov_kind_runs(self, tmp_path):
        assert run_cli(
            "train", "--algorithm.kind=QG-GUTmN", "--run.rounds=10", "--run.seeds=1",
            f"--run.output_dir={tmp_path}",
        ) == 0

    def test_empty_batch_is_config_error(self, tmp_path, capsys):
        assert run_cli("train", "--run.batch=0", f"--run.output_dir={tmp_path}") == 1
        assert "batch_size" in capsys.readouterr().err

    def test_agent_without_samples_is_config_error(self, tmp_path, capsys):
        assert run_cli(
            "train", "--partition.min_per_agent=0", "--partition.alpha=0.01",
            "--topology.n=64", "--problem.samples=100", f"--run.output_dir={tmp_path}",
        ) == 1
        assert "no samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--run.rounds=0", "T must be >= 1, got 0"),
            ("--run.rounds=-2", "T must be >= 1, got -2"),
            ("--run.eval_every=0", "eval_every must be >= 1, got 0"),
            ("--run.eval_every=-3", "eval_every must be >= 1, got -3"),
        ],
    )
    def test_round_count_and_eval_interval_are_config_errors(self, tmp_path, capsys, flag, message):
        assert run_cli("train", flag, f"--run.output_dir={tmp_path}") == 1
        assert message in capsys.readouterr().err


class TestEquivalenceSubcommand:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("equivalence", f"--run.output_dir={out}") == 0
        doc = json.loads((out / "equivalence.json").read_text())
        assert doc["passed"] is True
        assert doc["max_deviation"] <= 1e-8

    def test_zero_tolerance_exit_three(self, tmp_path):
        assert run_cli(
            "equivalence", "--equivalence.tol=0",
            f"--run.output_dir={tmp_path / 'out'}",
        ) == 3


class TestValidateSubcommand:
    def test_aggressive_mu_flagged(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "validate", "--algorithm.mu=0.9", "--topology.kind=ring",
            "--topology.n=16", f"--run.output_dir={out}",
        )
        assert code == 3
        doc = json.loads((out / "validate.json").read_text())
        assert doc["mu_max"] == pytest.approx(0.0012068, abs=1e-6)
        assert doc["eta_max"] == pytest.approx(0.0072496, abs=1e-6)

    def test_compliant_config(self, tmp_path):
        assert run_cli(
            "validate", "--algorithm.mu=0.001", "--algorithm.eta=0.005",
            "--topology.kind=ring", "--topology.n=16",
            f"--run.output_dir={tmp_path / 'out'}",
        ) == 0


class TestEmitPlot:
    def trace(self, errors):
        rows = [TraceRow(round=t, consensus_error=e) for t, e in enumerate(errors)]
        return MetricTrace(rows=rows, meta={})

    def test_single_point_chart(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_plot([("gossip", self.trace([0.5]))], path)
        assert "<circle" in path.read_text()

    def test_zero_values_clamped(self, tmp_path):
        path = tmp_path / "zero.svg"
        emit_plot([("gossip", self.trace([1.0, 0.0, 0.0]))], path)
        assert "<polyline" in path.read_text()

    def test_two_labeled_series(self, tmp_path):
        path = tmp_path / "two.svg"
        emit_plot(
            [("gossip", self.trace([1.0, 0.5])), ("tracked", self.trace([1.0, 0.1]))],
            path,
        )
        svg = path.read_text()
        assert "gossip" in svg and "tracked" in svg
        assert svg.count("<polyline") == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")
