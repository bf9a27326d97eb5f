import gc
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decentrack import models
from decentrack.cli import _COMMANDS, KEYS, emit_plot, main, parse_config
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

    @pytest.mark.parametrize(
        "arg, message",
        [
            ("--run.seeds=,", "bad value for run.seeds: run.seeds must list at least one integer"),
            ("rounds=5", "unexpected argument 'rounds=5'; use --key=value"),
            ("--run.rounds", "flag '--run.rounds' must have the form --key=value"),
            (
                "--topology.grid=2x3x4",
                "bad value for topology.grid: expected ROWSxCOLS, got '2x3x4'",
            ),
            ("--run.plot=maybe", "bad value for run.plot: expected a boolean, got 'maybe'"),
        ],
    )
    def test_malformed_argument_exits_one(self, tmp_path, capsys, arg, message):
        out = tmp_path / "out"
        assert run_cli("train", arg, f"--run.output_dir={out}") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm.mu=0.5\nrun.rounds 5  # no '='\n")
        out = tmp_path / "out"
        assert run_cli("train", f"--config={cfg}", f"--run.output_dir={out}") == 1
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: expected key=value, got 'run.rounds 5'\n"
        assert not out.exists()

    def test_output_dir_under_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("topology", "--topology.n=8", f"--run.output_dir={blocker / 'out'}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")

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

    @pytest.mark.parametrize(
        "flags,edges",
        [(("--topology.n=16",), 16), (("--topology.kind=dyck", "--topology.n=32"), 48),
         (("--topology.kind=torus", "--topology.n=15", "--topology.grid=3x5"), 30)],
    )
    def test_edge_count(self, tmp_path, flags, edges):
        assert run_cli("topology", *flags, f"--run.output_dir={tmp_path}") == 0
        assert json.loads((tmp_path / "spectral.json").read_text())["edges"] == edges

    @pytest.mark.parametrize(
        "flags",
        [("--topology.n=16", "--topology.grid=3x5"),
         ("--topology.kind=dyck", "--topology.n=32", "--topology.grid=4x8")],
    )
    def test_grid_without_torus_exits_one(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("topology", *flags, f"--run.output_dir={out}") == 1
        assert "takes no grid" in capsys.readouterr().err
        assert not out.exists()


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

    def test_overflowing_error_exits_2(self, tmp_path, capsys):
        # X stays finite from round 397 to 795 while its squares overflow
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "consensus", "--consensus.method=gut", "--algorithm.mu=0.9",
                "--topology.n=16", "--consensus.d=32", "--consensus.seed=0",
                "--run.rounds=500", f"--run.output_dir={out}",
            )
        assert code == 2
        assert "error=inf divergent=False nonfinite=True" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["divergent"] is False and manifest["nonfinite"] is True

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
        assert manifest["exploding"] is False
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

    def test_torus_grid_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "train", "--topology.kind=torus", "--topology.n=16", "--topology.grid=4x4",
            "--problem.kind=quadratic", "--run.rounds=4", "--run.seeds=1",
            "--run.eval_every=2", f"--run.output_dir={out}",
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["topology.grid"] == "4x4"

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_dataset_drawn_once_per_run(self, tmp_path, monkeypatch, kind):
        # the partition reads the labels of a problem that stays alive while
        # the partitioned one is built, so the two share one draw
        draws = []

        class CountingDraw(models._ClassificationDraw):
            def __init__(self, spec):
                draws.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(models, "_ClassificationDraw", CountingDraw)
        for run in range(2):
            gc.collect()
            assert run_cli(
                "train", f"--problem.kind={kind}", "--problem.samples=500", "--partition.alpha=1",
                "--run.rounds=2", "--run.seeds=1", f"--run.output_dir={tmp_path / str(run)}",
            ) == 0
            assert len(draws) == run + 1

    def test_overflowing_losses_warn_nothing(self, tmp_path):
        # X stays finite while the losses overflow, so the final losses are
        # inf; their statistics raise no warning, which the suite would turn
        # into an error.  The exit code of such a run is not asserted here
        out = tmp_path / "out"
        run_cli(
            "train", "--problem.kind=quadratic", "--problem.zeta=1", "--algorithm.kind=GUT",
            "--algorithm.eta=2.5", "--algorithm.mu=0.9", "--run.rounds=1000",
            "--run.decay=false", f"--run.output_dir={out}",
        )
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["final_loss_mean"] == math.inf
        assert math.isnan(summary["final_loss_std"])

    def test_overflowing_losses_exit_2(self, tmp_path, capsys):
        # the run of test_overflowing_losses_warn_nothing: X finite, losses inf
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "train", "--problem.kind=quadratic", "--problem.zeta=1",
                "--algorithm.kind=GUT", "--algorithm.eta=2.5", "--algorithm.mu=0.9",
                "--run.rounds=1000", "--run.decay=false", f"--run.output_dir={out}",
            )
        assert code == 2
        assert "final_loss=inf divergent=False nonfinite=True" in capsys.readouterr().out
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["divergent"] == [False] * 3 and summary["nonfinite"] == [True] * 3

    def test_plot_emitted(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "train", "--algorithm.kind=DSGD", "--run.rounds=10",
            "--run.seeds=1", "--run.plot=true", f"--run.output_dir={out}",
        ) == 0
        svg = (out / "train.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_round_zero_divergence_with_plot_exits_2(self, tmp_path, capsys):
        # the only seed diverges in round 0, so its trace has no row to plot
        out = tmp_path / "out"
        assert run_cli(
            "train", "--problem.kind=quadratic", "--problem.zeta=1e150",
            "--algorithm.kind=DSGD", "--algorithm.eta=1e300", "--run.rounds=5",
            "--run.seeds=1", "--run.plot=true", f"--run.output_dir={out}",
        ) == 2
        assert "divergent=True" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trace_seed1.csv"]

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

    def test_unsatisfiable_partition_names_the_fix(self, tmp_path, capsys):
        assert run_cli(
            "train", "--topology.kind=dyck", "--topology.n=32", "--partition.alpha=0.01",
            f"--run.output_dir={tmp_path}",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not satisfy min_per_agent=1")
        assert "--partition.alpha" in err and "--partition.min_per_agent" in err

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


GUTMN_GROWS = (
    "--problem.kind=quadratic", "--problem.zeta=1", "--algorithm.kind=GUTmN",
    "--algorithm.eta=0.05", "--algorithm.mu=0.1", "--algorithm.beta=0.5",
    "--run.rounds=1000", "--run.decay=false",
)


class TestExplodingFlag:
    """A run whose last consensus error or mean loss is above its first and
    more than 1e12 times its column's smallest positive value is flagged
    ``exploding`` in the run line and the manifest, with a warning on stderr;
    it still exits 0."""

    @pytest.mark.parametrize("args,line", [
        # the defaults: GUT at mu = 0.9 on ring-16, outside the stable region
        (("train",), "final_loss=557.657 divergent=False nonfinite=False exploding=True"),
        (
            ("train", *GUTMN_GROWS),
            "final_loss=3.86267e+86 divergent=False nonfinite=False exploding=True",
        ),
        (
            ("consensus", "--consensus.method=gut", "--algorithm.mu=0.9", "--run.rounds=300"),
            "error=2.53669e+232 divergent=False nonfinite=False exploding=True",
        ),
    ])
    def test_exploding_run_flagged_and_exits_0(self, tmp_path, capsys, args, line):
        out = tmp_path / "out"
        assert run_cli(*args, f"--run.output_dir={out}") == 0
        captured = capsys.readouterr()
        assert line in captured.out
        assert captured.err.startswith("warning: exploding run: ")
        assert json.loads((out / "manifest.json").read_text())["exploding"] is True

    @pytest.mark.parametrize("args", [
        ("train", "--algorithm.kind=GUT", "--algorithm.mu=0.15", "--run.rounds=40"),
        ("train", "--problem.kind=mlp", "--algorithm.kind=DSGD"),
        ("train", "--problem.kind=quadratic", "--problem.zeta=1", "--algorithm.kind=DSGD",
         "--run.rounds=300"),
        # GUTm at the (mu, beta) where GUTmN grows converges
        ("train", *(a.replace("GUTmN", "GUTm") for a in GUTMN_GROWS)),
        # noise-free identical agents: the consensus error is rounding residue
        ("train", "--problem.kind=quadratic", "--problem.zeta=0", "--algorithm.kind=GUT",
         "--algorithm.mu=0.1", "--run.rounds=300"),
        ("consensus", "--consensus.method=gut", "--algorithm.mu=0.15"),
        ("consensus", "--consensus.method=gossip"),
    ])
    def test_converging_run_not_flagged(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(*args, f"--run.output_dir={out}") == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("nonfinite=False exploding=False")
        assert captured.err == ""
        assert json.loads((out / "manifest.json").read_text())["exploding"] is False


class TestNonFiniteAndDegenerateValues:
    """Non-finite or degenerate values are config errors (exit 1), not runs."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("train", "--algorithm.eta=nan"), "eta must be positive and finite, got nan"),
            (("train", "--algorithm.eta=inf"), "eta must be positive and finite, got inf"),
            (("train", "--problem.zeta=nan"), "zeta must be finite, got nan"),
            (("train", "--problem.sigma=inf"), "sigma must be finite, got inf"),
            (
                ("train", "--problem.kind=quadratic", "--problem.sigma=nan"),
                "sigma must be finite, got nan",
            ),
            (("validate", "--problem.L=nan"), "L must be positive and finite, got nan"),
            (("train", "--problem.classes=0"), "n_classes must be >= 2, got 0"),
            (("train", "--problem.classes=1"), "n_classes must be >= 2, got 1"),
            (("train", "--problem.d=0"), "d must be >= 1, got 0"),
            (("train", "--problem.kind=mlp", "--problem.hidden=0"), "hidden must be >= 1, got 0"),
            (("consensus", "--consensus.d=0"), "X0 must be (16, d) with d >= 1, got shape (16, 0)"),
            (("train", "--partition.alpha=nan"), "alpha must be positive and finite, got nan"),
            (("train", "--partition.alpha=inf"), "alpha must be positive and finite, got inf"),
            (("partition", "--partition.alpha=nan"), "alpha must be positive and finite, got nan"),
            (("partition", "--partition.alpha=inf"), "alpha must be positive and finite, got inf"),
        ],
    )
    def test_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run_cli(*args, "--run.rounds=2", "--run.seeds=1", f"--run.output_dir={out}") == 1
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestOutOfRangeValues:
    """Values that overflowed or were silently repeated are config errors (exit 1)."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ("--problem.kind=quadratic", "--problem.zeta=1e308"),
                "zeta=1e+308 overflows the optima b_i or f* = L zeta^2 / 2",
            ),
            (("--problem.separation=1e308",), "separation=1e+308 overflows the class means"),
            (("--run.seeds=1,1",), "each seed may be listed once, got '1,1'"),
        ],
    )
    def test_train_config_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run_cli("train", "--run.rounds=2", *args, f"--run.output_dir={out}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("run.seeds", "1,-3"), ("problem.seed", "-3"),
                       ("partition.seed", "-3"), ("consensus.seed", "-3")],
    )
    def test_negative_seed_names_its_key(self, tmp_path, capsys, key, value):
        # rejected when parsed: run.seeds=1,-3 does not run seed 1 first
        out = tmp_path / "out"
        flags = ("--run.rounds=2", f"--{key}={value}", f"--run.output_dir={out}")
        assert run_cli("train", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for {key}: ") and "got -3" in err
        assert not out.exists()


# Adversarial raw values for every key, and per-key values that keep a case
# small: n <= 64, rounds <= 20, samples <= 2000, every other size <= 64.
ADVERSARIAL = ["0", "-1", "nan", "inf", "-inf", "1e308", "", "abc", "1.5", "true"]
SIZE_CAPS = {
    "topology.n": 64, "run.rounds": 20, "problem.samples": 2000, "run.batch": 2000,
    "problem.d": 64, "problem.classes": 64, "problem.hidden": 64, "consensus.d": 64,
    "run.eval_every": 64, "partition.min_per_agent": 64,
}
CHOICES = {
    "topology.kind": ["ring", "dyck", "torus"],
    "problem.kind": ["quadratic", "softmax", "mlp"],
    "algorithm.kind": ["GUT", "QG-GUTm", "DSGD", "GT", "GUT-bias", "RuleA"],
    "consensus.method": ["gossip", "gut", "qg-gossip", "qg-gutm"],
    "topology.grid": ["3x3", "4x16", "8x8", "0x5", "x", "3x"],
    "run.seeds": ["1", "2,3", "1,2,3", "0,-1", "1,1", ","],
    "run.decay": ["false"],
    "run.plot": ["false", "true"],
}


def fuzz_values(key):
    if key in SIZE_CAPS:
        valid = st.integers(1, SIZE_CAPS[key]).map(str)
    elif key in CHOICES:
        valid = st.sampled_from(CHOICES[key])
    else:  # floats and seeds
        valid = st.one_of(st.floats().map(repr), st.integers(-2, 2**70).map(str))
    return st.one_of(st.sampled_from(ADVERSARIAL), valid)


# the output directory is a fresh temporary directory in every case
FUZZ_KEYS = sorted(set(KEYS) - {"run.output_dir"})
OVERRIDES = st.lists(st.sampled_from(FUZZ_KEYS), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: fuzz_values(key) for key in keys})
)
# a small valid base that the overrides change
BASE = [
    "--topology.n=8", "--run.rounds=5", "--problem.samples=400", "--problem.d=4",
    "--consensus.d=4", "--run.seeds=1", "--partition.alpha=1",
]


class TestConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), overrides=OVERRIDES)
    @example(command="train", overrides={"problem.kind": "quadratic", "problem.zeta": "1e308"})
    @example(command="train", overrides={"problem.separation": "1e308"})
    @example(command="train", overrides={"run.seeds": "1,1"})
    @example(command="train", overrides={
        "problem.kind": "quadratic", "problem.zeta": "1e150", "algorithm.kind": "DSGD",
        "algorithm.eta": "1e300", "run.rounds": "5", "run.seeds": "1", "run.plot": "true",
    })
    @example(command="train", overrides={"algorithm.kind": "GUT", "algorithm.mu": "0.9"})
    def test_every_config_ends_in_a_documented_exit_code(self, command, overrides):
        flags = [f"--{key}={value}" for key, value in overrides.items()]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
            outdir = Path(tmp) / "out"
            code = main([command, *BASE, *flags, f"--run.output_dir={outdir}"])
            manifest = outdir / "manifest.json"
            doc = json.loads(manifest.read_text()) if manifest.exists() else None
            # a config error writes nothing
            assert code != 1 or not outdir.exists()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ")
        if doc is not None:
            # a train manifest lists the flags per seed, a consensus one holds one each
            recorded = doc.get("summary", doc)
            flagged = any(np.any(recorded[key]) for key in ("divergent", "nonfinite"))
            assert (code == 2) == flagged
            # the run line, the manifest and the warning agree on exploding
            assert f"exploding={doc['exploding']}" in out.getvalue()
            assert ("warning: exploding run: " in err.getvalue()) == doc["exploding"]


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

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_outside_range_is_config_error(self, tmp_path, capsys, tol):
        # -1 and nan exited 3 and inf exited 0, whatever the deviation
        out = tmp_path / "out"
        assert run_cli("equivalence", f"--equivalence.tol={tol}", f"--run.output_dir={out}") == 1
        err = capsys.readouterr().err
        assert err == f"error: equivalence tol must be finite and >= 0, got {float(tol)}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--algorithm.mu=-0.5", "--algorithm.eta=0.001"), "mu must lie in [0, 1), got -0.5"),
            (("--algorithm.kind=NOPE",), "unknown algorithm kind 'NOPE'"),
            (("--algorithm.beta=1.5",), "beta must lie in [0, 1), got 1.5"),
            (("--algorithm.mu=1.5",), "mu must lie in [0, 1), got 1.5"),
        ],
    )
    def test_spec_that_train_rejects_is_config_error(self, tmp_path, capsys, flags, message):
        errors = {}
        for command in ("train", "validate"):
            out = tmp_path / command
            flags_run = ("--problem.kind=quadratic", "--run.rounds=1", f"--run.output_dir={out}")
            assert run_cli(command, *flags, *flags_run) == 1, command
            errors[command] = capsys.readouterr().err
            assert not out.exists()
        assert errors["validate"] == errors["train"] == f"error: {message}\n"


class TestEmitPlot:
    def trace(self, errors):
        rows = [TraceRow(round=t, consensus_error=e) for t, e in enumerate(errors)]
        return MetricTrace(rows=rows)

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

    def test_non_finite_values_left_out(self, tmp_path):
        # the last rows of a diverging consensus run overflow consensus_error
        path = tmp_path / "div.svg"
        emit_plot([("gut", self.trace([1.0, 0.5, 1e300, np.inf, np.nan]))], path)
        svg = path.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<polyline") == 1
        (points,) = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
        assert points.split('"')[1].count(",") == 3

    def test_trace_without_finite_value_left_out(self, tmp_path):
        # a run that diverges in round 0 has no rows
        path = tmp_path / "some.svg"
        emit_plot([("seed 1", self.trace([])), ("seed 2", self.trace([1.0, 0.5]))], path)
        svg = path.read_text()
        assert "seed 2" in svg and "seed 1" not in svg
        path = tmp_path / "none.svg"
        emit_plot([("seed 1", self.trace([])), ("seed 2", self.trace([np.inf]))], path)
        assert not path.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")
