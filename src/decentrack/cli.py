"""Command-line entry point.

Subcommands: ``topology`` (matrix CSV + spectral JSON), ``partition``
(class-count histogram CSV + skew), ``consensus`` (averaging task trace),
``train`` (decentralized training traces + manifest), ``equivalence``
(cross-formulation suite) and ``validate`` (convergence-regime bounds).

Configuration is a flat ``key=value`` file with dotted keys (for example
``algorithm.mu=0.9``), overridable by ``--key=value`` flags; flags win.
Exit codes: 0 success, 1 config error, 2 divergent run (X non-finite, or
a non-finite loss or consensus error in a trace's last row), 3 failed
equivalence/validation.  A finite run that explodes is flagged
``exploding`` and warned of, and exits 0.  All emitted CSV/JSON is a pure
function of the resolved config, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import algorithms, harness, models, partition, topology

__all__ = ["main", "cli_entry", "emit_plot", "parse_config"]

PLOT_FLOOR = 1e-16

# key -> (parser, default).  Every config key must appear here; anything
# else is rejected with exit code 1.


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_seed(s: str) -> int:
    seed = int(s)
    if seed < 0:
        raise ValueError(f"seeds must be non-negative, got {seed}")
    return seed


def _parse_seeds(s: str) -> tuple[int, ...]:
    seeds = tuple(_parse_seed(p) for p in str(s).split(",") if p.strip() != "")
    if not seeds:
        raise ValueError("run.seeds must list at least one integer")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"each seed may be listed once, got {s!r}")
    return seeds


def _parse_grid(s: str) -> tuple[int, int] | None:
    if s.strip() == "":
        return None
    parts = [int(p) for p in s.split("x")]
    if len(parts) != 2:
        raise ValueError(f"expected ROWSxCOLS, got {s!r}")
    return (parts[0], parts[1])


KEYS: dict[str, tuple] = {
    "topology.kind": (str, "ring"),
    "topology.n": (int, 16),
    "topology.grid": (_parse_grid, None),
    "partition.alpha": (float, 0.1),
    "partition.seed": (_parse_seed, 0),
    "partition.min_per_agent": (int, 1),
    "problem.kind": (str, "softmax"),
    "problem.d": (int, 10),
    "problem.zeta": (float, 0.0),
    "problem.sigma": (float, 0.0),
    "problem.classes": (int, 10),
    "problem.samples": (int, 8000),
    "problem.hidden": (int, 16),
    "problem.separation": (float, 3.0),
    "problem.L": (float, 1.0),
    "problem.seed": (_parse_seed, 0),
    "algorithm.kind": (str, "GUT"),
    "algorithm.eta": (float, 0.1),
    "algorithm.mu": (float, 0.9),
    "algorithm.beta": (float, 0.9),
    "consensus.method": (str, "gut"),
    "consensus.d": (int, 32),
    "consensus.seed": (_parse_seed, 0),
    "run.rounds": (int, 100),
    "run.batch": (int, 32),
    "run.seeds": (_parse_seeds, (1, 2, 3)),
    "run.eval_every": (int, 10),
    "run.decay": (_parse_bool, True),
    "run.plot": (_parse_bool, False),
    "run.output_dir": (str, "./out"),
    "equivalence.tol": (float, 1e-8),
}


class ConfigError(Exception):
    pass


def _set_key(config: dict, key: str, raw: str) -> None:
    if key not in KEYS:
        valid = ", ".join(sorted(KEYS))
        raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
    parser, _ = KEYS[key]
    try:
        config[key] = parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}")


def parse_config(argv: list[str]) -> dict:
    """Resolve defaults, then the config file, then flags (flags win)."""
    config = {key: default for key, (_, default) in KEYS.items()}
    file_path = None
    flags = []
    for arg in argv:
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}; use --key=value")
        body = arg[2:]
        if "=" not in body:
            raise ConfigError(f"flag {arg!r} must have the form --key=value")
        key, _, value = body.partition("=")
        if key == "config":
            file_path = value
        else:
            flags.append((key, value))
    if file_path is not None:
        path = Path(file_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        for ln, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{file_path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            _set_key(config, key.strip(), value.strip())
    for key, value in flags:
        _set_key(config, key, value)
    return config


def _config_lines(config: dict) -> dict[str, str]:
    """Render the resolved config as the flat strings the parser accepts."""

    def fmt(key, v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            if key == "topology.grid":
                return f"{v[0]}x{v[1]}"
            return ",".join(str(x) for x in v)
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    return {key: fmt(key, config[key]) for key in sorted(config)}


def _write(outdir: Path, name: str, text: str) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {name} under {outdir}: {exc}")


def _write_json(outdir: Path, name: str, doc: dict) -> None:
    _write(outdir, name, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _report(config: dict, outdir: Path, task: str, traces: dict, extra: dict, stats: str) -> int:
    """Write the traces, the manifest and, with run.plot, the plot; print the
    run line; return 2 if a trace is divergent or nonfinite, else 0.  An
    exploding trace (see ``MetricTrace.exploding``) is flagged and warned
    of, and still exits 0.

    ``traces`` maps each CSV file name to (plot label, trace); the manifest
    holds the resolved config, ``task``, the exploding flag and ``extra``.
    """
    divergent = any(tr.divergent for _, tr in traces.values())
    nonfinite = any(tr.nonfinite for _, tr in traces.values())
    exploding = any(tr.exploding for _, tr in traces.values())
    for name, (_, trace) in traces.items():
        _write(outdir, name, trace.to_csv())
    doc = {"config": _config_lines(config), "task": task, "exploding": exploding, **extra}
    _write_json(outdir, "manifest.json", doc)
    if config["run.plot"]:
        emit_plot(list(traces.values()), outdir / f"{task}.svg")
    print(f"{task} {stats} divergent={divergent} nonfinite={nonfinite} exploding={exploding}")
    if exploding:
        print(
            "warning: exploding run: a last consensus error or mean loss is above its first"
            f" and over {harness.EXPLODING_GROWTH:g} times its column's smallest positive value",
            file=sys.stderr,
        )
    return 2 if divergent or nonfinite else 0


def _build_topology(config: dict) -> topology.MixingMatrix:
    return topology.build_topology(
        config["topology.kind"], config["topology.n"], config["topology.grid"]
    )


def _problem_spec(config: dict) -> models.SyntheticProblemSpec:
    return models.SyntheticProblemSpec(
        kind=config["problem.kind"],
        d=config["problem.d"],
        n_agents=config["topology.n"],
        zeta=config["problem.zeta"],
        sigma=config["problem.sigma"],
        L=config["problem.L"],
        seed=config["problem.seed"],
        n_classes=config["problem.classes"],
        n_samples=config["problem.samples"],
        hidden=config["problem.hidden"],
        separation=config["problem.separation"],
    )


def _partition(config: dict, labels) -> partition.Partition:
    return partition.dirichlet_partition(
        labels, n_agents=config["topology.n"], alpha=config["partition.alpha"],
        seed=config["partition.seed"], min_per_agent=config["partition.min_per_agent"],
    )


def _build_problem(config: dict) -> models.Problem:
    spec = _problem_spec(config)
    base = models.make_problem(spec)
    if spec.kind == "quadratic":
        return base
    # base stays alive while the partitioned problem is built, which
    # therefore shares its dataset instead of drawing it again
    part = _partition(config, base.labels)
    return models.make_problem(spec, assignments=part.assignments)


def _algorithm_spec(config: dict) -> algorithms.AlgorithmSpec:
    return algorithms.AlgorithmSpec(
        kind=config["algorithm.kind"],
        eta=config["algorithm.eta"],
        mu=config["algorithm.mu"],
        beta=config["algorithm.beta"],
    )


def emit_plot(traces, path) -> None:
    """Self-contained SVG log-scale chart of consensus error vs round.

    ``traces`` is a non-empty list of (label, MetricTrace); values below
    the chart floor of 1e-16 are clamped so the log axis stays defined, and
    non-finite values (the last rows of a diverging run) are left out.  A
    trace with no finite value is left out, and no file is written when no
    trace has one.
    """
    if not traces:
        raise ValueError("emit_plot needs at least one trace")
    series = [
        (label, [(r.round, max(r.consensus_error, PLOT_FLOOR))
                 for r in tr.rows if np.isfinite(r.consensus_error)])
        for label, tr in traces
    ]
    series = [(label, pts) for label, pts in series if pts]
    if not series:
        return
    width, height, margin = 640, 400, 50
    xmax = max(max(x for x, _ in pts) for _, pts in series)
    xmax = max(xmax, 1)
    logs = [np.log10(y) for _, pts in series for _, y in pts]
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0

    def px(x):
        return margin + (width - 2 * margin) * x / xmax

    def py(y):
        frac = (np.log10(y) - lo) / (hi - lo)
        return height - margin - (height - 2 * margin) * frac

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">consensus error</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">round</text>',
    ]
    for k, (label, pts) in enumerate(series):
        color = colors[k % len(colors)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        shape = "polyline" if len(pts) > 1 else "circle"
        if shape == "polyline":
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            x, y = pts[0]
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin - 5}" y="{margin + 15 * (k + 1)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(parts) + "\n")


def _cmd_topology(config: dict, outdir: Path) -> int:
    W = _build_topology(config)
    stats = topology.spectral_stats(W)
    report = topology.validate_mixing(W)
    _write(outdir, "matrix.csv", topology.matrix_csv(W))
    doc = {
        "kind": config["topology.kind"],
        "n": W.n,
        "lambda2": stats.lambda2,
        "lambdaN": stats.lambda_n,
        "rho": stats.rho,
        "edges": int(W.degrees.sum()) // 2,
        "valid": report.ok,
        "violations": report.violations,
    }
    _write_json(outdir, "spectral.json", doc)
    print(f"topology {config['topology.kind']} n={W.n} rho={stats.rho:.6g}")
    return 0


def _cmd_partition(config: dict, outdir: Path) -> int:
    spec = _problem_spec(config)
    if spec.kind == "quadratic":
        raise ConfigError("partition requires a classification problem.kind")
    base = models.make_problem(spec)
    part = _partition(config, base.labels)
    table, skew = partition.partition_histogram(part, base.labels)
    _write(outdir, "histogram.csv", partition.histogram_csv(table))
    print(f"skew={skew:.17g}")
    return 0


def _cmd_consensus(config: dict, outdir: Path) -> int:
    W = _build_topology(config)
    rng = np.random.default_rng(config["consensus.seed"])
    X0 = rng.standard_normal((W.n, config["consensus.d"]))
    trace = harness.run_consensus(
        W,
        X0,
        method=config["consensus.method"],
        mu=config["algorithm.mu"],
        beta=config["algorithm.beta"],
        T=config["run.rounds"],
    )
    method, final = config["consensus.method"], trace.rows[-1]
    return _report(
        config, outdir, "consensus", {"consensus_trace.csv": (method, trace)},
        {"divergent": trace.divergent, "nonfinite": trace.nonfinite},
        f"method={method} rounds={final.round} error={final.consensus_error:.6g}",
    )


def _cmd_train(config: dict, outdir: Path) -> int:
    W = _build_topology(config)
    problem = _build_problem(config)
    spec = _algorithm_spec(config)
    result = harness.run_training(
        W,
        problem,
        spec,
        T=config["run.rounds"],
        batch_size=config["run.batch"],
        seeds=config["run.seeds"],
        eval_every=config["run.eval_every"],
        decay=config["run.decay"],
    )
    traces = {
        f"trace_seed{seed}.csv": (f"seed {seed}", tr)
        for seed, tr in zip(config["run.seeds"], result.traces)
    }
    return _report(
        config, outdir, "train", traces, {"summary": result.summary},
        f"{spec.kind} rounds={config['run.rounds']} "
        f"final_loss={result.summary['final_loss_mean']:.6g}",
    )


def _cmd_equivalence(config: dict, outdir: Path) -> int:
    W = topology.build_topology("ring", 8)
    spec = models.SyntheticProblemSpec(
        kind="quadratic", d=config["problem.d"], n_agents=8,
        zeta=1.0, sigma=0.1, seed=config["problem.seed"],
    )
    problem = models.make_problem(spec)
    alg = algorithms.AlgorithmSpec(
        kind="GUT", eta=0.05, mu=config["algorithm.mu"], beta=0.0
    )
    report = harness.check_equivalence(
        W, problem, alg, T=100, tol=config["equivalence.tol"]
    )
    doc = {**dataclasses.asdict(report), "passed": report.passed}
    _write_json(outdir, "equivalence.json", doc)
    verdict = "<=" if report.passed else ">"
    print(
        f"equivalence max deviation {report.max_deviation:.3g} {verdict} {report.tol:g} "
        f"rounds={report.rounds}"
    )
    return 0 if report.passed else 3


def _cmd_validate(config: dict, outdir: Path) -> int:
    W = _build_topology(config)
    # the spec train would run, so both subcommands reject the same configs
    spec = _algorithm_spec(config)
    stats = topology.spectral_stats(W)
    mixing = topology.validate_mixing(W)
    check = algorithms.validate_hyperparameters(
        eta=spec.eta, mu=spec.mu, rho=stats.rho, L=config["problem.L"]
    )
    doc = {
        **dataclasses.asdict(check), "rho": stats.rho, "eta": spec.eta, "mu": spec.mu,
        "mixing_ok": mixing.ok, "mixing_violations": mixing.violations,
    }
    _write_json(outdir, "validate.json", doc)
    ok = check.eta_ok and check.mu_ok and mixing.ok
    print(
        f"validate eta={config['algorithm.eta']:g} (max {check.eta_max:.6g}) "
        f"mu={config['algorithm.mu']:g} (max {check.mu_max:.6g}) "
        f"{'ok' if ok else 'outside convergence regime'}"
    )
    return 0 if ok else 3


_COMMANDS = {
    "topology": _cmd_topology,
    "partition": _cmd_partition,
    "consensus": _cmd_consensus,
    "train": _cmd_train,
    "equivalence": _cmd_equivalence,
    "validate": _cmd_validate,
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        print(f"\nsubcommands: {', '.join(_COMMANDS)}")
        return 0 if argv else 1
    sub = argv[0]
    if sub not in _COMMANDS:
        print(
            f"unknown subcommand {sub!r}; expected one of {', '.join(_COMMANDS)}",
            file=sys.stderr,
        )
        return 1
    try:
        config = parse_config(argv[1:])
        outdir = Path(config["run.output_dir"])
        return _COMMANDS[sub](config, outdir)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    cli_entry()
