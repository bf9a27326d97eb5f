"""Run one benchmark workload in-process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src.
Inputs come from --seed.  After a reference computation and a warm-up
repeat, the workload repeats for --seconds; every repeat's output is
checked.  With --trace 1 untraced and traced repeats alternate, and the
traced ones record spans around the calls into each layer.

The host's speed drifts by 20-30% over tens of seconds to minutes (a
shared 2-vCPU KVM guest; CPU time tracks wall time, so the process is
slowed, not preempted), which moves any plain timing of one run.  So a
probe, the workload's reference trajectory from reference.py, runs before
the first repeat and after every repeat; it belongs to the benchmark and
changes only with the host.  Each repeat's times are scaled by the probe's
nominal time over the mean of the two probes around it, and the reported
end-to-end timings are medians of these scaled times: seconds on the
nominal host, where the probe takes ``probe_nominal_s`` (its median on a
2-vCPU Intel Xeon Sapphire Rapids KVM guest, Python 3.11, numpy 2.4,
one OpenBLAS thread).  On that host, raw medians of runs minutes apart
differed by 10-30%; over ten 35 s runs per workload the scaled medians'
interquartile range was 2-3.5% of their median.  The raw timings and the
scale factors are printed beside them.  A package change that slows the code
run after it (by evicting caches, say) is partly credited back.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it give
each timing's quartiles and sample count, the failed checks, the trace
digest and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: with two, mixing-bound times spread ~17% between runs.
BLAS_THREADS = "1"
MIN_REPEATS = 9

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_error": "ratio",
}
# Per-layer metric -> (span name, field of Tracer.totals: 0 count,
# 1 duration, 2 self time).  Every span name appears with field 2 exactly
# once, so these self times plus trace.unattributed_s add up to the wall.
SPAN_METRICS = {
    "topology.build_s": ("topology.build", 2),
    "topology.mix_s": ("topology.mix", 2),
    "topology.mix_calls": ("topology.mix", 0),
    "partition.dirichlet_s": ("partition.dirichlet", 2),
    "models.make_problem_s": ("models.make_problem", 2),
    "models.oracle_s": ("models.oracle", 2),
    "models.oracle_calls": ("models.oracle", 0),
    "models.evaluate_s": ("models.evaluate", 2),
    "models.evaluate_calls": ("models.evaluate", 0),
    "algorithms.round_s": ("algorithms.round", 1),
    "algorithms.round_self_s": ("algorithms.round", 2),
    "algorithms.rounds": ("algorithms.round", 0),
    "algorithms.init_states_s": ("algorithms.init_states", 2),
    "algorithms.comm_cost_s": ("algorithms.comm_cost", 2),
    "harness.run_s": ("harness.run", 1),
    "harness.self_s": ("harness.run", 2),
    "harness.consensus_error_s": ("harness.consensus_error", 2),
    "harness.to_csv_s": ("harness.to_csv", 2),
}
PER_LAYER_UNITS = {
    **{metric: "count" if field == 0 else "s" for metric, (_, field) in SPAN_METRICS.items()},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(values) -> str:
    """Median, quartiles and the highest percentile with ten samples above it."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    ordered = sorted(values)
    tail = ""
    if len(ordered) > 10:
        rank = len(ordered) - 10
        tail = f" p{math.floor(100 * rank / len(ordered))} {ordered[rank - 1]:.6g}"
    return f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}{tail} n {len(values)}"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "decentrack").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


def one_repeat(workload, seed, traced, expected):
    """Set up, run, render and check one trace.

    Returns timings, the trace digest, the final error, the failed checks
    and, when traced, the span totals; the inputs and outputs are dropped
    here so that peak memory does not grow with the number of repeats.
    """
    from spans import NullTracer, Tracer, instrument

    tracer = Tracer() if traced else NullTracer()
    t0 = time.perf_counter()
    inputs = workload.setup(seed, tracer)
    t1 = time.perf_counter()
    with instrument(tracer, inputs.W, inputs.problem) if traced else nullcontext():
        with tracer.span("harness.run"):
            outcome = workload.run(inputs)
    t2 = time.perf_counter()
    with tracer.span("harness.to_csv"):
        csv = outcome.trace.to_csv()
    t3 = time.perf_counter()
    return {
        "setup": t1 - t0,
        "run": t2 - t1,
        "wall": t3 - t0,
        "totals": tracer.totals() if traced else None,
        "digest": hashlib.sha256(csv.encode()).hexdigest(),
        "final_error": workload.final_error(inputs, outcome, expected),
        "problems": workload.check(inputs, outcome, expected),
    }


def run_probe(workload, inputs) -> float:
    t0 = time.perf_counter()
    for _ in range(workload.probe_calls):
        workload.probe(inputs)
    return time.perf_counter() - t0


def scaled(reps, key: str) -> list[float]:
    """The repeats' ``key`` times on the nominal host."""
    return [r[key] * r["scale"] for r in reps]


def layer_metrics(totals: dict, wall: float, overhead: float) -> dict:
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        metrics[metric] = totals.get(span, (0, 0.0, 0.0))[field]
    self_sum = sum(entry[2] for entry in totals.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.unattributed_s"] = wall - self_sum
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "decentrack" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'decentrack'}; run from a decentrack checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import decentrack

    if Path(decentrack.__file__).resolve().parent != (SRC / "decentrack").resolve():
        print(f"error: imported decentrack from {decentrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import REFERENCE_RTOL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}")
    print(f"env {json.dumps(environment(args.seed), sort_keys=True)}")

    from spans import NullTracer

    probe_inputs = workload.setup(args.seed, NullTracer())
    expected = workload.expect(probe_inputs)
    one_repeat(workload, args.seed, False, expected)  # warm-up, not counted
    probe_before = run_probe(workload, probe_inputs)
    probes = [probe_before]

    samples = {False: [], True: []}
    attempted = failed = 0
    digests = set()
    errors = []
    deadline = time.perf_counter() + args.seconds
    while attempted < MIN_REPEATS or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(samples[False]) > len(samples[True])
        attempted += 1
        try:
            rep = one_repeat(workload, args.seed, traced, expected)
        except Exception:  # a crash in the package fails this repeat only
            rep = {"problems": [traceback.format_exc()]}
        problems = rep["problems"]
        if "digest" in rep:
            digests.add(rep["digest"])
            if len(digests) > 1:
                problems.append(f"trace digest {rep['digest']} differs from earlier repeats")
        if problems:
            failed += 1
            errors.append(f"repeat {attempted} ({'traced' if traced else 'untraced'}): "
                          + "; ".join(problems))
        probe_after = run_probe(workload, probe_inputs)
        probes.append(probe_after)
        if "digest" in rep:
            rep["scale"] = workload.probe_nominal_s / (0.5 * (probe_before + probe_after))
            samples[traced].append(rep)
        probe_before = probe_after

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in errors:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted} repeats)")
    print(f"trace_sha256 {' '.join(sorted(digests))}")
    print(f"reference {json.dumps(expected, sort_keys=True)}")
    untraced, traced_reps = samples[False], samples[True]
    if not untraced or (args.trace and not traced_reps):
        print("error: every repeat raised", file=sys.stderr)
        return 1
    error = untraced[0]["final_error"]
    print(f"final_error {error!r}: relative difference to the reference "
          f"{abs(error - expected['final_error']) / abs(expected['final_error']):.1e}, "
          f"tolerance {REFERENCE_RTOL:g}")

    print(f"per repeat of {workload.rounds} rounds, raw:")
    for key in ("run", "wall", "setup"):
        print(f"  {key}_s: {describe([r[key] for r in untraced])}")
    print(f"  probe_s: {describe(probes)} (nominal {workload.probe_nominal_s})")
    print(f"  scale: {describe([r['scale'] for r in untraced])}")
    print("per repeat, scaled to the nominal host:")
    for key in ("run", "wall", "setup"):
        print(f"  {key}_s: {describe(scaled(untraced, key))}")
    if not args.trace:
        metrics = {
            "rounds_per_s": workload.rounds / statistics.median(scaled(untraced, "run")),
            "wall_s": statistics.median(scaled(untraced, "wall")),
            "setup_s": statistics.median(scaled(untraced, "setup")),
            "peak_rss_mb": peak_rss_mb,
            "final_error": error,
        }
        units = END_TO_END_UNITS
    else:
        traced_walls = [r["wall"] for r in traced_reps]
        print(f"traced wall_s, raw: {describe(traced_walls)}")
        # per-layer times come from the traced repeat of median wall time
        chosen = sorted(traced_reps, key=lambda r: r["wall"])[(len(traced_reps) - 1) // 2]
        # a difference of two medians, so scaled to take the host's drift out
        overhead = (statistics.median(scaled(traced_reps, "wall"))
                    - statistics.median(scaled(untraced, "wall")))
        metrics = layer_metrics(chosen["totals"], chosen["wall"], overhead)
        units = PER_LAYER_UNITS
        self_sum = sum(metrics[m] for m, (_, field) in SPAN_METRICS.items() if field == 2)
        print(f"layer self times {self_sum:.6f} s + trace.unattributed_s "
              f"{metrics['trace.unattributed_s']:.6f} s = trace.wall_s {chosen['wall']:.6f} s")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
