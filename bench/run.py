"""Benchmark of the unraveling workbench: one workload, one seed, one process.

    python3 bench/run.py --workload arena --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` next to this directory, makes
the workload's inputs from the seed, then runs a closed loop: one job at a
time, every job checked.  With ``--trace 0`` it runs whole passes over the
inputs while another pass fits in ``--seconds`` (at least ``MIN_PASSES``)
and reports the end-to-end metrics.  Every job follows one call of a fixed
reference routine; job times are scaled by the host speed that routine
measured over the pass, and each job's time is its median over the
passes.  With ``--trace 1`` it runs one pass with every layer wrapped by
``spans.Tracer`` between two untraced passes, and reports per-layer self
times and exact counts.  The last line of standard output is one JSON
object; the lines before it show the same figures as a table.
``README.md`` lists the metrics and the layer each one belongs to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3
MIN_PASSES = 3
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
# Seconds one ``reference()`` call takes at the nominal host speed.  On a
# shared host the speed drifts by a fifth within minutes; a reference call
# before every job measures it, and times are scaled to the nominal speed.
REFERENCE_S = 0.0008

SELF_TIMES = [
    "solver.solve", "solver.prune", "solver.transfer_from_pruned",
    "payoff.realize", "payoff.decided_by_depth", "core.is_winning_strategy",
    "unravel.build_base_covering", "unravel.unravel_union",
    "covering.compose", "covering.check_position_map", "covering.pullback",
    "covering.solve_via_covering", "covering.check_strategy_locality",
    "covering.strategy_transform", "covering.verify_lift", "covering.check_winning_transfer",
    "gamedoc.parse_game_bytes", "gamedoc.build_arena", "dot.covering_dot",
]
CLI_COMMANDS = ["solve", "prune", "unravel", "verify", "export-dot"]
COUNTS = [
    "solver.solve.nodes", "solver.prune.removed",
    "unravel.source_nodes", "unravel.claim_moves", "unravel.union_stages",
    "unravel.cap_rejections", "covering.compose.calls", "covering.strategies_transformed",
    "covering.plays_lifted", "gamedoc.bytes_parsed", "dot.bytes_written", "cli.nonzero_exits",
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, help="distinct inputs (default: the workload's)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's deterministic values for the seed if none are")
    return parser.parse_args(argv)


def reference() -> int:
    """Fixed dict, tuple and sort work, independent of the package."""
    table = {}
    for i in range(500):
        key = (i % 7, i % 11, i % 13, i)
        table[key] = tuple(sorted((i * 31 + j) % 97 for j in range(3)))
    return len(sorted(table.items(), key=lambda item: (item[0][2], item[0][1])))


def host_speed(calls: int) -> float:
    """Nominal over measured time of ``calls`` reference calls."""
    start = time.perf_counter()
    for _ in range(calls):
        reference()
    return REFERENCE_S * calls / (time.perf_counter() - start)


def run_pass(job, cases, tracer):
    """One job per input, in order, each after a reference call.

    Returns (latencies, fingerprints, failures, host speed over the pass).
    """
    latencies, prints, failures = [], [], []
    measured = 0.0
    for index, case in enumerate(cases):
        start = time.perf_counter()
        reference()
        measured += time.perf_counter() - start
        start = time.perf_counter()
        try:
            ok, fingerprint = job(case, tracer)
        except Exception as error:  # outside the contract: a failed op
            ok, fingerprint = False, f"{type(error).__name__}: {error}"
        latencies.append(time.perf_counter() - start)
        prints.append(fingerprint)
        if not ok:
            failures.append(f"job {index}: {fingerprint}")
    return latencies, prints, failures, REFERENCE_S * len(cases) / measured


def digest(prints) -> str:
    return hashlib.sha256(repr(prints).encode()).hexdigest()


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def timed_run(job, cases, seconds):
    """Whole passes while another one still fits in ``seconds``, and at
    least ``MIN_PASSES``.  Job times are scaled by the pass's host speed,
    and each job's time is its median over the passes."""
    from spans import NullTracer

    tracer = NullTracer()
    per_job = [[] for _ in cases]
    failures, prints, speeds = [], None, []
    started = time.perf_counter()
    last = 0.0
    while len(speeds) < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        latencies, pass_prints, pass_failures, speed = run_pass(job, cases, tracer)
        last = time.perf_counter() - begun
        speeds.append(speed)
        failures += pass_failures
        if prints is None:
            prints = pass_prints
        elif pass_prints != prints:
            failures.append(f"pass {len(speeds)} disagrees with the first pass")
        for samples, latency in zip(per_job, latencies):
            samples.append(latency * speed)
    medians = [statistics.median(samples) for samples in per_job]
    metrics = {
        "jobs_per_s": (len(medians) / sum(medians), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(medians), "ms"),
    }
    if len(medians) >= P90_MIN_SAMPLES:
        metrics["job_ms_p90"] = (1e3 * percentile(medians, 0.9), "ms")
    info = {"passes": len(speeds), "samples": len(medians), "attempted": len(cases) * len(speeds),
            "host speed": " ".join(f"{speed:.3f}" for speed in speeds)}
    return metrics, info, failures, prints


def traced_run(job, cases, workload, seed):
    """The traced pass between two untraced ones; pass times and self times
    are scaled by host speed like the job times of a timed run."""
    from spans import NullTracer, Tracer

    def timed(tracer):
        start = time.perf_counter()
        latencies, prints, failures, speed = run_pass(job, cases, tracer)
        return sum(latencies) * speed, prints, failures, speed

    before, prints, failures, _ = timed(NullTracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_prints, traced_failures, speed = timed(tracer)
    finally:
        tracer.uninstall()
    after, after_prints, after_failures, _ = timed(NullTracer())
    failures += traced_failures + after_failures
    if not prints == traced_prints == after_prints:
        failures.append("the passes of one run disagree")
    plain = (before + after) / 2
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")

    total, own = tracer.totals()
    counts = tracer.counts
    metrics = {f"{name}.self_s": (own.get(name, 0.0) * speed, "s") for name in SELF_TIMES}
    metrics.update(
        {f"cli.{c}.s": (total.get(f"cli.{c}", 0.0) * speed, "s") for c in CLI_COMMANDS}
    )
    metrics.update({name: (counts[name], "count") for name in COUNTS})
    attempts = counts["unravel.union_attempts"]
    built = attempts - counts["unravel.cap_rejections"]
    metrics["unravel.built_ratio"] = (built / attempts if attempts else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    info = {"passes": f"{before:.4g}s plain, {traced:.4g}s traced, {after:.4g}s plain",
            "samples": len(cases), "attempted": 3 * len(cases)}
    exact = {name: counts[name] for name in COUNTS}
    return metrics, info, failures, prints, exact


def check_golden(workload, seed, found, record):
    """Compare deterministic values with the ones stored for this seed;
    with ``record``, store the values that have none yet."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entry = golden.setdefault(workload, {}).setdefault(str(seed), {})
    mismatches = [
        f"{key}: {value!r} differs from the recorded {entry[key]!r}"
        for key, value in found.items()
        if key in entry and entry[key] != value
    ]
    if record and not mismatches:
        entry.update(found)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "unraveling" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'unraveling'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make_inputs, job, default_jobs = workloads.WORKLOADS[args.workload]
    count = args.jobs or default_jobs

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)  # game files are named relative to it, so reports do not vary
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases = make_inputs(args.seed, count, workdir)
            setups.append((time.perf_counter() - start) * host_speed(100))
        if args.trace:
            metrics, info, failures, prints, exact = traced_run(job, cases, args.workload, args.seed)
            found = {"digest": digest(prints), "counts": exact}
        else:
            metrics, info, failures, prints = timed_run(job, cases, args.seconds)
            metrics["setup_s"] = (import_s * host_speed(100) + statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            )
            found = {"digest": digest(prints)}
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    # goldens hold the default input count; a run with --jobs has other inputs
    mismatches = [] if args.jobs else check_golden(args.workload, args.seed, found, args.record)

    attempted, failed = info["attempted"], len(failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{key} {value}" for key, value in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} ratio")
    for line in (failures + mismatches)[:10]:
        print(f"  FAIL {line}")
    result = {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
