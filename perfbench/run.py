#!/usr/bin/env python3
"""GraphPi benchmark: one command, four workloads, every count checked.

    python3 perfbench/run.py --workload oneshot|exec|served|sharded \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the
library) into $CARGO_TARGET_DIR or .bench_build, then starts
graphpi_perfbench processes:

  --trace 0  the timed set-up in three fresh processes (setup_s is their
             median) and the measured phase; prints the end-to-end
             metrics.
  --trace 1  one untraced and one traced run of the measured phase;
             prints the per-layer metrics, the tracing overhead, and checks
             that the exact counts repeat between the two runs.

Every process gets an empty private kernel cache and a per-run scratch
directory that is removed at exit. The last line of stdout is the result:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oneshot", "exec", "served", "sharded")
# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Name prefixes of the per-layer metrics each workload must emit. A
# per-layer metric a workload does not list is a layer it does not reach
# and reads 0; a listed one that is missing fails the run, so a renamed
# counter in the library cannot pass as a perfect 0.
REACHES_ALL = ("graph.stats_s", "graph.intersect_gelems", "trace.",
               "error_rate")
REACHES = {
    "oneshot": ("core.plan_s", "core.plan_max_ms", "core.restriction_gen_s",
                "core.configs_scored", "core.restriction_sets", "jit."),
    "exec": ("io.snapshot_", "core.forest_build_ms", "engine.", "jit."),
    "served": ("service.", "jit.compiles"),
    "sharded": ("io.shard_load_s", "core.forest_build_ms", "jit.", "dist."),
}

# Backends whose per-pass seconds are end-to-end metrics in every workload.
E2E_BACKENDS = ("serial", "parallel", "generated")


def load_metrics():
    """Metric names and units per trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


# Counts the program makes that must repeat exactly: in every pass, in
# every process of a run, and between the untraced and the traced run.
EXACT = (
    "core.configs_scored",
    "core.restriction_sets",
    "engine.iep_terms",
    "jit.compiles",
    "dist.lockstep.messages",
    "dist.lockstep.acks",
    "dist.lockstep.bytes",
    "dist.shipped_continuations",
    "io.snapshot_bytes",
)

MIN_TRACE_COVERAGE = 0.9


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else Path.cwd() / path


def build(bdir):
    """Configures (once) and builds the harness; returns the binary."""
    cmake_dir = bdir / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "graphpi_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            if step[1] == "-S":
                shutil.rmtree(cmake_dir, ignore_errors=True)
            raise RuntimeError("build failed: " + " ".join(step))
    return cmake_dir / "graphpi_perfbench"


def run_child(binary, args):
    """Runs one harness process; returns its parsed JSON record."""
    done = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"harness exited with {done.returncode}")
    return json.loads(lines[-1])


def fingerprint(args):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "git_commit": commit or "unavailable",
            "source_sha256": digest.hexdigest(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS")}


def p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return ordered[rank - 1]


def exact_counts(record):
    """The exact counts of one process, or None if its passes disagree."""
    passes = [p["exact"] for p in record["passes"]]
    if any(p != passes[0] for p in passes):
        return None
    counts = dict(record["setup_exact"])
    counts.update(passes[0] if passes else {})
    if "io.snapshot_bytes" in record["layer"]:
        counts["io.snapshot_bytes"] = int(record["layer"]["io.snapshot_bytes"])
    return counts


def end_to_end(records, setup_samples):
    passes = [p for r in records for p in r["passes"]]
    calls = [ms for p in passes for ms in p["call_ms"]]
    measured_s = sum(p["wall_s"] for p in passes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "query_p50_ms": statistics.median(calls),
        # Every pass makes the same calls, so each pass's tail is one
        # sample of the same figure; their median is steady even where a
        # run holds too few calls for a 99th percentile of its own.
        "query_p99_ms": statistics.median(p99(p["call_ms"]) for p in passes),
        "queries_per_s": len(calls) / measured_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    for backend in E2E_BACKENDS:
        if all(backend in p["backend_s"] for p in passes):
            values[f"{backend}_s"] = statistics.median(
                p["backend_s"][backend] for p in passes)
    return values


def measure(binary, common, args):
    """--trace 0: set-up samples plus the measured phase."""
    records, setup_records, failures = [], [], []
    if args.workload == "oneshot":
        # One pass per process, so every pass compiles into an empty
        # kernel cache; repeat until the measured time is spent.
        measured = 0.0
        while not records or measured < args.seconds:
            records.append(run_child(binary, common + ["--max-passes", "1"]))
            measured += sum(p["wall_s"] for p in records[-1]["passes"])
    else:
        # Set-up-only processes first: the first one also makes the
        # untimed inputs, which must not count in the measuring process's
        # peak RSS.
        for _ in range(SETUP_SAMPLES - 1):
            setup_records.append(run_child(binary, common + ["--setup-only"]))
        records.append(
            run_child(binary, common + ["--seconds", str(args.seconds)]))
    setup_samples = [r["setup_s"] for r in records + setup_records]
    while len(setup_samples) < SETUP_SAMPLES:
        setup_records.append(run_child(binary, common + ["--setup-only"]))
        setup_samples.append(setup_records[-1]["setup_s"])

    counts = [exact_counts(r) for r in records]
    if any(c is None or c != counts[0] for c in counts):
        failures.append("exact counts differ between passes")
    if any(r["setup_exact"] != records[0]["setup_exact"]
           for r in setup_records):
        failures.append("set-up exact counts differ between processes")
    return records, end_to_end(records, setup_samples), failures


def trace(binary, common, args, bdir):
    """--trace 1: untraced and traced runs; per-layer metrics."""
    extra = ["--max-passes", "1"] if args.workload == "oneshot" else []
    seconds = ["--seconds", str(args.seconds)]
    plain = run_child(binary, common + seconds + extra)
    trace_dir = bdir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    traced = run_child(binary, common + seconds + extra + [
        "--traced", "--trace-out", str(trace_file)])
    failures = []
    plain_counts, traced_counts = exact_counts(plain), exact_counts(traced)
    if plain_counts is None or traced_counts is None:
        failures.append("exact counts differ between passes")
    elif plain_counts != traced_counts:
        failures.append(f"exact counts differ between the untraced and the "
                        f"traced run: {plain_counts} vs {traced_counts}")
    layer = dict(traced["layer"])
    layer.update(traced_counts or {})
    wall = [statistics.median(p["wall_s"] for p in r["passes"])
            for r in (plain, traced)]
    layer["trace.overhead_frac"] = wall[1] / wall[0] - 1.0
    attempted = plain["attempted"] + traced["attempted"]
    layer["error_rate"] = (plain["failed"] + traced["failed"]) / attempted
    if layer.get("trace.coverage", 0.0) < MIN_TRACE_COVERAGE:
        failures.append(f"layer spans cover {layer.get('trace.coverage')} "
                        f"of the measured phase, under {MIN_TRACE_COVERAGE}")
    log(f"chrome trace written to {trace_file}")
    return [plain, traced], layer, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = load_metrics()[args.trace]
    bdir = build_dir()
    try:
        binary = build(bdir)
    except RuntimeError as e:
        log(str(e))
        return 1
    tmp = bdir / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    os.environ["OMP_NUM_THREADS"] = str(min(4, os.cpu_count() or 1))
    # glibc raises its mmap threshold to the size of each large block freed,
    # after which freed buffers stay resident in the arena of whichever
    # thread freed them; peak RSS of identical exec runs then read 69, 77
    # or 85 MB by thread scheduling. Pinning the threshold at its initial
    # 128 KiB makes peak_rss_mb the program's live peak.
    os.environ["MALLOC_MMAP_THRESHOLD_"] = "131072"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--tmp", str(tmp), "--expected", str(HERE / "expected.json")]
    started = time.monotonic()
    try:
        if args.trace:
            records, values, failures = trace(binary, common, args, bdir)
        else:
            records, values, failures = measure(binary, common, args)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            ValueError, statistics.StatisticsError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reached = REACHES_ALL + REACHES[args.workload]
    for name in names:
        if name not in values and (args.trace == 0 or name.startswith(reached)):
            failures.append(f"metric {name} was not measured")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for error in [e for r in records for e in r["errors"]] + failures:
        log(f"FAILED: {error}")
    detail = {"fingerprint": {**fingerprint(args),
                              **records[0]["fingerprint"]},
              "exact_metrics": [n for n in EXACT if n in names],
              "processes": len(records),
              "elapsed_s": round(time.monotonic() - started, 3)}
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and not failures and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed + len(failures),
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
