#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, runs one workload,
checks its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload sync-scale --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones (the
traced run also writes a Chrome trace_event file and a self-time summary).
`--write-manifest` regenerates BENCHMARK.json from benchlib.py instead.
Build outputs, raw results, traces and the exact-repeat records go under
$CARGO_TARGET_DIR (default .bench_build) in the current directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(build_dir, "perfbench_driver")
    return exe if os.path.isfile(exe) else None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeats(raw, store_path):
    """Exact-repeat check: counts recorded several times in this run, and
    counts stored by an earlier run of the same build and seed, must be
    equal. Returns the list of mismatch descriptions."""
    problems = []
    for key, values in benchlib.repeat_mismatches(raw["counts"]).items():
        problems.append(f"{key} took values {values} within one run")
    current = {k: v for k, v in raw["counts"]}
    if os.path.isfile(store_path):
        with open(store_path) as f:
            stored = json.load(f)
        for key, (old, new) in benchlib.stored_mismatches(stored,
                                                           current).items():
            problems.append(f"{key} was {old} in an earlier run, now {new}")
    elif not problems:
        os.makedirs(os.path.dirname(store_path), exist_ok=True)
        with open(store_path, "w") as f:
            json.dump(current, f, sort_keys=True)
    return problems


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w, _ in benchlib.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchlib.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json and exit")
    args = ap.parse_args()

    if args.write_manifest:
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path, "w") as f:
            json.dump(benchlib.manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    exe = build(os.path.join(out_dir, "perfbench"))
    if exe is None:
        return 1

    tag = f"{args.workload}-seed{args.seed}"
    raw_path = os.path.join(out_dir, "runs", f"{tag}-trace{args.trace}.json")
    trace_path = os.path.join(out_dir, "traces", f"{tag}.trace.json")
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)

    store = os.path.join(out_dir, "counts",
                         f"{tag}-{file_digest(exe)}.json")
    problems = check_repeats(raw, store)
    for p in problems:
        log("COUNT MISMATCH: " + p)
    for why in raw["failures"]:
        log("FAILED OP: " + why)

    if args.trace:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        metrics = benchlib.per_layer(raw, events)
        units = {n: u for n, u, _ in benchlib.PER_LAYER}
        summary = benchlib.self_time_summary(events)
        summary_path = os.path.join(out_dir, "traces", f"{tag}.selftime.json")
        with open(summary_path, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
        print(f"# trace: {trace_path} ({len(events)} spans)")
        print("# self time by span (ms): name calls total self")
        for name, r in sorted(summary.items(),
                              key=lambda kv: -kv[1]["self_ms"]):
            print(f"#   {name:28s} {r['calls']:7d} {r['total_ms']:12.3f} "
                  f"{r['self_ms']:12.3f}")
        print(f"# tracing overhead: the traced op median differs from the "
              f"untraced one by {metrics['trace.overhead_share']:+.2%}")
    else:
        metrics = benchlib.end_to_end(raw)
        units = {n: u for n, u, _, _ in benchlib.END_TO_END}
        q = benchlib.tail_percentile(raw["min_ops"])
        print(f"# {args.workload}: {len(raw['op_wall_ns'])} ops, tail is "
              f"p{q} (at least {raw['min_ops']} ops per run)")
    failed_share = raw["failed"] / raw["attempted"]
    print(f"# failed_ops_share {failed_share:.6g} share "
          f"({raw['failed']} of {raw['attempted']})")
    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {units[name]}")

    correct = raw["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
