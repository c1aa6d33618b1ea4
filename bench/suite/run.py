#!/usr/bin/env python3
"""Runs one workload of the srsr benchmark suite (BENCHMARK.json's command).

    env OMP_NUM_THREADS=2 python3 bench/suite/run.py \
        --workload crawl_start --seed 1 --seconds 12 --trace 0

Builds bench/suite with CMake into build/bench-suite (the first run
compiles the library; later runs only check it is up to date), runs
srsr_bench once, and prints as the last line of stdout

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

with BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer
metrics (--trace 1, a traced run that also writes a Perfetto trace). A
per-layer metric of a layer the workload does not run reads 0. --seconds
is the length of query_churn's open loop; the other workloads run fixed
operation counts. The detail record of every run (every metric measured,
timings with sample counts, gates, span self times) lands in
bench_out/suite/. Exits non-zero, printing no result, when the build
fails, srsr_bench runs past RUN_TIMEOUT_S, a correctness gate fails, or
srsr_bench's metrics disagree with BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, "build", "bench-suite")
OUT = os.path.join(ROOT, "bench_out", "suite")
BINARY = os.path.join(BUILD, "srsr_bench")
# Every workload takes under 35 s on the host the README describes, slow
# stretches included; twice the issue's 30 s target stops a hung run.
RUN_TIMEOUT_S = 60


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "srsr_bench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "bench", "suite"), "-B", BUILD])
    for step in steps:
        # Quiet unless it fails: stdout carries only the result line.
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed: " + " ".join(step))


def select_metrics(measured, traced):
    """BENCHMARK.json's metrics for this mode, taken from srsr_bench's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in measured.items():
        if known.get(name) != m["unit"]:
            fail(f"srsr_bench measured {name} in {m['unit']}; BENCHMARK.json "
                 f"has {known.get(name, 'no such metric')}")
    selected = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        if m["name"] in measured:
            selected[m["name"]] = measured[m["name"]]
        elif traced:
            selected[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"srsr_bench did not measure the end-to-end metric {m['name']}")
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2k-source corpora: every path and gate in seconds")
    args = parser.parse_args()
    traced = args.trace == 1

    build()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}.s{args.seed}"
    stem += ".traced" if traced else ""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", os.path.join(OUT, stem + ".json")]
    if traced:
        command += ["--traced", "--trace-out", os.path.join(OUT, stem + ".perfetto.json")]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"srsr_bench exited {run.returncode}")

    result = json.loads(lines[-1])
    result["metrics"] = select_metrics(result["metrics"], traced)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
