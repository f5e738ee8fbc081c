#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

One run:
    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 20 --trace 0

Steadiness mode: every workload N times with seeds 1..N, then the median,
quartiles, min and max of each end-to-end metric, the spread
(q3 - q1) / median, and the failed share of every run:
    python3 perfbench/run.py --steady 10 --seconds 20 [--workloads a,b]

Run from the repository root.  The program is built from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
go to .bench_tmp/<pid> and are removed afterwards; the traced run writes
its spans to .bench_out/<workload>-spans.csv.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm_hits", "cold_churn", "scaled_exec"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program sources (src/) are not in", ROOT)
        sys.exit(1)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text)."""
    tmp_dir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative, so the server's unix socket path stays short.
           "--tmp-dir", os.path.relpath(tmp_dir, ROOT)]
    if trace:
        cmd += ["--spans-out", os.path.join(out_dir, workload + "-spans.csv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run timed out")
        return 1, ""
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return proc.returncode, stdout


def steady(binary, workloads, runs, seconds):
    bounds = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for m in json.load(f)["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    for workload in workloads:
        results = []
        for seed in range(1, runs + 1):
            code, stdout = run_once(binary, workload, seed, seconds, 0)
            if code != 0 or not stdout.strip():
                log(f"{workload} seed {seed}: run failed (exit {code})")
                sys.exit(1)
            results.append(json.loads(stdout.strip().splitlines()[-1]))
        print(f"== {workload}: {runs} runs of {seconds} s")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("   failed share per run: " +
              ", ".join(f"{s:.6f}" for s in shares) +
              ("  (identical)" if len(shares) == 1 else "  (DIFFERS)"))
        print(f"   {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"   {name:<18} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{min(values):12.5g} {max(values):12.5g} {spread:8.4f} "
                  f"{bounds.get(name, float('nan')):6.3f}")
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if args.steady is None and args.workload is None:
        parser.error("give --workload or --steady")
    binary = build()
    if args.steady is not None:
        steady(binary, args.workloads.split(","), args.steady, args.seconds)
        return 0
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
