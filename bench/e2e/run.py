#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench_e2e).

One workload, result as the last line of stdout:

    python3 bench/e2e/run.py --workload serve-closed --seed 1 --seconds 10 --trace 0

Every workload (the serving ones BENCHMARK.json does not gate, too) at
~1/100 scale with every check, traced and untraced, verifying that each
metric BENCHMARK.json names is emitted:

    python3 bench/e2e/run.py --smoke

The library is built from the repository's own sources into .bench_build/
at the repository root; temporary files (compiler scratch, stores, logs,
snapshots) stay under .bench_build/ too, and a traced run writes its
Chrome trace to .bench_build/traces/ unless --trace-out says otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2e" / "bench_e2e"
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "0.5"
# Every workload bench_e2e runs: the ones BENCHMARK.json gates, then the
# serving workloads, whose headline does not repeat within a gating bound
# on a shared host (README.md, "Workloads").
WORKLOADS = ("train-synthetic", "learn-loop", "serve-closed", "serve-open")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    env = environment()
    build_dir = BUILD / "e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def expected_log_likelihood(workload, seed):
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def command(workload, seed, seconds, trace, smoke=False, out=None,
            trace_out=None):
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd += ["--out", str(out)]
    if trace == 1:
        if trace_out is None:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_out = traces / f"{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    expected = None if smoke else expected_log_likelihood(workload, seed)
    if expected is not None:
        cmd += ["--expect-ll", repr(expected)]
    return cmd


def run(cmd, capture):
    """Runs the benchmark to completion (killing it past the time limit)."""
    try:
        return subprocess.run(cmd, env=environment(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))


def smoke():
    spec = benchmark_json()
    failures = [f"{w['name']}: not a bench_e2e workload"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(command(workload, 1, SMOKE_SECONDS, trace,
                                 smoke=True), capture=True)
            label = f"{workload} --trace {trace}"
            lines = result.stdout.strip().splitlines()
            try:
                line = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line")
                continue
            want = {m["name"] for m in spec[group]}
            got = set(line["metrics"])
            if result.returncode != 0 or not line["correct"] or line["failed"]:
                failures.append(f"{label}: exit {result.returncode}, "
                                f"correct={line['correct']}, "
                                f"failed={line['failed']}")
            if want != got:
                failures.append(f"{label}: missing {sorted(want - got)}, "
                                f"unlisted {sorted(got - want)}")
            print(f"smoke {label}: {len(got)} metrics, "
                  f"attempted {line['attempted']}, failed {line['failed']}")
    for failure in failures:
        print(f"smoke FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write a result file with "
                        "sample counts and the host fingerprint")
    parser.add_argument("--trace-out", help="Chrome trace path (--trace 1)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    result = run(command(args.workload, args.seed, args.seconds, args.trace,
                         out=args.out, trace_out=args.trace_out),
                 capture=False)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
