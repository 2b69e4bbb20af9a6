#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, or records them.

Record runs of two checkouts (or one checkout twice), alternating sides in
the palindromic order A B B A A B B A ... so a slow drift of the host
cancels, as bench/bench_obs.cc pairs its runs. Pair i runs seed i + 1 on
both sides:

    python3 bench/e2e/compare.py run --a PARENT --b CHANGE --runs 10 \
        --out RESULTS [--workloads train-synthetic,serve-closed] [--traced]

By default it runs the workloads BENCHMARK.json gates; --workloads also
takes the serving ones it does not.

Compare (each side a results directory or a baseline.json):

    python3 bench/e2e/compare.py diff RESULTS/a RESULTS/b \
        [--claim train-synthetic:op_ms]

For every (workload, end-to-end metric) with runs on both sides it
prints each side's median and quartiles and a verdict against the
metric's bound in BENCHMARK.json:
worse or improved when the medians differ by more than the bound,
unchanged when they do not, unresolved when either side's spread (the
distance between its quartiles over its median) exceeds the bound, unless
every run of one side beats every run of the other. A rise in the share
of failed operations is always worse. A named claim also needs the
change to win at least 9 of every 10 pairs and the medians to differ by
more than the parent's spread.

Collect a recorded pair of sets into a baseline file with the host
fingerprint (compare against it as bench/e2e/baseline.json, or one of its
sets as bench/e2e/baseline.json:a):

    python3 bench/e2e/compare.py baseline RESULTS > bench/e2e/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_runs(source):
    """Result objects from a directory of result files, or from a baseline
    file (BASELINE.json for all its runs, BASELINE.json:a for one set)."""
    path, _, wanted = source.partition(":")
    if Path(path).is_dir():
        runs = []
        for file in sorted(Path(path).rglob("*.json")):
            with open(file) as f:
                runs.append(json.load(f))
        return runs
    with open(path) as f:
        runs = json.load(f)["runs"]
    return [r for r in runs if not wanted or r.get("set") == wanted]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    delta = (b - a) / a if a else 0.0
    return delta if better == "lower" else -delta


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(a_values, b_values, metric):
    bound, better = metric["bound"], metric["better"]
    qa, qb = quartiles(a_values), quartiles(b_values)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    change = worse_by(qa[1], qb[1], better)
    beats = lambda x, y: worse_by(y, x, better) < 0  # x better than y
    if spread > bound:
        if all(beats(b, a) for a in a_values for b in b_values):
            return "improved", change, spread
        if all(beats(a, b) for a in a_values for b in b_values):
            return "worse", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "improved", change, spread
    return "unchanged", change, spread


def claim(a_runs, b_runs, workload, name, better):
    """The pair-win rule: pairs are the runs with the same seed."""
    a = {r["seed"]: r["metrics"][name]["value"] for r in a_runs
         if r["workload"] == workload}
    b = {r["seed"]: r["metrics"][name]["value"] for r in b_runs
         if r["workload"] == workload}
    seeds = sorted(set(a) & set(b))
    wins = sum(worse_by(a[s], b[s], better) < 0 for s in seeds)
    qa = quartiles([a[s] for s in seeds])
    qb = quartiles([b[s] for s in seeds])
    apart = abs(qb[1] - qa[1]) > qa[2] - qa[0]
    met = seeds and wins >= 0.9 * len(seeds) and apart and \
        worse_by(qa[1], qb[1], better) < 0
    print(f"claim {workload}:{name}: change wins {wins}/{len(seeds)} pairs, "
          f"medians {qa[1]:.6g} -> {qb[1]:.6g}, parent spread "
          f"{qa[2] - qa[0]:.6g}: {'MET' if met else 'NOT MET'}")
    return bool(met)


def diff(args):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    a_all = [r for r in load_runs(args.a) if r["trace"] == 0]
    b_all = [r for r in load_runs(args.b) if r["trace"] == 0]
    counts = {}
    print(f"{'workload':16} {'metric':14} {'A q1/median/q3':>34} "
          f"{'B q1/median/q3':>34} {'change':>8} {'spread':>7} verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += sorted({r["workload"] for r in a_all + b_all} -
                        set(workloads))
    for workload in workloads:
        a_runs = [r for r in a_all if r["workload"] == workload]
        b_runs = [r for r in b_all if r["workload"] == workload]
        if not a_runs or not b_runs:
            print(f"{workload:16} (no runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            v, change, spread = verdict(a, b, metric)
            counts[v] = counts.get(v, 0) + 1
            qa, qb = quartiles(a), quartiles(b)
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{workload:16} {name:14} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{100 * change:+7.2f}% {100 * spread:6.2f}% {v}")
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        v = "worse" if fb > fa else "unchanged"
        counts[v] = counts.get(v, 0) + 1
        print(f"{workload:16} {'failed_frac':14} {fa:>34.3g} {fb:>34.3g} "
              f"{'':8} {'':7} {v}")
    print("verdicts: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    ok = True
    for named in args.claim:
        workload, name = named.split(":")
        better = next(m["better"] for m in spec["end_to_end"]
                      if m["name"] == name)
        ok &= claim(a_all, b_all, workload, name, better)
    return 0 if ok else 1


def run(args):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    sides = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    out = Path(args.out).resolve()

    def one(side, workload, seed, trace, index):
        (out / side).mkdir(parents=True, exist_ok=True)
        result = out / side / f"{workload}-{'traced' if trace else index}.json"
        cmd = ["python3", "bench/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(result)]
        done = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE,
                              text=True)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        print(f"{side} {workload} seed {seed} trace {trace}: exit "
              f"{done.returncode} {last[:160]}", flush=True)

    for index in range(args.runs):
        order = "ab" if index % 2 == 0 else "ba"
        for workload in workloads:
            for side in order:
                one(side, workload, index + 1, 0, index)
    if args.traced:
        for workload in workloads:
            for side in "ab":
                one(side, workload, 1, 1, 0)
    return 0


def baseline(args):
    runs = []
    for side in ("a", "b"):
        for run_result in load_runs(str(Path(args.results) / side)):
            run_result["set"] = side
            runs.append(run_result)
    try:
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, text=True,
                                        capture_output=True).stdout.strip()
        sha = git("rev-parse", "HEAD")
        if sha and git("status", "--porcelain"):
            sha += "-dirty"
    except OSError:
        sha = ""
    hosts = {json.dumps(r["host"], sort_keys=True) for r in runs}
    json.dump({"git_sha": sha or "unknown",
               "hosts": [json.loads(h) for h in sorted(hosts)],
               "runs": runs}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--claim", action="append", default=[],
                   help="workload:metric the change claims to improve")
    p = sub.add_parser("run")
    p.add_argument("--a", required=True, help="checkout of side A")
    p.add_argument("--b", required=True, help="checkout of side B")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", required=True)
    p = sub.add_parser("baseline")
    p.add_argument("results")
    args = parser.parse_args()
    return {"diff": diff, "run": run, "baseline": baseline}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
