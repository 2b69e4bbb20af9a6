#!/usr/bin/env bash
# Records a benchmark suite from a dedicated Release build.
#
# Usage: scripts/bench.sh [PR_NUMBER] [SUITE] [BENCHMARK_FILTER]
#                         [--suites "S1 S2 ..."] [--threads "T1 T2 ..."]
#                         [--metrics]
#
#   SUITE (or --suites, which accepts several) is one of:
#     micro  bench_micro: training/eval kernels
#     serve  bench_serve: snapshot IO, streaming observe, BM_ServeThroughput
#     simd   the SIMD/quantized kernel slices of both binaries:
#            BM_LogProbBatch (scalar-vs-vector pairs) +
#            BM_ForwardStepStreaming from bench_micro and BM_ServeQuantized
#            (double-vs-quantized pairs) from bench_serve, merged into one
#            JSON so every pair lands in a single run.
#     net    bench_net: epoll TCP front end over real loopback sockets
#            (binary/text protocol waves, req/s-per-core counters)
#     store  bench_store: out-of-core store — pack throughput, verified
#            vs unverified open, mapped vs in-RAM scans, ingest append
#            rates, online refresh vs full replay, and BM_OutOfCoreScan
#            over a store built larger than UPSKILL_STORE_BUDGET_MB
#            (default 64; the fixture writes ~2x the budget to /tmp)
#     exec   bench_exec: the sharded assignment kernel once per
#            execution backend (serial | pool); every entry names its
#            backend and records threads/shards counters
#     obs    bench_obs: request-trace overhead on the serving hot path —
#            BM_RequestTraceOverhead with the span store disabled /
#            thinning 1 in 16 / recording everything (the <= 2% overhead
#            acceptance bar), plus raw and contended RecordRequest() cost
#     e2e    the end-to-end benchmark BENCHMARK.json declares: delegates
#            to `python3 bench/e2e/run.py` once per workload (seed 1;
#            BENCHMARK_FILTER narrows it to a space-separated workload
#            list) and collects the result lines into BENCH_PR<N>.json as
#            {"runs": [...]}, which `bench/e2e/compare.py diff` reads like
#            its baseline file. Runs alone, not with other suites; run.py
#            builds its own Release tree in .bench_build/. For a paired
#            A/B comparison use `bench/e2e/compare.py run` directly.
#
#   --threads sweeps the sharded assignment benches
#   (BM_AssignSkillsSharded in bench_micro and bench_exec) over the given
#   thread counts; each emitted entry records its thread and shard count
#   in the `threads` / `shards` counters. Default sweep is "1 8".
#
#   --metrics attaches a Prometheus registry dump next to the benchmark
#   JSON (BENCH_PR<N>.metrics.prom): the binary writes the process
#   metrics registry on exit via UPSKILL_BENCH_METRICS_OUT.
#
# Produces BENCH_PR<N>.json at the repo root (google-benchmark JSON,
# includes build context). Always benchmarks a -DCMAKE_BUILD_TYPE=Release
# tree in build-bench/, independent of whatever ./build currently holds —
# BENCH_PR1.json was recorded from a debug build and is superseded by the
# Release rerecording in BENCH_PR2.json; BENCH_PR3.json records the serve
# suite; BENCH_PR4.json rerecords micro with the thread x shard sweep;
# BENCH_PR6.json records the simd suite; BENCH_PR8.json records the
# store suite; BENCH_PR9.json records the exec backend suite;
# BENCH_PR10.json records the obs request-trace overhead suite.
#
# BENCH_PR1-10 were all recorded on a 1-CPU host: they are history, not a
# baseline. A performance claim is judged by the e2e suite on the host
# the project runs on, against bench/e2e/baseline.json or a paired run of
# the parent commit (bench/e2e/README.md).
set -euo pipefail

cd "$(dirname "$0")/.."

THREADS=""
METRICS=0
SUITES=""
POSITIONAL=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --suites)
      [[ $# -ge 2 ]] || { echo "--suites needs a value" >&2; exit 2; }
      SUITES="$2"; shift 2 ;;
    --suites=*)
      SUITES="${1#--suites=}"; shift ;;
    --threads)
      [[ $# -ge 2 ]] || { echo "--threads needs a value" >&2; exit 2; }
      THREADS="$2"; shift 2 ;;
    --threads=*)
      THREADS="${1#--threads=}"; shift ;;
    --metrics)
      METRICS=1; shift ;;
    *)
      POSITIONAL+=("$1"); shift ;;
  esac
done
set -- "${POSITIONAL[@]:-}"

PR_NUMBER="${1:-4}"
[[ -n "$SUITES" ]] || SUITES="${2:-micro}"
FILTER="${3:-}"
BUILD_DIR=build-bench
OUT="BENCH_PR${PR_NUMBER}.json"

if [[ " $SUITES " == *" e2e "* ]]; then
  if [[ "$SUITES" != "e2e" ]]; then
    echo "error: the e2e suite runs alone (got suites '$SUITES')" >&2
    exit 2
  fi
  WORKLOADS="$FILTER"
  if [[ -z "$WORKLOADS" ]]; then
    WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"]
        for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  fi
  PARTS=()
  for WORKLOAD in $WORKLOADS; do
    PART="${OUT%.json}.${WORKLOAD}.json"
    python3 bench/e2e/run.py --workload "$WORKLOAD" --seed 1 --out "$PART"
    PARTS+=("$PART")
  done
  python3 - "$OUT" "${PARTS[@]}" <<'EOF'
import json
import sys

out_path, *part_paths = sys.argv[1:]
runs = []
for path in part_paths:
    with open(path) as part:
        runs.append(json.load(part))
with open(out_path, "w") as out:
    json.dump({"runs": runs}, out, indent=1)
    out.write("\n")
EOF
  rm -f "${PARTS[@]}"
  echo "wrote $OUT"
  exit 0
fi

# Each suite expands to `binary:filter` run specs (empty filter = all).
RUNS=()
BINARIES=()
for SUITE in $SUITES; do
  case "$SUITE" in
    micro) RUNS+=("bench_micro:"); BINARIES+=(bench_micro) ;;
    serve) RUNS+=("bench_serve:"); BINARIES+=(bench_serve) ;;
    simd)
      RUNS+=("bench_micro:BM_LogProbBatch|BM_ForwardStepStreaming")
      RUNS+=("bench_serve:BM_ServeQuantized")
      BINARIES+=(bench_micro bench_serve) ;;
    net) RUNS+=("bench_net:"); BINARIES+=(bench_net) ;;
    store) RUNS+=("bench_store:"); BINARIES+=(bench_store) ;;
    exec) RUNS+=("bench_exec:"); BINARIES+=(bench_exec) ;;
    obs) RUNS+=("bench_obs:"); BINARIES+=(bench_obs) ;;
    *)
      echo "error: unknown suite '$SUITE'" \
           "(want micro, serve, simd, net, store, exec, obs, or e2e)" >&2
      exit 2 ;;
  esac
done

if [[ "${#RUNS[@]}" -eq 0 ]]; then
  echo "error: no suites requested (SUITE/--suites expanded to nothing)" >&2
  exit 2
fi

if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DUPSKILL_SANITIZE= >/dev/null; then
  echo "error: cmake configure failed for '$BUILD_DIR'" >&2
  exit 3
fi
if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build directory '$BUILD_DIR' is missing after configure" >&2
  exit 3
fi
cmake --build "$BUILD_DIR" --target "${BINARIES[@]}" -j "$(nproc)"

# Fail fast with a clear message if a requested bench binary never got
# built (e.g. the target was renamed or the build partially failed),
# instead of a bare "No such file or directory" halfway through a sweep.
for BINARY in "${BINARIES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$BINARY" ]]; then
    echo "error: bench binary '$BUILD_DIR/bench/$BINARY' is missing or not" \
         "executable; the '$BINARY' build target did not produce it" >&2
    exit 3
  fi
done

if [[ -n "$THREADS" ]]; then
  export UPSKILL_BENCH_THREADS="$THREADS"
fi
if [[ "$METRICS" -eq 1 ]]; then
  export UPSKILL_BENCH_METRICS_OUT="BENCH_PR${PR_NUMBER}.metrics.prom"
fi

# Run each spec into its own JSON, then merge (the merge is a no-op move
# for single-run suites). An explicit FILTER argument narrows every run.
PARTS=()
INDEX=0
for RUN in "${RUNS[@]}"; do
  BINARY="${RUN%%:*}"
  RUN_FILTER="${RUN#*:}"
  if [[ -n "$FILTER" ]]; then
    RUN_FILTER="$FILTER"
  fi
  PART="${OUT%.json}.part${INDEX}.json"
  ARGS=(--benchmark_out="$PART" --benchmark_out_format=json)
  if [[ -n "$RUN_FILTER" ]]; then
    ARGS+=(--benchmark_filter="$RUN_FILTER")
  fi
  if [[ "$BINARY" == bench_obs ]]; then
    # The obs overhead suite compares medians of repeated runs whose
    # deltas (~tens of ns) sit below slow thermal/frequency drift;
    # interleaving the repetitions decorrelates that drift from the
    # store mode being measured.
    ARGS+=(--benchmark_enable_random_interleaving=true)
  fi
  "./$BUILD_DIR/bench/$BINARY" "${ARGS[@]}"
  PARTS+=("$PART")
  INDEX=$((INDEX + 1))
done

if [[ "${#PARTS[@]}" -eq 1 ]]; then
  mv "${PARTS[0]}" "$OUT"
else
  python3 - "$OUT" "${PARTS[@]}" <<'EOF'
import json
import sys

out_path, *part_paths = sys.argv[1:]
with open(part_paths[0]) as first:
    merged = json.load(first)
for path in part_paths[1:]:
    with open(path) as part:
        merged["benchmarks"].extend(json.load(part)["benchmarks"])
with open(out_path, "w") as out:
    json.dump(merged, out, indent=1)
    out.write("\n")
EOF
  rm -f "${PARTS[@]}"
fi

echo "wrote $OUT"
if [[ "$METRICS" -eq 1 ]]; then
  echo "wrote $UPSKILL_BENCH_METRICS_OUT"
fi
