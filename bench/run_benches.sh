#!/usr/bin/env bash
# Runs the streaming benchmark suite and refreshes the BENCH_streaming.json
# perf-trajectory artifact at the repo root. Usage:
#
#   bench/run_benches.sh [--build-dir DIR] [--min-time SECONDS] [--filter RE]
#
# The artifact is Google Benchmark's JSON, post-processed by
# bench/bench_to_json.py into a stable, diff-friendly shape (sorted entries,
# rounded throughput) so PR-over-PR comparisons are meaningful. Every row
# runs N times, N being "min_repetitions" in bench/bench_baselines.json,
# with the repetitions of all rows randomly interleaved, so a slow spell of
# the machine lands on some repetitions of many rows instead of every
# repetition of one; the artifact keeps every repetition and records N in
# its context, and check_bench_baselines.py judges each row on its best
# repetition.
set -euo pipefail

BUILD_DIR=build
MIN_TIME=0.05
FILTER=.
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --min-time)  MIN_TIME=$2;  shift 2 ;;
    --filter)    FILTER=$2;    shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root"
bin="$BUILD_DIR/bench/bench_streaming"
[[ -x $bin ]] || { echo "missing $bin — build the benches first" >&2; exit 1; }

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
# Provenance: the commit the artifact was measured at.
source bench/git_sha.sh
# The repetition count the baseline check demands is the one it gets.
reps=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["min_repetitions"])' bench/bench_baselines.json)
repeat=(--benchmark_repetitions="$reps"
        --benchmark_enable_random_interleaving=true
        --benchmark_context=repetitions="$reps")
# Google Benchmark >= 1.8 wants a unit suffix on --benchmark_min_time and
# older releases reject it; try the suffixed spelling first.
if ! "$bin" --benchmark_format=json --benchmark_min_time="${MIN_TIME}s" \
     --benchmark_filter="$FILTER" --benchmark_context=git_sha="$sha" \
     "${repeat[@]}" > "$raw" 2>/dev/null; then
  "$bin" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
     --benchmark_filter="$FILTER" --benchmark_context=git_sha="$sha" \
     "${repeat[@]}" > "$raw"
fi

python3 bench/bench_to_json.py "$raw" > BENCH_streaming.json
echo "wrote $repo_root/BENCH_streaming.json"
