#!/usr/bin/env bash
# Write the virtual-time tables of every bench binary that drives
# harness::run_cluster into one file. Each binary runs with
# --benchmark_filter=NOMATCH, so it prints its tables and skips every timed
# run. The tables are deterministic: a change that means to leave protocol
# behaviour alone must leave the file byte-identical. Comparing two
# checkouts is one diff:
#
#   scripts/bench_tables.sh
#   (cd ../parent && scripts/bench_tables.sh)
#   diff ../parent/build-release/bench_tables.txt build-release/bench_tables.txt
#
# Usage: scripts/bench_tables.sh [build-dir]   (default: build-release; the
# directory is configured as a Release build). Prints the output file path.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build-release}"
benches=$(grep -l 'run_cluster' bench/*.cpp | xargs -n1 basename | sed 's/\.cpp$//')
out="$build/bench_tables.txt"
log="$build/bench_tables.build.log"
cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
# shellcheck disable=SC2086  # one target per word
if ! cmake --build "$build" -j"$(nproc)" --target $benches >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  exit 1
fi
: >"$out"
for b in $benches; do
  echo "== $b" >>"$out"
  "$build/$b" --benchmark_filter=NOMATCH 2>&1 |
    grep -v '^Failed to match any benchmarks' >>"$out"
done
echo "$out"
