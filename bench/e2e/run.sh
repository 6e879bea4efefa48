#!/usr/bin/env bash
# Builds the benchmark (a Release build under .bench_build/e2e, done once
# and then only brought up to date) and runs it. Arguments go to
# bench_e2e; see README.md. From any directory:
#
#   bench/e2e/run.sh                    # e2e pass, every workload once
#   bench/e2e/run.sh --runs 5 --out r.json
#   bench/e2e/run.sh --traced           # traced pass: timings and layers
#   bench/e2e/run.sh --quick            # 5 s per workload, same code paths
#   bench/e2e/run.sh --selftest         # build and run the self-test
#   bench/e2e/run.sh --workload serve-hot --seed 3 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last stdout line of a single run is
# its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 4)"

targets=(bench_e2e)
[[ "${1:-}" == "--selftest" ]] && targets+=(bench_e2e_selftest)

mkdir -p "$root/.bench_build"
{
  # Concurrent calls in one checkout share the build directory.
  if command -v flock >/dev/null; then flock 9; fi
  if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target "${targets[@]}" -j "$jobs"
} 9>"$root/.bench_build/e2e.lock" >&2

if [[ "${1:-}" == "--selftest" ]]; then
  cd "$build"
  exec ctest -L e2e --output-on-failure
fi

cd "$root"
exec "$build/bench_e2e" "$@"
