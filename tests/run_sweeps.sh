#!/usr/bin/env bash
# The sanitizer, thread-race and fuzz sweeps in one command (docs/USAGE.md):
#
#   tests/run_sweeps.sh [-jN] [asan] [tsan] [fuzz]    (default: all three)
#
# Each sweep builds its own tree next to the sources (build-asan,
# build-tsan, build-fuzz) and stops at its first failing step; the
# other sweeps still run, and the exit status is 1 if any sweep failed.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc)
if [[ "${1:-}" == -j* ]]; then jobs=${1#-j}; shift; fi
sweeps=("$@")
[[ ${#sweeps[@]} -gt 0 ]] || sweeps=(asan tsan fuzz)

configure() {  # configure <tree> <cmake options...>
  local tree=$1; shift
  # Sanitizer flags can raise warnings a normal build does not; the sweeps
  # look for runtime faults, so warnings do not stop them.
  cmake -S "$root" -B "$root/$tree" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DZONESTREAM_WERROR=OFF "$@"
}

# ASan + UBSan over the whole tree, then every tier-1 ctest entry.
sweep_asan() {
  configure build-asan -DZS_ENABLE_SANITIZERS=ON \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS &&
  cmake --build "$root/build-asan" -j "$jobs" &&
  ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"
}

# ThreadSanitizer over the control plane and the replicated bit-identity
# sim tests.
sweep_tsan() {
  configure build-tsan -DZS_ENABLE_TSAN=ON \
    -DZONESTREAM_BUILD_BENCHMARKS=OFF -DZONESTREAM_BUILD_EXAMPLES=OFF &&
  cmake --build "$root/build-tsan" -j "$jobs" \
    --target service_test sim_test rare_event_test &&
  ctest --test-dir "$root/build-tsan" --output-on-failure -j "$jobs" \
    -L service_test &&
  ctest --test-dir "$root/build-tsan" --output-on-failure -j "$jobs" \
    -R "AcrossThreadCounts|AtAnyThreadCount"
}

# Every fuzz_* target under ASan + UBSan, run once as a smoke test: the
# standalone mutation driver under GCC, a 60 s libFuzzer run under Clang.
sweep_fuzz() {
  configure build-fuzz -DZS_ENABLE_FUZZERS=ON -DZS_ENABLE_SANITIZERS=ON \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS -DZONESTREAM_BUILD_TESTS=OFF \
    -DZONESTREAM_BUILD_BENCHMARKS=OFF -DZONESTREAM_BUILD_EXAMPLES=OFF &&
  cmake --build "$root/build-fuzz" -j "$jobs" || return 1
  local args=()
  if grep -q '^CMAKE_CXX_COMPILER:.*clang' "$root/build-fuzz/CMakeCache.txt"
  then
    args=(-max_total_time=60)  # libFuzzer runs until stopped
  fi
  local fuzzer
  for fuzzer in "$root"/build-fuzz/fuzz/fuzz_*; do
    [[ -f $fuzzer && -x $fuzzer ]] || continue
    echo "== $(basename "$fuzzer")"
    "$fuzzer" "${args[@]}" || return 1
  done
}

for sweep in "${sweeps[@]}"; do
  if [[ $sweep != @(asan|tsan|fuzz) ]]; then
    echo "run_sweeps.sh: unknown sweep '$sweep' (asan, tsan or fuzz)" >&2
    exit 2
  fi
done
failed=()
for sweep in "${sweeps[@]}"; do
  echo "== sweep $sweep"
  "sweep_$sweep" || failed+=("$sweep")
done
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "run_sweeps.sh: failed: ${failed[*]}" >&2
  exit 1
fi
echo "run_sweeps.sh: ${sweeps[*]} passed"
