#!/usr/bin/env sh
# Builds the test suite with ThreadSanitizer (CELLFLOW_TSAN=ON, see the
# `tsan` CMake preset) and runs the concurrency-sensitive subset: the
# ThreadPool unit tests, the serial-vs-parallel differential suites, the
# three-way equivalence tests, the observability layer (metrics registry
# under the parallel engine, profiler shard spans, concurrent logger
# writers), and the net-layer suites (SyncNetwork/FaultyNetwork units,
# the zero-fault NetDifferential pin, the fault-schedule property fuzz,
# and NetStabilization — single-threaded today, but kept in the lane so
# a future parallel MessageSystem inherits the race check), plus the
# active-set scheduler suites (ActiveSetDifferential runs the sharded
# engine over the armed/occupancy bitsets — the scheduler reads them
# inside worker threads and mutates them only at phase barriers, which
# is exactly the discipline TSan verifies; CrowdedDifferential runs the
# fused Route→Signal stage at 2 and 4 threads on fully seeded grids, so
# the Signal arming done at round start, before the plan is dispatched,
# and the signal_armed_/blocked_/grant_to_ reads inside the workers are
# checked under the gate too) and the GrantReplay transport
# adversary, plus the snapshot/replay suites (the round-trip property
# tests restore into engines running the parallel policy at 2 and 4
# threads, so save/restore racing the pool would surface here). Any data
# race in the parallel round engine or the instrumentation aborts the
# run.
#
# Exits 0 with a notice when the toolchain cannot link -fsanitize=thread
# (some minimal images ship gcc without libtsan) so CI lanes without the
# runtime degrade gracefully instead of failing spuriously.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cpp" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
if ! c++ -fsanitize=thread -pthread "$probe_dir/probe.cpp" \
     -o "$probe_dir/probe" 2> "$probe_dir/probe.err"; then
  echo "run_tsan.sh: toolchain cannot link -fsanitize=thread; skipping." >&2
  sed 's/^/  /' "$probe_dir/probe.err" >&2 || true
  exit 0
fi

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan
echo "run_tsan.sh: ThreadSanitizer suite clean."
