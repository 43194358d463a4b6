#!/usr/bin/env bash
# Full verification: build + tests three ways — a plain build, a
# ThreadSanitizer build that exercises the concurrent query service and
# the chaos/stress suites under the race detector, and an
# AddressSanitizer+UBSan build that runs the same suites hunting
# lifetime and UB bugs on the failure paths.
#
# Usage: scripts/check.sh [--plain-only|--tsan-only|--asan-only]
#
# Test tiers (ctest labels): "tier1" is the fast default suite; the
# fault-injection ("chaos") and concurrency ("stress") suites are
# labelled separately, so a quick gate can run `ctest -L tier1` while
# the full script runs everything.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-all}"

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j "$JOBS"
  (cd "$build_dir" && ctest --output-on-failure)
}

if [[ "$MODE" != "--tsan-only" && "$MODE" != "--asan-only" ]]; then
  echo "==== plain build + ctest ===="
  run_suite build
  # The embedded admin HTTP server, end to end over real loopback
  # sockets (bind, scrape, parse, shut down) — isolated so a sandboxed
  # environment that forbids listening sockets fails loudly here, not
  # mysteriously mid-suite.
  echo "==== admin server smoke (ctest -L admin) ===="
  (cd build && ctest --output-on-failure -L admin)
  # The streaming island in isolation: ingest storms, window boundaries,
  # age-out exactly-once — quick to rerun when touching src/stream.
  echo "==== stream island (ctest -L stream) ===="
  (cd build && ctest --output-on-failure -L stream)
  # The sharding tier in isolation: partition-correctness oracles,
  # per-instance chaos, and the scatter-gather storm — quick to rerun
  # when touching src/core/sharding or the island pushdowns.
  echo "==== shard tier (ctest -L shard) ===="
  (cd build && ctest --output-on-failure -L shard)
  # The adaptive-placement tier in isolation: controller hysteresis,
  # shadow-execution isolation, the FakeClock convergence run, and the
  # migration/query/fault storm — quick to rerun when touching
  # src/exec/adaptive_placement or src/core/placement.
  echo "==== placement tier (ctest -L placement) ===="
  (cd build && ctest --output-on-failure -L placement)
  # The always-on profiler tier in isolation: tail-retention eviction
  # order, fold/attribution rules plus the byte-for-byte golden
  # /profile, the kill-switch byte-equality guarantee, and the /profile,
  # /costs, /traces?id endpoints — quick to rerun when touching
  # src/obs/profiler or the trace/metrics plumbing.
  echo "==== profile tier (ctest -L profile) ===="
  (cd build && ctest --output-on-failure -L profile)
  # The zero-copy data plane in isolation: block sharing across handle
  # copies / cache hits / shard gathers, copy-on-write isolation against
  # the checksum oracle, and canonical wire-format round trips — quick
  # to rerun when touching the CoW reps in relational/array/d4m or
  # core/wire_format.
  echo "==== dataplane tier (ctest -L dataplane) ===="
  (cd build && ctest --output-on-failure -L dataplane)
  # The one relational executor in isolation: operator unit tests, the
  # golden SELECT corpus of both dialects, the metamorphic (TLP/NoREC)
  # oracles, and Myria's plans -- quick to rerun when touching
  # src/relational, src/myria or the column slices in src/common.
  echo "==== relational executor (ctest -L relational) ===="
  (cd build && ctest --output-on-failure -L relational)
  # The TEXT, ARRAY and D4M island kernels in isolation: the
  # differential oracles against the plain reference algorithms and the
  # text store's read/replace storm -- quick to rerun when touching
  # src/kvstore, src/array or src/d4m.
  echo "==== island kernels (ctest -L islands) ===="
  (cd build && ctest --output-on-failure -L islands)
  # Tier-1 again with the cast-result cache killed: every cross-model
  # fetch takes the uncached path, so a correctness bug that the cache
  # happens to mask (or a test that silently depends on caching) fails
  # here, not in production with the kill switch thrown.
  echo "==== tier1 with BIGDAWG_CAST_CACHE=0 ===="
  (cd build && BIGDAWG_CAST_CACHE=0 ctest --output-on-failure -L tier1)
fi

if [[ "$MODE" == "all" || "$MODE" == "--tsan-only" ]]; then
  echo "==== ThreadSanitizer build + ctest ===="
  run_suite build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  # Tier-1 again with tracing forced on: span emission touches every
  # query-path component, so this is the race detector's view of the
  # observability layer itself (normally off, hence the separate pass).
  echo "==== ThreadSanitizer tier1 + BIGDAWG_TRACE=1 ===="
  (cd build-tsan && BIGDAWG_TRACE=1 ctest --output-on-failure -L tier1)
  # The streaming suites under the race detector: the MPSC front door,
  # the executor's drain accounting, and the storm/chaos producers are
  # exactly the code TSan exists for.
  echo "==== ThreadSanitizer stream island (ctest -L stream) ===="
  (cd build-tsan && ctest --output-on-failure -L stream)
  # The scatter-gather machinery under the race detector: pool tasks
  # racing the gather, hedged duplicates, and repartition churn against
  # concurrent readers (shard_storm_test) are its reason to exist.
  echo "==== ThreadSanitizer shard tier (ctest -L shard) ===="
  (cd build-tsan && ctest --output-on-failure -L shard)
  # The closed placement loop under the race detector: shadows on pool
  # workers racing client queries, the controller's scoreboard under
  # concurrent RecordClient/RecordShadow, and adaptive migrations racing
  # the chaos storm (placement_chaos_test) are its reason to exist.
  echo "==== ThreadSanitizer placement tier (ctest -L placement) ===="
  (cd build-tsan && ctest --output-on-failure -L placement)
  # The profiler under the race detector: eight ingest threads folding
  # span trees into the shared per-class map while readers render,
  # snapshot, and export (profiler_storm_test), plus the service
  # completion path that feeds it on every query.
  echo "==== ThreadSanitizer profile tier (ctest -L profile) ===="
  (cd build-tsan && ctest --output-on-failure -L profile)
  # The CoW data plane under the race detector: eight threads sharing
  # and thawing one hot block while readers pull memoized byte sizes and
  # column slices — the refcount and memo synchronization is exactly
  # what this pass exists to prove (dataplane_storm_test).
  echo "==== ThreadSanitizer dataplane tier (ctest -L dataplane) ===="
  (cd build-tsan && ctest --output-on-failure -L dataplane)
fi

if [[ "$MODE" == "all" || "$MODE" == "--asan-only" ]]; then
  echo "==== AddressSanitizer+UBSan build + ctest ===="
  run_suite build-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  # The data plane's lifetime story under ASan/UBSan: thaw-while-shared
  # clones, slices outliving their table handle, and the bounds-checked
  # wire decoder fed truncated/corrupt frames.
  echo "==== AddressSanitizer dataplane tier (ctest -L dataplane) ===="
  (cd build-asan && ctest --output-on-failure -L dataplane)
  # The batch kernels under ASan/UBSan: an out-of-bounds gather through a
  # row-id vector, or a signed int64 overflow in arithmetic or SUM, fails
  # here rather than silently.
  echo "==== AddressSanitizer relational executor (ctest -L relational) ===="
  (cd build-asan && ctest --output-on-failure -L relational)
fi

echo "==== all checks passed ===="
