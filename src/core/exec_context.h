#ifndef BIGDAWG_CORE_EXEC_CONTEXT_H_
#define BIGDAWG_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <map>
#include <string>

#include "common/status.h"
#include "core/cast.h"
#include "obs/clock.h"

namespace bigdawg::obs {
class Trace;
}  // namespace bigdawg::obs

namespace bigdawg::core {

/// \brief Per-execution state for one top-level BigDawg::Execute call.
///
/// Each concurrent execution carries its own context, so CAST results
/// never leak across clients. The query service threads one context per
/// submitted query; the plain BigDawg::Execute(query) overload creates an
/// anonymous one internally.
struct ExecContext {
  /// This execution's CAST results, by the name that replaced each
  /// CAST(...) in the query text. BigDawg's fetch path checks it before
  /// the catalog, so islands read a CAST result like any object and no
  /// engine or catalog entry is written. Nested executions share it; the
  /// outermost Execute empties it when it finishes.
  std::map<std::string, ModelValue> overlay;
  /// Nesting depth of Execute() — CAST arguments may themselves be
  /// island-scoped subqueries.
  int depth = 0;

  /// Cooperative cancellation flag (owned by the submitter); checked
  /// between execution steps.
  const std::atomic<bool>* cancelled = nullptr;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Resilience bookkeeping, filled in by the core as this execution
  /// runs: the engine whose fault check last failed (drives the query
  /// service's per-engine circuit breakers) and how many reads were
  /// served by failing over to a replica.
  std::string unavailable_engine;
  int64_t failovers = 0;

  /// How the cast cache served the most recent Fetch* call on this
  /// context: "hit", "miss", "coalesced", or null when the cache was not
  /// consulted (native same-model read, CAST result, or cache disabled).
  /// RewriteCasts resets it before each fetch and copies it onto the
  /// cast span's `cache` tag.
  const char* cast_cache_outcome = nullptr;
  /// Byte estimate recorded with the served cache entry (>= 0 when the
  /// cache was consulted), so traced casts reuse it instead of re-scanning
  /// the result.
  int64_t cast_cache_bytes = -1;

  /// Time source for the deadline check and everything downstream that
  /// reads it (island latency timing, span timestamps). The query service
  /// injects its configured clock; tests inject a FakeClock. Never null.
  const obs::Clock* clock = obs::Clock::System();

  /// Span recorder for this execution; null (the default) disables
  /// tracing — every emission site is one pointer test.
  obs::Trace* trace = nullptr;

  /// Marks a shadow re-execution by the adaptive-placement loop: a
  /// measurement run, not client traffic. Shadow executions skip monitor
  /// attribution (island latencies, object access counts, trace-mined
  /// affinities) and never root a trace in the process tracer, so the
  /// client-facing statistics describe only real queries.
  bool shadow = false;

  /// Cancelled / DeadlineExceeded when the query should stop; OK otherwise.
  Status Check() const {
    if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline && clock->Now() > deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_EXEC_CONTEXT_H_
