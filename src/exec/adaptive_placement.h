#ifndef BIGDAWG_EXEC_ADAPTIVE_PLACEMENT_H_
#define BIGDAWG_EXEC_ADAPTIVE_PLACEMENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/bigdawg.h"
#include "core/placement.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace bigdawg::exec {

class QueryService;

/// \brief Tuning for the adaptive-placement loop (shadow execution +
/// PlacementController). Disabled by default; BIGDAWG_ADAPTIVE=0 in the
/// environment vetoes even an enabled config (kill switch), and
/// BIGDAWG_ADAPTIVE=1 opts a default-config service in.
struct AdaptiveConfig {
  bool enabled = false;
  /// Seed for the shadow-sampling RNG — same seed, same workload, same
  /// shadow schedule (deterministic convergence tests).
  uint64_t seed = 17;
  /// Fraction of eligible (successful, read-only, misplaced-candidate)
  /// completions that get a shadow re-execution.
  double sample_rate = 0.25;
  /// Deadline applied to each shadow run; 0 = none. Shadows must never
  /// hold resources the way a hung client query would.
  double shadow_deadline_ms = 1000;
  /// Token/time budget: shadows may consume at most this many
  /// milliseconds of work before new ones are rejected with
  /// ResourceExhausted...
  double budget_ms = 2000;
  /// ...and the bucket refills at this many milliseconds of shadow work
  /// per second of (service-clock) time, up to the budget_ms cap.
  double refill_ms_per_s = 200;
  /// Shadows are skipped while in-flight client queries exceed this
  /// fraction of max_in_flight — admission headroom belongs to real
  /// traffic. 0 disables the load gate.
  double max_load_fraction = 0.5;
  /// Shadows are skipped for query classes whose profiled coordination
  /// share (locks/backoff/breaker self time over total wall time, from
  /// the always-on profiler) reaches this fraction: when a class's
  /// latency is contention, a shadow timing comparison measures the
  /// lock queue, not the engines. >= 1 (or a disabled profiler)
  /// disables the gate.
  double max_coordination_share = 0.9;
  /// Hysteresis for the decision half of the loop.
  core::PlacementPolicy policy;
};

/// \brief Shadow-execution counters (also exported as
/// bigdawg_placement_shadow_total{outcome=...}).
struct ShadowStats {
  int64_t sampled = 0;
  int64_t ok = 0;
  int64_t errors = 0;
  int64_t deadline = 0;
  int64_t cancelled = 0;
  int64_t budget_rejected = 0;
  int64_t load_skipped = 0;
  int64_t breaker_skipped = 0;
  /// Skipped because the class's profiled latency is coordination-bound.
  int64_t profile_skipped = 0;
};

/// \brief The acting half of the monitor->migrator feedback loop.
///
/// Owned by the QueryService when adaptive placement is enabled. Every
/// completed client query feeds the PlacementController's scoreboard
/// (object x current home engine); a sampled subset of successful
/// read-only queries whose island prefers a different engine than the
/// object's home is re-executed twice off the client path — once as-is
/// (baseline) and once against a temporary copy of the object
/// materialized on the candidate engine — and the two timings feed the
/// challenger's score. Sustained gaps become MigrateObject calls through
/// the query service's engine-locked Migrate (instance_id preserved, so
/// PR 5's cast cache stays warm across the move), with the controller's
/// hysteresis (min-samples, cooldown, revert-on-regression) deciding
/// when.
///
/// Shadows are guests, never tenants:
///  * they run on the shared worker pool but are skipped while client
///    load exceeds max_load_fraction of the admission limit;
///  * a token/time budget bounds total shadow work — past it, shadows
///    are rejected with a typed ResourceExhausted;
///  * engines whose breaker is open or that are advisory-down are never
///    shadowed, and shadow failures never feed the client-facing
///    breakers;
///  * shadow executions carry ExecContext::shadow, so monitor island
///    latencies, access attribution, and the trace ring describe only
///    real traffic.
class AdaptivePlacement {
 public:
  AdaptivePlacement(core::BigDawg* dawg, QueryService* service,
                    AdaptiveConfig config, const obs::Clock* clock,
                    ThreadPool* pool, obs::MetricsRegistry* metrics);
  ~AdaptivePlacement();

  AdaptivePlacement(const AdaptivePlacement&) = delete;
  AdaptivePlacement& operator=(const AdaptivePlacement&) = delete;

  /// Resolves the BIGDAWG_ADAPTIVE environment override: unset keeps
  /// `config_enabled`, "0" forces off (kill switch), anything else
  /// forces on.
  static bool EnvAllows(bool config_enabled);

  /// Completion hook, called by the query service's runner before the
  /// query releases its admission slot (so Drain() cannot miss work
  /// scheduled here). Cheap: bookkeeping plus at most one pool submit.
  void OnQueryCompleted(const std::string& query, const std::string& island,
                        bool is_write, const Status& status,
                        double latency_ms);

  /// Runs one shadow for `query` synchronously through every gate
  /// (breaker consult, load gate, budget) and returns the typed outcome;
  /// FailedPrecondition when the query has no eligible object/candidate
  /// pair. Test surface — the async path goes through OnQueryCompleted.
  Status RunShadowSync(const std::string& query, const std::string& island);

  /// Blocks until no shadow or decision task is outstanding.
  void Drain();
  /// Stops scheduling and cooperatively cancels in-flight shadows.
  void Stop();

  core::PlacementController& controller() { return controller_; }
  const AdaptiveConfig& config() const { return config_; }
  ShadowStats shadow_stats() const;
  double budget_remaining_ms() const;

  /// Human-readable state for the /placement admin endpoint: config,
  /// budget, shadow counters, scoreboard, decision history.
  std::string Render() const;
  /// Controller gauges + budget/enabled gauges into `registry`.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct ShadowJob {
    std::string query;
    std::string island;
    std::string object;
    std::string home;
    std::string candidate;
  };

  /// The object this query reads (its first catalog identifier) and its
  /// candidate engine; nullopt when nothing is eligible for shadowing.
  std::optional<ShadowJob> BuildJob(const std::string& query,
                                    const std::string& island) const;
  /// The full gated shadow: breaker/load/budget consults, timed baseline
  /// run, candidate copy + rewritten run, scoreboard recording, cleanup.
  Status RunShadow(const ShadowJob& job);
  /// One timed shadow execution (ExecContext::shadow set, deadline and
  /// cancellation wired); returns the elapsed ms on the service clock.
  Result<double> TimedRun(const std::string& query);
  /// Executes a controller decision (Migrate / ShardObject), reports the
  /// result back, emits the migration trace span and log line.
  void ExecuteDecision(const core::PlacementDecision& decision);
  /// Evaluate + MaybeRevert for `object`; schedules any decision as an
  /// outstanding pool task (client path) or runs it inline (shadow path).
  void DriveDecisions(const std::string& object, bool sharded, bool inline_exec);
  /// Submits `task` to the pool, tracked so Drain() can wait on it.
  void ScheduleTracked(std::function<void()> task);
  /// Refills the token bucket from elapsed clock time; mu_ held.
  void RefillLocked();

  core::BigDawg* dawg_;
  QueryService* service_;
  const AdaptiveConfig config_;
  const obs::Clock* clock_;
  ThreadPool* pool_;
  core::PlacementController controller_;

  obs::Counter* c_sampled_;
  obs::Counter* c_ok_;
  obs::Counter* c_error_;
  obs::Counter* c_deadline_;
  obs::Counter* c_cancelled_;
  obs::Counter* c_budget_rejected_;
  obs::Counter* c_load_skipped_;
  obs::Counter* c_breaker_skipped_;
  obs::Counter* c_profile_skipped_;

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> shadow_seq_{0};

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  int64_t outstanding_ = 0;
  Rng rng_;
  double tokens_ms_;
  obs::Clock::TimePoint last_refill_;
};

}  // namespace bigdawg::exec

#endif  // BIGDAWG_EXEC_ADAPTIVE_PLACEMENT_H_
