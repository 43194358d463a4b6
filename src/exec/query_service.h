#ifndef BIGDAWG_EXEC_QUERY_SERVICE_H_
#define BIGDAWG_EXEC_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/bigdawg.h"
#include "exec/adaptive_placement.h"
#include "exec/engine_locks.h"
#include "exec/retry_policy.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slow_query_log.h"

namespace bigdawg::exec {

inline constexpr int64_t kNoSession = -1;

struct QueryServiceConfig {
  /// Worker threads executing admitted queries.
  size_t num_workers = 4;
  /// Admission limit on queries queued + running; submissions past it are
  /// rejected with ResourceExhausted. 0 = unbounded.
  size_t max_in_flight = 32;
  /// Deadline applied to queries that don't set their own; 0 = none.
  double default_timeout_ms = 0;
  /// Backoff/retry schedule for transient (Unavailable) engine errors.
  RetryPolicy retry;
  /// Per-engine circuit-breaker tuning.
  CircuitBreakerPolicy breaker;
  /// Time source for deadlines, backoff, breaker windows, latency
  /// measurements, and trace timestamps; null = the system clock. Tests
  /// inject an obs::FakeClock to make every timing path deterministic.
  const obs::Clock* clock = nullptr;
  /// Registry receiving the service's counters/gauges/histograms; null =
  /// a registry owned by the service (either way reachable via metrics()).
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query threshold in ms; < 0 reads BIGDAWG_SLOW_MS from the
  /// environment (falling back to 100ms), 0 logs every query.
  double slow_query_ms = -1;
  /// Byte budget for the BigDawg's shared cast-result cache: < 0 keeps
  /// the dawg's current setting (default 64 MiB, killable at startup with
  /// BIGDAWG_CAST_CACHE=0), 0 disables the cache, > 0 sets the budget.
  /// Either way the cache's counters are bound into this service's
  /// metrics registry.
  int64_t cast_cache_bytes = -1;
  /// Bounded capacity of the slow-query ring.
  size_t slow_query_capacity = obs::SlowQueryLog::kDefaultCapacity;
  /// Adaptive placement: shadow execution + PlacementController turning
  /// sustained engine-score gaps into automatic migrations. Off by
  /// default; `adaptive.enabled = true` opts in, and the environment
  /// overrides either way (BIGDAWG_ADAPTIVE=0 kills it, =1 forces it).
  AdaptiveConfig adaptive;
  /// Always-on profiler: every sampled completion's span tree is folded
  /// into per-class critical-path profiles (see obs::Profiler, /profile,
  /// /costs). On by default; the environment overrides either way
  /// (BIGDAWG_PROFILE=0 kills it, =1 forces it). Off means no trace is
  /// ever created for profiling and the service behaves byte-identically
  /// to a build without the feature.
  bool profile = true;
  /// Ingest every Nth completion (1 = all). Raising this cuts the
  /// tracing overhead proportionally at the cost of profile freshness.
  int64_t profile_sample_every = 1;
};

struct SubmitOptions {
  /// Session the query belongs to (admission checks it is open; the
  /// slow-query log records it); kNoSession for one-off queries.
  int64_t session = kNoSession;
  /// Per-query deadline in ms; < 0 uses the service default, 0 = none.
  double timeout_ms = -1;
};

/// Per-island latency digest in a stats snapshot.
struct IslandLatency {
  std::string island;
  int64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

/// \brief Counters and latency digests for everything the service has
/// processed. Latencies are end-to-end (admission to completion, queue
/// wait included), per island.
///
/// This is a point-in-time snapshot assembled from the MetricsRegistry —
/// the registry (see metrics()/DumpMetrics()) is the source of truth;
/// quantiles come from a bounded obs::SampleWindow per island, so memory
/// stays capped no matter how many queries run.
struct QueryServiceStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t timed_out = 0;
  int64_t in_flight = 0;
  int64_t sessions_open = 0;
  // ---- Resilience counters ----
  /// Attempts beyond each query's first (i.e. retries actually taken).
  int64_t retries = 0;
  /// Circuit-breaker transitions to open (closed->open and failed probes).
  int64_t breaker_trips = 0;
  /// Reads served by failing over to a replica of a down engine.
  int64_t failovers = 0;
  /// Queries that succeeded only after a retry or a failover.
  int64_t degraded = 0;
  std::vector<IslandLatency> islands;
};

/// \brief Handle to an admitted query: its id (for Cancel) and the
/// pending result. Move-only; Wait() consumes the result.
class QueryHandle {
 public:
  QueryHandle() = default;
  QueryHandle(QueryHandle&&) = default;
  QueryHandle& operator=(QueryHandle&&) = default;

  int64_t id() const { return id_; }
  bool valid() const { return future_.valid(); }

  /// Blocks until the query finishes and returns its result (or the
  /// Cancelled / DeadlineExceeded / execution-error status).
  Result<relational::Table> Wait();

 private:
  friend class QueryService;
  int64_t id_ = -1;
  std::future<Result<relational::Table>> future_;
};

/// \brief The concurrent query front-end of the polystore.
///
/// Accepts queries from many client threads and runs them safely over
/// one shared BigDawg:
///
///  * Each query keeps its CAST results in its own core::ExecContext,
///    so concurrent cross-model queries never see each other's.
///  * Admission control bounds queued + running work; past the limit,
///    Submit returns a typed ResourceExhausted instead of growing memory
///    without bound. Per-query deadlines and cooperative cancellation
///    ride on the same path.
///  * Per-engine reader/writer locks let read-only queries (CAST
///    queries included: a CAST writes no engine) share engines while
///    migrations, replica refreshes and DDL/DML exclude conflicting work.
///  * Resilient execution: transient engine errors (Unavailable) are
///    retried with exponential backoff + decorrelated jitter, budgeted
///    against the query's deadline and aborted promptly by Cancel; a
///    per-engine circuit breaker fails doomed queries fast once an
///    engine keeps failing, and marks the engine advisory-down so the
///    core reroutes replicated reads to fresh replicas (failover).
///  * Observability: every counter lives in an obs::MetricsRegistry
///    (DumpMetrics() gives the Prometheus text form, Stats() a typed
///    snapshot), and when the BigDawg's tracer is enabled each query
///    records a span tree — attempts, lock waits, scope routing, casts,
///    shim calls, backoffs, breaker decisions — into
///    dawg->tracer().FinishedTraces().
class QueryService {
 public:
  explicit QueryService(core::BigDawg* dawg, QueryServiceConfig config = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- Sessions ----

  int64_t OpenSession();
  /// Closes a session; queries already admitted under it run to
  /// completion, further submissions are rejected.
  Status CloseSession(int64_t session);

  // ---- Query submission ----

  /// Admission-controlled asynchronous submit. ResourceExhausted when
  /// the service is at max_in_flight; FailedPrecondition for a closed or
  /// unknown session.
  ///
  /// A query prefixed `EXPLAIN` is dry-run: scope resolution, lock-set
  /// analysis, and the cast plan are computed and returned as a one-column
  /// "plan" table, and nothing executes (no engine locks, no engines
  /// touched). `EXPLAIN ANALYZE` executes the query normally — retries,
  /// breakers, failover and all — and on success returns a one-column
  /// "profile" table folded from the query's span tree (per-stage
  /// durations, cast rows/bytes, engines touched) instead of the result;
  /// a failed query returns its error. ANALYZE traces the query even when
  /// the process-wide tracer is disabled.
  Result<QueryHandle> Submit(const std::string& query, SubmitOptions opts = {});

  /// Submit + Wait.
  Result<relational::Table> ExecuteSync(const std::string& query,
                                        SubmitOptions opts = {});

  /// Admission-controlled submit of an arbitrary unit of work (runs on
  /// the worker pool, engine locking is the task's business). Used by
  /// tests to create deterministic backpressure.
  Result<QueryHandle> SubmitTask(std::function<Result<relational::Table>()> fn,
                                 SubmitOptions opts = {});

  /// Requests cooperative cancellation of an in-flight query. NotFound
  /// once the query has already finished.
  Status Cancel(int64_t query_id);

  // ---- Admin operations (exclusive engine locks) ----

  /// MigrateObject under exclusive locks on the source and target
  /// engines; readers on other engines keep running.
  Status Migrate(const std::string& object, const std::string& target_engine);

  /// RefreshReplicas under exclusive locks on the replica engines.
  Result<int64_t> RefreshReplicas(const std::string& object);

  // ---- Introspection ----

  /// Blocks until nothing is queued or running.
  void Drain();

  QueryServiceStats Stats() const;

  /// The registry holding every service metric (plus whatever the caller
  /// shares it with).
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Prometheus text exposition of the registry, with the Monitor's
  /// engine-health and island-latency view exported into it first.
  std::string DumpMetrics() const;

  /// The bounded ring of queries that crossed the slow threshold
  /// (config.slow_query_ms / BIGDAWG_SLOW_MS). The admin endpoint and
  /// tests read or drain it.
  obs::SlowQueryLog& slow_log() { return slow_log_; }
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }

  /// Current circuit-breaker state for an engine (kClosed when the engine
  /// has never failed).
  CircuitBreaker::State BreakerState(const std::string& engine) const;

  /// Queries currently queued or running (admission occupancy); the
  /// adaptive-placement load gate reads this before running a shadow.
  int64_t InFlight() const;

  /// The adaptive-placement loop, or null when disabled (config off, or
  /// BIGDAWG_ADAPTIVE=0). Null means the service behaves byte-identically
  /// to a build without the feature.
  AdaptivePlacement* adaptive() const { return adaptive_.get(); }

  /// The always-on profiler, or null when disabled (config.profile off,
  /// or BIGDAWG_PROFILE=0). The /profile and /costs admin endpoints and
  /// the adaptive-placement coordination gate read it.
  obs::Profiler* profiler() const { return profiler_.get(); }

  const QueryServiceConfig& config() const { return config_; }

 private:
  struct QueryState {
    std::atomic<bool> cancelled{false};
  };
  /// The admitted unit of work: runs on a pool worker with its assigned
  /// query id and shared cancellation state.
  using QueryRunner = std::function<Result<relational::Table>(
      int64_t id, const std::shared_ptr<QueryState>&)>;

  Result<QueryHandle> Admit(QueryRunner run, const SubmitOptions& opts);
  /// `trace_id` >= 0 stamps the island latency histogram's bucket with an
  /// exemplar linking the sample to its retained trace.
  void RecordOutcome(int64_t query_id, const std::string& island,
                     const Status& status, double latency_ms,
                     int64_t retries = 0, int64_t failovers = 0,
                     bool degraded = false, int64_t trace_id = -1);
  /// Feeds the slow-query log (and the warn log) when `latency_ms`
  /// crosses the threshold.
  void MaybeRecordSlow(int64_t query_id, int64_t session,
                       const std::string& query, const std::string& island,
                       const Status& status, double latency_ms,
                       int64_t attempts, int64_t failovers,
                       int64_t trace_id = -1);

  /// The breaker guarding `engine`, created closed on first use.
  CircuitBreaker& BreakerFor(const std::string& engine);
  /// Feeds one attempt outcome into `engine`'s breaker; a trip marks the
  /// engine advisory-down in the monitor (reads start failing over), a
  /// success closes the breaker and clears the advisory.
  void RecordEngineSuccess(const std::string& engine);
  void RecordEngineFailure(const std::string& engine);

  core::BigDawg* dawg_;
  QueryServiceConfig config_;
  const obs::Clock* clock_;
  EngineLockManager lock_mgr_;
  obs::SlowQueryLog slow_log_;

  /// Backing registry when the config didn't share one.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  // Metric slots resolved once at construction; updates are lock-free.
  obs::Counter* c_submitted_;
  obs::Counter* c_admitted_;
  obs::Counter* c_rejected_;
  obs::Counter* c_completed_;
  obs::Counter* c_failed_;
  obs::Counter* c_cancelled_;
  obs::Counter* c_timed_out_;
  obs::Counter* c_retries_;
  obs::Counter* c_breaker_trips_;
  obs::Counter* c_failovers_;
  obs::Counter* c_degraded_;
  obs::Gauge* g_in_flight_;
  obs::Gauge* g_sessions_open_;

  /// Engine name -> breaker. CircuitBreaker owns a mutex (not movable),
  /// hence the unique_ptr; breakers are created lazily and never removed.
  mutable std::mutex breaker_mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  int64_t next_query_id_ = 0;
  int64_t next_session_id_ = 0;
  int64_t in_flight_ = 0;
  int64_t sessions_open_ = 0;
  std::map<int64_t, bool> sessions_;  // id -> open
  std::map<int64_t, std::shared_ptr<QueryState>> live_;
  /// island -> bounded latency reservoir (p50/p95 memory stays capped).
  std::map<std::string, obs::SampleWindow> latencies_;

  /// Null unless profiling is enabled; internally synchronized, fed from
  /// worker threads at completion.
  std::unique_ptr<obs::Profiler> profiler_;

  /// Null unless adaptive placement is enabled. Declared before pool_ so
  /// the pool (whose tasks may reference it) is joined first.
  std::unique_ptr<AdaptivePlacement> adaptive_;

  // Last member: destroyed (joined) first, so draining tasks can still
  // touch the fields above.
  ThreadPool pool_;
};

}  // namespace bigdawg::exec

#endif  // BIGDAWG_EXEC_QUERY_SERVICE_H_
