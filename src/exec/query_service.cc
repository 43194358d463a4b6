#include "exec/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "common/macros.h"
#include "core/monitor.h"
#include "core/stream_ageout.h"
#include "exec/explain.h"
#include "exec/query_analysis.h"
#include "obs/trace.h"

namespace bigdawg::exec {

namespace {

obs::Clock::TimePoint DeadlineFor(const obs::Clock* clock,
                                  const SubmitOptions& opts,
                                  const QueryServiceConfig& config, bool* has) {
  double timeout_ms = opts.timeout_ms < 0 ? config.default_timeout_ms : opts.timeout_ms;
  if (timeout_ms <= 0) {
    *has = false;
    return obs::Clock::TimePoint{};
  }
  *has = true;
  return clock->Now() + obs::Clock::FromMillis(timeout_ms);
}

// Deterministic %.3f for span tags (delay values come from a seeded jitter
// stream, so the text is reproducible).
std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// Latency histogram buckets (ms): wide enough for queue waits under load,
// fine enough to see the sub-millisecond in-memory path.
std::vector<double> LatencyBuckets() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000};
}

}  // namespace

Result<relational::Table> QueryHandle::Wait() {
  if (!future_.valid()) {
    return Status::FailedPrecondition("query handle is empty or already waited on");
  }
  return future_.get();
}

QueryService::QueryService(core::BigDawg* dawg, QueryServiceConfig config)
    : dawg_(dawg),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : obs::Clock::System()),
      slow_log_(config.slow_query_ms, config.slow_query_capacity),
      pool_(config.num_workers) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_submitted_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"submitted\"}");
  c_admitted_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"admitted\"}");
  c_rejected_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"rejected\"}");
  c_completed_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"completed\"}");
  c_failed_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"failed\"}");
  c_cancelled_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"cancelled\"}");
  c_timed_out_ = metrics_->GetCounter("bigdawg_queries_total{outcome=\"timed_out\"}");
  c_retries_ = metrics_->GetCounter("bigdawg_resilience_events_total{event=\"retry\"}");
  c_breaker_trips_ =
      metrics_->GetCounter("bigdawg_resilience_events_total{event=\"breaker_trip\"}");
  c_failovers_ =
      metrics_->GetCounter("bigdawg_resilience_events_total{event=\"failover\"}");
  c_degraded_ =
      metrics_->GetCounter("bigdawg_resilience_events_total{event=\"degraded\"}");
  g_in_flight_ = metrics_->GetGauge("bigdawg_queries_in_flight");
  g_sessions_open_ = metrics_->GetGauge("bigdawg_sessions_open");
  if (config_.cast_cache_bytes == 0) {
    dawg_->cast_cache().SetEnabled(false);
  } else if (config_.cast_cache_bytes > 0) {
    dawg_->cast_cache().SetMaxBytes(config_.cast_cache_bytes);
  }
  if (config_.clock != nullptr) dawg_->cast_cache().SetClock(config_.clock);
  dawg_->cast_cache().BindMetrics(metrics_);
  obs::RegisterBuildInfo(metrics_);
  // Tail retention in the tracer keeps what the slow-query log would log.
  dawg_->tracer().SetSlowThresholdMs(slow_log_.threshold_ms());
  if (obs::Profiler::EnvAllows(config_.profile)) {
    profiler_ = std::make_unique<obs::Profiler>(config_.profile_sample_every);
  }
  if (AdaptivePlacement::EnvAllows(config_.adaptive.enabled)) {
    adaptive_ = std::make_unique<AdaptivePlacement>(
        dawg_, this, config_.adaptive, clock_, &pool_, metrics_);
  }
}

QueryService::~QueryService() {
  if (adaptive_ != nullptr) adaptive_->Stop();
  Drain();
}

int64_t QueryService::OpenSession() {
  std::lock_guard lock(mu_);
  int64_t id = next_session_id_++;
  sessions_[id] = true;
  ++sessions_open_;
  g_sessions_open_->Set(static_cast<double>(sessions_open_));
  return id;
}

Status QueryService::CloseSession(int64_t session) {
  std::lock_guard lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second) {
    return Status::NotFound("no open session " + std::to_string(session));
  }
  it->second = false;
  --sessions_open_;
  g_sessions_open_->Set(static_cast<double>(sessions_open_));
  return Status::OK();
}

Result<QueryHandle> QueryService::Admit(QueryRunner run, const SubmitOptions& opts) {
  int64_t id;
  auto state = std::make_shared<QueryState>();
  {
    std::lock_guard lock(mu_);
    c_submitted_->Increment();
    if (opts.session != kNoSession) {
      auto it = sessions_.find(opts.session);
      if (it == sessions_.end() || !it->second) {
        return Status::FailedPrecondition("session " + std::to_string(opts.session) +
                                          " is not open");
      }
    }
    if (config_.max_in_flight > 0 &&
        in_flight_ >= static_cast<int64_t>(config_.max_in_flight)) {
      c_rejected_->Increment();
      return Status::ResourceExhausted(
          "query service at admission limit (" +
          std::to_string(config_.max_in_flight) + " in flight)");
    }
    c_admitted_->Increment();
    ++in_flight_;
    g_in_flight_->Set(static_cast<double>(in_flight_));
    id = next_query_id_++;
    live_[id] = state;
  }

  auto promise = std::make_shared<std::promise<Result<relational::Table>>>();
  QueryHandle handle;
  handle.id_ = id;
  handle.future_ = promise->get_future();

  pool_.Submit([run = std::move(run), promise, state, id] {
    promise->set_value(run(id, state));
  });
  return handle;
}

void QueryService::RecordOutcome(int64_t query_id, const std::string& island,
                                 const Status& status, double latency_ms,
                                 int64_t retries, int64_t failovers,
                                 bool degraded, int64_t trace_id) {
  if (status.ok()) {
    c_completed_->Increment();
  } else if (status.IsCancelled()) {
    c_cancelled_->Increment();
  } else if (status.IsDeadlineExceeded()) {
    c_timed_out_->Increment();
  } else {
    c_failed_->Increment();
  }
  if (retries > 0) c_retries_->Increment(retries);
  if (failovers > 0) c_failovers_->Increment(failovers);
  if (degraded) c_degraded_->Increment();
  metrics_
      ->GetHistogram("bigdawg_query_latency_ms{island=\"" + island + "\"}",
                     LatencyBuckets())
      ->Observe(latency_ms, trace_id);
  std::lock_guard lock(mu_);
  live_.erase(query_id);
  --in_flight_;
  g_in_flight_->Set(static_cast<double>(in_flight_));
  latencies_[island].Record(latency_ms);
  drain_cv_.notify_all();
}

Result<QueryHandle> QueryService::Submit(const std::string& query,
                                         SubmitOptions opts) {
  std::string body;
  const ExplainMode explain = ParseExplainPrefix(query, &body);
  bool has_deadline = false;
  obs::Clock::TimePoint deadline = DeadlineFor(clock_, opts, config_, &has_deadline);
  // Admission -> completion, queue wait included, measured on the
  // service clock so FakeClock tests see deterministic latencies.
  obs::Clock::TimePoint admitted_at = clock_->Now();

  if (explain == ExplainMode::kPlan) {
    // EXPLAIN is admission-controlled like any query but is a pure
    // dry-run: it reads the catalog, takes no engine locks, and contacts
    // no engine.
    QueryRunner run = [this, body, admitted_at](
                          int64_t id, const std::shared_ptr<QueryState>& state)
        -> Result<relational::Table> {
      Result<relational::Table> plan_table =
          state->cancelled.load(std::memory_order_relaxed)
              ? Result<relational::Table>(
                    Status::Cancelled("query cancelled while queued"))
              : BuildExplainPlan(*dawg_, body);
      RecordOutcome(id, "EXPLAIN", plan_table.status(),
                    obs::Clock::ToMillis(clock_->Now() - admitted_at));
      return plan_table;
    };
    return Admit(std::move(run), opts);
  }
  const bool analyze = explain == ExplainMode::kAnalyze;

  QueryRunner run = [this, query = body, opts, has_deadline, deadline,
                     admitted_at, analyze](
                        int64_t id, const std::shared_ptr<QueryState>& state)
      -> Result<relational::Table> {
    QueryPlan plan = AnalyzeQuery(*dawg_, query);
    const std::string island_engine =
        core::Monitor::PreferredEngineForIsland(plan.island);

    // EXPLAIN ANALYZE needs the span tree to build its profile, so it
    // traces the execution even when the process-wide tracer is off. The
    // always-on profiler likewise traces its sampled completions — that
    // is its entire data source — but only tracer-enabled runs retain
    // the tree (and earn a trace_id) afterwards.
    const bool profiled = profiler_ != nullptr && profiler_->Sample();
    std::unique_ptr<obs::Trace> trace;
    if (analyze || profiled || dawg_->tracer().enabled()) {
      trace = std::make_unique<obs::Trace>(clock_, "query");
      trace->Tag(trace->root(), "island", plan.island);
    }

    int attempts = 0;
    int64_t failovers = 0;
    BackoffState backoff(config_.retry, static_cast<uint64_t>(id));
    Result<relational::Table> result =
        Status::Internal("query was never attempted");

    for (;;) {
      ++attempts;
      bool breaker_fail_fast = false;
      std::string failed_engine;
      {
        obs::SpanGuard attempt_span(trace.get(), "attempt");
        attempt_span.Tag("n", std::to_string(attempts));
        result = [&]() -> Result<relational::Table> {
          if (state->cancelled.load(std::memory_order_relaxed)) {
            return Status::Cancelled("query cancelled while queued");
          }
          if (has_deadline && clock_->Now() > deadline) {
            return Status::DeadlineExceeded("query deadline passed while queued");
          }
          // Fail fast while the island's own engine is breaker-open: no
          // engine locks taken, no admission slot burned on a timeout.
          if (!island_engine.empty()) {
            CircuitBreaker& breaker = BreakerFor(island_engine);
            if (!breaker.AllowRequest()) {
              breaker_fail_fast = true;
              if (trace != nullptr) {
                obs::SpanGuard breaker_span(trace.get(), "breaker");
                breaker_span.Tag("engine", island_engine);
                breaker_span.Tag("decision", "fail_fast");
              }
              return Status::Unavailable("circuit breaker open for engine " +
                                         island_engine);
            }
            // A half-open probe must route like a normal query to prove the
            // engine is back, so lift the advisory-down mark (which would
            // otherwise reroute its reads away from the very engine under
            // probe). A failed probe re-raises it.
            if (breaker.state() == CircuitBreaker::State::kHalfOpen) {
              if (trace != nullptr) {
                obs::SpanGuard breaker_span(trace.get(), "breaker");
                breaker_span.Tag("engine", island_engine);
                breaker_span.Tag("decision", "probe");
              }
              dawg_->monitor().SetEngineAdvisoryDown(island_engine, false);
            }
          }
          EngineLockManager::ScopedLocks locks = [&] {
            obs::SpanGuard locks_span(trace.get(), "locks");
            return lock_mgr_.Acquire(plan.shared_engines, plan.exclusive_engines);
          }();

          // Cancellation/deadline are re-checked inside Execute.
          core::ExecContext ctx;
          ctx.cancelled = &state->cancelled;
          ctx.has_deadline = has_deadline;
          ctx.deadline = deadline;
          ctx.clock = clock_;
          ctx.trace = trace.get();
          Result<relational::Table> attempt = dawg_->Execute(query, &ctx);
          failovers += ctx.failovers;
          failed_engine = ctx.unavailable_engine;
          return attempt;
        }();
        if (!result.ok()) {
          attempt_span.Tag("error", StatusCodeToString(result.status().code()));
        }
      }

      // Resolve this attempt against the breakers. A half-open probe
      // admitted by AllowRequest above MUST see exactly one
      // RecordSuccess/RecordFailure, or the breaker would wedge.
      if (!island_engine.empty() && !breaker_fail_fast) {
        if (result.status().IsUnavailable() &&
            (failed_engine.empty() || failed_engine == island_engine)) {
          RecordEngineFailure(island_engine);
        } else {
          // The island's engine answered (the failure, if any, belongs to
          // another engine or to the query itself).
          RecordEngineSuccess(island_engine);
        }
      }
      if (result.status().IsUnavailable() && !failed_engine.empty() &&
          failed_engine != island_engine) {
        RecordEngineFailure(failed_engine);
      }

      if (result.ok()) break;
      if (!IsRetryableStatus(result.status())) break;
      if (breaker_fail_fast) break;  // open breaker = fail fast, not retry
      if (attempts >= std::max(1, config_.retry.max_attempts)) break;
      // Backoff, budgeted against the deadline and aborted by Cancel. A
      // deadline-capped backoff keeps the (bounded-retries) Unavailable;
      // an actual cancellation becomes the query's outcome.
      double delay_ms = backoff.NextDelayMs();
      BIGDAWG_CLOG(Warn, "exec")
          << "q" << id << " attempt " << attempts << " failed ("
          << StatusCodeToString(result.status().code()) << "); retrying in "
          << FormatMs(delay_ms) << "ms";
      Status slept;
      {
        obs::SpanGuard backoff_span(trace.get(), "backoff");
        backoff_span.Tag("delay_ms", FormatMs(delay_ms));
        slept = InterruptibleBackoff(clock_, delay_ms, &state->cancelled,
                                     has_deadline, deadline);
      }
      if (slept.IsCancelled()) {
        result = slept;
        break;
      }
      if (slept.IsDeadlineExceeded()) break;
    }

    bool degraded = result.ok() && (attempts > 1 || failovers > 0);
    double latency_ms = obs::Clock::ToMillis(clock_->Now() - admitted_at);
    Result<relational::Table> profile =
        Status::Internal("no profile was built");
    int64_t trace_id = -1;
    if (trace != nullptr) {
      trace->Tag(trace->root(), "status",
                 StatusCodeToString(result.status().code()));
      trace->Tag(trace->root(), "attempts", std::to_string(attempts));
      trace->Tag(trace->root(), "failovers", std::to_string(failovers));
      obs::TraceSpan finished = std::move(*trace).Finish();
      trace.reset();
      if (analyze && result.ok()) profile = BuildAnalyzeProfile(finished);
      if (profiled) profiler_->Ingest(finished);
      if (dawg_->tracer().enabled()) {
        trace_id = dawg_->tracer().Record(std::move(finished));
      }
    }
    // Adaptive placement sees the completion BEFORE the admission slot
    // releases, so Drain() (wait in_flight==0, then drain shadows) can
    // never miss a shadow or migration scheduled here.
    if (adaptive_ != nullptr) {
      adaptive_->OnQueryCompleted(query, plan.island, plan.is_write,
                                  result.status(), latency_ms);
    }
    RecordOutcome(id, plan.island, result.status(), latency_ms,
                  attempts - 1, failovers, degraded, trace_id);
    MaybeRecordSlow(id, opts.session, query, plan.island, result.status(),
                    latency_ms, attempts, failovers, trace_id);
    // ANALYZE swaps the result rows for the profile; failures keep their
    // error so callers see exactly what a plain run would have seen.
    if (analyze && result.ok()) return profile;
    return result;
  };
  return Admit(std::move(run), opts);
}

void QueryService::MaybeRecordSlow(int64_t query_id, int64_t session,
                                   const std::string& query,
                                   const std::string& island,
                                   const Status& status, double latency_ms,
                                   int64_t attempts, int64_t failovers,
                                   int64_t trace_id) {
  if (!slow_log_.ShouldLog(latency_ms)) return;
  obs::SlowQueryEntry entry;
  entry.query_id = query_id;
  entry.session = session;
  entry.query = query;
  entry.island = island;
  entry.status = StatusCodeToString(status.code());
  entry.latency_ms = latency_ms;
  entry.attempts = attempts;
  entry.failovers = failovers;
  entry.trace_id = trace_id;
  BIGDAWG_CLOG(Warn, "exec") << "slow query " << entry.ToLine();
  slow_log_.Record(std::move(entry));
}

CircuitBreaker& QueryService::BreakerFor(const std::string& engine) {
  std::lock_guard lock(breaker_mu_);
  std::unique_ptr<CircuitBreaker>& slot = breakers_[engine];
  if (slot == nullptr) {
    slot = std::make_unique<CircuitBreaker>(config_.breaker, clock_);
  }
  return *slot;
}

void QueryService::RecordEngineSuccess(const std::string& engine) {
  BreakerFor(engine).RecordSuccess();
  dawg_->monitor().SetEngineAdvisoryDown(engine, false);
}

void QueryService::RecordEngineFailure(const std::string& engine) {
  if (BreakerFor(engine).RecordFailure()) {
    // Tripped: advertise the outage so replicated reads start failing
    // over in the core, and count the trip.
    BIGDAWG_CLOG(Warn, "exec") << "circuit breaker opened for engine "
                               << engine << "; marking advisory-down";
    dawg_->monitor().SetEngineAdvisoryDown(engine, true);
    c_breaker_trips_->Increment();
  }
}

CircuitBreaker::State QueryService::BreakerState(const std::string& engine) const {
  std::lock_guard lock(breaker_mu_);
  auto it = breakers_.find(engine);
  return it == breakers_.end() ? CircuitBreaker::State::kClosed
                               : it->second->state();
}

Result<QueryHandle> QueryService::SubmitTask(
    std::function<Result<relational::Table>()> fn, SubmitOptions opts) {
  obs::Clock::TimePoint admitted_at = clock_->Now();
  QueryRunner run = [this, fn = std::move(fn), admitted_at](
                        int64_t id, const std::shared_ptr<QueryState>& state)
      -> Result<relational::Table> {
    Result<relational::Table> result =
        state->cancelled.load(std::memory_order_relaxed)
            ? Result<relational::Table>(
                  Status::Cancelled("task cancelled while queued"))
            : fn();
    RecordOutcome(id, "TASK", result.status(),
                  obs::Clock::ToMillis(clock_->Now() - admitted_at));
    return result;
  };
  return Admit(std::move(run), opts);
}

Result<relational::Table> QueryService::ExecuteSync(const std::string& query,
                                                    SubmitOptions opts) {
  BIGDAWG_ASSIGN_OR_RETURN(QueryHandle handle, Submit(query, opts));
  return handle.Wait();
}

Status QueryService::Cancel(int64_t query_id) {
  std::lock_guard lock(mu_);
  auto it = live_.find(query_id);
  if (it == live_.end()) {
    return Status::NotFound("query " + std::to_string(query_id) +
                            " is not in flight");
  }
  it->second->cancelled.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status QueryService::Migrate(const std::string& object,
                             const std::string& target_engine) {
  // The object's home can move between lookup and lock acquisition
  // (another migration); re-check under the locks and retry.
  for (int attempt = 0; attempt < 8; ++attempt) {
    Result<core::ObjectLocation> loc = dawg_->catalog().Lookup(object);
    if (!loc.ok()) return loc.status();
    uint32_t exclusive =
        EngineLockBitFor(loc->engine) | EngineLockBitFor(target_engine);
    // FetchAsTable may serve the read from a fresh relational replica.
    uint32_t shared = kLockPostgres & ~exclusive;
    EngineLockManager::ScopedLocks locks = lock_mgr_.Acquire(shared, exclusive);
    Result<core::ObjectLocation> recheck = dawg_->catalog().Lookup(object);
    if (!recheck.ok()) return recheck.status();
    if (recheck->engine != loc->engine) continue;
    return dawg_->MigrateObject(object, target_engine);
  }
  return Status::Aborted("object " + object +
                         " kept moving; migration lock acquisition starved");
}

Result<int64_t> QueryService::RefreshReplicas(const std::string& object) {
  Result<core::ObjectLocation> loc = dawg_->catalog().Lookup(object);
  if (!loc.ok()) return loc.status();
  uint32_t exclusive = 0;
  for (const core::ReplicaLocation& replica : dawg_->catalog().Replicas(object)) {
    exclusive |= EngineLockBitFor(replica.engine);
  }
  uint32_t shared = EngineLockBitFor(loc->engine) & ~exclusive;
  EngineLockManager::ScopedLocks locks = lock_mgr_.Acquire(shared, exclusive);
  return dawg_->RefreshReplicas(object);
}

void QueryService::Drain() {
  {
    std::unique_lock lock(mu_);
    drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  // Shadows and migrations are scheduled while their triggering query
  // still holds its admission slot, so by this point every adaptive task
  // is at least queued; wait for them too.
  if (adaptive_ != nullptr) adaptive_->Drain();
}

int64_t QueryService::InFlight() const {
  std::lock_guard lock(mu_);
  return in_flight_;
}

QueryServiceStats QueryService::Stats() const {
  QueryServiceStats stats;
  stats.submitted = c_submitted_->Value();
  stats.admitted = c_admitted_->Value();
  stats.rejected = c_rejected_->Value();
  stats.completed = c_completed_->Value();
  stats.failed = c_failed_->Value();
  stats.cancelled = c_cancelled_->Value();
  stats.timed_out = c_timed_out_->Value();
  stats.retries = c_retries_->Value();
  stats.breaker_trips = c_breaker_trips_->Value();
  stats.failovers = c_failovers_->Value();
  stats.degraded = c_degraded_->Value();
  std::lock_guard lock(mu_);
  stats.in_flight = in_flight_;
  stats.sessions_open = sessions_open_;
  for (const auto& [island, window] : latencies_) {
    if (window.count() == 0) continue;
    IslandLatency lat;
    lat.island = island;
    lat.count = window.count();
    lat.mean_ms = window.mean();
    lat.p50_ms = window.Quantile(0.50);
    lat.p95_ms = window.Quantile(0.95);
    stats.islands.push_back(std::move(lat));
  }
  return stats;
}

std::string QueryService::DumpMetrics() const {
  dawg_->monitor().ExportMetrics(metrics_);
  dawg_->sstore().ExportMetrics(metrics_);
  dawg_->shards().ExportMetrics(metrics_);
  if (core::StreamAgeOut* ageout = dawg_->stream_ageout()) {
    ageout->ExportMetrics(metrics_);
  }
  if (adaptive_ != nullptr) adaptive_->ExportMetrics(metrics_);
  if (profiler_ != nullptr) profiler_->ExportMetrics(metrics_);
  return metrics_->DumpPrometheus();
}

}  // namespace bigdawg::exec
