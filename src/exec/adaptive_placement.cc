#include "exec/adaptive_placement.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/lexer.h"
#include "common/logging.h"
#include "common/macros.h"
#include "core/catalog.h"
#include "core/monitor.h"
#include "exec/query_service.h"
#include "obs/trace.h"

namespace bigdawg::exec {

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

/// True for engines CopyObjectTo can materialize a relation on — the
/// candidate pool for shadow copies.
bool EngineSupportsShadowCopy(const std::string& engine) {
  return engine == core::kEnginePostgres || engine == core::kEngineSciDb ||
         engine == core::kEngineTileDb || engine == core::kEngineD4m;
}

/// Replaces every identifier token spelled `from` with `to`, preserving
/// all other bytes. Identifier tokens only — string literals and symbols
/// are never touched.
std::string ReplaceIdentifier(const std::string& query, const std::string& from,
                              const std::string& to) {
  Result<std::vector<Token>> tokens = Tokenize(query);
  if (!tokens.ok()) return query;
  std::string out;
  size_t copied = 0;
  for (const Token& tok : *tokens) {
    if (tok.type != TokenType::kIdentifier || tok.text != from) continue;
    out.append(query, copied, tok.offset - copied);
    out += to;
    copied = tok.offset + from.size();
  }
  out.append(query, copied, std::string::npos);
  return out;
}

}  // namespace

AdaptivePlacement::AdaptivePlacement(core::BigDawg* dawg, QueryService* service,
                                     AdaptiveConfig config,
                                     const obs::Clock* clock, ThreadPool* pool,
                                     obs::MetricsRegistry* metrics)
    : dawg_(dawg),
      service_(service),
      config_(config),
      clock_(clock != nullptr ? clock : obs::Clock::System()),
      pool_(pool),
      controller_(config.policy, clock_),
      rng_(config.seed),
      tokens_ms_(config.budget_ms),
      last_refill_(clock_->Now()) {
  auto counter = [metrics](const char* outcome) {
    return metrics->GetCounter(obs::SeriesName(
        "bigdawg_placement_shadow_total", {{"outcome", outcome}}));
  };
  c_sampled_ = counter("sampled");
  c_ok_ = counter("ok");
  c_error_ = counter("error");
  c_deadline_ = counter("deadline");
  c_cancelled_ = counter("cancelled");
  c_budget_rejected_ = counter("budget_rejected");
  c_load_skipped_ = counter("load_skipped");
  c_breaker_skipped_ = counter("breaker_skipped");
  c_profile_skipped_ = counter("profile_skipped");
}

AdaptivePlacement::~AdaptivePlacement() {
  Stop();
  Drain();
}

bool AdaptivePlacement::EnvAllows(bool config_enabled) {
  const char* v = std::getenv("BIGDAWG_ADAPTIVE");
  if (v == nullptr || *v == '\0') return config_enabled;
  return std::string(v) != "0";
}

void AdaptivePlacement::RefillLocked() {
  const obs::Clock::TimePoint now = clock_->Now();
  const double elapsed_s =
      obs::Clock::ToMillis(now - last_refill_) / 1000.0;
  last_refill_ = now;
  if (elapsed_s <= 0) return;
  tokens_ms_ = std::min(config_.budget_ms,
                        tokens_ms_ + elapsed_s * config_.refill_ms_per_s);
}

std::optional<AdaptivePlacement::ShadowJob> AdaptivePlacement::BuildJob(
    const std::string& query, const std::string& island) const {
  Result<std::vector<Token>> tokens = Tokenize(query);
  if (!tokens.ok()) return std::nullopt;
  ShadowJob job;
  job.query = query;
  job.island = island;
  for (const Token& tok : *tokens) {
    if (tok.type != TokenType::kIdentifier) continue;
    if (!dawg_->catalog().Contains(tok.text)) continue;
    job.object = tok.text;
    break;
  }
  if (job.object.empty()) return std::nullopt;
  Result<core::ObjectSnapshot> snap = dawg_->catalog().Snapshot(job.object);
  if (!snap.ok() || snap->placement.sharded()) return std::nullopt;
  job.home = snap->location.engine;
  job.candidate = core::Monitor::PreferredEngineForIsland(island);
  if (job.candidate.empty() || job.candidate == job.home) return std::nullopt;
  if (!EngineSupportsShadowCopy(job.candidate) ||
      !EngineSupportsShadowCopy(job.home)) {
    return std::nullopt;
  }
  return job;
}

void AdaptivePlacement::ScheduleTracked(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    ++outstanding_;
  }
  pool_->Submit([this, task = std::move(task)] {
    task();
    std::lock_guard lock(mu_);
    if (--outstanding_ == 0) idle_cv_.notify_all();
  });
}

void AdaptivePlacement::OnQueryCompleted(const std::string& query,
                                         const std::string& island,
                                         bool is_write, const Status& status,
                                         double latency_ms) {
  if (stop_.load(std::memory_order_relaxed)) return;
  std::optional<ShadowJob> job = BuildJob(query, island);
  std::string object = job.has_value() ? job->object : std::string();
  bool sharded = false;
  if (object.empty()) {
    // No shadow-eligible candidate, but the query may still score its
    // object's current home (e.g. a sharded object, or one already on
    // the island's preferred engine).
    Result<std::vector<Token>> tokens = Tokenize(query);
    if (!tokens.ok()) return;
    for (const Token& tok : *tokens) {
      if (tok.type != TokenType::kIdentifier) continue;
      if (!dawg_->catalog().Contains(tok.text)) continue;
      object = tok.text;
      break;
    }
    if (object.empty()) return;
    Result<core::ObjectSnapshot> snap = dawg_->catalog().Snapshot(object);
    if (!snap.ok()) return;
    sharded = snap->placement.sharded();
    if (status.ok()) {
      controller_.RecordClient(object, snap->location.engine, latency_ms);
    }
  } else if (status.ok()) {
    controller_.RecordClient(object, job->home, latency_ms);
  }

  if (status.ok() && !is_write && job.has_value()) {
    bool take;
    {
      std::lock_guard lock(mu_);
      take = rng_.NextBool(config_.sample_rate);
    }
    if (take) {
      c_sampled_->Increment();
      ShadowJob j = *job;
      ScheduleTracked([this, j = std::move(j)] {
        (void)RunShadow(j);
        // Fresh shadow evidence may complete a comparison: decide now,
        // inline — we are already off the client path.
        DriveDecisions(j.object, /*sharded=*/false, /*inline_exec=*/true);
      });
      return;  // decisions ride on the shadow task's tail
    }
  }
  DriveDecisions(object, sharded, /*inline_exec=*/false);
}

void AdaptivePlacement::DriveDecisions(const std::string& object, bool sharded,
                                       bool inline_exec) {
  if (object.empty()) return;
  std::optional<core::PlacementDecision> decision =
      controller_.MaybeRevert(object);
  if (!decision.has_value()) decision = controller_.Evaluate(object, sharded);
  if (!decision.has_value()) return;
  if (inline_exec) {
    ExecuteDecision(*decision);
  } else {
    // Client path: never make a real query's completion wait on a
    // migration — execute it as its own tracked pool task.
    core::PlacementDecision d = *decision;
    ScheduleTracked([this, d = std::move(d)] { ExecuteDecision(d); });
  }
}

void AdaptivePlacement::ExecuteDecision(const core::PlacementDecision& decision) {
  if (config_.policy.dry_run) {
    controller_.OnActionResult(decision, /*applied=*/false, Status::OK());
    BIGDAWG_CLOG(Info, "place")
        << "dry-run " << core::PlacementActionName(decision.action) << " "
        << decision.object << " " << decision.from_engine << "->"
        << decision.to_engine << " (" << decision.reason << ")";
    return;
  }
  Status status;
  switch (decision.action) {
    case core::PlacementAction::kMigrate:
    case core::PlacementAction::kRevert:
      status = service_->Migrate(decision.object, decision.to_engine);
      break;
    case core::PlacementAction::kShard:
      status = dawg_->ShardObject(decision.object, config_.policy.shard_count);
      break;
  }
  controller_.OnActionResult(decision, /*applied=*/true, status);
  if (dawg_->tracer().enabled()) {
    obs::Trace trace(clock_, "placement");
    {
      obs::SpanGuard span(&trace, core::PlacementActionName(decision.action));
      span.Tag("object", decision.object);
      span.Tag("from", decision.from_engine);
      span.Tag("to", decision.to_engine);
      span.Tag("reason", decision.reason);
      span.Tag("status", StatusCodeToString(status.code()));
    }
    dawg_->tracer().Record(std::move(trace).Finish());
  }
  BIGDAWG_CLOG(Info, "place")
      << core::PlacementActionName(decision.action) << " " << decision.object
      << " " << decision.from_engine << "->" << decision.to_engine << " "
      << (status.ok() ? "ok" : status.ToString()) << " (" << decision.reason
      << ")";
}

Result<double> AdaptivePlacement::TimedRun(const std::string& query) {
  core::ExecContext ctx;
  ctx.shadow = true;
  ctx.clock = clock_;
  ctx.cancelled = &stop_;
  if (config_.shadow_deadline_ms > 0) {
    ctx.has_deadline = true;
    ctx.deadline = clock_->Now() + obs::Clock::FromMillis(config_.shadow_deadline_ms);
  }
  const obs::Clock::TimePoint start = clock_->Now();
  Result<relational::Table> result = dawg_->Execute(query, &ctx);
  if (!result.ok()) return result.status();
  // Deadline/cancellation may have fired mid-execution, after the last
  // in-query check (implicit fetches resolve inside island exec): a
  // shadow that blew its budget is discarded, not recorded as evidence.
  BIGDAWG_RETURN_NOT_OK(ctx.Check());
  return obs::Clock::ToMillis(clock_->Now() - start);
}

Status AdaptivePlacement::RunShadow(const ShadowJob& job) {
  if (stop_.load(std::memory_order_relaxed)) {
    c_cancelled_->Increment();
    return Status::Cancelled("adaptive placement stopping");
  }
  // Breaker consult: an ailing engine gets no extra traffic, and a
  // measurement against it would be garbage anyway. Shadow outcomes are
  // never fed back into the client-facing breakers.
  for (const std::string& engine : {job.home, job.candidate}) {
    if (service_->BreakerState(engine) == CircuitBreaker::State::kOpen ||
        dawg_->monitor().EngineAdvisoryDown(engine)) {
      c_breaker_skipped_->Increment();
      return Status::Unavailable("shadow skipped: engine " + engine +
                                 " breaker-open or advisory-down");
    }
  }
  // Profile consult: a class whose latency the profiler attributes to
  // locks/backoff/breaker waits would give shadows a contention
  // measurement, not an engine comparison — placement evidence from such
  // runs is noise.
  if (config_.max_coordination_share < 1.0) {
    obs::Profiler* profiler = service_->profiler();
    if (profiler != nullptr &&
        profiler->CoordinationShare(job.island) >=
            config_.max_coordination_share) {
      c_profile_skipped_->Increment();
      return Status::Unavailable("shadow skipped: class " + job.island +
                                 " latency is coordination-dominated");
    }
  }
  // Load consult: admission headroom belongs to clients.
  const size_t max_in_flight = service_->config().max_in_flight;
  if (config_.max_load_fraction > 0 && max_in_flight > 0 &&
      static_cast<double>(service_->InFlight()) >=
          config_.max_load_fraction * static_cast<double>(max_in_flight)) {
    c_load_skipped_->Increment();
    return Status::Unavailable("shadow skipped: service near admission limit");
  }
  {
    std::lock_guard lock(mu_);
    RefillLocked();
    if (tokens_ms_ <= 0) {
      c_budget_rejected_->Increment();
      return Status::ResourceExhausted(
          "shadow budget exhausted (" + FormatMs(config_.budget_ms) +
          "ms cap, refills " + FormatMs(config_.refill_ms_per_s) + "ms/s)");
    }
  }

  const obs::Clock::TimePoint start = clock_->Now();
  // Baseline: the query exactly as the client ran it, timed without the
  // client's queue wait. Runs before the copy so materialization cost
  // never pollutes either timing.
  Result<double> baseline = TimedRun(job.query);
  Result<double> candidate = Status::Internal("candidate not attempted");
  if (baseline.ok()) {
    const std::string copy_name =
        "__shadow" +
        std::to_string(shadow_seq_.fetch_add(1, std::memory_order_relaxed)) +
        "_" + job.object;
    Status copied = dawg_->CopyObjectTo(job.object, job.candidate, copy_name);
    if (copied.ok()) {
      candidate = TimedRun(ReplaceIdentifier(job.query, job.object, copy_name));
      (void)dawg_->DropObject(copy_name);
    } else {
      candidate = copied;
    }
  }
  {
    // Charge the bucket for everything the shadow actually spent,
    // success or not (may go negative; the refill recovers it).
    std::lock_guard lock(mu_);
    tokens_ms_ -= obs::Clock::ToMillis(clock_->Now() - start);
  }

  const Status failed = !baseline.ok() ? baseline.status()
                        : !candidate.ok() ? candidate.status()
                                          : Status::OK();
  if (!failed.ok()) {
    if (failed.IsDeadlineExceeded()) {
      c_deadline_->Increment();
    } else if (failed.IsCancelled()) {
      c_cancelled_->Increment();
    } else {
      c_error_->Increment();
    }
    return failed;
  }
  controller_.RecordShadow(job.object, job.home, *baseline);
  controller_.RecordShadow(job.object, job.candidate, *candidate);
  c_ok_->Increment();
  return Status::OK();
}

Status AdaptivePlacement::RunShadowSync(const std::string& query,
                                        const std::string& island) {
  std::optional<ShadowJob> job = BuildJob(query, island);
  if (!job.has_value()) {
    return Status::FailedPrecondition(
        "query has no shadow-eligible object/candidate pair");
  }
  c_sampled_->Increment();
  Status status = RunShadow(*job);
  DriveDecisions(job->object, /*sharded=*/false, /*inline_exec=*/true);
  return status;
}

void AdaptivePlacement::Drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void AdaptivePlacement::Stop() { stop_.store(true, std::memory_order_relaxed); }

ShadowStats AdaptivePlacement::shadow_stats() const {
  ShadowStats s;
  s.sampled = c_sampled_->Value();
  s.ok = c_ok_->Value();
  s.errors = c_error_->Value();
  s.deadline = c_deadline_->Value();
  s.cancelled = c_cancelled_->Value();
  s.budget_rejected = c_budget_rejected_->Value();
  s.load_skipped = c_load_skipped_->Value();
  s.breaker_skipped = c_breaker_skipped_->Value();
  s.profile_skipped = c_profile_skipped_->Value();
  return s;
}

double AdaptivePlacement::budget_remaining_ms() const {
  std::lock_guard lock(mu_);
  const_cast<AdaptivePlacement*>(this)->RefillLocked();
  return tokens_ms_ > 0 ? tokens_ms_ : 0;
}

void AdaptivePlacement::ExportMetrics(obs::MetricsRegistry* registry) const {
  registry->GetGauge("bigdawg_placement_enabled")->Set(1);
  registry->GetGauge("bigdawg_placement_shadow_budget_ms")
      ->Set(budget_remaining_ms());
  controller_.ExportMetrics(registry);
}

std::string AdaptivePlacement::Render() const {
  const core::PlacementPolicy& p = config_.policy;
  const ShadowStats s = shadow_stats();
  std::string body = "adaptive placement: enabled dry_run=";
  body += p.dry_run ? "1" : "0";
  body += " sample_rate=" + FormatMs(config_.sample_rate) + "\n";
  body += "budget: remaining_ms=" + FormatMs(budget_remaining_ms()) +
          " cap_ms=" + FormatMs(config_.budget_ms) +
          " refill_ms_per_s=" + FormatMs(config_.refill_ms_per_s) +
          " shadow_deadline_ms=" + FormatMs(config_.shadow_deadline_ms) + "\n";
  body += "shadow: sampled=" + std::to_string(s.sampled) +
          " ok=" + std::to_string(s.ok) +
          " error=" + std::to_string(s.errors) +
          " deadline=" + std::to_string(s.deadline) +
          " cancelled=" + std::to_string(s.cancelled) +
          " budget_rejected=" + std::to_string(s.budget_rejected) +
          " load_skipped=" + std::to_string(s.load_skipped) +
          " breaker_skipped=" + std::to_string(s.breaker_skipped) +
          " profile_skipped=" + std::to_string(s.profile_skipped) + "\n";
  body += "policy: min_samples=" + std::to_string(p.min_samples) +
          " gap_ratio=" + FormatMs(p.gap_ratio) +
          " cooldown_ms=" + FormatMs(p.cooldown_ms) +
          " revert_window_ms=" + FormatMs(p.revert_window_ms) +
          " revert_ratio=" + FormatMs(p.revert_ratio) +
          " blacklist_ms=" + FormatMs(p.blacklist_ms) + "\n";
  for (const core::PlacementScore& row : controller_.Scoreboard()) {
    body += "score " + row.object + "@" + row.engine +
            (row.is_home ? "*" : "") + ": samples=" +
            std::to_string(row.samples) + " p95=" + FormatMs(row.p95_ms) +
            "ms mean=" + FormatMs(row.mean_ms) + "ms\n";
  }
  for (const core::PlacementDecision& d : controller_.History()) {
    body += "decision " + std::to_string(d.seq) + " " +
            core::PlacementActionName(d.action) + " " + d.object + " " +
            d.from_engine + "->" + d.to_engine + " status=" + d.status +
            " p95=" + FormatMs(d.current_p95_ms) + "ms vs " +
            FormatMs(d.candidate_p95_ms) + "ms at t+" +
            FormatMs(d.decided_at_ms) + "ms: " + d.reason + "\n";
  }
  return body;
}

}  // namespace bigdawg::exec
