#include "stream/stream_engine.h"

#include <algorithm>
#include <chrono>

#include "common/macros.h"
#include "common/value_codec.h"

namespace bigdawg::stream {

namespace {
std::string IngestProcName(const std::string& stream) {
  return "__ingest_" + stream;
}
}  // namespace

// ---- ProcContext ----
//
// ProcContext methods read engine state without locking: procedures only
// ever run on a thread that already holds state_mu_ exclusively (the
// executor's batch loop, or ExecuteProcedure/ReplayLog).

Result<Row> ProcContext::Get(const std::string& table, const Value& key) const {
  auto it = engine_->tables_.find(table);
  if (it == engine_->tables_.end()) {
    return Status::NotFound("no state table named " + table);
  }
  // This transaction's own writes win.
  for (auto w = writes_.rbegin(); w != writes_.rend(); ++w) {
    if (w->table == table && !w->row.empty() && w->row[0] == key) return w->row;
  }
  auto row_it = it->second.rows.find(key);
  if (row_it == it->second.rows.end()) {
    return Status::NotFound("no row with key " + key.ToString() + " in " + table);
  }
  return row_it->second;
}

Status ProcContext::Put(const std::string& table, Row row) {
  auto it = engine_->tables_.find(table);
  if (it == engine_->tables_.end()) {
    return Status::NotFound("no state table named " + table);
  }
  BIGDAWG_RETURN_NOT_OK(it->second.schema.ValidateRow(row));
  if (row.empty() || row[0].is_null()) {
    return Status::InvalidArgument("state-table rows need a non-null key");
  }
  writes_.push_back({table, std::move(row)});
  return Status::OK();
}

Status ProcContext::AppendToStream(const std::string& stream, Row row) {
  auto it = engine_->streams_.find(stream);
  if (it == engine_->streams_.end()) {
    return Status::NotFound("no stream named " + stream);
  }
  BIGDAWG_RETURN_NOT_OK(it->second.schema.ValidateRow(row));
  appends_.push_back({stream, std::move(row)});
  return Status::OK();
}

void ProcContext::EmitAlert(Row alert) { alerts_.push_back(std::move(alert)); }

Result<std::vector<Row>> ProcContext::Window(const std::string& window) const {
  auto it = engine_->windows_.find(window);
  if (it == engine_->windows_.end()) {
    return Status::NotFound("no window named " + window);
  }
  return std::vector<Row>(it->second.buffer.begin(), it->second.buffer.end());
}

Result<std::vector<ColumnAggregate>> ProcContext::WindowAggregates(
    const std::string& window) const {
  auto it = engine_->windows_.find(window);
  if (it == engine_->windows_.end()) {
    return Status::NotFound("no window named " + window);
  }
  return it->second.aggregates.Snapshot();
}

// ---- Definition ----

StreamEngine::StreamEngine(StreamEngineOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : obs::Clock::System()),
      queue_(options.queue_capacity) {}

Status StreamEngine::RequireStopped() const {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "definitions are frozen while the engine is running (Stop() first)");
  }
  return Status::OK();
}

Status StreamEngine::CreateStream(const std::string& name, Schema schema,
                                  StreamOptions options) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  if (streams_.count(name) > 0) {
    return Status::AlreadyExists("stream already exists: " + name);
  }
  if (options.retention == 0) {
    return Status::InvalidArgument("retention must be > 0");
  }
  if (options.retention_ms < 0 || options.max_lateness_ms < 0) {
    return Status::InvalidArgument("retention_ms / max_lateness_ms must be >= 0");
  }
  if (options.ts_field >= 0) {
    if (static_cast<size_t>(options.ts_field) >= schema.num_fields()) {
      return Status::InvalidArgument("ts_field is out of schema bounds");
    }
    if (!IsNumeric(schema.fields()[options.ts_field].type)) {
      return Status::InvalidArgument("ts_field must be a numeric column");
    }
  }
  StreamState s;
  s.schema = std::move(schema);
  s.options = options;
  streams_.emplace(name, std::move(s));
  // Implicit ingestion procedure: append the input tuple to the stream.
  procedures_[IngestProcName(name)] = [name](ProcContext* ctx) {
    return ctx->AppendToStream(name, ctx->input());
  };
  return Status::OK();
}

Status StreamEngine::CreateStream(const std::string& name, Schema schema,
                                  size_t retention) {
  StreamOptions options;
  options.retention = retention;
  return CreateStream(name, std::move(schema), options);
}

Status StreamEngine::CreateTable(const std::string& name, Schema schema) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("state table needs at least a key column");
  }
  TableState t;
  t.schema = std::move(schema);
  tables_.emplace(name, std::move(t));
  return Status::OK();
}

Status StreamEngine::CreateWindow(const std::string& name, const std::string& stream,
                                  size_t size, size_t slide) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  if (windows_.count(name) > 0) {
    return Status::AlreadyExists("window already exists: " + name);
  }
  auto it = streams_.find(stream);
  if (it == streams_.end()) return Status::NotFound("no stream named " + stream);
  if (size == 0 || slide == 0) {
    return Status::InvalidArgument("window size and slide must be > 0");
  }
  WindowState w;
  w.stream = stream;
  w.size = size;
  w.slide = slide;
  w.aggregates.Bind(it->second.schema);
  windows_.emplace(name, std::move(w));
  it->second.windows.push_back(name);
  return Status::OK();
}

Status StreamEngine::RegisterProcedure(const std::string& name, Procedure proc) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  if (procedures_.count(name) > 0) {
    return Status::AlreadyExists("procedure already exists: " + name);
  }
  procedures_.emplace(name, std::move(proc));
  return Status::OK();
}

Status StreamEngine::BindStreamTrigger(const std::string& stream,
                                       const std::string& procedure) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) return Status::NotFound("no stream named " + stream);
  if (procedures_.count(procedure) == 0) {
    return Status::NotFound("no procedure named " + procedure);
  }
  it->second.trigger = procedure;
  return Status::OK();
}

Status StreamEngine::BindWindowTrigger(const std::string& window,
                                       const std::string& procedure) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  std::unique_lock lock(state_mu_);
  auto it = windows_.find(window);
  if (it == windows_.end()) return Status::NotFound("no window named " + window);
  if (procedures_.count(procedure) == 0) {
    return Status::NotFound("no procedure named " + procedure);
  }
  it->second.trigger = procedure;
  return Status::OK();
}

void StreamEngine::SetAgeOutHandler(AgeOutHandler handler) {
  std::unique_lock lock(state_mu_);
  age_out_ = std::move(handler);
}

void StreamEngine::SetEngineCheck(EngineCheck check) {
  std::unique_lock lock(state_mu_);
  engine_check_ = std::move(check);
}

Status StreamEngine::SetClock(const obs::Clock* clock) {
  BIGDAWG_RETURN_NOT_OK(RequireStopped());
  clock_ = clock != nullptr ? clock : obs::Clock::System();
  return Status::OK();
}

// ---- Transactions ----

void StreamEngine::EvictOldest(const std::string& name, StreamState& s) {
  if (age_out_) age_out_(name, s.buffer.front());
  s.buffer.pop_front();
  if (!s.arrivals.empty()) s.arrivals.pop_front();
  aged_out_.fetch_add(1, std::memory_order_relaxed);
}

Status StreamEngine::ApplyAppend(const std::string& stream, const Row& row,
                                 std::vector<QueueItem>* follow_ups) {
  StreamState& s = streams_.at(stream);

  // Event-time accounting: drop hopelessly late tuples, count the merely
  // out-of-order ones, advance the watermark.
  if (s.options.ts_field >= 0 &&
      static_cast<size_t>(s.options.ts_field) < row.size()) {
    Result<double> ts = row[s.options.ts_field].ToNumeric();
    if (ts.ok()) {
      if (s.watermark_set && *ts < s.watermark_ms) {
        if (s.options.max_lateness_ms > 0 &&
            *ts < s.watermark_ms - s.options.max_lateness_ms) {
          late_dropped_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();  // beyond the lateness bound: counted drop
        }
        out_of_order_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!s.watermark_set || *ts > s.watermark_ms) {
        s.watermark_ms = *ts;
        s.watermark_set = true;
      }
    }
  }

  s.buffer.push_back(row);
  if (s.options.retention_ms > 0) s.arrivals.push_back(clock_->Now());
  ++s.total_appended;
  // Count retention: age out oldest tuples.
  while (s.buffer.size() > s.options.retention) EvictOldest(stream, s);
  // Stream trigger.
  if (!s.trigger.empty()) {
    follow_ups->push_back({s.trigger, row, clock_->Now()});
  }
  // Windows over this stream: feed rows and the incremental aggregates.
  for (const std::string& wname : s.windows) {
    WindowState& w = windows_.at(wname);
    w.buffer.push_back(row);
    w.aggregates.Append(row, w.next_seq++);
    while (w.buffer.size() > w.size) {
      w.aggregates.Evict(w.buffer.front(), w.evict_seq++);
      w.buffer.pop_front();
    }
    ++w.arrivals_since_eval;
    if (w.buffer.size() == w.size && w.arrivals_since_eval >= w.slide) {
      w.arrivals_since_eval = 0;
      ++w.slides;
      if (!w.trigger.empty()) {
        follow_ups->push_back({w.trigger, Row{}, clock_->Now()});
      }
    }
  }
  return Status::OK();
}

void StreamEngine::AdvanceRetentionLocked() {
  const obs::Clock::TimePoint now = clock_->Now();
  for (auto& [name, s] : streams_) {
    if (s.options.retention_ms <= 0) continue;
    while (!s.buffer.empty() && !s.arrivals.empty() &&
           obs::Clock::ToMillis(now - s.arrivals.front()) >
               s.options.retention_ms) {
      EvictOldest(name, s);
    }
  }
}

void StreamEngine::AdvanceRetention() {
  std::unique_lock lock(state_mu_);
  AdvanceRetentionLocked();
}

Status StreamEngine::RunTransactionLocked(const std::string& proc_name, Row input,
                                          bool log_commit) {
  // Work list lets committed transactions schedule deterministic follow-up
  // transactions (stream triggers, window triggers) without recursion.
  std::deque<QueueItem> work;
  work.push_back({proc_name, std::move(input), clock_->Now()});
  bool first = true;
  Status first_status = Status::OK();

  while (!work.empty()) {
    QueueItem item = std::move(work.front());
    work.pop_front();

    auto proc_it = procedures_.find(item.procedure);
    if (proc_it == procedures_.end()) {
      Status st = Status::NotFound("no procedure named " + item.procedure);
      if (first) return st;
      continue;  // follow-up with missing proc: drop (cannot happen via API)
    }

    ProcContext ctx(this, item.input, next_txn_id_++);
    Status st = proc_it->second(&ctx);
    if (!st.ok()) {
      aborted_.fetch_add(1, std::memory_order_relaxed);
      if (first) first_status = st;
      first = false;
      continue;  // abort: discard buffered effects
    }

    // Commit: apply buffered effects.
    for (ProcContext::PendingWrite& w : ctx.writes_) {
      TableState& t = tables_.at(w.table);
      Value key = w.row[0];
      t.rows.insert_or_assign(std::move(key), std::move(w.row));
    }
    std::vector<QueueItem> follow_ups;
    for (ProcContext::PendingAppend& a : ctx.appends_) {
      BIGDAWG_RETURN_NOT_OK(ApplyAppend(a.stream, a.row, &follow_ups));
    }
    for (Row& alert : ctx.alerts_) {
      alerts_.push_back(std::move(alert));
      alerts_total_.fetch_add(1, std::memory_order_relaxed);
    }
    committed_.fetch_add(1, std::memory_order_relaxed);
    if (first && log_commit) {
      command_log_.push_back({item.procedure, item.input});
    }
    for (QueueItem& f : follow_ups) work.push_back(std::move(f));
    first = false;
  }
  return first_status;
}

// ---- Execution ----

StreamEngine::~StreamEngine() { Stop(); }

void StreamEngine::Start() {
  std::lock_guard lock(run_mu_);
  if (running_.load(std::memory_order_acquire)) return;
  queue_.Reopen();
  running_.store(true, std::memory_order_release);
  executor_ = std::thread([this] { ExecutorLoop(); });
}

void StreamEngine::Stop() {
  {
    std::lock_guard lock(run_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    running_.store(false, std::memory_order_release);
  }
  // Closing the queue wakes the worker; it drains what was accepted (no
  // tuple loss on shutdown) and exits on closed-and-empty.
  queue_.Close();
  if (executor_.joinable()) executor_.join();
}

Status StreamEngine::Ingest(const std::string& stream, Row row) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine not started (call Start())");
  }
  // Definitions are frozen while running, so probing the stream map needs
  // no lock — this is what keeps Ingest off the state lock entirely.
  if (streams_.count(stream) == 0) {
    return Status::NotFound("no stream named " + stream);
  }
  if (engine_check_) {
    Status st = engine_check_();
    if (!st.ok()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
  }
  Status st = queue_.TryPush({IngestProcName(stream), std::move(row), clock_->Now()});
  if (!st.ok()) {
    if (st.IsResourceExhausted()) {
      backpressured_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    return st;
  }
  ingested_.fetch_add(1, std::memory_order_relaxed);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void StreamEngine::WaitForDrain() {
  std::unique_lock lock(run_mu_);
  drain_cv_.wait(lock, [this] {
    return processed_.load(std::memory_order_acquire) >=
           accepted_.load(std::memory_order_acquire);
  });
}

void StreamEngine::ExecutorLoop() {
  std::vector<QueueItem> batch;
  batch.reserve(options_.batch_size);
  for (;;) {
    batch.clear();
    const size_t n = queue_.PopBatch(options_.batch_size, &batch);
    if (n == 0) break;  // closed and drained

    // Fault plane: hold the popped batch until the engine is healthy.
    // Tuples wait (and the bounded queue fills behind them, surfacing the
    // outage as front-door backpressure) rather than being dropped. A
    // Stop() bypasses the check so shutdown always drains.
    if (engine_check_) {
      while (running_.load(std::memory_order_acquire)) {
        if (engine_check_().ok()) break;
        clock_->SleepFor(obs::Clock::FromMillis(1));
      }
    }

    const obs::Clock::TimePoint batch_start = clock_->Now();
    {
      std::unique_lock lock(state_mu_);
      for (QueueItem& item : batch) {
        (void)RunTransactionLocked(item.procedure, std::move(item.input),
                                   /*log_commit=*/true);
      }
      AdvanceRetentionLocked();
    }
    const obs::Clock::TimePoint batch_end = clock_->Now();
    {
      std::lock_guard slock(stats_mu_);
      for (const QueueItem& item : batch) {
        ingest_lag_ms_.Record(obs::Clock::ToMillis(batch_end - item.enqueued));
      }
      advance_ms_.Record(obs::Clock::ToMillis(batch_end - batch_start));
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    processed_.fetch_add(static_cast<int64_t>(n), std::memory_order_release);
    {
      std::lock_guard lock(run_mu_);
    }
    drain_cv_.notify_all();
  }
  {
    std::lock_guard lock(run_mu_);
  }
  drain_cv_.notify_all();
}

Status StreamEngine::ExecuteProcedure(const std::string& name, Row input) {
  std::unique_lock lock(state_mu_);
  return RunTransactionLocked(name, std::move(input), /*log_commit=*/true);
}

// ---- Inspection ----

Result<std::vector<Row>> StreamEngine::StreamContents(const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) return Status::NotFound("no stream named " + name);
  return std::vector<Row>(it->second.buffer.begin(), it->second.buffer.end());
}

Result<std::vector<Row>> StreamEngine::WindowContents(const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = windows_.find(name);
  if (it == windows_.end()) return Status::NotFound("no window named " + name);
  return std::vector<Row>(it->second.buffer.begin(), it->second.buffer.end());
}

Result<std::vector<ColumnAggregate>> StreamEngine::WindowAggregates(
    const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = windows_.find(name);
  if (it == windows_.end()) return Status::NotFound("no window named " + name);
  return it->second.aggregates.Snapshot();
}

Result<Row> StreamEngine::TableGet(const std::string& table, const Value& key) const {
  std::shared_lock lock(state_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no state table named " + table);
  auto row_it = it->second.rows.find(key);
  if (row_it == it->second.rows.end()) {
    return Status::NotFound("no row with key " + key.ToString());
  }
  return row_it->second;
}

Result<std::vector<Row>> StreamEngine::TableScan(const std::string& table) const {
  std::shared_lock lock(state_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no state table named " + table);
  std::vector<Row> out;
  out.reserve(it->second.rows.size());
  for (const auto& [key, row] : it->second.rows) out.push_back(row);
  return out;
}

Result<Schema> StreamEngine::StreamSchema(const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) return Status::NotFound("no stream named " + name);
  return it->second.schema;
}

Result<Schema> StreamEngine::WindowSchema(const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = windows_.find(name);
  if (it == windows_.end()) return Status::NotFound("no window named " + name);
  return streams_.at(it->second.stream).schema;
}

Result<Schema> StreamEngine::TableSchema(const std::string& name) const {
  std::shared_lock lock(state_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no state table named " + name);
  return it->second.schema;
}

std::vector<StreamInfo> StreamEngine::ListStreams() const {
  std::shared_lock lock(state_mu_);
  std::vector<StreamInfo> out;
  out.reserve(streams_.size());
  for (const auto& [name, s] : streams_) {
    StreamInfo info;
    info.name = name;
    info.retention = s.options.retention;
    info.retention_ms = s.options.retention_ms;
    info.buffered = s.buffer.size();
    info.total_appended = s.total_appended;
    info.trigger = s.trigger;
    info.windows = s.windows;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<WindowInfo> StreamEngine::ListWindows() const {
  std::shared_lock lock(state_mu_);
  std::vector<WindowInfo> out;
  out.reserve(windows_.size());
  for (const auto& [name, w] : windows_) {
    WindowInfo info;
    info.name = name;
    info.stream = w.stream;
    info.size = w.size;
    info.slide = w.slide;
    info.buffered = w.buffer.size();
    info.slides = w.slides;
    info.trigger = w.trigger;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::string> StreamEngine::ListTables() const {
  std::shared_lock lock(state_mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

std::vector<Row> StreamEngine::TakeAlerts() {
  std::unique_lock lock(state_mu_);
  std::vector<Row> out;
  out.swap(alerts_);
  return out;
}

LatencyStats StreamEngine::GetLatencyStats() const {
  std::lock_guard lock(stats_mu_);
  LatencyStats stats;
  stats.count = ingest_lag_ms_.count();
  if (stats.count == 0) return stats;
  stats.p50_ms = ingest_lag_ms_.Quantile(0.50);
  stats.p95_ms = ingest_lag_ms_.Quantile(0.95);
  stats.p99_ms = ingest_lag_ms_.Quantile(0.99);
  stats.max_ms = ingest_lag_ms_.Quantile(1.0);
  stats.mean_ms = ingest_lag_ms_.mean();
  return stats;
}

StreamEngineStats StreamEngine::GetStats() const {
  StreamEngineStats s;
  s.running = running_.load(std::memory_order_acquire);
  s.queue_depth = queue_.depth();
  s.queue_capacity = queue_.capacity();
  s.queue_saturation = s.queue_capacity == 0
                           ? 0
                           : static_cast<double>(s.queue_depth) /
                                 static_cast<double>(s.queue_capacity);
  s.ingested = ingested_.load(std::memory_order_relaxed);
  s.backpressured = backpressured_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.committed = committed_.load(std::memory_order_relaxed);
  s.aborted = aborted_.load(std::memory_order_relaxed);
  s.alerts = alerts_total_.load(std::memory_order_relaxed);
  s.aged_out = aged_out_.load(std::memory_order_relaxed);
  s.late_dropped = late_dropped_.load(std::memory_order_relaxed);
  s.out_of_order = out_of_order_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  {
    std::lock_guard slock(stats_mu_);
    s.ingest_lag_p50_ms = ingest_lag_ms_.Quantile(0.50);
    s.ingest_lag_p95_ms = ingest_lag_ms_.Quantile(0.95);
    s.advance_p50_ms = advance_ms_.Quantile(0.50);
    s.advance_p95_ms = advance_ms_.Quantile(0.95);
  }
  return s;
}

void StreamEngine::ExportMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const StreamEngineStats s = GetStats();
  auto set = [registry](const char* family, double v) {
    registry->GetGauge(family)->Set(v);
  };
  set("bigdawg_stream_ingested_total", static_cast<double>(s.ingested));
  set("bigdawg_stream_backpressured_total", static_cast<double>(s.backpressured));
  set("bigdawg_stream_rejected_total", static_cast<double>(s.rejected));
  set("bigdawg_stream_late_dropped_total", static_cast<double>(s.late_dropped));
  set("bigdawg_stream_out_of_order_total", static_cast<double>(s.out_of_order));
  set("bigdawg_stream_txn_committed_total", static_cast<double>(s.committed));
  set("bigdawg_stream_txn_aborted_total", static_cast<double>(s.aborted));
  set("bigdawg_stream_alerts_total", static_cast<double>(s.alerts));
  set("bigdawg_stream_aged_out_rows_total", static_cast<double>(s.aged_out));
  set("bigdawg_stream_batches_total", static_cast<double>(s.batches));
  set("bigdawg_stream_queue_depth", static_cast<double>(s.queue_depth));
  set("bigdawg_stream_queue_capacity", static_cast<double>(s.queue_capacity));
  set("bigdawg_stream_queue_saturation", s.queue_saturation);
  set("bigdawg_stream_running", s.running ? 1.0 : 0.0);
  auto quantile = [registry](const char* family, const char* q, double v) {
    registry->GetGauge(obs::SeriesName(family, {{"quantile", q}}))->Set(v);
  };
  quantile("bigdawg_stream_ingest_lag_ms", "p50", s.ingest_lag_p50_ms);
  quantile("bigdawg_stream_ingest_lag_ms", "p95", s.ingest_lag_p95_ms);
  quantile("bigdawg_stream_advance_ms", "p50", s.advance_p50_ms);
  quantile("bigdawg_stream_advance_ms", "p95", s.advance_p95_ms);
}

// ---- Recovery ----

std::vector<LogRecord> StreamEngine::SnapshotCommandLog() const {
  std::shared_lock lock(state_mu_);
  return command_log_;
}

std::string StreamEngine::SerializeLog(const std::vector<LogRecord>& log) {
  std::string out;
  common::PutVarint64(&out, log.size());
  for (const LogRecord& rec : log) {
    common::PutLengthPrefixed(&out, rec.procedure);
    common::PutRow(&out, rec.input);
  }
  return out;
}

Result<std::vector<LogRecord>> StreamEngine::DeserializeLog(
    const std::string& bytes) {
  common::VarintReader reader(bytes);
  // Every record costs at least a procedure-name length and a cell count.
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t n, common::GetBoundedCount(&reader, 2));
  std::vector<LogRecord> log;
  log.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LogRecord rec;
    BIGDAWG_ASSIGN_OR_RETURN(rec.procedure, common::GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(rec.input, common::GetRow(&reader));
    log.push_back(std::move(rec));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("trailing bytes after command log");
  }
  return log;
}

Status StreamEngine::ReplayLog(const std::vector<LogRecord>& log) {
  for (const LogRecord& rec : log) {
    // Replay re-runs each top-level transaction; follow-ups regenerate
    // deterministically. Aborted-at-runtime statuses are surfaced.
    BIGDAWG_RETURN_NOT_OK(ExecuteProcedure(rec.procedure, rec.input));
  }
  return Status::OK();
}

}  // namespace bigdawg::stream
