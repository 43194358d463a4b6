#ifndef BIGDAWG_STREAM_STREAM_ENGINE_H_
#define BIGDAWG_STREAM_STREAM_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "stream/bounded_queue.h"
#include "stream/window_aggregator.h"

namespace bigdawg::stream {

class StreamEngine;

/// \brief Execution context handed to a stored procedure.
///
/// All mutations made through the context are buffered and applied
/// atomically when the procedure returns OK; a non-OK return aborts the
/// transaction and leaves the engine untouched (the S-Store/H-Store
/// single-partition transaction model).
class ProcContext {
 public:
  /// The tuple that triggered this invocation (empty for window triggers).
  const Row& input() const { return input_; }

  /// Reads a state-table row by primary key (first column). Sees the
  /// engine state as of transaction start plus this transaction's writes.
  Result<Row> Get(const std::string& table, const Value& key) const;

  /// Upserts a state-table row (primary key = first cell).
  Status Put(const std::string& table, Row row);

  /// Appends a tuple to a stream (validated against the stream schema).
  Status AppendToStream(const std::string& stream, Row row);

  /// Emits an alert tuple to the engine's alert mailbox.
  void EmitAlert(Row alert);

  /// Read-only view of a window's current contents (pre-transaction).
  Result<std::vector<Row>> Window(const std::string& window) const;

  /// Incrementally maintained aggregates (count/sum/min/max/avg per
  /// numeric column) of a window — O(columns), never a row rescan.
  Result<std::vector<ColumnAggregate>> WindowAggregates(
      const std::string& window) const;

  /// Engine-maintained logical timestamp of this invocation.
  int64_t txn_id() const { return txn_id_; }

 private:
  friend class StreamEngine;
  ProcContext(StreamEngine* engine, Row input, int64_t txn_id)
      : engine_(engine), input_(std::move(input)), txn_id_(txn_id) {}

  struct PendingWrite {
    std::string table;
    Row row;
  };
  struct PendingAppend {
    std::string stream;
    Row row;
  };

  StreamEngine* engine_;
  Row input_;
  int64_t txn_id_;
  std::vector<PendingWrite> writes_;
  std::vector<PendingAppend> appends_;
  std::vector<Row> alerts_;
};

/// \brief A stored procedure body.
using Procedure = std::function<Status(ProcContext*)>;

/// \brief Row evicted from a stream by retention, delivered to the
/// age-out handler (stream name, row). Runs on the executor thread with
/// the engine state lock held — handlers buffer, they do not re-enter
/// the engine.
using AgeOutHandler = std::function<void(const std::string&, const Row&)>;

/// \brief Health probe consulted before engine work. The polystore wires
/// this to BigDawg::CheckEngine so the fault plane (injected outages,
/// latency, chaos storms) covers the streaming island's ingest and
/// advance paths exactly like every other engine shim.
using EngineCheck = std::function<Status()>;

/// \brief Latency percentiles over committed asynchronous invocations.
struct LatencyStats {
  int64_t count = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double mean_ms = 0;
};

/// \brief One replayable command-log record (procedure + input).
struct LogRecord {
  std::string procedure;
  Row input;
};

/// \brief Engine tuning. All timing goes through `clock` (never the wall
/// clock directly), matching the repo-wide convention; tests inject an
/// obs::FakeClock and drive every boundary deterministically.
struct StreamEngineOptions {
  /// Bounded ingestion ring capacity; a full ring backpressures with
  /// ResourceExhausted rather than growing memory or dropping tuples.
  size_t queue_capacity = 1 << 16;
  /// Max tuples the worker dequeues (and processes under one state-lock
  /// acquisition) per batch.
  size_t batch_size = 256;
  /// Time source for ingest-lag / advance-latency measurement, retention
  /// age-out, and the worker's fault-retry pacing; null = system clock.
  const obs::Clock* clock = nullptr;
};

/// \brief Per-stream declaration options.
struct StreamOptions {
  /// Caps buffered tuples; overflow ages out oldest-first to the
  /// AgeOutHandler (if set). Must be > 0.
  size_t retention = 0;
  /// Age-based retention in clock-ms; 0 disables. Rows are stamped with
  /// their commit time and evicted (to the AgeOutHandler) once older
  /// than this; eviction runs on every append and every worker batch.
  double retention_ms = 0;
  /// Index of an event-time column (numeric, interpreted as ms) used for
  /// out-of-order accounting; -1 disables. The stream's watermark is the
  /// max event time seen.
  int ts_field = -1;
  /// With ts_field set: tuples whose event time is more than this many
  /// ms behind the watermark are dropped (counted, never appended).
  /// Tuples behind the watermark but within the bound are appended and
  /// counted out-of-order. 0 = never drop.
  double max_lateness_ms = 0;
};

/// \brief Counters and gauges describing the engine's ingest health.
struct StreamEngineStats {
  bool running = false;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  /// depth / capacity in [0, 1]; 1.0 means the front door is refusing
  /// tuples (backpressure) — the readiness probe's wedge signal.
  double queue_saturation = 0;
  int64_t ingested = 0;        ///< tuples accepted by Ingest()
  int64_t backpressured = 0;   ///< Ingest() rejections due to a full ring
  int64_t rejected = 0;        ///< other Ingest() failures (check/stopped/unknown)
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t alerts = 0;
  int64_t aged_out = 0;        ///< rows evicted by retention
  int64_t late_dropped = 0;    ///< rows beyond max_lateness_ms
  int64_t out_of_order = 0;    ///< rows behind the watermark but kept
  int64_t batches = 0;         ///< worker batches processed
  double ingest_lag_p50_ms = 0;   ///< enqueue -> committed
  double ingest_lag_p95_ms = 0;
  double advance_p50_ms = 0;      ///< per-batch window-advance latency
  double advance_p95_ms = 0;
};

/// \brief Snapshot of one stream for the admin surface.
struct StreamInfo {
  std::string name;
  size_t retention = 0;
  double retention_ms = 0;
  size_t buffered = 0;
  int64_t total_appended = 0;
  std::string trigger;
  std::vector<std::string> windows;
};

/// \brief Snapshot of one window for the admin surface.
struct WindowInfo {
  std::string name;
  std::string stream;
  size_t size = 0;
  size_t slide = 0;
  size_t buffered = 0;
  int64_t slides = 0;  ///< times the window trigger fired
  std::string trigger;
};

/// \brief The transactional stream processing engine (S-Store stand-in).
///
/// Mirrors the paper's three S-Store extensions over an H-Store-style
/// main-memory core:
///  (i)  streams and sliding windows represented as time-varying tables,
///  (ii) an ingestion module absorbing feeds — a bounded MPSC ring
///       standing in for the TCP module (see DESIGN.md substitutions):
///       many producers TryPush, one worker drains in batches, overload
///       surfaces as typed ResourceExhausted backpressure,
///  (iii) lightweight recovery via command logging + deterministic replay.
///
/// Concurrency model: one partition, one executor thread; transactions
/// (stored-procedure invocations) run serially, so they are trivially
/// serializable — the H-Store execution model. Engine *state* is guarded
/// by a reader/writer lock the worker takes once per batch, so the
/// inspection surface (island queries, the /streams endpoint, metrics)
/// reads consistent snapshots concurrently with live ingest.
///
/// Definition calls (CreateStream/CreateWindow/...) are rejected while
/// the engine is running: the catalog of streams/windows/procedures is
/// immutable under load, which is what lets Ingest() validate a stream
/// name without touching the state lock.
class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  // ---- Definition (call before Start) ----

  Status CreateStream(const std::string& name, Schema schema,
                      StreamOptions options);
  /// Count-retention-only convenience overload.
  Status CreateStream(const std::string& name, Schema schema, size_t retention);

  /// Declares a state table keyed by its first column.
  Status CreateTable(const std::string& name, Schema schema);

  /// Declares a sliding window over a stream: the last `size` tuples,
  /// evaluated every `slide` arrivals once full.
  Status CreateWindow(const std::string& name, const std::string& stream,
                      size_t size, size_t slide);

  Status RegisterProcedure(const std::string& name, Procedure proc);

  /// Binds a stream so each arriving tuple invokes `procedure` with it.
  Status BindStreamTrigger(const std::string& stream, const std::string& procedure);

  /// Binds a window so each slide invokes `procedure` (empty input row).
  Status BindWindowTrigger(const std::string& window, const std::string& procedure);

  void SetAgeOutHandler(AgeOutHandler handler);

  /// Replaces the time source (FaultInjector::SetClock convention): tests
  /// point an embedded engine (e.g. BigDawg's) at a FakeClock so window
  /// retention and lag measurement run on fake time. Only legal while
  /// stopped.
  Status SetClock(const obs::Clock* clock);

  /// Installs the fault-plane probe consulted on the ingest front door
  /// and before every worker batch (the advance path). A failing check
  /// rejects ingest with its status; the worker leaves queued tuples in
  /// place and retries after a clock-paced pause, so an engine outage
  /// shows up as backpressure, never as tuple loss.
  void SetEngineCheck(EngineCheck check);

  // ---- Execution ----

  /// Starts the partition executor thread.
  void Start();
  /// Drains the queue and stops the executor.
  void Stop();

  /// Asynchronous ingestion (the "TCP feed" entry point): enqueues the
  /// tuple for the stream's trigger procedure. ResourceExhausted when
  /// the bounded ring is full (backpressure — retry or shed upstream);
  /// FailedPrecondition when the engine is not running.
  Status Ingest(const std::string& stream, Row row);

  /// Blocks until the ingestion queue is empty and the executor is idle.
  void WaitForDrain();

  /// Synchronous invocation (serialized against the executor via the
  /// state lock). Used by tests and the streaming island's request path.
  Status ExecuteProcedure(const std::string& name, Row input);

  /// Runs age-based retention now (the worker also runs it per batch).
  void AdvanceRetention();

  // ---- Inspection (safe concurrently with a running executor) ----

  /// Current contents of a stream's retained buffer.
  Result<std::vector<Row>> StreamContents(const std::string& name) const;
  Result<std::vector<Row>> WindowContents(const std::string& name) const;
  /// Incremental aggregates of a window's numeric columns.
  Result<std::vector<ColumnAggregate>> WindowAggregates(
      const std::string& name) const;
  Result<Row> TableGet(const std::string& table, const Value& key) const;
  Result<std::vector<Row>> TableScan(const std::string& table) const;
  Result<Schema> StreamSchema(const std::string& name) const;
  /// Schema of a window's rows (= its source stream's schema).
  Result<Schema> WindowSchema(const std::string& name) const;
  Result<Schema> TableSchema(const std::string& name) const;

  std::vector<StreamInfo> ListStreams() const;
  std::vector<WindowInfo> ListWindows() const;
  std::vector<std::string> ListTables() const;

  /// Drains and returns all alerts emitted since the last call.
  std::vector<Row> TakeAlerts();

  /// Latency percentiles for committed async invocations.
  LatencyStats GetLatencyStats() const;
  int64_t committed_txns() const {
    return committed_.load(std::memory_order_relaxed);
  }
  int64_t aborted_txns() const {
    return aborted_.load(std::memory_order_relaxed);
  }

  /// Ingest-health snapshot (queue depth/saturation, backpressure and
  /// drop counters, lag percentiles) for /streams and readiness probes.
  StreamEngineStats GetStats() const;

  /// Publishes the stats snapshot as bigdawg_stream_* series. Called by
  /// QueryService::DumpMetrics so every scrape sees fresh values.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  // ---- Recovery ----

  /// Copy of the command log (inputs of committed transactions).
  std::vector<LogRecord> SnapshotCommandLog() const;

  /// Replays a command log into this (freshly defined) engine by
  /// re-executing each procedure synchronously.
  Status ReplayLog(const std::vector<LogRecord>& log);

  /// Durable form of the command log, framed with the value codec the
  /// wire format uses: varint record count | (length-prefixed procedure
  /// | row)*. Truncated, corrupt or oversized input fails typed.
  static std::string SerializeLog(const std::vector<LogRecord>& log);
  static Result<std::vector<LogRecord>> DeserializeLog(const std::string& bytes);

 private:
  struct StreamState {
    Schema schema;
    StreamOptions options;
    std::deque<Row> buffer;
    /// Commit times aligned with `buffer`; maintained only when
    /// options.retention_ms > 0.
    std::deque<obs::Clock::TimePoint> arrivals;
    double watermark_ms = 0;  ///< max event time seen (ts_field streams)
    bool watermark_set = false;
    int64_t total_appended = 0;
    std::string trigger;  // procedure invoked per tuple ("" = none)
    std::vector<std::string> windows;
  };

  struct WindowState {
    std::string stream;
    size_t size = 0;
    size_t slide = 0;
    std::deque<Row> buffer;
    size_t arrivals_since_eval = 0;
    int64_t slides = 0;
    /// Sequence of the next append; evictions replay seqs FIFO.
    int64_t next_seq = 0;
    int64_t evict_seq = 0;
    WindowAggregateBank aggregates;
    std::string trigger;
  };

  struct TableState {
    Schema schema;
    std::map<Value, Row> rows;
  };

  struct QueueItem {
    std::string procedure;
    Row input;
    obs::Clock::TimePoint enqueued;
  };

  friend class ProcContext;

  /// Definition calls are only legal on a stopped engine.
  Status RequireStopped() const;

  // Runs one transaction; caller holds state_mu_ exclusively. Applies
  // buffered effects on success.
  Status RunTransactionLocked(const std::string& proc_name, Row input,
                              bool log_commit);
  // Applies a committed append to stream/window buffers and fires window
  // triggers; called within the executing transaction's commit.
  Status ApplyAppend(const std::string& stream, const Row& row,
                     std::vector<QueueItem>* follow_ups);
  /// Evicts one row from the head of `s` (retention), feeding windows'
  /// aggregate eviction is NOT involved — windows evict by their own
  /// size — but the age-out handler is.
  void EvictOldest(const std::string& name, StreamState& s);
  /// Age-based retention sweep over every stream; caller holds state_mu_.
  void AdvanceRetentionLocked();

  void ExecutorLoop();

  const StreamEngineOptions options_;
  const obs::Clock* clock_;  ///< never null; reassignable via SetClock

  std::map<std::string, StreamState> streams_;
  std::map<std::string, WindowState> windows_;
  std::map<std::string, TableState> tables_;
  std::map<std::string, Procedure> procedures_;
  AgeOutHandler age_out_;
  EngineCheck engine_check_;

  // Ingestion front door + executor machinery.
  BoundedMpscQueue<QueueItem> queue_;
  std::thread executor_;
  mutable std::mutex run_mu_;  ///< guards start/stop transitions + drain waits
  std::condition_variable drain_cv_;
  std::atomic<bool> running_{false};
  /// Drain accounting: Ingest bumps accepted_ after a successful push, the
  /// executor bumps processed_ after committing a batch. Drained means
  /// processed_ has caught up — this closes the pop-but-not-yet-processed
  /// window a queue-empty check alone would miss.
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> processed_{0};

  /// Guards engine state (streams_/windows_/tables_ contents, alerts_,
  /// command log, txn ids). The executor takes it exclusively once per
  /// batch; inspection readers share it. The maps' *structure* is frozen
  /// while running (definitions require a stopped engine), so Ingest()
  /// may probe stream existence without this lock.
  mutable std::shared_mutex state_mu_;
  int64_t next_txn_id_ = 1;
  std::vector<Row> alerts_;
  std::vector<LogRecord> command_log_;

  // Counters are atomics: bumped on the ingest path (producers) and the
  // executor without taking state_mu_.
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
  std::atomic<int64_t> ingested_{0};
  std::atomic<int64_t> backpressured_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> alerts_total_{0};
  std::atomic<int64_t> aged_out_{0};
  std::atomic<int64_t> late_dropped_{0};
  std::atomic<int64_t> out_of_order_{0};
  std::atomic<int64_t> batches_{0};

  /// Bounded reservoirs for lag/latency percentiles (PR 3 convention:
  /// one SampleWindow implementation behind every p50/p95).
  mutable std::mutex stats_mu_;
  obs::SampleWindow ingest_lag_ms_;
  obs::SampleWindow advance_ms_;
};

}  // namespace bigdawg::stream

#endif  // BIGDAWG_STREAM_STREAM_ENGINE_H_
