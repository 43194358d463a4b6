#ifndef BIGDAWG_CORE_STREAM_AGEOUT_H_
#define BIGDAWG_CORE_STREAM_AGEOUT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "array/array.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "relational/table.h"

namespace bigdawg::core {

class BigDawg;

/// \brief Tuning for the stream -> array-engine age-out pipeline.
struct StreamAgeOutConfig {
  /// Pending aged-out rows buffered per stream before a flush into the
  /// array engine. Batching amortizes the cross-model store; 1 flushes
  /// every row (useful in tests).
  size_t flush_rows = 1024;
  /// Cap on history rows kept per stream (> 0); oldest rows beyond the
  /// cap are discarded at flush time (the history object is a bounded
  /// archive, not an unbounded log).
  size_t max_history_rows = 1 << 20;
  /// History objects are named `<stream><suffix>` in the catalog.
  std::string suffix = "__history";
};

/// First column of every history object: a monotonic per-stream arrival
/// sequence, prepended so the CAST to array gives each aged row a unique
/// cell (int64 columns become array dimensions; payload keys alone may
/// repeat) and the archive stays in age-out order.
inline constexpr char kHistorySeqColumn[] = "hist_seq";

/// Chunk length along hist_seq. Fixed when a history is built, so every
/// later flush appends onto the same grid instead of re-chunking it.
inline constexpr int64_t kHistoryChunkLength = 256;

/// \brief How one flush landed in the stored history object.
enum class HistoryWrite : int {
  kCreated,   ///< the first flush built the history object
  kAppended,  ///< new cells were written onto a snapshot of the stored grid
  kRebuilt,   ///< a new payload coordinate, the row cap, or sharded
              ///< fragments left on different grids forced a rebuild
};

/// The history array holding the cells of every `stored` part (none at
/// the first flush; a sharded history's fragments otherwise) plus `rows`,
/// a relation in the history schema (kHistorySeqColumn first). Only the
/// last `max_rows` sequence numbers are kept. The grid is laid out here:
/// hist_seq gets kHistoryChunkLength-cell chunks, payload dimensions are
/// clamped to their extent. The first flush and every rebuild are this
/// one function. FailedPrecondition when a stored part is not shaped like
/// `rows`.
Result<array::Array> BuildHistory(const std::vector<array::Array>& stored,
                                  const relational::Table& rows, size_t max_rows);

/// The hist_seq length a history with dimensions `dims` has after `rows`
/// are appended onto its grid, or nullopt when they do not fit and the
/// history must be rebuilt: a payload coordinate outside its dimension, a
/// sequence number before the start, or more than `max_rows` sequence
/// numbers in all.
std::optional<int64_t> HistoryLengthAfterAppend(
    const std::vector<array::Dimension>& dims, const relational::Table& rows,
    size_t max_rows);

/// \brief Counters describing the pipeline's progress.
struct StreamAgeOutStats {
  int64_t pending_rows = 0;   ///< aged-out rows awaiting a flush
  int64_t flushed_rows = 0;   ///< rows durably stored in the array engine
  int64_t flushes = 0;        ///< successful store operations
  int64_t flush_failures = 0; ///< failed stores (rows stay pending)
  int64_t rebuilds = 0;       ///< flushes that rebuilt instead of appending
};

/// \brief The paper's waveform lifecycle, automated: hot recent tuples
/// live in S-Store's bounded stream buffers; what retention evicts is not
/// lost but CAST into the array engine as a growing history object —
/// exactly the demo's "recent data in S-Store, historical waveforms in
/// SciDB" split, maintained continuously instead of by hand.
///
/// Age-out delivery is exactly-once: the engine's retention calls
/// OnAgeOut once per evicted row; rows buffer as pending, and a flush
/// only moves them into the committed history after the array-engine
/// store succeeds. A failed store (engine down, fault injection) keeps
/// them pending for the next attempt — nothing is dropped and nothing is
/// double-appended.
///
/// A flush costs O(pending rows): it appends the pending cells onto a
/// copy-on-write snapshot of the stored history array and swaps the
/// handle in, so only the chunks it writes are copied. The grid is fixed
/// when the history is built; a pending row outside a payload dimension
/// (a new patient id) or a trim to max_history_rows rebuilds it once
/// (BuildHistory), counted in `rebuilds`. Each flush bumps the history
/// object's catalog version (MarkObjectWritten), so the cast-result cache
/// can never serve pre-flush bytes at a post-flush version.
///
/// Threading: OnAgeOut runs on the stream engine's executor thread with
/// the engine's state lock held, so this class never calls back into the
/// StreamEngine — schemas are snapshotted at Attach() time.
class StreamAgeOut {
 public:
  StreamAgeOut(BigDawg* dawg, StreamAgeOutConfig config);

  /// Snapshots every defined stream's schema and installs the engine's
  /// age-out handler. Call after streams are defined and before Start().
  Status Attach();

  /// The engine-facing handler target (also callable directly in tests).
  void OnAgeOut(const std::string& stream, const Row& row);

  /// Flushes every stream's pending rows now; returns the first error
  /// (remaining streams are still attempted, their rows stay pending).
  Status FlushAll();

  /// Catalog name of a stream's history object.
  std::string HistoryObjectName(const std::string& stream) const;

  StreamAgeOutStats GetStats() const;
  /// Publishes bigdawg_stream_ageout_* gauges.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  struct PerStream {
    /// History schema: kHistorySeqColumn + the stream's fields.
    Schema schema;
    /// Next hist_seq value; stamped onto rows as they age out.
    int64_t next_seq = 0;
    /// Aged-out rows not yet stored; survive failed flushes. The archive
    /// itself lives only in the array engine.
    std::vector<Row> pending;
  };

  /// Adds the pending rows to the stream's history object; clears them
  /// only on success. Caller holds mu_.
  Status FlushLocked(const std::string& stream, PerStream& ps);

  BigDawg* dawg_;
  const StreamAgeOutConfig config_;

  mutable std::mutex mu_;
  std::map<std::string, PerStream> streams_;

  std::atomic<int64_t> flushed_rows_{0};
  std::atomic<int64_t> flushes_{0};
  std::atomic<int64_t> flush_failures_{0};
  std::atomic<int64_t> rebuilds_{0};
};

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_STREAM_AGEOUT_H_
