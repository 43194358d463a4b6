#include "core/stream_ageout.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/columnar.h"
#include "common/macros.h"
#include "core/bigdawg.h"
#include "core/cast.h"

namespace bigdawg::core {

namespace {

/// First hist_seq kept when a history ends (exclusively) at `end`.
int64_t FirstKeptSeq(int64_t end, size_t max_rows) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  if (max_rows >= static_cast<size_t>(std::numeric_limits<int64_t>::max())) {
    return kMin;
  }
  const int64_t span = static_cast<int64_t>(max_rows);
  return end < kMin + span ? kMin : end - span;
}

}  // namespace

Result<array::Array> BuildHistory(const std::vector<array::Array>& stored,
                                  const relational::Table& rows, size_t max_rows) {
  const Schema& schema = rows.schema();
  if (max_rows == 0) return Status::InvalidArgument("max_rows must be > 0");
  if (schema.num_fields() == 0 || schema.field(0).name != kHistorySeqColumn ||
      schema.field(0).type != DataType::kInt64) {
    return Status::InvalidArgument(std::string("history rows must lead with an int64 ") +
                                   kHistorySeqColumn + " column");
  }
  common::ColumnView seqs = rows.ColumnAt(0);
  if (seqs.null_count() > 0) {
    return Status::InvalidArgument(std::string("NULL ") + kHistorySeqColumn);
  }
  int64_t end = std::numeric_limits<int64_t>::min();
  for (const array::Array& part : stored) {
    end = std::max(end, part.dims()[0].start + part.dims()[0].length);
  }
  int64_t min_seq = std::numeric_limits<int64_t>::max();
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const int64_t seq = seqs.Int64At(r);
    end = std::max(end, seq + 1);
    min_seq = std::min(min_seq, seq);
  }
  const int64_t first_kept = FirstKeptSeq(end, max_rows);
  if (stored.empty() && min_seq >= first_kept) {
    return TableToArray(rows, kHistoryChunkLength, /*growable_dims=*/1);
  }

  // Carry the stored cells over as rows in the history schema, then the
  // new rows; drop everything before first_kept.
  relational::Table kept(schema);
  for (const array::Array& part : stored) {
    // Schema column -> (is dimension, index into coords or values).
    std::vector<std::pair<bool, size_t>> source;
    size_t d = 0;
    size_t a = 0;
    bool same_shape = true;
    for (size_t i = 0; same_shape && i < schema.num_fields(); ++i) {
      const Field& f = schema.field(i);
      if (f.type == DataType::kInt64) {
        same_shape = d < part.num_dims() && part.dims()[d].name == f.name;
        source.emplace_back(true, d++);
      } else {
        same_shape = a < part.num_attrs() && part.attrs()[a] == f.name;
        source.emplace_back(false, a++);
      }
    }
    if (!same_shape || d != part.num_dims() || a != part.num_attrs()) {
      return Status::FailedPrecondition(
          "stored history does not match the stream's schema");
    }
    part.Scan([&](const array::Coordinates& coords,
                  const std::vector<double>& values) {
      if (coords[0] < first_kept) return true;
      Row row;
      row.reserve(source.size());
      for (const auto& [is_dim, idx] : source) {
        if (is_dim) {
          row.emplace_back(coords[idx]);
        } else {
          row.emplace_back(values[idx]);
        }
      }
      kept.AppendUnchecked(std::move(row));
      return true;
    });
  }
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    if (seqs[r].int64_unchecked() >= first_kept) kept.AppendUnchecked(rows.rows()[r]);
  }
  return TableToArray(kept, kHistoryChunkLength, /*growable_dims=*/1);
}

std::optional<int64_t> HistoryLengthAfterAppend(
    const std::vector<array::Dimension>& dims, const relational::Table& rows,
    size_t max_rows) {
  std::vector<size_t> dim_cols;
  for (size_t i = 0; i < rows.schema().num_fields(); ++i) {
    if (rows.schema().field(i).type == DataType::kInt64) dim_cols.push_back(i);
  }
  if (dim_cols.size() != dims.size() || dim_cols.empty() || dim_cols[0] != 0) {
    return std::nullopt;
  }
  const int64_t start = dims[0].start;
  int64_t end = start + dims[0].length;
  for (size_t d = 0; d < dims.size(); ++d) {
    common::ColumnView view = rows.ColumnAt(dim_cols[d]);
    if (view.null_count() > 0) return std::nullopt;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      const int64_t c = view.Int64At(r);
      if (c < dims[d].start) return std::nullopt;
      if (d == 0) {
        end = std::max(end, c + 1);
      } else if (c >= dims[d].start + dims[d].length) {
        return std::nullopt;
      }
    }
  }
  if (start < FirstKeptSeq(end, max_rows)) return std::nullopt;
  return end - start;
}

StreamAgeOut::StreamAgeOut(BigDawg* dawg, StreamAgeOutConfig config)
    : dawg_(dawg), config_(std::move(config)) {}

Status StreamAgeOut::Attach() {
  if (config_.flush_rows == 0) {
    return Status::InvalidArgument("flush_rows must be > 0");
  }
  if (config_.max_history_rows == 0) {
    return Status::InvalidArgument("max_history_rows must be > 0");
  }
  // Snapshot the schemas up front: the age-out handler runs on the
  // executor thread with the engine state lock held, where calling back
  // into StreamEngine accessors would self-deadlock.
  //
  // Query the engine BEFORE taking mu_. OnAgeOut runs under the engine
  // state lock and takes mu_ (engine -> ageout); holding mu_ across
  // ListStreams/StreamSchema here would establish the reverse order
  // (ageout -> engine) — a lock-order inversion TSan rightly flags.
  std::vector<std::pair<std::string, Schema>> snapshot;
  for (const stream::StreamInfo& info : dawg_->sstore().ListStreams()) {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, dawg_->sstore().StreamSchema(info.name));
    snapshot.emplace_back(info.name, std::move(schema));
  }
  {
    std::lock_guard lock(mu_);
    for (auto& [name, schema] : snapshot) {
      if (streams_.count(name) > 0) continue;
      // The history schema prepends a monotonic arrival sequence. CAST
      // to array keys cells by the int64 dimension columns, so without
      // a per-row unique dimension two aged rows with equal keys (same
      // patient, say) would collapse into one cell — silently losing
      // history. hist_seq makes every aged row a distinct cell and
      // keeps the archive in age-out order after the round-trip.
      std::vector<Field> fields;
      fields.reserve(schema.num_fields() + 1);
      fields.emplace_back(kHistorySeqColumn, DataType::kInt64);
      for (size_t i = 0; i < schema.num_fields(); ++i) {
        fields.push_back(schema.field(i));
      }
      PerStream ps;
      ps.schema = Schema(std::move(fields));
      streams_.emplace(name, std::move(ps));
    }
  }
  // Outside mu_: SetAgeOutHandler takes the engine state lock.
  dawg_->sstore().SetAgeOutHandler(
      [this](const std::string& stream, const Row& row) {
        OnAgeOut(stream, row);
      });
  return Status::OK();
}

std::string StreamAgeOut::HistoryObjectName(const std::string& stream) const {
  return stream + config_.suffix;
}

void StreamAgeOut::OnAgeOut(const std::string& stream, const Row& row) {
  std::lock_guard lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;  // stream defined after Attach(): skip
  Row stamped;
  stamped.reserve(row.size() + 1);
  stamped.emplace_back(it->second.next_seq++);
  stamped.insert(stamped.end(), row.begin(), row.end());
  it->second.pending.push_back(std::move(stamped));
  if (it->second.pending.size() >= config_.flush_rows) {
    // Best-effort: a failed flush keeps the rows pending and is retried
    // on the next age-out (or an explicit FlushAll).
    (void)FlushLocked(stream, it->second);
  }
}

Status StreamAgeOut::FlushLocked(const std::string& stream, PerStream& ps) {
  if (ps.pending.empty()) return Status::OK();
  // The store either lands every pending row or changes nothing, so the
  // rows leave `pending` only on success (exactly-once).
  Result<HistoryWrite> write = dawg_->StoreStreamHistory(
      HistoryObjectName(stream), relational::Table(ps.schema, ps.pending),
      config_.max_history_rows);
  if (!write.ok()) {
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return write.status();
  }
  if (*write == HistoryWrite::kRebuilt) {
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }
  flushed_rows_.fetch_add(static_cast<int64_t>(ps.pending.size()),
                          std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  ps.pending.clear();
  return Status::OK();
}

Status StreamAgeOut::FlushAll() {
  std::lock_guard lock(mu_);
  Status first = Status::OK();
  for (auto& [name, ps] : streams_) {
    Status st = FlushLocked(name, ps);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

StreamAgeOutStats StreamAgeOut::GetStats() const {
  StreamAgeOutStats s;
  {
    std::lock_guard lock(mu_);
    for (const auto& [name, ps] : streams_) {
      s.pending_rows += static_cast<int64_t>(ps.pending.size());
    }
  }
  s.flushed_rows = flushed_rows_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.flush_failures = flush_failures_.load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
  return s;
}

void StreamAgeOut::ExportMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  const StreamAgeOutStats s = GetStats();
  registry->GetGauge("bigdawg_stream_ageout_pending_rows")
      ->Set(static_cast<double>(s.pending_rows));
  registry->GetGauge("bigdawg_stream_ageout_flushed_rows_total")
      ->Set(static_cast<double>(s.flushed_rows));
  registry->GetGauge("bigdawg_stream_ageout_flushes_total")
      ->Set(static_cast<double>(s.flushes));
  registry->GetGauge("bigdawg_stream_ageout_flush_failures_total")
      ->Set(static_cast<double>(s.flush_failures));
  registry->GetGauge("bigdawg_stream_ageout_rebuilds_total")
      ->Set(static_cast<double>(s.rebuilds));
}

}  // namespace bigdawg::core
