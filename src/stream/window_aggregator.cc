#include "stream/window_aggregator.h"

#include <optional>

namespace bigdawg::stream {

void WindowAggregator::Append(double v, int64_t seq) {
  ++count_;
  sum_ += v;
  while (!min_q_.empty() && min_q_.back().second >= v) min_q_.pop_back();
  min_q_.emplace_back(seq, v);
  while (!max_q_.empty() && max_q_.back().second <= v) max_q_.pop_back();
  max_q_.emplace_back(seq, v);
}

void WindowAggregator::Evict(double v, int64_t seq) {
  --count_;
  sum_ -= v;
  if (count_ == 0) sum_ = 0;  // cancel accumulated floating-point drift
  if (!min_q_.empty() && min_q_.front().first == seq) min_q_.pop_front();
  if (!max_q_.empty() && max_q_.front().first == seq) max_q_.pop_front();
}

AggregateSnapshot WindowAggregator::Snapshot() const {
  AggregateSnapshot s;
  s.count = count_;
  s.sum = sum_;
  if (count_ > 0) {
    s.min = min_q_.front().second;
    s.max = max_q_.front().second;
    s.avg = sum_ / static_cast<double>(count_);
  }
  return s;
}

void WindowAggregateBank::Bind(const Schema& schema) {
  slots_.clear();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.fields()[i];
    if (!IsNumeric(field.type)) continue;
    Slot slot;
    slot.column = field.name;
    slot.field = i;
    slots_.push_back(std::move(slot));
  }
}

void WindowAggregateBank::Append(const Row& row, int64_t seq) {
  for (Slot& slot : slots_) {
    if (slot.field >= row.size()) continue;
    Result<double> v = row[slot.field].ToNumeric();
    if (v.ok()) slot.agg.Append(*v, seq);
  }
}

void WindowAggregateBank::AppendColumn(size_t field,
                                       const common::ColumnView& view,
                                       int64_t first_seq) {
  for (Slot& slot : slots_) {
    if (slot.field != field) continue;
    const size_t n = view.size();
    for (size_t i = 0; i < n; ++i) {
      std::optional<double> v = view.NumericAt(i);
      if (v.has_value()) slot.agg.Append(*v, first_seq + static_cast<int64_t>(i));
    }
    return;
  }
}

void WindowAggregateBank::Evict(const Row& row, int64_t seq) {
  for (Slot& slot : slots_) {
    if (slot.field >= row.size()) continue;
    Result<double> v = row[slot.field].ToNumeric();
    if (v.ok()) slot.agg.Evict(*v, seq);
  }
}

std::vector<ColumnAggregate> WindowAggregateBank::Snapshot() const {
  std::vector<ColumnAggregate> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back({slot.column, slot.agg.Snapshot()});
  }
  return out;
}

Result<AggregateSnapshot> WindowAggregateBank::ColumnSnapshot(
    size_t field) const {
  for (const Slot& slot : slots_) {
    if (slot.field == field) return slot.agg.Snapshot();
  }
  return Status::NotFound("field " + std::to_string(field) +
                          " is not an aggregated (numeric) window column");
}

}  // namespace bigdawg::stream
