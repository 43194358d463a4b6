#include "relational/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/macros.h"

namespace bigdawg::relational {

Table::Table(Schema schema) {
  auto rep = std::make_shared<Rep>();
  rep->schema = std::move(schema);
  rep_ = common::CowPtr<Rep>(std::move(rep));
}

Table::Table(Schema schema, std::vector<Row> rows) {
  auto rep = std::make_shared<Rep>();
  rep->schema = std::move(schema);
  rep->rows = std::move(rows);
  rep_ = common::CowPtr<Rep>(std::move(rep));
}

Table Table::FromColumns(Schema schema,
                         std::vector<std::shared_ptr<const common::ColumnSlice>> slices) {
  BIGDAWG_CHECK(slices.size() == schema.num_fields());
  const size_t n = slices.empty() ? 0 : slices[0]->size;
  int64_t bytes = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    BIGDAWG_CHECK(slices[i] != nullptr && slices[i]->size == n &&
                  slices[i]->declared_type == schema.field(i).type);
    bytes += slices[i]->byte_size;
  }
  auto rep = std::make_shared<Rep>();
  rep->schema = std::move(schema);
  rep->slices = std::move(slices);
  rep->from_columns = true;
  rep->column_rows = n;
  rep->has_rows.store(false, std::memory_order_relaxed);
  rep->has_slices.store(true, std::memory_order_relaxed);
  rep->bytes.store(bytes, std::memory_order_relaxed);
  Table out;
  out.rep_ = common::CowPtr<Rep>(std::move(rep));
  return out;
}

Table::Rep::Rep(const Rep& o) : common::CowCount(), schema(o.schema) {
  if (!o.from_columns) {
    rows = o.rows;
    return;
  }
  // A clone only ever feeds a thaw, which builds rows from the slices on
  // the private copy; the shared original keeps its row memo unbuilt.
  // Slices of a block born from columns are never written, so they are
  // read without the lock.
  from_columns = true;
  column_rows = o.column_rows;
  slices = o.slices;
  has_slices.store(true, std::memory_order_relaxed);
  if (o.has_rows.load(std::memory_order_acquire)) {
    rows = o.rows;
  } else {
    has_rows.store(false, std::memory_order_relaxed);
  }
}

const std::vector<Row>& Table::Rep::BuildRows() const {
  std::lock_guard lock(slice_mu);
  if (!has_rows.load(std::memory_order_relaxed)) {
    rows.assign(column_rows, Row());
    for (Row& row : rows) row.reserve(slices.size());
    for (const std::shared_ptr<const common::ColumnSlice>& slice : slices) {
      for (size_t r = 0; r < column_rows; ++r) rows[r].push_back(slice->ValueAt(r));
    }
    has_rows.store(true, std::memory_order_release);
  }
  return rows;
}

Table Table::WithSchema(Schema schema) const {
  BIGDAWG_CHECK(schema.num_fields() == rep_->schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    BIGDAWG_CHECK(schema.field(i).type == rep_->schema.field(i).type);
  }
  Table out = *this;
  out.renamed_ = schema == rep_->schema
                     ? nullptr
                     : std::make_shared<const Schema>(std::move(schema));
  return out;
}

Table::Rep* Table::ThawRep() {
  Rep* rep = rep_.Mutable();
  if (renamed_ != nullptr) {
    rep->schema = *renamed_;
    renamed_.reset();
  }
  if (rep->from_columns) {
    rep->Rows();
    rep->from_columns = false;
  }
  rep->bytes.store(-1, std::memory_order_relaxed);
  if (rep->has_slices.load(std::memory_order_relaxed)) {
    std::lock_guard lock(rep->slice_mu);
    rep->slices.clear();
    rep->has_slices.store(false, std::memory_order_relaxed);
  }
  return rep;
}

Table& Table::Thaw() {
  ThawRep();
  return *this;
}

const Table& Table::Freeze() const {
  ByteSize();
  return *this;
}

int64_t Table::ByteSize() const {
  const Rep& rep = *rep_;
  int64_t b = rep.bytes.load(std::memory_order_relaxed);
  if (b >= 0) return b;
  b = 0;
  for (const Row& row : rep.rows) {
    for (const Value& value : row) b += common::ValueByteSize(value);
  }
  rep.bytes.store(b, std::memory_order_relaxed);
  return b;
}

Status Table::Append(Row row) {
  BIGDAWG_RETURN_NOT_OK(schema().ValidateRow(row));
  ThawRep()->rows.push_back(std::move(row));
  return Status::OK();
}

Result<common::ColumnView> Table::Column(const std::string& name) const {
  BIGDAWG_ASSIGN_OR_RETURN(size_t idx, schema().IndexOf(name));
  return ColumnAt(idx);
}

common::ColumnView Table::ColumnAt(size_t idx) const {
  const Rep& rep = *rep_;
  if (rep.from_columns) return common::ColumnView(rep.slices[idx]);
  std::lock_guard lock(rep.slice_mu);
  if (rep.slices.size() != rep.schema.num_fields()) {
    rep.slices.assign(rep.schema.num_fields(), nullptr);
  }
  std::shared_ptr<const common::ColumnSlice>& slot = rep.slices[idx];
  if (slot == nullptr) {
    slot = std::make_shared<const common::ColumnSlice>(
        common::BuildColumnSlice(rep.schema, rep.rows, idx));
    rep.has_slices.store(true, std::memory_order_relaxed);
  }
  return common::ColumnView(slot);
}

Result<Value> Table::At(size_t row, const std::string& column) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row index " + std::to_string(row) + " >= " +
                              std::to_string(num_rows()));
  }
  BIGDAWG_ASSIGN_OR_RETURN(size_t idx, schema().IndexOf(column));
  return rows()[row][idx];
}

std::string Table::ToString(size_t max_rows) const {
  const Schema& schema = this->schema();
  const std::vector<Row>& rows = this->rows();
  std::vector<size_t> widths(schema.num_fields());
  std::vector<std::vector<std::string>> cells;
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    widths[c] = schema.field(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      line.push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream oss;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    oss << (c ? " | " : "");
    oss << schema.field(c).name;
    oss << std::string(widths[c] - schema.field(c).name.size(), ' ');
  }
  oss << "\n";
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    oss << (c ? "-+-" : "") << std::string(widths[c], '-');
  }
  oss << "\n";
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) {
      oss << (c ? " | " : "") << line[c] << std::string(widths[c] - line[c].size(), ' ');
    }
    oss << "\n";
  }
  if (shown < rows.size()) {
    oss << "... (" << rows.size() - shown << " more rows)\n";
  }
  return oss.str();
}

}  // namespace bigdawg::relational
