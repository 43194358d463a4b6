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
  const Rep& rep = *rep_;
  if (row >= rep.rows.size()) {
    return Status::OutOfRange("row index " + std::to_string(row) + " >= " +
                              std::to_string(rep.rows.size()));
  }
  BIGDAWG_ASSIGN_OR_RETURN(size_t idx, schema().IndexOf(column));
  return rep.rows[row][idx];
}

std::string Table::ToString(size_t max_rows) const {
  const Schema& schema = this->schema();
  const std::vector<Row>& rows = rep_->rows;
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
