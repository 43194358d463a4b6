#include "relational/batch.h"

namespace bigdawg::relational {

Batch Batch::Of(Table table, Schema schema) {
  Batch out;
  out.schema = std::move(schema);
  out.num_rows = table.num_rows();
  out.columns.resize(out.schema.num_fields());
  for (size_t i = 0; i < out.columns.size(); ++i) {
    out.columns[i] = ColumnRef{0, static_cast<uint32_t>(i)};
  }
  out.sources.push_back(Source{std::move(table), nullptr});
  return out;
}

Batch Batch::Of(Table table) {
  Schema schema = table.schema();
  return Of(std::move(table), std::move(schema));
}

Batch::Column Batch::ColumnAt(size_t i) const {
  const ColumnRef& ref = columns[i];
  const Source& src = sources[ref.source];
  return Column{src.table.ColumnAt(ref.column).slice(),
                src.rows != nullptr ? src.rows->data() : nullptr};
}

Value Batch::ValueAt(size_t pos, size_t column) const {
  const ColumnRef& ref = columns[column];
  const Source& src = sources[ref.source];
  const size_t row = src.rows != nullptr ? (*src.rows)[pos] : pos;
  // A block with rows answers from them: one cell must not build the
  // slice of a whole column.
  if (src.table.HasRowStorage()) return src.table.rows()[row][ref.column];
  return src.table.ColumnAt(ref.column).slice()->ValueAt(row);
}

Batch Batch::Take(const RowIds& positions) const {
  Batch out;
  out.schema = schema;
  out.columns = columns;
  out.num_rows = positions.size();
  // Sources that shared a row-id vector share the composed one.
  std::vector<std::pair<const RowIds*, std::shared_ptr<const RowIds>>> composed;
  for (const Source& src : sources) {
    std::shared_ptr<const RowIds> rows;
    for (const auto& [from, to] : composed) {
      if (from == src.rows.get()) rows = to;
    }
    if (rows == nullptr) {
      auto ids = std::make_shared<RowIds>(positions);
      if (src.rows != nullptr) {
        for (uint32_t& id : *ids) id = (*src.rows)[id];
      }
      rows = std::move(ids);
      composed.emplace_back(src.rows.get(), rows);
    }
    out.sources.push_back(Source{src.table, std::move(rows)});
  }
  return out;
}

Batch Batch::Concat(const Batch& left, const Batch& right, Schema schema) {
  Batch out;
  out.schema = std::move(schema);
  out.num_rows = left.num_rows;
  out.sources = left.sources;
  out.sources.insert(out.sources.end(), right.sources.begin(), right.sources.end());
  out.columns = left.columns;
  const auto offset = static_cast<uint32_t>(left.sources.size());
  for (ColumnRef ref : right.columns) {
    ref.source += offset;
    out.columns.push_back(ref);
  }
  return out;
}

Table Batch::Materialize(int64_t* rows_materialized) const {
  bool whole_block = !columns.empty();
  for (size_t i = 0; whole_block && i < columns.size(); ++i) {
    whole_block = columns[i].source == columns[0].source && columns[i].column == i;
  }
  if (whole_block) {
    const Source& src = sources[columns[0].source];
    if (src.rows == nullptr && src.table.schema().num_fields() == columns.size()) {
      return src.table.WithSchema(schema);
    }
  }
  std::vector<Row> rows(num_rows);
  for (Row& row : rows) row.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const Source& src = sources[columns[c].source];
    const uint32_t column = columns[c].column;
    const uint32_t* ids = src.rows != nullptr ? src.rows->data() : nullptr;
    if (src.table.HasRowStorage()) {
      const std::vector<Row>& block = src.table.rows();
      for (size_t pos = 0; pos < num_rows; ++pos) {
        rows[pos].push_back(block[ids != nullptr ? ids[pos] : pos][column]);
      }
    } else {
      const common::ColumnView view = src.table.ColumnAt(column);
      const common::ColumnSlice& slice = *view.slice();
      for (size_t pos = 0; pos < num_rows; ++pos) {
        rows[pos].push_back(slice.ValueAt(ids != nullptr ? ids[pos] : pos));
      }
    }
  }
  if (rows_materialized != nullptr) *rows_materialized += static_cast<int64_t>(num_rows);
  return Table(schema, std::move(rows));
}

Value Vector::Get(size_t k) const {
  const size_t i = At(k);
  if (nulls[i] != 0) return Value::Null();
  switch (kind) {
    case common::SliceKind::kBool:
      return Value(bools[i] != 0);
    case common::SliceKind::kInt64:
      return Value(ints[i]);
    case common::SliceKind::kDouble:
      return Value(doubles[i]);
    case common::SliceKind::kString:
      return Value(*strings[i]);
    case common::SliceKind::kMixed:
      break;
  }
  return values[i];
}

void Vector::Reset(common::SliceKind new_kind, size_t n, bool is_scalar) {
  kind = new_kind;
  scalar = is_scalar;
  size = is_scalar ? 1 : n;
  nulls.assign(size, 0);
  bools.clear();
  ints.clear();
  doubles.clear();
  strings.clear();
  values.clear();
  switch (kind) {
    case common::SliceKind::kBool:
      bools.resize(size);
      break;
    case common::SliceKind::kInt64:
      ints.resize(size);
      break;
    case common::SliceKind::kDouble:
      doubles.resize(size);
      break;
    case common::SliceKind::kString:
      strings.resize(size);
      break;
    case common::SliceKind::kMixed:
      values.resize(size);
      break;
  }
}

}  // namespace bigdawg::relational
