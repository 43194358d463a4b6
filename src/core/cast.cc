#include "core/cast.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "common/columnar.h"
#include "common/csv.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/catalog.h"

namespace bigdawg::core {

Result<DataModel> DataModelFromString(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "relation" || lower == "relational" || lower == "table") {
    return DataModel::kRelation;
  }
  if (lower == "array") return DataModel::kArray;
  if (lower == "assoc" || lower == "associative") return DataModel::kAssociative;
  if (lower == "tile" || lower == "tilematrix") return DataModel::kTileMatrix;
  return Status::InvalidArgument("unknown data model: " + name);
}

const char* DataModelToString(DataModel model) {
  switch (model) {
    case DataModel::kRelation:
      return "relation";
    case DataModel::kArray:
      return "array";
    case DataModel::kAssociative:
      return "associative";
    case DataModel::kTileMatrix:
      return "tilematrix";
  }
  return "?";
}

const char* DataModelNameForEngine(const std::string& engine) {
  if (engine == kEngineSciDb) return "array";
  if (engine == kEngineTileDb) return "tilematrix";
  if (engine == kEngineD4m) return "associative";
  // postgres, and the text (accumulo) / streaming (sstore) engines whose
  // shims surface data relationally.
  return "relation";
}

Result<ModelValue> CastTableTo(const relational::Table& table, DataModel model) {
  if (model == DataModel::kRelation) return ModelValue(table);
  if (model == DataModel::kAssociative) {
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray assoc, TableToAssoc(table));
    return ModelValue(std::move(assoc));
  }
  BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TableToArray(table));
  if (model == DataModel::kTileMatrix) {
    BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m, ArrayToTileMatrix(a));
    BIGDAWG_ASSIGN_OR_RETURN(a, TileMatrixToArray(m));
  }
  return ModelValue(std::move(a));
}

namespace {

/// Splits a relation's columns into int64 dimensions and double
/// attributes (each in schema order); TypeError for any other type.
Status SplitArrayColumns(const Schema& schema, std::vector<size_t>* dim_cols,
                         std::vector<size_t>* attr_cols) {
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& f = schema.field(i);
    if (f.type == DataType::kInt64) {
      dim_cols->push_back(i);
    } else if (f.type == DataType::kDouble) {
      attr_cols->push_back(i);
    } else {
      return Status::TypeError("column '" + f.name +
                               "' is neither int64 (dimension) nor double "
                               "(attribute); CAST to array unsupported");
    }
  }
  return Status::OK();
}

/// The dimension columns as shared slices; InvalidArgument on a NULL.
Result<std::vector<common::ColumnView>> DimensionViews(
    const relational::Table& table, const std::vector<size_t>& dim_cols) {
  std::vector<common::ColumnView> views;
  views.reserve(dim_cols.size());
  for (size_t c : dim_cols) {
    views.push_back(table.ColumnAt(c));
    if (views.back().null_count() > 0) {
      return Status::InvalidArgument("NULL in dimension column '" +
                                     table.schema().field(c).name + "'");
    }
  }
  return views;
}

}  // namespace

Result<array::Array> TableToArray(const relational::Table& table,
                                  int64_t chunk_length, size_t growable_dims) {
  std::vector<size_t> dim_cols;
  std::vector<size_t> attr_cols;
  BIGDAWG_RETURN_NOT_OK(SplitArrayColumns(table.schema(), &dim_cols, &attr_cols));
  if (dim_cols.empty()) {
    return Status::FailedPrecondition("relation has no int64 dimension column");
  }
  if (attr_cols.empty()) {
    return Status::FailedPrecondition("relation has no double attribute column");
  }

  // Columnar passes over shared slices: bounds come from one contiguous
  // scan per dimension column, with the null bitmap checked up front.
  const size_t n = table.num_rows();
  if (n == 0) {
    return Status::FailedPrecondition("cannot CAST an empty relation to array");
  }
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<common::ColumnView> dim_views,
                           DimensionViews(table, dim_cols));
  std::vector<array::Dimension> dims;
  for (size_t d = 0; d < dim_cols.size(); ++d) {
    const common::ColumnView& view = dim_views[d];
    int64_t lo = view.Int64At(0);
    int64_t hi = lo;
    for (size_t r = 1; r < n; ++r) {
      int64_t coord = view.Int64At(r);
      lo = std::min(lo, coord);
      hi = std::max(hi, coord);
    }
    // A dimension shorter than a chunk gets one chunk exactly its length:
    // same cell order, without allocating the cells past its end.
    const int64_t extent = hi - lo + 1;
    dims.emplace_back(table.schema().field(dim_cols[d]).name, lo, extent,
                      d < growable_dims ? chunk_length
                                        : std::min(chunk_length, extent));
  }
  std::vector<std::string> attrs;
  for (size_t a : attr_cols) attrs.push_back(table.schema().field(a).name);

  BIGDAWG_ASSIGN_OR_RETURN(array::Array out,
                           array::Array::Create(std::move(dims), std::move(attrs)));
  BIGDAWG_RETURN_NOT_OK(SetTableCells(table, &out));
  return out;
}

Status SetTableCells(const relational::Table& table, array::Array* out) {
  std::vector<size_t> dim_cols;
  std::vector<size_t> attr_cols;
  BIGDAWG_RETURN_NOT_OK(SplitArrayColumns(table.schema(), &dim_cols, &attr_cols));
  bool same_shape = dim_cols.size() == out->num_dims() &&
                    attr_cols.size() == out->num_attrs();
  for (size_t d = 0; same_shape && d < dim_cols.size(); ++d) {
    same_shape = table.schema().field(dim_cols[d]).name == out->dims()[d].name;
  }
  for (size_t a = 0; same_shape && a < attr_cols.size(); ++a) {
    same_shape = table.schema().field(attr_cols[a]).name == out->attrs()[a];
  }
  if (!same_shape) {
    return Status::InvalidArgument(
        "relation columns do not match the array's dimensions and attributes");
  }
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<common::ColumnView> dim_views,
                           DimensionViews(table, dim_cols));
  std::vector<common::ColumnView> attr_views;
  attr_views.reserve(attr_cols.size());
  for (size_t c : attr_cols) attr_views.push_back(table.ColumnAt(c));
  array::Coordinates coords(dim_cols.size());
  std::vector<double> values(attr_cols.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t d = 0; d < dim_cols.size(); ++d) {
      coords[d] = dim_views[d].Int64At(r);
    }
    for (size_t a = 0; a < attr_cols.size(); ++a) {
      const common::ColumnView& view = attr_views[a];
      values[a] = view.IsNull(r) ? 0.0 : view.DoubleAt(r);
    }
    BIGDAWG_RETURN_NOT_OK(out->Set(coords, values));
  }
  return Status::OK();
}

Result<relational::Table> ArrayToTable(const array::Array& array) {
  std::vector<Field> fields;
  for (const array::Dimension& d : array.dims()) {
    fields.emplace_back(d.name, DataType::kInt64);
  }
  for (const std::string& a : array.attrs()) {
    fields.emplace_back(a, DataType::kDouble);
  }
  // One Scan pass appends each filled cell to typed columns; no Row is
  // built (the table builds rows only if a reader asks for them).
  const size_t cells = static_cast<size_t>(array.NonEmptyCount());
  std::vector<std::vector<int64_t>> dims(array.num_dims());
  std::vector<std::vector<double>> attrs(array.num_attrs());
  for (auto& column : dims) column.reserve(cells);
  for (auto& column : attrs) column.reserve(cells);
  array.Scan([&dims, &attrs](const array::Coordinates& coords,
                             const std::vector<double>& values) {
    for (size_t d = 0; d < coords.size(); ++d) dims[d].push_back(coords[d]);
    for (size_t a = 0; a < values.size(); ++a) attrs[a].push_back(values[a]);
    return true;
  });
  std::vector<std::shared_ptr<const common::ColumnSlice>> slices;
  slices.reserve(fields.size());
  for (auto& column : dims) {
    slices.push_back(
        std::make_shared<const common::ColumnSlice>(common::Int64Slice(std::move(column))));
  }
  for (auto& column : attrs) {
    slices.push_back(
        std::make_shared<const common::ColumnSlice>(common::DoubleSlice(std::move(column))));
  }
  return relational::Table::FromColumns(Schema(std::move(fields)), std::move(slices));
}

Result<d4m::AssocArray> TableToAssoc(const relational::Table& table) {
  if (table.schema().num_fields() < 2) {
    return Status::FailedPrecondition(
        "CAST to associative needs a key column plus >= 1 value column");
  }
  // Columnar pass over shared slices: one contiguous scan per column
  // instead of a variant hop per cell of every row, and the null bitmap
  // answers "structural zero?" without touching the value.
  const size_t n = table.num_rows();
  common::ColumnView keys = table.ColumnAt(0);
  std::vector<std::string> row_keys(n);
  for (size_t r = 0; r < n; ++r) {
    if (!keys.IsNull(r)) row_keys[r] = keys[r].ToString();
  }
  d4m::AssocArray out;
  for (size_t c = 1; c < table.schema().num_fields(); ++c) {
    common::ColumnView col = table.ColumnAt(c);
    const std::string& col_key = table.schema().field(c).name;
    for (size_t r = 0; r < n; ++r) {
      if (keys.IsNull(r) || col.IsNull(r)) continue;
      out.Set(row_keys[r], col_key, col[r]);
    }
  }
  return out;
}

Result<relational::Table> AssocToTable(const d4m::AssocArray& assoc) {
  bool all_numeric = true;
  assoc.ForEach([&all_numeric](const std::string&, const std::string&, const Value& v) {
    if (!v.ToNumeric().ok()) all_numeric = false;
  });
  Schema schema({Field("row", DataType::kString), Field("col", DataType::kString),
                 Field("value", all_numeric ? DataType::kDouble : DataType::kString)});
  relational::Table out{schema};
  assoc.ForEach([&](const std::string& r, const std::string& c, const Value& v) {
    Value cell = all_numeric ? Value(*v.ToNumeric()) : Value(v.ToString());
    out.AppendUnchecked({Value(r), Value(c), std::move(cell)});
  });
  return out;
}

Result<tiledb::TileDbArray> ArrayToTileMatrix(const array::Array& array,
                                              int64_t tile_rows,
                                              int64_t tile_cols) {
  if (array.num_dims() != 2) {
    return Status::FailedPrecondition("CAST to tilematrix requires a 2-D array");
  }
  const auto& dims = array.dims();
  tiledb::TileSchema schema{dims[0].length, dims[1].length, tile_rows, tile_cols};
  BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray out, tiledb::TileDbArray::Create(schema));
  Status st = Status::OK();
  array.Scan([&](const array::Coordinates& coords, const std::vector<double>& values) {
    st = out.Write(coords[0] - dims[0].start, coords[1] - dims[1].start, values[0]);
    return st.ok();
  });
  BIGDAWG_RETURN_NOT_OK(st);
  BIGDAWG_RETURN_NOT_OK(out.Consolidate());
  return out;
}

Result<array::Array> TileMatrixToArray(const tiledb::TileDbArray& matrix,
                                       int64_t chunk_length) {
  const tiledb::TileSchema& ts = matrix.schema();
  BIGDAWG_ASSIGN_OR_RETURN(
      array::Array out,
      array::Array::Create({array::Dimension("row", 0, ts.rows, chunk_length),
                            array::Dimension("col", 0, ts.cols, chunk_length)},
                           {"val"}));
  Status st = Status::OK();
  matrix.ForEachNonZero([&](int64_t r, int64_t c, double v) {
    if (st.ok()) st = out.Set({r, c}, {v});
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<array::Array> AssocToArray(const d4m::AssocArray& assoc) {
  std::vector<std::string> rows = assoc.RowKeys();
  std::vector<std::string> cols = assoc.ColKeys();
  if (rows.empty() || cols.empty()) {
    return Status::FailedPrecondition("cannot CAST an empty associative array");
  }
  std::map<std::string, int64_t> row_index, col_index;
  for (size_t i = 0; i < rows.size(); ++i) row_index[rows[i]] = static_cast<int64_t>(i);
  for (size_t i = 0; i < cols.size(); ++i) col_index[cols[i]] = static_cast<int64_t>(i);
  BIGDAWG_ASSIGN_OR_RETURN(
      array::Array out,
      array::Array::Create(
          {array::Dimension("row", 0, static_cast<int64_t>(rows.size()), 64),
           array::Dimension("col", 0, static_cast<int64_t>(cols.size()), 64)},
          {"val"}));
  Status st = Status::OK();
  assoc.ForEach([&](const std::string& r, const std::string& c, const Value& v) {
    Result<double> num = v.ToNumeric();
    if (!num.ok() || !st.ok()) return;
    st = out.Set({row_index[r], col_index[c]}, {*num});
  });
  BIGDAWG_RETURN_NOT_OK(st);
  return out;
}

Result<relational::Table> TableViaCsvFile(const relational::Table& table,
                                          const std::string& path) {
  {
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError("cannot open for write: " + path);
    }
    out << RowsToCsv(table.schema(), table.rows());
    if (!out.good()) return Status::IOError("write failed: " + path);
  }
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  BIGDAWG_ASSIGN_OR_RETURN(auto parsed, CsvToRows(buffer.str()));
  return relational::Table(std::move(parsed.first), std::move(parsed.second));
}

}  // namespace bigdawg::core
