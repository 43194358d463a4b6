#ifndef BIGDAWG_CORE_CAST_H_
#define BIGDAWG_CORE_CAST_H_

#include <string>
#include <variant>
#include <vector>

#include "array/array.h"
#include "common/result.h"
#include "d4m/assoc_array.h"
#include "relational/table.h"
#include "tiledb/tiledb.h"

namespace bigdawg::core {

/// \brief Data models objects can be CAST between.
enum class DataModel : int { kRelation, kArray, kAssociative, kTileMatrix };

Result<DataModel> DataModelFromString(const std::string& name);
const char* DataModelToString(DataModel model);

/// \brief The data model an engine natively stores (the text and stream
/// engines surface their data relationally through the shims). Used to
/// label the `from` side of CAST trace spans.
const char* DataModelNameForEngine(const std::string& engine);

/// \brief An object in one of the three in-memory data models. Every
/// alternative is a copy-on-write handle, so copies share blocks.
using ModelValue = std::variant<relational::Table, array::Array, d4m::AssocArray>;

/// \brief A relation converted into `model` the way storing it on that
/// model's engine converts it. A tile matrix is held as the array view
/// the tile engine serves, so a source that is no 2-D matrix still fails.
Result<ModelValue> CastTableTo(const relational::Table& table, DataModel model);

// ---------------------------------------------------------------------------
// Direct (in-memory, binary) casts — the efficient path the paper calls
// for ("an access method that knows how to read binary data in parallel
// directly from another engine").
// ---------------------------------------------------------------------------

/// \brief Relation -> array. Integer columns become dimensions (in schema
/// order), numeric columns become attributes. Requires >= 1 int64 column
/// and >= 1 double column; rows with NULL dimension cells are rejected.
/// Dimension ranges are derived from the data. Each dimension's chunk
/// length is `chunk_length` clamped to its extent (hi - lo + 1), so a
/// dimension holding 4 values gets 4-cell chunks, not 256-cell ones; the
/// cell order is the same either way. The leading `growable_dims`
/// dimensions keep the full `chunk_length`, so the array can later grow
/// along them (Array::GrowDim) without re-chunking any cell.
Result<array::Array> TableToArray(const relational::Table& table,
                                  int64_t chunk_length = 256,
                                  size_t growable_dims = 0);

/// Writes every row of `table` into `out` as one cell, with TableToArray's
/// column mapping: int64 columns are coordinates and double columns
/// attribute values, each in schema order, NULL attributes read as 0.
/// InvalidArgument unless those columns are named like `out`'s dimensions
/// and attributes; OutOfRange for a row outside `out`'s box (earlier rows
/// stay written).
Status SetTableCells(const relational::Table& table, array::Array* out);

/// \brief Array -> relation: one row per non-empty cell in Scan order,
/// dimensions first (int64), then attributes (double). The table is born
/// from columns: it holds typed slices and builds no rows until asked.
Result<relational::Table> ArrayToTable(const array::Array& array);

/// \brief Relation -> associative array. The first column supplies row
/// keys; every other column contributes a (row, column-name, value) cell.
Result<d4m::AssocArray> TableToAssoc(const relational::Table& table);

/// \brief Associative array -> relation of (row, col, value) triples; the
/// value column is double when all values are numeric, string otherwise.
Result<relational::Table> AssocToTable(const d4m::AssocArray& assoc);

/// \brief 2-D array (attribute 0) -> TileDB matrix.
Result<tiledb::TileDbArray> ArrayToTileMatrix(const array::Array& array,
                                              int64_t tile_rows = 64,
                                              int64_t tile_cols = 64);

/// \brief TileDB matrix -> 2-D array with attribute "val".
Result<array::Array> TileMatrixToArray(const tiledb::TileDbArray& matrix,
                                       int64_t chunk_length = 64);

/// \brief Associative array -> 2-D array: row/col keys are ordinally
/// encoded (sorted order); only numeric cells transfer.
Result<array::Array> AssocToArray(const d4m::AssocArray& assoc);

// ---------------------------------------------------------------------------
// File-based cast: the import/export baseline the paper says direct casts
// must beat (experiment C4). Every model's binary serialization is
// core/wire_format.
// ---------------------------------------------------------------------------

/// \brief Round-trips a relation through a CSV file on disk (export +
/// re-import), returning the re-imported table. Used as the slow-path
/// baseline; `path` is created/overwritten.
Result<relational::Table> TableViaCsvFile(const relational::Table& table,
                                          const std::string& path);

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_CAST_H_
