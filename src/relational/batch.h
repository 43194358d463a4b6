#ifndef BIGDAWG_RELATIONAL_BATCH_H_
#define BIGDAWG_RELATIONAL_BATCH_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/columnar.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "relational/table.h"

namespace bigdawg::relational {

/// \brief Row ids or batch positions (a batch holds fewer than 2^32 rows).
using RowIds = std::vector<uint32_t>;

/// \brief A list of positions: `ids[0..size)`, or 0..size-1 when `ids` is
/// null.
struct Selection {
  const uint32_t* ids = nullptr;
  size_t size = 0;

  uint32_t operator[](size_t k) const {
    return ids != nullptr ? ids[k] : static_cast<uint32_t>(k);
  }
  /// The first `n` positions of this selection.
  Selection Prefix(size_t n) const { return {ids, n}; }

  static Selection All(size_t n) { return {nullptr, n}; }
  static Selection Of(const RowIds& ids) { return {ids.data(), ids.size()}; }
};

/// \brief What the relational operators pass each other: columns of
/// shared, immutable blocks, each seen through a row-id vector. A Select
/// narrows the ids, a Join pairs them, a rename swaps the schema; none
/// copies a row. Rows are built only by Project, Aggregate and
/// Materialize.
struct Batch {
  /// A block and the rows of it this batch holds, in batch order.
  struct Source {
    Table table;
    std::shared_ptr<const RowIds> rows;  // null: every row of `table`
  };
  /// Column `column` of source `source`.
  struct ColumnRef {
    uint32_t source = 0;
    uint32_t column = 0;
  };
  /// A column's typed slice (built on first use and memoized on its
  /// block) and the map from batch position to slice row (null: identity).
  struct Column {
    std::shared_ptr<const common::ColumnSlice> slice;
    const uint32_t* rows = nullptr;
  };

  Schema schema;
  std::vector<Source> sources;
  std::vector<ColumnRef> columns;  // parallel to schema
  size_t num_rows = 0;

  /// Every row of `table`, presented under `schema` (the table's own
  /// schema, or a rename of it).
  static Batch Of(Table table, Schema schema);
  static Batch Of(Table table);

  Column ColumnAt(size_t i) const;
  /// The cell at (position, column), read from the block's rows, or
  /// from its column slice when the block has no row storage.
  Value ValueAt(size_t pos, size_t column) const;

  /// The rows at `positions`, in that order.
  Batch Take(const RowIds& positions) const;
  /// `left` ++ `right` column-wise; both must have the same row count.
  static Batch Concat(const Batch& left, const Batch& right, Schema schema);

  /// The batch as a Table. A batch that is a whole block under a rename
  /// shares that block; any other builds its rows, counting them in
  /// `*rows_materialized` when given. Cells come from a block's rows, or
  /// from its slices when it has no row storage.
  Table Materialize(int64_t* rows_materialized) const;
};

/// \brief Calls f(k, row) for each position k of `sel`, with `row` the
/// slice row of `col` at that batch position.
template <typename F>
void ForEachRow(const Batch::Column& col, Selection sel, F&& f) {
  const size_t n = sel.size;
  if (col.rows == nullptr && sel.ids == nullptr) {
    for (size_t k = 0; k < n; ++k) f(k, k);
  } else if (col.rows == nullptr) {
    for (size_t k = 0; k < n; ++k) f(k, sel.ids[k]);
  } else if (sel.ids == nullptr) {
    for (size_t k = 0; k < n; ++k) f(k, col.rows[k]);
  } else {
    for (size_t k = 0; k < n; ++k) f(k, col.rows[sel.ids[k]]);
  }
}

/// \brief An expression's typed results over a selection: entry k belongs
/// to the selection's k-th position. `scalar` vectors hold one entry that
/// stands for every position (literals and expressions of literals).
///
/// String entries point into a slice dictionary of the evaluated batch's
/// blocks or into a literal of the expression, so a Vector must not
/// outlive either.
///
/// Evaluation stops at the first error in position order: entries
/// [0, error_at) are defined and `error` is the status the row at
/// error_at raised. Later stages of an expression evaluate only that
/// prefix, so the error an expression reports is the one a row-at-a-time
/// evaluation would have hit first.
struct Vector {
  common::SliceKind kind = common::SliceKind::kMixed;
  bool scalar = false;
  size_t size = 0;                       // entries (1 when scalar)
  std::vector<uint8_t> nulls;            // 1 = NULL
  std::vector<uint8_t> bools;            // kBool
  std::vector<int64_t> ints;             // kInt64
  std::vector<double> doubles;           // kDouble
  std::vector<const std::string*> strings;  // kString
  std::vector<Value> values;             // kMixed

  size_t error_at = std::numeric_limits<size_t>::max();
  Status error;

  /// Entry index for position k (0 for a scalar).
  size_t At(size_t k) const { return scalar ? 0 : k; }
  bool IsNull(size_t k) const { return nulls[At(k)] != 0; }
  /// Entry k as a Value.
  Value Get(size_t k) const;

  /// Sizes the vector for `n` entries of `kind`, all NULL-free.
  void Reset(common::SliceKind kind, size_t n, bool scalar);
  /// Records `status` at k unless an earlier error is already recorded.
  void Fail(size_t k, Status status) {
    if (k < error_at) {
      error_at = k;
      error = std::move(status);
    }
  }
  bool ok() const { return error_at == std::numeric_limits<size_t>::max(); }
  /// Number of defined entries among the first `n` positions.
  size_t Valid(size_t n) const { return error_at < n ? error_at : n; }
};

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_BATCH_H_
