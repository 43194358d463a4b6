#ifndef BIGDAWG_RELATIONAL_TABLE_H_
#define BIGDAWG_RELATIONAL_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/columnar.h"
#include "common/cow.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"

namespace bigdawg::relational {

/// \brief An in-memory relation: a schema plus row-major tuple storage.
///
/// Tables are the unit the relational engine stores and every SELECT
/// materializes into. They are also the canonical "relation" form that
/// polystore CASTs convert to and from.
///
/// A Table is a cheap handle over an immutable, refcounted block (schema
/// + rows + memoized columnar metadata). Copies, moves, cast-cache hits,
/// engine snapshot reads, and island-to-island handoffs are pointer
/// swaps; the first mutation of a shared handle clones the block
/// (copy-on-write), so data reachable from two handles is never written
/// through either. `Thaw()`/`mutable_rows()` is the explicit write
/// transition; `Freeze()` finalizes the block's metadata for shared
/// readers.
///
/// Aliasing contract: references returned by rows()/schema()/Column()
/// stay valid while this handle is alive and unmutated. Mutating one
/// handle never invalidates data seen through another — the other handle
/// keeps the original block alive.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  Table(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return renamed_ ? *renamed_ : rep_->schema; }
  const std::vector<Row>& rows() const { return rep_->rows; }
  /// Write escape hatch: thaws (clones a shared block) and returns the
  /// exclusively owned row storage.
  std::vector<Row>& mutable_rows() { return ThawRep()->rows; }
  size_t num_rows() const { return rep_->rows.size(); }

  /// Appends after validating against the schema.
  Status Append(Row row);
  /// Appends without validation (hot loading paths).
  void AppendUnchecked(Row row) { ThawRep()->rows.push_back(std::move(row)); }

  /// Ensures this handle exclusively owns its block, cloning a shared
  /// one. After Thaw(), in-place mutation cannot be observed through any
  /// other handle.
  Table& Thaw();

  /// Finalizes block metadata (the memoized byte size) so subsequent
  /// shared readers pay nothing. Purely an optimization: blocks are
  /// immutable-while-shared regardless.
  const Table& Freeze() const;

  /// O(1) after the first call: wire/resident size carried on the block
  /// (1 byte per NULL, string lengths, 8 bytes per scalar), shared by
  /// the cast cache's accounting and CAST trace spans.
  int64_t ByteSize() const;

  /// A handle over this block under `schema`, which must have this
  /// schema's arity and types: a rename that copies no rows.
  Table WithSchema(Schema schema) const;

  /// True when both handles alias the same block (a zero-copy share).
  bool SharesStorageWith(const Table& other) const {
    return rep_.SharesWith(other.rep_);
  }
  /// True when no other handle references this block.
  bool UniquelyOwned() const { return rep_.Unique(); }

  /// Column values by name as a cheap shared slice view (contiguous
  /// values + null bitmap, built once per block and then pointer-swapped);
  /// NotFound for unknown columns. The view remains valid after this
  /// handle dies.
  Result<common::ColumnView> Column(const std::string& name) const;
  /// Column view by schema index (bounds unchecked beyond the schema).
  common::ColumnView ColumnAt(size_t idx) const;

  /// Value at (row, column-name); OutOfRange / NotFound on bad coordinates.
  Result<Value> At(size_t row, const std::string& column) const;

  /// ASCII rendering (header + up to `max_rows` rows) for examples/demos.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// The refcounted immutable block: row storage plus lazily built,
  /// shareable columnar metadata.
  struct Rep : common::CowCount {
    Schema schema;
    std::vector<Row> rows;
    /// Memoized ValueByteSize sum; -1 = not yet computed. Benign-race
    /// memo: concurrent readers compute identical values.
    mutable std::atomic<int64_t> bytes{-1};
    /// Guard for the lazily built per-column slices below.
    mutable std::atomic<bool> has_slices{false};
    mutable std::mutex slice_mu;
    mutable std::vector<std::shared_ptr<const common::ColumnSlice>> slices;

    Rep() = default;
    Rep(const Rep& o) : schema(o.schema), rows(o.rows) {}
  };

  /// Thaws and drops memoized metadata that in-place mutation would
  /// invalidate.
  Rep* ThawRep();

  common::CowPtr<Rep> rep_;
  /// The schema this handle presents when it differs from the block's
  /// (WithSchema); null otherwise. Thawing writes it into the block.
  std::shared_ptr<const Schema> renamed_;
};

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_TABLE_H_
