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

/// \brief An in-memory relation: a schema plus row-major tuple storage,
/// or typed column slices.
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
/// A block is born from rows (the constructors, Append) or from columns
/// (FromColumns). A block born from columns keeps its slices until it is
/// thawed and has no row storage until something asks for rows: rows(),
/// At(), ToString() or a thaw build them once, from the slices, and every
/// later call reads that memo. num_rows(), ByteSize() and ColumnAt()
/// never build rows.
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
  /// A block born from `slices`, one per field of `schema`, each of the
  /// field's declared type and all of one size. No row is built.
  static Table FromColumns(Schema schema,
                           std::vector<std::shared_ptr<const common::ColumnSlice>> slices);

  const Schema& schema() const { return renamed_ ? *renamed_ : rep_->schema; }
  /// The rows; on a block born from columns, builds them on first use.
  const std::vector<Row>& rows() const { return rep_->Rows(); }
  /// Write escape hatch: thaws (clones a shared block) and returns the
  /// exclusively owned row storage.
  std::vector<Row>& mutable_rows() { return ThawRep()->rows; }
  size_t num_rows() const { return rep_->NumRows(); }
  /// False for a block born from columns whose rows were never asked for.
  bool HasRowStorage() const {
    return !rep_->from_columns || rep_->has_rows.load(std::memory_order_acquire);
  }

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
  /// shareable columnar metadata — or, when born from columns, fixed
  /// slices plus lazily built rows.
  struct Rep : common::CowCount {
    Schema schema;
    /// On a block born from columns, a memo built under `slice_mu` and
    /// published by `has_rows`.
    mutable std::vector<Row> rows;
    /// True when `slices` are the block's data (set at creation, cleared
    /// only by a thaw of an exclusively owned block).
    bool from_columns = false;
    size_t column_rows = 0;  // row count when from_columns
    /// Release-stored once `rows` is complete; always true for a block
    /// born from rows.
    mutable std::atomic<bool> has_rows{true};
    /// Memoized ValueByteSize sum; -1 = not yet computed. Benign-race
    /// memo: concurrent readers compute identical values.
    mutable std::atomic<int64_t> bytes{-1};
    /// Guard for the lazily built per-column slices below (and for the
    /// row memo of a block born from columns, whose slices are fixed).
    mutable std::atomic<bool> has_slices{false};
    mutable std::mutex slice_mu;
    mutable std::vector<std::shared_ptr<const common::ColumnSlice>> slices;

    Rep() = default;
    Rep(const Rep& o);

    size_t NumRows() const { return from_columns ? column_rows : rows.size(); }
    const std::vector<Row>& Rows() const {
      return has_rows.load(std::memory_order_acquire) ? rows : BuildRows();
    }
    /// Builds the row memo from the slices (once; later calls wait for it).
    const std::vector<Row>& BuildRows() const;
  };

  /// Thaws and drops memoized metadata that in-place mutation would
  /// invalidate; a block born from columns becomes one born from rows.
  Rep* ThawRep();

  common::CowPtr<Rep> rep_;
  /// The schema this handle presents when it differs from the block's
  /// (WithSchema); null otherwise. Thawing writes it into the block.
  std::shared_ptr<const Schema> renamed_;
};

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_TABLE_H_
