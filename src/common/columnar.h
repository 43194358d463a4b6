#ifndef BIGDAWG_COMMON_COLUMNAR_H_
#define BIGDAWG_COMMON_COLUMNAR_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace bigdawg::common {

/// \brief Wire/resident size of one cell: 1 byte per NULL, string length
/// for strings, 8 bytes per scalar. The single formula behind block byte
/// metadata, cast-cache accounting, and CAST trace span sizes.
inline int64_t ValueByteSize(const Value& v) {
  if (v.is_null()) return 1;
  if (v.type() == DataType::kString) {
    return static_cast<int64_t>(v.string_unchecked().size());
  }
  return 8;
}

/// \brief How a slice stores its cells. A column whose non-null cells all
/// have the declared type gets one typed array (strings dictionary-coded);
/// any other column keeps its cells as Values ("mixed").
enum class SliceKind : uint8_t { kInt64, kDouble, kBool, kString, kMixed };

inline bool IsNumericKind(SliceKind kind) {
  return kind == SliceKind::kInt64 || kind == SliceKind::kDouble;
}

/// \brief One immutable column of a block: typed contiguous storage plus a
/// null bitmap. Built once per (block, column) and shared by reference —
/// every later read of the same column is a pointer swap, not a copy.
/// Every array is indexed by row number; a NULL row's typed entry is 0
/// (code 0 for strings, which indexes nothing when every row is NULL)
/// and only the bitmap says it is NULL.
struct ColumnSlice {
  DataType declared_type = DataType::kNull;
  SliceKind kind = SliceKind::kMixed;
  size_t size = 0;
  std::vector<int64_t> ints;      // kInt64
  std::vector<double> doubles;    // kDouble
  std::vector<uint8_t> bools;     // kBool
  std::vector<uint32_t> codes;    // kString: index into `dict`
  std::vector<std::string> dict;  // kString: distinct strings, first appearance first
  std::vector<Value> values;      // kMixed
  /// Bit i set <=> row i is null; 64 rows per word.
  std::vector<uint64_t> null_bitmap;
  int64_t null_count = 0;
  /// Sum of ValueByteSize over the column.
  int64_t byte_size = 0;

  bool IsNull(size_t i) const {
    return (null_bitmap[i >> 6] >> (i & 63)) & 1u;
  }
  /// Row i as a Value (NULL for a null row).
  Value ValueAt(size_t i) const;
};

/// \brief Builds the slice for column `idx` of row-major storage.
ColumnSlice BuildColumnSlice(const Schema& schema, const std::vector<Row>& rows,
                             size_t idx);

/// \brief A NULL-free int64 / double column over `values`.
ColumnSlice Int64Slice(std::vector<int64_t> values);
ColumnSlice DoubleSlice(std::vector<double> values);

/// \brief A cheap, shared view of one column. Copying a view copies one
/// shared_ptr; the underlying slice lives as long as any view (or the
/// owning block) does, so views stay valid after the source table handle
/// is destroyed or reassigned.
class ColumnView {
 public:
  ColumnView() = default;
  explicit ColumnView(std::shared_ptr<const ColumnSlice> slice)
      : slice_(std::move(slice)) {}

  bool valid() const { return slice_ != nullptr; }
  size_t size() const { return slice_ == nullptr ? 0 : slice_->size; }
  bool empty() const { return size() == 0; }

  bool IsNull(size_t i) const { return slice_->IsNull(i); }
  int64_t null_count() const { return slice_ == nullptr ? 0 : slice_->null_count; }
  int64_t byte_size() const { return slice_ == nullptr ? 0 : slice_->byte_size; }
  DataType declared_type() const { return slice_->declared_type; }
  SliceKind kind() const { return slice_->kind; }

  /// Row i as a Value (built on the fly; prefer the typed accessors).
  Value operator[](size_t i) const { return slice_->ValueAt(i); }

  /// Typed accessors for a non-null row of a column declared with that
  /// type. A mixed slice answers from its Value cells, which must then
  /// hold the type asked for.
  int64_t Int64At(size_t i) const {
    return slice_->kind == SliceKind::kInt64 ? slice_->ints[i]
                                             : slice_->values[i].int64_unchecked();
  }
  double DoubleAt(size_t i) const {
    return slice_->kind == SliceKind::kDouble ? slice_->doubles[i]
                                              : slice_->values[i].double_unchecked();
  }
  /// The row as a double when it is a non-null int64 or double.
  std::optional<double> NumericAt(size_t i) const;

  /// Iterates the rows as Values.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Value;

    const_iterator(const ColumnSlice* slice, size_t i) : slice_(slice), i_(i) {}
    Value operator*() const { return slice_->ValueAt(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const ColumnSlice* slice_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(slice_.get(), 0); }
  const_iterator end() const { return const_iterator(slice_.get(), size()); }

  const std::shared_ptr<const ColumnSlice>& slice() const { return slice_; }

 private:
  std::shared_ptr<const ColumnSlice> slice_;
};

}  // namespace bigdawg::common

#endif  // BIGDAWG_COMMON_COLUMNAR_H_
