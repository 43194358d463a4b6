#include "common/columnar.h"

#include <string_view>
#include <unordered_map>

namespace bigdawg::common {

namespace {

SliceKind KindOf(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return SliceKind::kInt64;
    case DataType::kDouble:
      return SliceKind::kDouble;
    case DataType::kBool:
      return SliceKind::kBool;
    case DataType::kString:
      return SliceKind::kString;
    case DataType::kNull:
      break;
  }
  return SliceKind::kMixed;
}

// Size, an all-clear null bitmap and 8 bytes per cell for a NULL-free
// scalar slice of `n` rows.
void SetDenseScalarMetadata(size_t n, ColumnSlice* slice) {
  slice->size = n;
  slice->null_bitmap.assign((n + 63) / 64, 0);
  slice->byte_size = static_cast<int64_t>(n) * 8;
}

}  // namespace

ColumnSlice Int64Slice(std::vector<int64_t> values) {
  ColumnSlice slice;
  slice.declared_type = DataType::kInt64;
  slice.kind = SliceKind::kInt64;
  SetDenseScalarMetadata(values.size(), &slice);
  slice.ints = std::move(values);
  return slice;
}

ColumnSlice DoubleSlice(std::vector<double> values) {
  ColumnSlice slice;
  slice.declared_type = DataType::kDouble;
  slice.kind = SliceKind::kDouble;
  SetDenseScalarMetadata(values.size(), &slice);
  slice.doubles = std::move(values);
  return slice;
}

Value ColumnSlice::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (kind) {
    case SliceKind::kInt64:
      return Value(ints[i]);
    case SliceKind::kDouble:
      return Value(doubles[i]);
    case SliceKind::kBool:
      return Value(bools[i] != 0);
    case SliceKind::kString:
      return Value(dict[codes[i]]);
    case SliceKind::kMixed:
      break;
  }
  return values[i];
}

ColumnSlice BuildColumnSlice(const Schema& schema, const std::vector<Row>& rows,
                             size_t idx) {
  ColumnSlice slice;
  const size_t n = rows.size();
  slice.declared_type = schema.field(idx).type;
  slice.size = n;
  slice.null_bitmap.assign((n + 63) / 64, 0);
  slice.kind = KindOf(slice.declared_type);
  for (size_t r = 0; r < n; ++r) {
    const Value& v = rows[r][idx];
    if (v.is_null()) {
      slice.null_bitmap[r >> 6] |= uint64_t{1} << (r & 63);
      ++slice.null_count;
    } else if (v.type() != slice.declared_type) {
      slice.kind = SliceKind::kMixed;
    }
    slice.byte_size += ValueByteSize(v);
  }
  switch (slice.kind) {
    case SliceKind::kInt64:
      slice.ints.resize(n);
      for (size_t r = 0; r < n; ++r) {
        if (!slice.IsNull(r)) slice.ints[r] = rows[r][idx].int64_unchecked();
      }
      break;
    case SliceKind::kDouble:
      slice.doubles.resize(n);
      for (size_t r = 0; r < n; ++r) {
        if (!slice.IsNull(r)) slice.doubles[r] = rows[r][idx].double_unchecked();
      }
      break;
    case SliceKind::kBool:
      slice.bools.resize(n);
      for (size_t r = 0; r < n; ++r) {
        if (!slice.IsNull(r)) slice.bools[r] = rows[r][idx].bool_unchecked() ? 1 : 0;
      }
      break;
    case SliceKind::kString: {
      // Keys view the rows' strings, which outlive the build.
      std::unordered_map<std::string_view, uint32_t> index;
      slice.codes.resize(n);
      for (size_t r = 0; r < n; ++r) {
        if (slice.IsNull(r)) continue;
        const std::string& s = rows[r][idx].string_unchecked();
        auto [it, inserted] =
            index.emplace(s, static_cast<uint32_t>(slice.dict.size()));
        if (inserted) slice.dict.push_back(s);
        slice.codes[r] = it->second;
      }
      break;
    }
    case SliceKind::kMixed:
      slice.values.reserve(n);
      for (size_t r = 0; r < n; ++r) slice.values.push_back(rows[r][idx]);
      break;
  }
  return slice;
}

std::optional<double> ColumnView::NumericAt(size_t i) const {
  if (IsNull(i)) return std::nullopt;
  switch (slice_->kind) {
    case SliceKind::kInt64:
      return static_cast<double>(slice_->ints[i]);
    case SliceKind::kDouble:
      return slice_->doubles[i];
    case SliceKind::kMixed: {
      Result<double> d = slice_->values[i].ToNumeric();
      if (d.ok()) return *d;
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace bigdawg::common
