#include "core/wire_format.h"

#include <algorithm>
#include <cstring>

#include "common/columnar.h"
#include "common/macros.h"
#include "common/value_codec.h"
#include "common/varint.h"

namespace bigdawg::core {

namespace {

constexpr char kMagic[4] = {'B', 'D', 'W', '1'};
constexpr uint8_t kKindTable = 1;
constexpr uint8_t kKindArray = 2;
constexpr uint8_t kKindAssoc = 3;

/// Per-column encoding byte: a uniform DataType code, or per-cell tags.
constexpr uint8_t kEncodingMixed = 0xff;

void PutFrameHeader(std::string* out, uint8_t kind) {
  out->append(kMagic, 4);
  out->push_back(static_cast<char>(kind));
}

Status CheckFrameHeader(common::VarintReader* reader, uint8_t want_kind) {
  BIGDAWG_ASSIGN_OR_RETURN(const char* magic, reader->GetBytes(4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad wire magic");
  }
  BIGDAWG_ASSIGN_OR_RETURN(uint8_t kind, reader->GetByte());
  if (kind != want_kind) {
    return Status::InvalidArgument("wire frame kind mismatch: got " +
                                   std::to_string(kind) + ", want " +
                                   std::to_string(want_kind));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

std::string EncodeTable(const relational::Table& table) {
  std::string out;
  PutFrameHeader(&out, kKindTable);

  const Schema& schema = table.schema();
  common::PutSchema(&out, schema);

  const size_t n = table.num_rows();
  common::PutVarint64(&out, n);

  for (size_t c = 0; c < schema.num_fields(); ++c) {
    common::ColumnView col = table.ColumnAt(c);

    // Uniform when every non-null cell shares one runtime type. A typed
    // slice is uniform by construction; cells may diverge from the
    // declared type via AppendUnchecked, which leaves a mixed slice to scan.
    DataType uniform = DataType::kNull;
    bool mixed = false;
    if (col.kind() != common::SliceKind::kMixed) {
      if (col.null_count() < static_cast<int64_t>(n)) uniform = col.declared_type();
    } else {
      const std::vector<Value>& cells = col.slice()->values;
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) continue;
        if (uniform == DataType::kNull) {
          uniform = cells[r].type();
        } else if (cells[r].type() != uniform) {
          mixed = true;
          break;
        }
      }
    }
    out.push_back(mixed ? static_cast<char>(kEncodingMixed)
                        : static_cast<char>(uniform));

    // Null bitmap: raw little-endian 64-row words.
    const size_t words = (n + 63) / 64;
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = 0;
      for (size_t b = 0; b < 64 && w * 64 + b < n; ++b) {
        if (col.IsNull(w * 64 + b)) word |= uint64_t{1} << b;
      }
      common::PutFixed64(&out, word);
    }

    const common::ColumnSlice& slice = *col.slice();
    for (size_t r = 0; r < n; ++r) {
      if (col.IsNull(r)) continue;
      switch (slice.kind) {
        case common::SliceKind::kInt64:
          common::PutInt64Payload(&out, slice.ints[r]);
          break;
        case common::SliceKind::kDouble:
          common::PutDoublePayload(&out, slice.doubles[r]);
          break;
        case common::SliceKind::kBool:
          common::PutBoolPayload(&out, slice.bools[r] != 0);
          break;
        case common::SliceKind::kString:
          common::PutStringPayload(&out, slice.dict[slice.codes[r]]);
          break;
        case common::SliceKind::kMixed:
          if (mixed) {
            common::PutTaggedValue(&out, slice.values[r]);
          } else {
            common::PutValuePayload(&out, slice.values[r]);
          }
          break;
      }
    }
  }
  return out;
}

Result<relational::Table> DecodeTable(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindTable));
  BIGDAWG_ASSIGN_OR_RETURN(Schema schema, common::GetSchema(&reader));
  const size_t num_fields = schema.num_fields();

  BIGDAWG_ASSIGN_OR_RETURN(uint64_t n, reader.GetVarint64());
  // Rows are allocated before any cell is read, so the count is bounded
  // first: every column spends an encoding byte plus one 8-byte null
  // bitmap word per 64 rows, and a frame without columns has no bytes to
  // bound its rows by.
  const uint64_t words = n / 64 + (n % 64 != 0 ? 1 : 0);
  const uint64_t per_column =
      num_fields > 0 ? reader.remaining() / num_fields : 0;
  if (n > 0 && (per_column == 0 || words > (per_column - 1) / 8)) {
    return Status::InvalidArgument(
        "table frame claims " + std::to_string(n) + " rows that its " +
        std::to_string(reader.remaining()) + " remaining bytes cannot hold");
  }
  // Column-major decode into row-major storage.
  std::vector<Row> rows(n);
  for (auto& row : rows) row.resize(num_fields);

  for (size_t c = 0; c < num_fields; ++c) {
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t enc, reader.GetByte());
    const bool mixed = enc == kEncodingMixed;
    DataType uniform = DataType::kNull;
    if (!mixed) {
      BIGDAWG_ASSIGN_OR_RETURN(uniform, common::CheckTypeTag(enc));
    }

    std::vector<uint64_t> bitmap(words, 0);
    for (uint64_t w = 0; w < words; ++w) {
      BIGDAWG_ASSIGN_OR_RETURN(bitmap[w], common::GetFixed64(&reader));
    }

    for (uint64_t r = 0; r < n; ++r) {
      if ((bitmap[r >> 6] >> (r & 63)) & 1u) continue;  // stays null
      BIGDAWG_ASSIGN_OR_RETURN(
          rows[r][c], mixed ? common::GetTaggedValue(&reader)
                            : common::GetValuePayload(&reader, uniform));
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after table frame");
  }

  relational::Table out{std::move(schema)};
  for (Row& row : rows) out.AppendUnchecked(std::move(row));
  return out;
}

// ---------------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------------

std::string EncodeArray(const array::Array& array) {
  std::string out;
  PutFrameHeader(&out, kKindArray);

  common::PutVarint64(&out, array.num_dims());
  for (const array::Dimension& d : array.dims()) {
    common::PutLengthPrefixed(&out, d.name);
    common::PutVarintSigned(&out, d.start);
    common::PutVarint64(&out, static_cast<uint64_t>(d.length));
    common::PutVarint64(&out, static_cast<uint64_t>(d.chunk_length));
  }
  common::PutVarint64(&out, array.num_attrs());
  for (const std::string& a : array.attrs()) common::PutLengthPrefixed(&out, a);

  // Canonical cell order: chunk iteration order is an unordered_map
  // artifact, so collect and sort by coordinates before emitting.
  struct Cell {
    array::Coordinates coords;
    std::vector<double> values;
  };
  std::vector<Cell> cells;
  array.Scan([&cells](const array::Coordinates& coords,
                      const std::vector<double>& values) {
    cells.push_back(Cell{coords, values});
    return true;
  });
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.coords < b.coords; });

  common::PutVarint64(&out, cells.size());
  for (const Cell& cell : cells) {
    for (int64_t c : cell.coords) common::PutVarintSigned(&out, c);
    for (double v : cell.values) common::PutDouble(&out, v);
  }
  return out;
}

Result<array::Array> DecodeArray(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindArray));

  // Every dimension costs at least its name length, start, length and
  // chunk-length varints; every attribute at least its name length.
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t num_dims,
                           common::GetBoundedCount(&reader, 4));
  std::vector<array::Dimension> dims;
  dims.reserve(num_dims);
  for (uint64_t i = 0; i < num_dims; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, common::GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(int64_t start, reader.GetVarintSigned());
    BIGDAWG_ASSIGN_OR_RETURN(uint64_t length, reader.GetVarint64());
    BIGDAWG_ASSIGN_OR_RETURN(uint64_t chunk_length, reader.GetVarint64());
    dims.emplace_back(std::move(name), start, static_cast<int64_t>(length),
                      static_cast<int64_t>(chunk_length));
  }
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t num_attrs,
                           common::GetBoundedCount(&reader, 1));
  std::vector<std::string> attrs;
  attrs.reserve(num_attrs);
  for (uint64_t i = 0; i < num_attrs; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string a, common::GetLengthPrefixed(&reader));
    attrs.push_back(std::move(a));
  }

  BIGDAWG_ASSIGN_OR_RETURN(array::Array out,
                           array::Array::Create(std::move(dims),
                                                std::move(attrs)));
  // The first Set allocates one dense chunk of chunk volume x attributes
  // doubles; bound it before any cell is read.
  int64_t chunk_values = static_cast<int64_t>(out.num_attrs());
  for (const array::Dimension& d : out.dims()) {
    if (__builtin_mul_overflow(chunk_values, d.chunk_length, &chunk_values) ||
        chunk_values > kMaxDecodedChunkValues) {
      return Status::InvalidArgument("array frame chunk exceeds " +
                                     std::to_string(kMaxDecodedChunkValues) +
                                     " values");
    }
  }
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t cells, reader.GetVarint64());
  array::Coordinates coords(num_dims);
  std::vector<double> values(num_attrs);
  for (uint64_t i = 0; i < cells; ++i) {
    for (uint64_t d = 0; d < num_dims; ++d) {
      BIGDAWG_ASSIGN_OR_RETURN(coords[d], reader.GetVarintSigned());
    }
    for (uint64_t a = 0; a < num_attrs; ++a) {
      BIGDAWG_ASSIGN_OR_RETURN(values[a], common::GetDouble(&reader));
    }
    BIGDAWG_RETURN_NOT_OK(out.Set(coords, values));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after array frame");
  }
  return out;
}

// ---------------------------------------------------------------------------
// AssocArray
// ---------------------------------------------------------------------------

std::string EncodeAssoc(const d4m::AssocArray& assoc) {
  std::string out;
  PutFrameHeader(&out, kKindAssoc);
  common::PutVarint64(&out, assoc.NumNonEmpty());
  // ForEach visits in (row, col) key order: already canonical.
  assoc.ForEach([&out](const std::string& row, const std::string& col,
                       const Value& value) {
    common::PutLengthPrefixed(&out, row);
    common::PutLengthPrefixed(&out, col);
    common::PutTaggedValue(&out, value);
  });
  return out;
}

Result<d4m::AssocArray> DecodeAssoc(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindAssoc));
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t cells, reader.GetVarint64());
  d4m::AssocArray out;
  for (uint64_t i = 0; i < cells; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string row, common::GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(std::string col, common::GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(Value v, common::GetTaggedValue(&reader));
    if (v.is_null()) {
      return Status::InvalidArgument("assoc wire cell with null value");
    }
    out.Set(std::move(row), std::move(col), std::move(v));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after assoc frame");
  }
  return out;
}

}  // namespace bigdawg::core
