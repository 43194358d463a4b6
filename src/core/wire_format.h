#ifndef BIGDAWG_CORE_WIRE_FORMAT_H_
#define BIGDAWG_CORE_WIRE_FORMAT_H_

#include <cstdint>
#include <string>

#include "array/array.h"
#include "common/result.h"
#include "d4m/assoc_array.h"
#include "relational/table.h"

namespace bigdawg::core {

/// \brief Compact, canonical binary wire format for the three data
/// models — the serialization leg of the zero-copy data plane.
///
/// Layout (all integers are LEB128 varints; signed values are zigzag
/// mapped so small magnitudes stay short):
///
///   frame    := magic "BDW1" | kind byte | body
///   table    := schema | varint row_count | column*
///   schema   := varint field_count | (varint name_len | name | type byte)*
///   column   := encoding byte | null bitmap (raw LE words, 64 rows each)
///               | non-null payloads
///   array    := dims | attrs | varint cell_count
///               | (zigzag coord* | fixed64 value*)*   -- coordinate-sorted
///   assoc    := varint cell_count | (row key | col key | tagged value)*
///
/// Columns whose non-null cells all match one runtime type use a uniform
/// encoding (one type byte for the whole column); schema-divergent
/// columns (possible via AppendUnchecked) fall back to per-cell tagged
/// payloads. int64 payloads are zigzag varints, doubles are fixed 8-byte
/// little-endian bit patterns (exact round-trip), bools one byte, strings
/// length-prefixed.
///
/// The encoding is canonical: array cells are emitted in coordinate
/// order and assoc cells in key order, so decode(encode(x)) re-encodes
/// byte-identically — the property the dataplane round-trip test pins.

std::string EncodeTable(const relational::Table& table);
Result<relational::Table> DecodeTable(const std::string& wire);

/// Largest dense chunk, in values (chunk volume x attributes), that
/// DecodeArray allocates. Eight times the largest chunk the polystore
/// builds itself (a 3-D TableToArray at 256^3 cells), so a frame whose
/// chunk_length would exhaust memory fails typed instead.
inline constexpr int64_t kMaxDecodedChunkValues = int64_t{1} << 27;

std::string EncodeArray(const array::Array& array);
/// InvalidArgument for a malformed frame, including one whose chunk
/// volume x attributes overflows int64 or exceeds kMaxDecodedChunkValues.
Result<array::Array> DecodeArray(const std::string& wire);

std::string EncodeAssoc(const d4m::AssocArray& assoc);
Result<d4m::AssocArray> DecodeAssoc(const std::string& wire);

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_WIRE_FORMAT_H_
