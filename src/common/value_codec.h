#ifndef BIGDAWG_COMMON_VALUE_CODEC_H_
#define BIGDAWG_COMMON_VALUE_CODEC_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"
#include "common/varint.h"

namespace bigdawg::common {

/// The value-level pieces of the repository's one binary encoding. The
/// canonical wire format (core/wire_format) frames tables, arrays and
/// associative arrays out of them, and the S-Store command log frames its
/// records with them. Writers append to a string; readers consume a
/// bounds-checked VarintReader and fail with a typed InvalidArgument —
/// never a throw, and never an allocation sized by an unchecked count.

/// varint byte length | raw bytes.
void PutLengthPrefixed(std::string* out, const std::string& s);
Result<std::string> GetLengthPrefixed(VarintReader* reader);

/// A fixed 8-byte little-endian word. Doubles travel as their exact bit
/// pattern, so the round trip is lossless (including -0.0 and NaN
/// payloads).
void PutFixed64(std::string* out, uint64_t bits);
Result<uint64_t> GetFixed64(VarintReader* reader);
void PutDouble(std::string* out, double v);
Result<double> GetDouble(VarintReader* reader);

/// A DataType code read off the wire; out-of-range codes are rejected.
Result<DataType> CheckTypeTag(uint64_t tag);

/// One cell's payload without its type tag: a byte for bools, a zigzag
/// varint for int64s, a fixed64 for doubles, a length-prefixed string.
/// NULL has no payload. The typed writers serve a caller that already
/// knows the cell's type (a typed column slice); PutValuePayload
/// dispatches to them on a Value's type.
inline void PutBoolPayload(std::string* out, bool v) { out->push_back(v ? 1 : 0); }
inline void PutInt64Payload(std::string* out, int64_t v) { PutVarintSigned(out, v); }
inline void PutDoublePayload(std::string* out, double v) { PutDouble(out, v); }
inline void PutStringPayload(std::string* out, const std::string& s) {
  PutLengthPrefixed(out, s);
}
void PutValuePayload(std::string* out, const Value& v);
Result<Value> GetValuePayload(VarintReader* reader, DataType type);

/// Type tag byte | payload: a self-describing cell.
void PutTaggedValue(std::string* out, const Value& v);
Result<Value> GetTaggedValue(VarintReader* reader);

/// varint cell count | tagged cells.
void PutRow(std::string* out, const Row& row);
Result<Row> GetRow(VarintReader* reader);

/// varint field count | (length-prefixed name | type byte)*.
void PutSchema(std::string* out, const Schema& schema);
Result<Schema> GetSchema(VarintReader* reader);

/// Reads an element count and rejects one the remaining bytes cannot
/// hold at `min_bytes` (>= 1) per element, so a decoder may size its
/// containers from the count.
Result<uint64_t> GetBoundedCount(VarintReader* reader, uint64_t min_bytes);

}  // namespace bigdawg::common

#endif  // BIGDAWG_COMMON_VALUE_CODEC_H_
