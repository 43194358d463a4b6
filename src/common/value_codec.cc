#include "common/value_codec.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace bigdawg::common {

void PutLengthPrefixed(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string> GetLengthPrefixed(VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t len, reader->GetVarint64());
  BIGDAWG_ASSIGN_OR_RETURN(const char* bytes, reader->GetBytes(len));
  return std::string(bytes, len);
}

void PutFixed64(std::string* out, uint64_t bits) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (8 * i));
  out->append(buf, 8);
}

Result<uint64_t> GetFixed64(VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(const char* bytes, reader->GetBytes(8));
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return bits;
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutFixed64(out, bits);
}

Result<double> GetDouble(VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64(reader));
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<DataType> CheckTypeTag(uint64_t tag) {
  if (tag > static_cast<uint64_t>(DataType::kString)) {
    return Status::InvalidArgument("bad data type tag " + std::to_string(tag));
  }
  return static_cast<DataType>(tag);
}

void PutValuePayload(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kBool:
      PutBoolPayload(out, v.bool_unchecked());
      break;
    case DataType::kInt64:
      PutInt64Payload(out, v.int64_unchecked());
      break;
    case DataType::kDouble:
      PutDoublePayload(out, v.double_unchecked());
      break;
    case DataType::kString:
      PutStringPayload(out, v.string_unchecked());
      break;
    case DataType::kNull:
      break;
  }
}

Result<Value> GetValuePayload(VarintReader* reader, DataType type) {
  switch (type) {
    case DataType::kBool: {
      BIGDAWG_ASSIGN_OR_RETURN(uint8_t b, reader->GetByte());
      return Value(b != 0);
    }
    case DataType::kInt64: {
      BIGDAWG_ASSIGN_OR_RETURN(int64_t v, reader->GetVarintSigned());
      return Value(v);
    }
    case DataType::kDouble: {
      BIGDAWG_ASSIGN_OR_RETURN(double v, GetDouble(reader));
      return Value(v);
    }
    case DataType::kString: {
      BIGDAWG_ASSIGN_OR_RETURN(std::string s, GetLengthPrefixed(reader));
      return Value(std::move(s));
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Status::InvalidArgument("bad value type tag");
}

void PutTaggedValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.type()));
  PutValuePayload(out, v);
}

Result<Value> GetTaggedValue(VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, reader->GetByte());
  BIGDAWG_ASSIGN_OR_RETURN(DataType type, CheckTypeTag(tag));
  return GetValuePayload(reader, type);
}

void PutRow(std::string* out, const Row& row) {
  PutVarint64(out, row.size());
  for (const Value& v : row) PutTaggedValue(out, v);
}

Result<Row> GetRow(VarintReader* reader) {
  // Every cell costs at least its type tag.
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t n, GetBoundedCount(reader, 1));
  Row row;
  row.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(Value v, GetTaggedValue(reader));
    row.push_back(std::move(v));
  }
  return row;
}

void PutSchema(std::string* out, const Schema& schema) {
  PutVarint64(out, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutLengthPrefixed(out, f.name);
    out->push_back(static_cast<char>(f.type));
  }
}

Result<Schema> GetSchema(VarintReader* reader) {
  // Every field costs at least a name length and a type byte.
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t n, GetBoundedCount(reader, 2));
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, GetLengthPrefixed(reader));
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, reader->GetByte());
    BIGDAWG_ASSIGN_OR_RETURN(DataType type, CheckTypeTag(tag));
    fields.emplace_back(std::move(name), type);
  }
  return Schema(std::move(fields));
}

Result<uint64_t> GetBoundedCount(VarintReader* reader, uint64_t min_bytes) {
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint64());
  if (count > reader->remaining() / min_bytes) {
    return Status::InvalidArgument(
        "count " + std::to_string(count) + " exceeds what the remaining " +
        std::to_string(reader->remaining()) + " bytes can hold");
  }
  return count;
}

}  // namespace bigdawg::common
