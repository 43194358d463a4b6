// Wire-format round-trip property tests: random schemas and blocks are
// encoded, decoded, and re-encoded; the re-encoding must be
// byte-identical (the format is canonical) and the decoded object must
// carry the same cells. Corrupt frames must fail typed, never crash.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/value_codec.h"
#include "core/wire_format.h"

namespace bigdawg::core {
namespace {

Value RandomValueOfType(Rng* rng, DataType type) {
  switch (type) {
    case DataType::kBool:
      return Value(rng->NextBelow(2) == 1);
    case DataType::kInt64:
      return Value(rng->NextInt(-1000000, 1000000));
    case DataType::kDouble:
      return Value(rng->NextDouble(-1e6, 1e6));
    case DataType::kString: {
      std::string s;
      const int len = static_cast<int>(rng->NextBelow(12));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
      }
      return Value(std::move(s));
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

DataType RandomConcreteType(Rng* rng) {
  return static_cast<DataType>(1 + rng->NextBelow(4));  // bool..string
}

relational::Table RandomTable(Rng* rng) {
  const size_t num_fields = 1 + rng->NextBelow(5);
  std::vector<Field> fields;
  for (size_t i = 0; i < num_fields; ++i) {
    fields.emplace_back("f" + std::to_string(i), RandomConcreteType(rng));
  }
  relational::Table t{Schema(fields)};
  const size_t num_rows = rng->NextBelow(50);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    for (size_t c = 0; c < num_fields; ++c) {
      const uint64_t roll = rng->NextBelow(10);
      if (roll == 0) {
        row.push_back(Value::Null());
      } else if (roll == 1) {
        // Schema-divergent cell (AppendUnchecked permits them): forces
        // the per-cell tagged fallback encoding.
        row.push_back(RandomValueOfType(rng, RandomConcreteType(rng)));
      } else {
        row.push_back(RandomValueOfType(rng, fields[c].type));
      }
    }
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

TEST(WireRoundTripTest, RandomTablesReencodeByteIdentically) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    relational::Table t = RandomTable(&rng);
    const std::string wire = EncodeTable(t);
    auto decoded = DecodeTable(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->num_rows(), t.num_rows());
    EXPECT_EQ(decoded->schema().num_fields(), t.schema().num_fields());
    const std::string rewire = EncodeTable(*decoded);
    ASSERT_EQ(rewire, wire) << "trial " << trial << " not canonical";
  }
}

TEST(WireRoundTripTest, TableCellsSurviveTheRoundTripExactly) {
  Rng rng(7);
  relational::Table t = RandomTable(&rng);
  relational::Table back = *DecodeTable(EncodeTable(t));
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.schema().num_fields(); ++c) {
      const Value& a = t.rows()[r][c];
      const Value& b = back.rows()[r][c];
      EXPECT_EQ(a.type(), b.type());
      if (!a.is_null()) EXPECT_EQ(a.ToString(), b.ToString());
    }
  }
}

TEST(WireRoundTripTest, DoublesRoundTripBitExactly) {
  relational::Table t{Schema({Field("v", DataType::kDouble)})};
  t.AppendUnchecked({Value(-0.0)});
  t.AppendUnchecked({Value(1.0 / 3.0)});
  t.AppendUnchecked({Value(1e-308)});
  relational::Table back = *DecodeTable(EncodeTable(t));
  for (size_t r = 0; r < 3; ++r) {
    const double a = t.rows()[r][0].double_unchecked();
    const double b = back.rows()[r][0].double_unchecked();
    EXPECT_EQ(std::signbit(a), std::signbit(b));
    EXPECT_EQ(a, b);
  }
}

TEST(WireRoundTripTest, RandomArraysReencodeByteIdentically) {
  Rng rng(20260809);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t len = 4 + static_cast<int64_t>(rng.NextBelow(16));
    auto made = array::Array::Create(
        {array::Dimension("x", -4, len, 4),
         array::Dimension("y", 0, 8, 8)},
        {"a", "b"});
    ASSERT_TRUE(made.ok());
    array::Array arr = *made;
    const size_t cells = rng.NextBelow(30);
    for (size_t i = 0; i < cells; ++i) {
      BIGDAWG_CHECK_OK(arr.Set({-4 + rng.NextInt(0, len - 1),
                                rng.NextInt(0, 7)},
                               {rng.NextDouble(), rng.NextDouble()}));
    }
    const std::string wire = EncodeArray(arr);
    auto decoded = DecodeArray(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->NonEmptyCount(), arr.NonEmptyCount());
    ASSERT_EQ(EncodeArray(*decoded), wire) << "trial " << trial;
  }
}

TEST(WireRoundTripTest, RandomAssocsReencodeByteIdentically) {
  Rng rng(20260810);
  for (int trial = 0; trial < 100; ++trial) {
    d4m::AssocArray assoc;
    const size_t cells = rng.NextBelow(40);
    for (size_t i = 0; i < cells; ++i) {
      Value v = RandomValueOfType(&rng, RandomConcreteType(&rng));
      assoc.Set("r" + std::to_string(rng.NextBelow(20)),
                "c" + std::to_string(rng.NextBelow(20)), std::move(v));
    }
    const std::string wire = EncodeAssoc(assoc);
    auto decoded = DecodeAssoc(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->NumNonEmpty(), assoc.NumNonEmpty());
    ASSERT_EQ(EncodeAssoc(*decoded), wire) << "trial " << trial;
  }
}

TEST(WireRoundTripTest, CorruptFramesFailTyped) {
  relational::Table t{Schema({Field("v", DataType::kInt64)})};
  t.AppendUnchecked({Value(7)});
  const std::string wire = EncodeTable(t);

  // Bad magic.
  std::string bad = wire;
  bad[0] = 'X';
  EXPECT_TRUE(DecodeTable(bad).status().IsInvalidArgument());

  // Kind mismatch: a table frame fed to the array decoder.
  EXPECT_TRUE(DecodeArray(wire).status().IsInvalidArgument());

  // Truncations at every prefix must fail, never crash or succeed.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeTable(wire.substr(0, cut)).ok());
  }

  // Trailing garbage.
  EXPECT_TRUE(DecodeTable(wire + "zzz").status().IsInvalidArgument());

  // Oversized counts in otherwise well-formed headers fail before
  // anything is allocated for them. Frame kinds: 1 table, 2 array.
  auto header = [](char kind) { return std::string("BDW1") + kind; };
  std::string no_fields = header(1);
  common::PutVarint64(&no_fields, 0);
  common::PutVarint64(&no_fields, uint64_t{1} << 40);
  EXPECT_TRUE(DecodeTable(no_fields).status().IsInvalidArgument());

  std::string one_field = header(1);
  common::PutSchema(&one_field, Schema({Field("v", DataType::kInt64)}));
  common::PutVarint64(&one_field, uint64_t{1} << 40);
  EXPECT_TRUE(DecodeTable(one_field).status().IsInvalidArgument());

  std::string many_fields = header(1);
  common::PutVarint64(&many_fields, uint64_t{1} << 60);
  EXPECT_TRUE(DecodeTable(many_fields).status().IsInvalidArgument());

  std::string many_dims = header(2);
  common::PutVarint64(&many_dims, uint64_t{1} << 60);
  EXPECT_TRUE(DecodeArray(many_dims).status().IsInvalidArgument());

  std::string many_attrs = header(2);
  common::PutVarint64(&many_attrs, 1);
  common::PutLengthPrefixed(&many_attrs, "x");
  common::PutVarintSigned(&many_attrs, 0);
  common::PutVarint64(&many_attrs, 4);
  common::PutVarint64(&many_attrs, 4);
  common::PutVarint64(&many_attrs, uint64_t{1} << 60);
  EXPECT_TRUE(DecodeArray(many_attrs).status().IsInvalidArgument());

  // One cell whose chunk would be huge: a chunk_length of 2^40 (or chunk
  // volume x attributes past int64) is rejected before the chunk is
  // allocated, not thrown as bad_alloc.
  auto one_cell = [&](uint64_t chunk_length, int dims) {
    std::string frame = header(2);
    common::PutVarint64(&frame, static_cast<uint64_t>(dims));
    for (int d = 0; d < dims; ++d) {
      common::PutLengthPrefixed(&frame, "d" + std::to_string(d));
      common::PutVarintSigned(&frame, 0);
      common::PutVarint64(&frame, 1);
      common::PutVarint64(&frame, chunk_length);
    }
    common::PutVarint64(&frame, 1);
    common::PutLengthPrefixed(&frame, "v");
    common::PutVarint64(&frame, 1);
    for (int d = 0; d < dims; ++d) common::PutVarintSigned(&frame, 0);
    common::PutDouble(&frame, 1.0);
    return frame;
  };
  EXPECT_TRUE(DecodeArray(one_cell(uint64_t{1} << 40, 1)).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeArray(one_cell(uint64_t{1} << 32, 2)).status().IsInvalidArgument());
  EXPECT_TRUE(DecodeArray(one_cell(uint64_t{1} << 62, 3)).status().IsInvalidArgument());
  // The same frame at an ordinary chunk length decodes.
  array::Array small = *DecodeArray(one_cell(256, 3));
  EXPECT_EQ(small.NonEmptyCount(), 1);
}

}  // namespace
}  // namespace bigdawg::core
