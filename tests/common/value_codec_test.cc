#include "common/value_codec.h"

#include <gtest/gtest.h>

namespace bigdawg::common {
namespace {

TEST(ValueCodecTest, ScalarsRoundTrip) {
  std::string out;
  PutVarint64(&out, 123456);
  PutVarintSigned(&out, -42);
  PutDouble(&out, 3.25);
  PutFixed64(&out, 0xfeedfacecafebeefull);
  PutLengthPrefixed(&out, "polystore");

  VarintReader r(out);
  EXPECT_EQ(*r.GetVarint64(), 123456u);
  EXPECT_EQ(*r.GetVarintSigned(), -42);
  EXPECT_EQ(*GetDouble(&r), 3.25);
  EXPECT_EQ(*GetFixed64(&r), 0xfeedfacecafebeefull);
  EXPECT_EQ(*GetLengthPrefixed(&r), "polystore");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueCodecTest, ValuesOfEveryTypeRoundTrip) {
  std::vector<Value> values = {Value::Null(), Value(true), Value(false),
                               Value(int64_t{-7}), Value(1.5), Value("text")};
  std::string out;
  for (const Value& v : values) PutTaggedValue(&out, v);

  VarintReader r(out);
  for (const Value& expected : values) {
    EXPECT_EQ(*GetTaggedValue(&r), expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueCodecTest, RowRoundTrip) {
  Row row = {Value(1), Value("a"), Value::Null(), Value(2.5)};
  std::string out;
  PutRow(&out, row);
  VarintReader r(out);
  Row back = *GetRow(&r);
  ASSERT_EQ(back.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) EXPECT_EQ(back[i], row[i]);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueCodecTest, SchemaRoundTrip) {
  Schema schema({Field("id", DataType::kInt64), Field("note", DataType::kString),
                 Field("score", DataType::kDouble)});
  std::string out;
  PutSchema(&out, schema);
  VarintReader r(out);
  EXPECT_EQ(*GetSchema(&r), schema);
}

TEST(ValueCodecTest, ReadPastEndFails) {
  std::string out;
  PutDouble(&out, 1.0);
  VarintReader r(out.data(), out.size() - 1);
  EXPECT_TRUE(GetDouble(&r).status().IsInvalidArgument());
}

TEST(ValueCodecTest, TruncatedStringFails) {
  std::string out;
  PutVarint64(&out, 100);  // claims 100 bytes follow, none do
  VarintReader r(out);
  EXPECT_TRUE(GetLengthPrefixed(&r).status().IsInvalidArgument());
}

TEST(ValueCodecTest, BadValueTagFails) {
  std::string data(1, static_cast<char>(99));
  VarintReader r(data);
  EXPECT_TRUE(GetTaggedValue(&r).status().IsInvalidArgument());
}

TEST(ValueCodecTest, EmptyRowAndSchema) {
  std::string out;
  PutRow(&out, {});
  PutSchema(&out, Schema());
  VarintReader r(out);
  EXPECT_TRUE(GetRow(&r)->empty());
  EXPECT_EQ(GetSchema(&r)->num_fields(), 0u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueCodecTest, CountsAreBoundedByTheRemainingBytes) {
  std::string out;
  PutVarint64(&out, 4);
  out.append(8, 'x');
  VarintReader fits(out);
  EXPECT_EQ(*GetBoundedCount(&fits, 2), 4u);
  VarintReader too_many(out);
  EXPECT_TRUE(GetBoundedCount(&too_many, 3).status().IsInvalidArgument());

  // Headers claiming more cells or fields than any remaining bytes could
  // hold fail before anything is sized from them.
  std::string row_bomb;
  PutVarint64(&row_bomb, uint64_t{1} << 40);
  VarintReader rows(row_bomb);
  EXPECT_TRUE(GetRow(&rows).status().IsInvalidArgument());
  std::string schema_bomb;
  PutVarint64(&schema_bomb, uint64_t{1} << 60);
  VarintReader fields(schema_bomb);
  EXPECT_TRUE(GetSchema(&fields).status().IsInvalidArgument());
}

}  // namespace
}  // namespace bigdawg::common
