#include "core/cast.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace bigdawg::core {
namespace {

/// A scratch CSV path unique to this test and process, so parallel ctest
/// runs never share (and race on) one file.
std::string ScratchCsvPath() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name + "." + std::to_string(getpid()) + ".csv";
}

relational::Table WaveTable() {
  relational::Table t{Schema({Field("patient", DataType::kInt64),
                              Field("t", DataType::kInt64),
                              Field("hr", DataType::kDouble)})};
  for (int64_t p = 0; p < 2; ++p) {
    for (int64_t time = 0; time < 3; ++time) {
      t.AppendUnchecked({Value(p), Value(time),
                         Value(60.0 + static_cast<double>(p * 10 + time))});
    }
  }
  return t;
}

TEST(CastTest, DataModelNames) {
  EXPECT_EQ(*DataModelFromString("relation"), DataModel::kRelation);
  EXPECT_EQ(*DataModelFromString("ARRAY"), DataModel::kArray);
  EXPECT_EQ(*DataModelFromString("assoc"), DataModel::kAssociative);
  EXPECT_EQ(*DataModelFromString("tilematrix"), DataModel::kTileMatrix);
  EXPECT_TRUE(DataModelFromString("graph").status().IsInvalidArgument());
  EXPECT_STREQ(DataModelToString(DataModel::kRelation), "relation");
}

TEST(CastTest, TableArrayRoundTrip) {
  relational::Table t = WaveTable();
  array::Array a = *TableToArray(t);
  EXPECT_EQ(a.num_dims(), 2u);
  EXPECT_EQ(a.num_attrs(), 1u);
  EXPECT_EQ(a.NonEmptyCount(), 6);
  EXPECT_EQ((*a.Get({1, 2}))[0], 72.0);

  relational::Table back = *ArrayToTable(a);
  EXPECT_EQ(back.num_rows(), 6u);
  EXPECT_EQ(back.schema().field(0).name, "patient");
  EXPECT_EQ(back.schema().field(2).name, "hr");
  // Cell-level equality (scan order may differ from insert order).
  array::Array again = *TableToArray(back);
  EXPECT_EQ((*again.Get({0, 1}))[0], 61.0);
}

TEST(CastTest, TableToArrayRejectsBadShapes) {
  relational::Table no_dims{Schema({Field("hr", DataType::kDouble)})};
  no_dims.AppendUnchecked({Value(1.0)});
  EXPECT_TRUE(TableToArray(no_dims).status().IsFailedPrecondition());

  relational::Table no_attrs{Schema({Field("t", DataType::kInt64)})};
  no_attrs.AppendUnchecked({Value(1)});
  EXPECT_TRUE(TableToArray(no_attrs).status().IsFailedPrecondition());

  relational::Table with_text{Schema({Field("t", DataType::kInt64),
                                      Field("s", DataType::kString)})};
  EXPECT_TRUE(TableToArray(with_text).status().IsTypeError());

  relational::Table empty{Schema({Field("t", DataType::kInt64),
                                  Field("v", DataType::kDouble)})};
  EXPECT_TRUE(TableToArray(empty).status().IsFailedPrecondition());

  relational::Table null_dim{Schema({Field("t", DataType::kInt64),
                                     Field("v", DataType::kDouble)})};
  null_dim.AppendUnchecked({Value::Null(), Value(1.0)});
  EXPECT_TRUE(TableToArray(null_dim).status().IsInvalidArgument());
}

TEST(CastTest, TableToArrayHandlesNegativeCoordinates) {
  relational::Table t{Schema({Field("x", DataType::kInt64),
                              Field("v", DataType::kDouble)})};
  t.AppendUnchecked({Value(-5), Value(1.0)});
  t.AppendUnchecked({Value(5), Value(2.0)});
  array::Array a = *TableToArray(t);
  EXPECT_EQ(a.dims()[0].start, -5);
  EXPECT_EQ(a.dims()[0].length, 11);
  EXPECT_EQ((*a.Get({-5}))[0], 1.0);
}

TEST(CastTest, TableAssocRoundTrip) {
  relational::Table t{Schema({Field("pid", DataType::kString),
                              Field("age", DataType::kInt64),
                              Field("race", DataType::kString)})};
  t.AppendUnchecked({Value("p1"), Value(70), Value("white")});
  t.AppendUnchecked({Value("p2"), Value(45), Value::Null()});
  d4m::AssocArray a = *TableToAssoc(t);
  EXPECT_EQ(a.NumNonEmpty(), 3u);  // NULL cell skipped
  EXPECT_EQ(*a.Get("p1", "age"), Value(70));
  EXPECT_EQ(*a.Get("p1", "race"), Value("white"));

  relational::Table triples = *AssocToTable(a);
  EXPECT_EQ(triples.num_rows(), 3u);
  // Mixed values -> string value column.
  EXPECT_EQ(triples.schema().field(2).type, DataType::kString);
}

TEST(CastTest, AssocToTableNumericValueColumn) {
  d4m::AssocArray a;
  a.Set("r1", "c1", Value(1.5));
  a.Set("r2", "c1", Value(2));
  relational::Table t = *AssocToTable(a);
  EXPECT_EQ(t.schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(*t.At(0, "value"), Value(1.5));
}

TEST(CastTest, ArrayTileMatrixRoundTrip) {
  array::Array a = *array::Array::FromMatrix({{1, 0, 2}, {0, 0, 0}, {3, 0, 4}});
  tiledb::TileDbArray m = *ArrayToTileMatrix(a, 2, 2);
  EXPECT_EQ(m.NonZeroCount(), 4);
  EXPECT_EQ(*m.Read(2, 2), 4.0);
  array::Array back = *TileMatrixToArray(m);
  EXPECT_EQ((*back.Get({0, 2}))[0], 2.0);
  EXPECT_EQ(back.dims()[0].length, 3);
}

TEST(CastTest, AssocToArrayOrdinalEncoding) {
  d4m::AssocArray a;
  a.Set("alpha", "x", Value(1.0));
  a.Set("beta", "y", Value(2.0));
  a.Set("beta", "note", Value("text"));  // non-numeric ignored
  array::Array arr = *AssocToArray(a);
  EXPECT_EQ(arr.dims()[0].length, 2);  // alpha, beta
  EXPECT_EQ(arr.dims()[1].length, 3);  // note, x, y (sorted)
  EXPECT_EQ(arr.NonEmptyCount(), 2);
  EXPECT_TRUE(AssocToArray(d4m::AssocArray()).status().IsFailedPrecondition());
}

TEST(CastTest, CsvFileRoundTrip) {
  relational::Table t = WaveTable();
  const std::string path = ScratchCsvPath();
  relational::Table back = *TableViaCsvFile(t, path);
  std::remove(path.c_str());
  EXPECT_EQ(back.schema(), t.schema());
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(back.rows()[r], t.rows()[r]);
  }
  EXPECT_TRUE(
      TableViaCsvFile(t, "/nonexistent_dir/x.csv").status().IsIOError());
}

}  // namespace
}  // namespace bigdawg::core
