// Property-style sweeps over the cross-model CAST operators: randomized
// tables must survive round trips through every model that can represent
// them losslessly.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/value_codec.h"
#include "core/cast.h"
#include "core/wire_format.h"
#include "stream/stream_engine.h"

namespace bigdawg::core {
namespace {

/// A scratch CSV path unique to this test and process, so parallel ctest
/// runs of the seed sweep never share (and race on) one file.
std::string ScratchCsvPath() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name + "." + std::to_string(getpid()) + ".csv";
}

// A random "waveform-shaped" table: unique int64 coordinates + doubles.
relational::Table RandomNumericTable(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  relational::Table t{Schema({Field("p", DataType::kInt64),
                              Field("t", DataType::kInt64),
                              Field("a", DataType::kDouble),
                              Field("b", DataType::kDouble)})};
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(i % 7), Value(i / 7), Value(rng.NextGaussian()),
                       Value(rng.NextDouble(-100, 100))});
  }
  return t;
}

// Multiset equality on rows (order-insensitive).
bool SameRowMultiset(const relational::Table& a, const relational::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  std::vector<Row> ra = a.rows(), rb = b.rows();
  auto cmp = [](const Row& x, const Row& y) {
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      int c = x[i].Compare(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::sort(ra.begin(), ra.end(), cmp);
  std::sort(rb.begin(), rb.end(), cmp);
  return ra == rb;
}

class CastRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CastRoundTripSweep, RelationArrayRelation) {
  relational::Table t = RandomNumericTable(GetParam(), 200);
  array::Array a = *TableToArray(t);
  relational::Table back = *ArrayToTable(a);
  EXPECT_TRUE(SameRowMultiset(t, back));
}

TEST_P(CastRoundTripSweep, RelationBinaryRelation) {
  relational::Table t = RandomNumericTable(GetParam(), 500);
  relational::Table back = *DecodeTable(EncodeTable(t));
  EXPECT_TRUE(t.schema() == back.schema());
  EXPECT_TRUE(SameRowMultiset(t, back));
}

TEST_P(CastRoundTripSweep, RelationCsvRelation) {
  relational::Table t = RandomNumericTable(GetParam(), 100);
  // Doubles survive CSV only approximately; compare via re-parse of both.
  const std::string path = ScratchCsvPath();
  relational::Table back = *TableViaCsvFile(t, path);
  std::remove(path.c_str());
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < 2; ++c) {  // int64 coordinates are exact
      EXPECT_EQ(back.rows()[r][c], t.rows()[r][c]);
    }
    for (size_t c = 2; c < 4; ++c) {  // doubles within printf precision
      EXPECT_NEAR(*back.rows()[r][c].ToNumeric(), *t.rows()[r][c].ToNumeric(),
                  std::fabs(*t.rows()[r][c].ToNumeric()) * 1e-5 + 1e-5);
    }
  }
}

TEST_P(CastRoundTripSweep, ArrayTileMatrixArray) {
  relational::Table t = RandomNumericTable(GetParam(), 150);
  array::Array a = *TableToArray(t);
  if (a.num_dims() != 2) return;
  tiledb::TileDbArray m = *ArrayToTileMatrix(a, 16, 16);
  array::Array back = *TileMatrixToArray(m);
  // Attribute 0 cells survive except exact zeros (structural in TileDB).
  int64_t mismatches = 0;
  a.Scan([&](const array::Coordinates& coords, const std::vector<double>& v) {
    if (v[0] == 0.0) return true;
    auto cell = back.Get({coords[0] - a.dims()[0].start,
                          coords[1] - a.dims()[1].start});
    if (!cell.ok() || (*cell)[0] != v[0]) ++mismatches;
    return true;
  });
  EXPECT_EQ(mismatches, 0);
}

TEST_P(CastRoundTripSweep, AssocTransposeRoundTrip) {
  relational::Table t = RandomNumericTable(GetParam(), 80);
  // Key the assoc array by a synthesized unique string key.
  relational::Table keyed{Schema({Field("key", DataType::kString),
                                  Field("a", DataType::kDouble),
                                  Field("b", DataType::kDouble)})};
  for (size_t i = 0; i < t.num_rows(); ++i) {
    keyed.AppendUnchecked({Value("k" + std::to_string(i)), t.rows()[i][2],
                           t.rows()[i][3]});
  }
  d4m::AssocArray assoc = *TableToAssoc(keyed);
  d4m::AssocArray twice = assoc.Transpose().Transpose();
  EXPECT_EQ(twice.NumNonEmpty(), assoc.NumNonEmpty());
  relational::Table t1 = *AssocToTable(assoc);
  relational::Table t2 = *AssocToTable(twice);
  EXPECT_TRUE(SameRowMultiset(t1, t2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CastRoundTripSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(StreamLogSerializationTest, RoundTrip) {
  std::vector<stream::LogRecord> log;
  log.push_back({"proc_a", {Value(1), Value(2.5), Value("x")}});
  log.push_back({"proc_b", {}});
  log.push_back({"proc_a", {Value::Null()}});
  std::string bytes = stream::StreamEngine::SerializeLog(log);
  auto back = *stream::StreamEngine::DeserializeLog(bytes);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].procedure, "proc_a");
  EXPECT_EQ(back[0].input[1], Value(2.5));
  EXPECT_TRUE(back[1].input.empty());
  EXPECT_TRUE(back[2].input[0].is_null());
  // Corruption rejected.
  EXPECT_FALSE(stream::StreamEngine::DeserializeLog(bytes + "x").ok());
  EXPECT_FALSE(
      stream::StreamEngine::DeserializeLog(bytes.substr(0, bytes.size() - 3)).ok());
}

TEST(StreamLogSerializationTest, EveryTruncationFailsTyped) {
  std::vector<stream::LogRecord> log;
  log.push_back({"proc_a", {Value(1), Value(2.5), Value("x"), Value(true)}});
  log.push_back({"proc_b", {}});
  log.push_back({"proc_a", {Value::Null()}});
  const std::string bytes = stream::StreamEngine::SerializeLog(log);
  // Every proper prefix is a typed error: no throw, no crash, and never a
  // silently shorter log.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(stream::StreamEngine::DeserializeLog(bytes.substr(0, cut)).ok())
        << "a " << cut << "-byte prefix decoded";
  }
}

TEST(StreamLogSerializationTest, OversizedCountsFailTyped) {
  // A header claiming more records, or a record claiming more cells,
  // than the bytes that follow could hold is rejected before anything
  // is sized from it.
  for (uint64_t claimed :
       {uint64_t{0xfffffff0}, uint64_t{1} << 32, uint64_t{1} << 62}) {
    std::string bytes;
    common::PutVarint64(&bytes, claimed);
    bytes += "proc_a";
    EXPECT_FALSE(stream::StreamEngine::DeserializeLog(bytes).ok()) << claimed;
  }
  std::string cells;
  common::PutVarint64(&cells, 1);
  common::PutLengthPrefixed(&cells, "proc_a");
  common::PutVarint64(&cells, uint64_t{1} << 40);
  EXPECT_FALSE(stream::StreamEngine::DeserializeLog(cells).ok());
}

}  // namespace
}  // namespace bigdawg::core
