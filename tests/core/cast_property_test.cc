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

// TableToArray clamps each dimension's chunk length to its extent. The
// oracle: the same cells Set, row by row, into an array whose every
// dimension keeps the full chunk length must read back identically — same
// cells, same Scan order — from at least as many bytes.
class ChunkClampOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkClampOracle, ClampedGridReadsLikeTheFullGrid) {
  Rng rng(GetParam());
  const size_t num_dims = 1 + GetParam() % 3;
  // A full 3-D chunk at 256 is 2^24 cells per attribute, too large for
  // the reference array, so the 3-D cases probe around a 16-cell chunk.
  const int64_t chunk = num_dims == 3 ? 16 : 256;
  std::vector<Field> fields;
  std::vector<int64_t> lo(num_dims), extent(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    fields.emplace_back("d" + std::to_string(d), DataType::kInt64);
    lo[d] = rng.NextInt(-1000, 1000);
    // Extents straddle the chunk length: well below, at, just past, and
    // a few chunks long.
    const int64_t choices[] = {1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 5};
    extent[d] = choices[rng.NextBelow(6)];
  }
  fields.emplace_back("a", DataType::kDouble);
  fields.emplace_back("b", DataType::kDouble);
  relational::Table t{Schema(std::move(fields))};
  for (int64_t r = 0; r < 400; ++r) {
    Row row;
    for (size_t d = 0; d < num_dims; ++d) {
      // Rows 0 and 1 pin each dimension's bounds; the rest fall inside.
      const int64_t offset = r == 0 ? 0
                             : r == 1 ? extent[d] - 1
                                      : rng.NextInt(0, extent[d] - 1);
      row.emplace_back(lo[d] + offset);
    }
    for (int a = 0; a < 2; ++a) {
      row.push_back(rng.NextBool(0.2) ? Value::Null() : Value(rng.NextGaussian()));
    }
    t.AppendUnchecked(std::move(row));
  }

  array::Array clamped = *TableToArray(t, chunk);
  std::vector<array::Dimension> full_dims;
  for (size_t d = 0; d < num_dims; ++d) {
    EXPECT_EQ(clamped.dims()[d].chunk_length, std::min(chunk, extent[d]));
    full_dims.emplace_back("d" + std::to_string(d), lo[d], extent[d], chunk);
  }
  array::Array full = *array::Array::Create(full_dims, {"a", "b"});
  for (const Row& row : t.rows()) {
    array::Coordinates coords;
    for (size_t d = 0; d < num_dims; ++d) coords.push_back(row[d].int64_unchecked());
    std::vector<double> values;
    for (size_t a = num_dims; a < row.size(); ++a) {
      values.push_back(row[a].is_null() ? 0.0 : row[a].double_unchecked());
    }
    BIGDAWG_CHECK_OK(full.Set(coords, values));
  }
  // ArrayToTable emits cells in Scan order, so equal encodings mean equal
  // cells in the same order.
  EXPECT_EQ(EncodeTable(*ArrayToTable(clamped)), EncodeTable(*ArrayToTable(full)));
  EXPECT_LE(clamped.ByteSize(), full.ByteSize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkClampOracle,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

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
