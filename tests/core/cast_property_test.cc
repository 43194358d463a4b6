// Property-style sweeps over the cross-model CAST operators: randomized
// tables must survive round trips through every model that can represent
// them losslessly.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/columnar.h"
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

// ArrayToTable builds typed column slices in one Scan pass. The oracle is
// the row-building conversion it replaced: one Row of Values per cell,
// appended in Scan order. Both must give the same schema, the same rows
// in the same order with the same bits (NaN payloads and -0.0 included),
// the same wire bytes and the same ByteSize.
relational::Table RowBuiltArrayToTable(const array::Array& array) {
  std::vector<Field> fields;
  for (const array::Dimension& d : array.dims()) {
    fields.emplace_back(d.name, DataType::kInt64);
  }
  for (const std::string& a : array.attrs()) fields.emplace_back(a, DataType::kDouble);
  relational::Table out{Schema(std::move(fields))};
  array.Scan([&out](const array::Coordinates& coords, const std::vector<double>& values) {
    Row row;
    for (int64_t c : coords) row.emplace_back(c);
    for (double v : values) row.emplace_back(v);
    out.AppendUnchecked(std::move(row));
    return true;
  });
  return out;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameAsRowBuilt(const array::Array& array) {
  const relational::Table want = RowBuiltArrayToTable(array);
  const relational::Table got = *ArrayToTable(array);
  EXPECT_FALSE(got.HasRowStorage());
  ASSERT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  EXPECT_EQ(EncodeTable(got), EncodeTable(want));
  EXPECT_FALSE(got.HasRowStorage()) << "ByteSize or EncodeTable built rows";
  const std::vector<Row>& got_rows = got.rows();
  EXPECT_TRUE(got.HasRowStorage());
  for (size_t r = 0; r < want.num_rows(); ++r) {
    const Row& w = want.rows()[r];
    const Row& g = got_rows[r];
    ASSERT_EQ(g.size(), w.size());
    for (size_t c = 0; c < w.size(); ++c) {
      ASSERT_EQ(g[c].type(), w[c].type()) << "row " << r << " column " << c;
      if (w[c].type() == DataType::kDouble) {
        ASSERT_EQ(Bits(g[c].double_unchecked()), Bits(w[c].double_unchecked()))
            << "row " << r << " column " << c;
      } else {
        ASSERT_EQ(g[c], w[c]) << "row " << r << " column " << c;
      }
    }
  }
}

// A value drawn to stress bit-exactness: NaN, -0.0, +0.0, infinities,
// and ordinary doubles.
double EdgeDouble(Rng* rng) {
  switch (rng->NextBelow(8)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return -0.0;
    case 2:
      return 0.0;
    case 3:
      return rng->NextBool(0.5) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
    default:
      return rng->NextGaussian() * 100.0;
  }
}

class ArrayToTableOracle : public ::testing::TestWithParam<uint64_t> {};

// Arrays built cell by cell: 1-3 dimensions whose lengths are rarely a
// multiple of their chunk length (partial edge chunks), chunk volumes
// that are rarely a multiple of 64, 1-3 attributes, and densities from
// one cell to full.
TEST_P(ArrayToTableOracle, CellByCellArraysMatchTheRowBuiltConversion) {
  Rng rng(GetParam());
  const size_t num_dims = 1 + GetParam() % 3;
  std::vector<array::Dimension> dims;
  int64_t cells = 1;
  for (size_t d = 0; d < num_dims; ++d) {
    const int64_t chunks[] = {1, 3, 5, 7, 8, 64, 100};
    const int64_t chunk = chunks[rng.NextBelow(num_dims == 3 ? 5 : 7)];
    const int64_t length = rng.NextInt(1, num_dims == 1 ? 300 : num_dims == 2 ? 40 : 12);
    dims.emplace_back("d" + std::to_string(d), rng.NextInt(-50, 50), length, chunk);
    cells *= length;
  }
  std::vector<std::string> attrs;
  const int num_attrs = 1 + static_cast<int>(rng.NextBelow(3));
  for (int a = 0; a < num_attrs; ++a) attrs.push_back("a" + std::to_string(a));
  array::Array array = *array::Array::Create(dims, attrs);
  const double density = std::vector<double>{0.02, 0.25, 0.75, 1.0}[rng.NextBelow(4)];
  // Each filled cell keyed by (chunk key, row-major offset in its chunk):
  // sorted, the order Scan must visit them in, derived without Scan.
  std::vector<std::pair<std::vector<int64_t>, array::Coordinates>> filled;
  for (int64_t i = 0; i < cells; ++i) {
    if (!rng.NextBool(density)) continue;
    array::Coordinates coords(num_dims);
    int64_t rem = i;
    for (size_t d = num_dims; d-- > 0;) {
      coords[d] = dims[d].start + rem % dims[d].length;
      rem /= dims[d].length;
    }
    std::vector<int64_t> order(num_dims + 1, 0);
    for (size_t d = 0; d < num_dims; ++d) {
      const int64_t within = coords[d] - dims[d].start;
      order[d] = within / dims[d].chunk_length;
      order[num_dims] = order[num_dims] * dims[d].chunk_length + within % dims[d].chunk_length;
    }
    filled.emplace_back(std::move(order), coords);
    std::vector<double> values;
    for (int a = 0; a < num_attrs; ++a) values.push_back(EdgeDouble(&rng));
    BIGDAWG_CHECK_OK(array.Set(coords, values));
  }
  ExpectSameAsRowBuilt(array);

  std::sort(filled.begin(), filled.end());
  const relational::Table t = *ArrayToTable(array);
  ASSERT_EQ(t.num_rows(), filled.size());
  for (size_t r = 0; r < filled.size(); ++r) {
    for (size_t d = 0; d < num_dims; ++d) {
      ASSERT_EQ(t.ColumnAt(d).Int64At(r), filled[r].second[d]) << "row " << r;
    }
  }
}

// Arrays from TableToArray, whose short dimensions get one chunk clamped
// to their extent, with NaN and -0.0 attributes and NULLs stored as 0.
TEST_P(ArrayToTableOracle, ClampedCastArraysMatchTheRowBuiltConversion) {
  Rng rng(GetParam() * 31 + 5);
  const size_t num_dims = 1 + GetParam() % 3;
  std::vector<Field> fields;
  for (size_t d = 0; d < num_dims; ++d) {
    fields.emplace_back("d" + std::to_string(d), DataType::kInt64);
  }
  fields.emplace_back("x", DataType::kDouble);
  fields.emplace_back("y", DataType::kDouble);
  relational::Table t{Schema(std::move(fields))};
  const int64_t extent = std::vector<int64_t>{1, 3, 9, 13, 70}[rng.NextBelow(5)];
  for (int64_t r = 0; r < 150; ++r) {
    Row row;
    for (size_t d = 0; d < num_dims; ++d) row.emplace_back(rng.NextInt(0, extent - 1));
    row.emplace_back(EdgeDouble(&rng));
    row.push_back(rng.NextBool(0.2) ? Value::Null() : Value(EdgeDouble(&rng)));
    t.AppendUnchecked(std::move(row));
  }
  ExpectSameAsRowBuilt(*TableToArray(t, 64, GetParam() % 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayToTableOracle,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Every ARRAY aggregate's result is a 1-cell array over dimension "i":
// a chunk volume of one, far below a bitmap word.
TEST(ArrayToTableOracleTest, OneCellAggregateArray) {
  array::Array one = *array::Array::Create({array::Dimension("i", 0, 1, 1)}, {"count_mv"});
  BIGDAWG_CHECK_OK(one.Set({0}, {50000.0}));
  ExpectSameAsRowBuilt(one);
  const relational::Table t = *ArrayToTable(one);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.ColumnAt(1).DoubleAt(0), 50000.0);
}

TEST(ArrayToTableOracleTest, EmptyArray) {
  array::Array empty =
      *array::Array::Create({array::Dimension("i", 0, 100, 64)}, {"v", "w"});
  ExpectSameAsRowBuilt(empty);
  EXPECT_EQ(ArrayToTable(empty)->num_rows(), 0u);
}

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
