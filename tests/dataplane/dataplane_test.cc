// The zero-copy data plane tier: blocks are shared by pointer across
// handle copies, engine reads, cast-cache hits, and shard gathers; the
// first mutation of a shared handle thaws a private clone. The checksum
// oracle pins the invariant that no write through one handle is ever
// visible through another.

#include <gtest/gtest.h>

#include "common/columnar.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "core/sharding.h"
#include "core/wire_format.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace bigdawg::core {
namespace {

relational::Table PatientsTable() {
  relational::Table t{Schema({Field("patient_id", DataType::kInt64),
                              Field("name", DataType::kString),
                              Field("hr", DataType::kDouble)})};
  for (int64_t i = 0; i < 16; ++i) {
    t.AppendUnchecked({Value(i), Value("p" + std::to_string(i)),
                       Value(60.0 + static_cast<double>(i))});
  }
  return t;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Content checksum over schema and every cell — the mutation oracle.
uint64_t TableChecksum(const relational::Table& t) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < t.schema().num_fields(); ++i) {
    h = Fnv(h, t.schema().field(i).name);
  }
  for (const Row& row : t.rows()) {
    for (const Value& v : row) {
      h = Fnv(h, std::to_string(static_cast<int>(v.type())));
      h = Fnv(h, v.ToString());
    }
  }
  return h;
}

uint64_t AssocChecksum(const d4m::AssocArray& a) {
  uint64_t h = 1469598103934665603ull;
  a.ForEach([&h](const std::string& row, const std::string& col,
                 const Value& v) {
    h = Fnv(h, row);
    h = Fnv(h, col);
    h = Fnv(h, v.ToString());
  });
  return h;
}

// ---------------------------------------------------------------------------
// Handle copies are pointer swaps; mutation thaws a private clone.
// ---------------------------------------------------------------------------

TEST(DataPlaneTest, TableCopyIsZeroCopyShare) {
  relational::Table a = PatientsTable();
  EXPECT_TRUE(a.UniquelyOwned());
  relational::Table b = a;
  EXPECT_TRUE(a.SharesStorageWith(b));
  EXPECT_FALSE(a.UniquelyOwned());
  EXPECT_FALSE(b.UniquelyOwned());
}

TEST(DataPlaneTest, MutatingThawedCopyNeverAltersTheOriginal) {
  relational::Table original = PatientsTable();
  const uint64_t before = TableChecksum(original);

  relational::Table copy = original;
  ASSERT_TRUE(copy.SharesStorageWith(original));
  copy.AppendUnchecked({Value(99), Value("intruder"), Value(0.0)});
  copy.mutable_rows()[0][2] = Value(-1.0);

  EXPECT_FALSE(copy.SharesStorageWith(original));  // thawed onto a clone
  EXPECT_EQ(TableChecksum(original), before);
  EXPECT_EQ(original.num_rows(), 16u);
  EXPECT_EQ(copy.num_rows(), 17u);
}

TEST(DataPlaneTest, ThawOnUniqueHandleDoesNotClone) {
  relational::Table t = PatientsTable();
  const std::vector<Row>* before = &t.rows();
  t.Thaw();
  EXPECT_EQ(&t.rows(), before);  // unique owner mutates in place
}

TEST(DataPlaneTest, ArrayCowIsolatesChunkWrites) {
  array::Array a = *array::Array::Create(
      {array::Dimension("x", 0, 8, 4)}, {"v"});
  for (int64_t x = 0; x < 8; ++x) {
    BIGDAWG_CHECK_OK(a.Set({x}, {static_cast<double>(x)}));
  }
  array::Array b = a;
  ASSERT_TRUE(a.SharesStorageWith(b));

  BIGDAWG_CHECK_OK(b.Set({3}, {100.0}));
  EXPECT_FALSE(a.SharesStorageWith(b));
  EXPECT_EQ((*a.Get({3}))[0], 3.0);    // original untouched
  EXPECT_EQ((*b.Get({3}))[0], 100.0);
  EXPECT_EQ((*b.Get({7}))[0], 7.0);    // untouched chunk carried over
}

TEST(DataPlaneTest, AssocCowIsolatesCellWrites) {
  d4m::AssocArray a;
  a.Set("r1", "c1", Value(1.0));
  a.Set("r2", "c2", Value(2.0));
  const uint64_t before = AssocChecksum(a);

  d4m::AssocArray b = a;
  ASSERT_TRUE(a.SharesStorageWith(b));
  b.Set("r1", "c1", Value(42.0));
  b.Set("r3", "c3", Value(3.0));

  EXPECT_FALSE(a.SharesStorageWith(b));
  EXPECT_EQ(AssocChecksum(a), before);
  EXPECT_EQ(a.NumNonEmpty(), 2u);
  EXPECT_EQ(b.NumNonEmpty(), 3u);
}

// ---------------------------------------------------------------------------
// Engine reads and cast-cache hits share blocks with the source.
// ---------------------------------------------------------------------------

TEST(DataPlaneTest, DatabaseGetTableSharesTheStoredBlock) {
  relational::Database db;
  BIGDAWG_CHECK_OK(db.PutTable("patients", PatientsTable()));
  relational::Table a = *db.GetTable("patients");
  relational::Table b = *db.GetTable("patients");
  EXPECT_TRUE(a.SharesStorageWith(b));
}

TEST(DataPlaneTest, CacheHitAndSourceShareBuffers) {
  BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.postgres().CreateTable(
      "patients", Schema({Field("patient_id", DataType::kInt64),
                          Field("hr", DataType::kDouble)})));
  for (int64_t i = 0; i < 8; ++i) {
    BIGDAWG_CHECK_OK(dawg.postgres().Insert(
        "patients", {Value(i), Value(60.0 + static_cast<double>(i))}));
  }
  BIGDAWG_CHECK_OK(dawg.RegisterObject("patients", kEnginePostgres,
                                       "patients"));

  // Same-model fetches share the engine's stored block.
  relational::Table t1 = *dawg.FetchAsTable("patients");
  relational::Table t2 = *dawg.FetchAsTable("patients");
  EXPECT_TRUE(t1.SharesStorageWith(t2));

  // Cross-model fetches go through the cast cache: the first call
  // converts, the second is a hit — both handles alias the cached block.
  d4m::AssocArray a1 = *dawg.FetchAsAssoc("patients");
  d4m::AssocArray a2 = *dawg.FetchAsAssoc("patients");
  array::Array arr1 = *dawg.FetchAsArray("patients");
  array::Array arr2 = *dawg.FetchAsArray("patients");
  if (dawg.cast_cache().enabled()) {
    EXPECT_TRUE(a1.SharesStorageWith(a2));
    EXPECT_TRUE(arr1.SharesStorageWith(arr2));
  } else {
    // Cache killed (BIGDAWG_CAST_CACHE=0): every fetch converts afresh,
    // so the answers are equal but never share storage, and no hit is
    // counted.
    EXPECT_EQ(EncodeAssoc(a1), EncodeAssoc(a2));
    EXPECT_FALSE(a1.SharesStorageWith(a2));
    EXPECT_EQ(EncodeArray(arr1), EncodeArray(arr2));
    EXPECT_FALSE(arr1.SharesStorageWith(arr2));
    EXPECT_EQ(dawg.cast_cache().Stats().hits, 0);
  }
}

TEST(DataPlaneTest, MutatingACacheHitNeverCorruptsTheCache) {
  BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.postgres().CreateTable(
      "patients", Schema({Field("patient_id", DataType::kInt64),
                          Field("hr", DataType::kDouble)})));
  BIGDAWG_CHECK_OK(dawg.postgres().Insert("patients", {Value(0), Value(60.0)}));
  BIGDAWG_CHECK_OK(dawg.RegisterObject("patients", kEnginePostgres,
                                       "patients"));

  d4m::AssocArray hit = *dawg.FetchAsAssoc("patients");
  const uint64_t cached = AssocChecksum(hit);
  hit.Set("poison", "poison", Value(666.0));

  d4m::AssocArray again = *dawg.FetchAsAssoc("patients");
  EXPECT_EQ(AssocChecksum(again), cached);
  EXPECT_FALSE(again.Contains("poison", "poison"));
}

// A stream-history read (the age-out reader's history_cast) must stay
// columnar end to end: the cast relation is born from columns, the COUNT/
// SUM over it materializes only its one output row, and no step builds
// the relation's rows. A change that forces rows on cast results fails
// here.
TEST(DataPlaneTest, HistoryCastCountSumBuildsNoRows) {
  BigDawg dawg;
  relational::Table history{Schema({Field("hist_seq", DataType::kInt64),
                                    Field("patient_id", DataType::kInt64),
                                    Field("mv", DataType::kDouble)})};
  constexpr int64_t kRows = 1000;
  double sum = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    const double mv = 0.25 * static_cast<double>(i % 97);
    history.AppendUnchecked({Value(i), Value(i % 4), Value(mv)});
    sum += mv;
  }
  BIGDAWG_CHECK_OK(dawg.StoreStreamHistory("h", history));

  Result<relational::Table> answer = dawg.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n, SUM(mv) AS s FROM CAST(h, relation))");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->num_rows(), 1u);
  EXPECT_EQ(answer->rows()[0][0], Value(kRows));
  EXPECT_EQ(answer->rows()[0][1], Value(sum));

  // With the cache on, this fetch is a hit: the very block the query read.
  const int64_t hits = dawg.cast_cache().Stats().hits;
  const relational::Table cast = *dawg.FetchAsTable("h");
  if (dawg.cast_cache().enabled()) {
    EXPECT_EQ(dawg.cast_cache().Stats().hits, hits + 1);
  }
  EXPECT_FALSE(cast.HasRowStorage());

  relational::Statement stmt =
      *relational::ParseSql("SELECT COUNT(*) AS n, SUM(mv) AS s FROM h");
  relational::CatalogStats catalog;
  catalog.schema = [&cast](const std::string&) -> Result<Schema> { return cast.schema(); };
  relational::PlanPtr plan =
      *relational::LowerSelect(std::get<relational::SelectStatement>(stmt), catalog);
  relational::ExecStats stats;
  Result<relational::Table> direct = relational::ExecutePlan(
      *plan, [&cast](const std::string&) -> Result<relational::Table> { return cast; },
      &stats);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(EncodeTable(*direct), EncodeTable(*answer));
  EXPECT_EQ(stats.rows_materialized, 1);
  EXPECT_FALSE(cast.HasRowStorage());

  // ByteSize (cache accounting, the CAST span's bytes tag) is the row
  // formula's value; a thawed copy computes it from real rows.
  relational::Table thawed = cast;
  thawed.Thaw();
  EXPECT_TRUE(thawed.HasRowStorage());
  EXPECT_FALSE(cast.HasRowStorage());
  int64_t row_bytes = 0;
  for (const Row& row : thawed.rows()) {
    for (const Value& v : row) row_bytes += common::ValueByteSize(v);
  }
  EXPECT_EQ(thawed.ByteSize(), row_bytes);
  EXPECT_EQ(cast.ByteSize(), row_bytes);
  EXPECT_EQ(row_bytes, kRows * 3 * 8);
}

// ---------------------------------------------------------------------------
// Shard gather fast paths.
// ---------------------------------------------------------------------------

TEST(DataPlaneTest, SingleFragmentGatherIsAPointerSwap) {
  relational::Table frag = PatientsTable();
  relational::Table witness = frag;  // keeps the block alive and shared
  std::vector<relational::Table> fragments;
  fragments.push_back(frag);
  relational::Table merged = *MergeTableFragments(std::move(fragments));
  EXPECT_TRUE(merged.SharesStorageWith(witness));
}

TEST(DataPlaneTest, MultiFragmentGatherLeavesSharedFragmentsIntact) {
  relational::Table frag = PatientsTable();
  relational::Table cached = frag;  // simulates a cache-resident fragment
  const uint64_t before = TableChecksum(cached);

  std::vector<relational::Table> fragments{frag, PatientsTable()};
  relational::Table merged = *MergeTableFragments(std::move(fragments));
  EXPECT_EQ(merged.num_rows(), 32u);
  EXPECT_EQ(TableChecksum(cached), before);  // merge copied, never thawed
}

// ---------------------------------------------------------------------------
// Block-carried byte sizes and column views.
// ---------------------------------------------------------------------------

TEST(DataPlaneTest, ByteSizeIsBlockMetadataAndTracksMutation) {
  relational::Table t = PatientsTable();
  int64_t expected = 0;
  for (const Row& row : t.rows()) {
    for (const Value& v : row) expected += common::ValueByteSize(v);
  }
  EXPECT_EQ(t.ByteSize(), expected);

  // The memo rides the shared block: a copy answers without recomputing.
  relational::Table copy = t;
  EXPECT_EQ(copy.ByteSize(), expected);

  copy.AppendUnchecked({Value(100), Value("x"), Value(1.0)});
  EXPECT_EQ(copy.ByteSize(), expected + 8 + 1 + 8);
  EXPECT_EQ(t.ByteSize(), expected);  // original memo undisturbed
}

TEST(DataPlaneTest, ColumnViewIsSharedAndSurvivesTheHandle) {
  common::ColumnView view;
  {
    relational::Table t = PatientsTable();
    view = *t.Column("hr");
    // A second read of the same column reuses the same slice.
    common::ColumnView again = *t.Column("hr");
    EXPECT_EQ(view.slice().get(), again.slice().get());
  }  // table handle dies; the slice must not
  ASSERT_EQ(view.size(), 16u);
  EXPECT_EQ(view[3].double_unchecked(), 63.0);
  EXPECT_EQ(view.null_count(), 0);
}

TEST(DataPlaneTest, ColumnViewReflectsNullsViaBitmap) {
  relational::Table t{Schema({Field("v", DataType::kDouble)})};
  t.AppendUnchecked({Value(1.0)});
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value(3.0)});
  common::ColumnView v = t.ColumnAt(0);
  EXPECT_FALSE(v.IsNull(0));
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_FALSE(v.IsNull(2));
  EXPECT_EQ(v.null_count(), 1);
}

TEST(DataPlaneTest, ColumnResolutionErrorsSurviveTheRefactor) {
  relational::Table t = PatientsTable();
  EXPECT_TRUE(t.Column("no_such_column").status().IsInvalidArgument() ||
              t.Column("no_such_column").status().IsNotFound());
}

}  // namespace
}  // namespace bigdawg::core
