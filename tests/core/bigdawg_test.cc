#include "core/bigdawg.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/logging.h"
#include "obs/clock.h"

namespace bigdawg::core {
namespace {

// A miniature MIMIC-II style deployment: patient metadata in Postgres,
// waveforms in SciDB, notes in Accumulo, a live stream in S-Store.
class BigDawgTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Relational: patients.
    BIGDAWG_CHECK_OK(dawg_.postgres().CreateTable(
        "patients", Schema({Field("patient_id", DataType::kInt64),
                            Field("name", DataType::kString),
                            Field("age", DataType::kInt64),
                            Field("race", DataType::kString)})));
    BIGDAWG_CHECK_OK(dawg_.postgres().InsertMany(
        "patients", {{Value(0), Value("ann"), Value(70), Value("white")},
                     {Value(1), Value("bob"), Value(45), Value("black")},
                     {Value(2), Value("cal"), Value(61), Value("asian")}}));
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("patients", kEnginePostgres, "patients"));

    // Array: waveforms (patient x time -> hr).
    BIGDAWG_CHECK_OK(dawg_.scidb().CreateArray(
        "waveforms", {array::Dimension("patient_id", 0, 3, 1),
                      array::Dimension("t", 0, 8, 8)}, {"hr"}));
    for (int64_t p = 0; p < 3; ++p) {
      for (int64_t t = 0; t < 8; ++t) {
        BIGDAWG_CHECK_OK(dawg_.scidb().SetCell(
            "waveforms", {p, t},
            {60.0 + static_cast<double>(p) * 10.0 + static_cast<double>(t)}));
      }
    }
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("waveforms", kEngineSciDb, "waveforms"));

    // Text: doctors' notes.
    BIGDAWG_CHECK_OK(dawg_.accumulo().AddDocument("n1", "0", "patient very sick"));
    BIGDAWG_CHECK_OK(dawg_.accumulo().AddDocument("n2", "0", "still very sick"));
    BIGDAWG_CHECK_OK(dawg_.accumulo().AddDocument("n3", "1", "recovering well"));
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("notes", kEngineAccumulo, "notes"));

    // Stream: live vitals.
    BIGDAWG_CHECK_OK(dawg_.sstore().CreateStream(
        "vitals", Schema({Field("patient_id", DataType::kInt64),
                          Field("hr", DataType::kDouble)}), 100));
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("vitals", kEngineSStore, "vitals"));
  }

  BigDawg dawg_;
};

TEST_F(BigDawgTest, ExposesEightIslands) {
  auto islands = dawg_.ListIslands();
  EXPECT_EQ(islands.size(), 8u);
  for (const char* name : {"RELATIONAL", "ARRAY", "TEXT", "STREAM", "D4M",
                           "MYRIA", "POSTGRES", "SCIDB"}) {
    EXPECT_TRUE(dawg_.GetIsland(name).ok()) << name;
  }
  EXPECT_TRUE(dawg_.GetIsland("SPARK").status().IsNotFound());
}

TEST_F(BigDawgTest, DefaultScopeIsRelational) {
  auto result = *dawg_.Execute("SELECT name FROM patients WHERE age > 50 ORDER BY name");
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(*result.At(0, "name"), Value("ann"));
}

TEST_F(BigDawgTest, ExplicitRelationalScope) {
  auto result = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM patients)");
  EXPECT_EQ(*result.At(0, "n"), Value(3));
}

TEST_F(BigDawgTest, ArrayIslandQuery) {
  auto result = *dawg_.Execute("ARRAY(aggregate(waveforms, avg, hr, patient_id))");
  ASSERT_EQ(result.num_rows(), 3u);
  // Patient 0: mean of 60..67 = 63.5.
  EXPECT_EQ(*result.At(0, "avg_hr"), Value(63.5));
}

TEST_F(BigDawgTest, TextIslandQuery) {
  auto result = *dawg_.Execute("TEXT(OWNERS_WITH_PHRASE 'very sick' 2)");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(*result.At(0, "owner"), Value("0"));
  EXPECT_EQ(*result.At(0, "matching_docs"), Value(2));
}

TEST_F(BigDawgTest, CastArrayToRelationInSql) {
  // The paper's example: a relational query over an array via CAST.
  auto result = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(waveforms, relation) "
      "WHERE hr > 75)");
  // hr values: patient2 has 80..87 (8 cells) + patient1 76,77 (2 cells).
  EXPECT_EQ(*result.At(0, "n"), Value(10));
}

TEST_F(BigDawgTest, CrossIslandJoinThroughShims) {
  // Join relational metadata with array waveforms, no explicit CAST: the
  // relational island shims the array in via the catalog.
  auto result = *dawg_.Execute(
      "RELATIONAL(SELECT p.name, AVG(w.hr) AS avg_hr FROM patients p "
      "JOIN waveforms w ON p.patient_id = w.patient_id "
      "GROUP BY p.name ORDER BY p.name)");
  ASSERT_EQ(result.num_rows(), 3u);
  EXPECT_EQ(*result.At(0, "name"), Value("ann"));
  EXPECT_EQ(*result.At(0, "avg_hr"), Value(63.5));
  EXPECT_EQ(*result.At(2, "avg_hr"), Value(83.5));
}

TEST_F(BigDawgTest, NestedScopedCast) {
  // CAST whose source is itself an island query: filter in the array
  // island, then aggregate relationally.
  auto result = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM "
      "CAST(ARRAY(filter(waveforms, hr >= 80)), relation))");
  EXPECT_EQ(*result.At(0, "n"), Value(8));
}

TEST_F(BigDawgTest, CastToArrayAndQueryInArrayIsland) {
  // Relational data cast into the array island.
  BIGDAWG_CHECK_OK(dawg_.postgres().CreateTable(
      "readings", Schema({Field("t", DataType::kInt64),
                          Field("v", DataType::kDouble)})));
  for (int64_t i = 0; i < 16; ++i) {
    BIGDAWG_CHECK_OK(
        dawg_.postgres().Insert("readings", {Value(i), Value(static_cast<double>(i))}));
  }
  BIGDAWG_CHECK_OK(dawg_.RegisterObject("readings", kEnginePostgres, "readings"));
  auto result = *dawg_.Execute(
      "ARRAY(aggregate(CAST(readings, array), sum, v))");
  EXPECT_EQ(*result.At(0, "sum_v"), Value(120.0));
}

TEST_F(BigDawgTest, MyriaIslandOptimizedQuery) {
  auto result = *dawg_.Execute(
      "MYRIA(SELECT race, COUNT(*) AS n FROM patients GROUP BY race)");
  EXPECT_EQ(result.num_rows(), 3u);
}

TEST_F(BigDawgTest, MyriaCrossEngineJoin) {
  auto result = *dawg_.Execute(
      "MYRIA(SELECT name FROM patients JOIN waveforms ON patient_id = "
      "patient_id WHERE hr > 85)");
  // patient 2 cells 86, 87.
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(*result.At(0, "name"), Value("cal"));
}

TEST_F(BigDawgTest, D4mIslandOverTextIndex) {
  // The D4M view of the notes corpus: term x doc incidence.
  auto result = *dawg_.Execute("D4M(ROWSUM notes)");
  // "very" and "sick" each appear in two docs.
  bool found_sick = false;
  for (const Row& row : result.rows()) {
    if (row[0] == Value("sick")) {
      EXPECT_EQ(row[1], Value(2.0));
      found_sick = true;
    }
  }
  EXPECT_TRUE(found_sick);
}

TEST_F(BigDawgTest, D4mTriplesOfRelationalObject) {
  auto result = *dawg_.Execute("D4M(TRIPLES patients)");
  // 3 patients x 3 non-key columns.
  EXPECT_EQ(result.num_rows(), 9u);
}

TEST_F(BigDawgTest, StreamIslandInspection) {
  dawg_.sstore().Start();
  BIGDAWG_CHECK_OK(dawg_.sstore().Ingest("vitals", {Value(0), Value(99.0)}));
  dawg_.sstore().WaitForDrain();
  dawg_.sstore().Stop();
  auto result = *dawg_.Execute("STREAM(STREAM vitals)");
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(*result.At(0, "hr"), Value(99.0));
}

TEST_F(BigDawgTest, LiveAndHistoricalUnionQuery) {
  // The §3 pattern: current data in S-Store, history in SciDB; a
  // cross-system query sees both.
  dawg_.sstore().Start();
  BIGDAWG_CHECK_OK(dawg_.sstore().Ingest("vitals", {Value(0), Value(150.0)}));
  dawg_.sstore().WaitForDrain();
  dawg_.sstore().Stop();
  auto live = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM vitals WHERE hr > 100)");
  auto history = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM waveforms WHERE hr > 100)");
  EXPECT_EQ(*live.At(0, "n"), Value(1));
  EXPECT_EQ(*history.At(0, "n"), Value(0));
}

TEST_F(BigDawgTest, DegenerateIslandsAllowFullNativePower) {
  // DDL through the degenerate POSTGRES island (rejected by RELATIONAL).
  EXPECT_TRUE(dawg_.Execute("RELATIONAL(CREATE TABLE t2 (x int64))").status()
                  .IsInvalidArgument());
  BIGDAWG_CHECK_OK(dawg_.Execute("POSTGRES(CREATE TABLE t2 (x int64))").status());
  BIGDAWG_CHECK_OK(dawg_.Execute("POSTGRES(INSERT INTO t2 VALUES (5))").status());
  auto result = *dawg_.Execute("POSTGRES(SELECT * FROM t2)");
  EXPECT_EQ(result.num_rows(), 1u);
}

TEST_F(BigDawgTest, MonitorDrivenMigration) {
  // Start: waveforms live in SciDB. Hammer them with relational queries.
  for (int i = 0; i < 12; ++i) {
    BIGDAWG_CHECK_OK(
        dawg_.Execute("RELATIONAL(SELECT COUNT(*) AS n FROM waveforms)").status());
  }
  auto suggestions = dawg_.monitor().SuggestMigrations(dawg_.catalog());
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_EQ(suggestions[0].object, "waveforms");
  EXPECT_EQ(suggestions[0].to_engine, kEnginePostgres);

  int64_t migrated = *dawg_.ApplyMigrations();
  EXPECT_EQ(migrated, 1);
  EXPECT_EQ((*dawg_.catalog().Lookup("waveforms")).engine, kEnginePostgres);
  EXPECT_FALSE(dawg_.scidb().HasArray("waveforms"));

  // Still queryable through both islands (location transparency).
  auto relational = *dawg_.Execute("SELECT COUNT(*) AS n FROM waveforms");
  EXPECT_EQ(*relational.At(0, "n"), Value(24));
  auto arr = *dawg_.Execute("ARRAY(aggregate(waveforms, count, hr))");
  EXPECT_EQ(*arr.At(0, "count_hr"), Value(24.0));
}

TEST_F(BigDawgTest, MigrationRoundTripPreservesData) {
  BIGDAWG_CHECK_OK(dawg_.MigrateObject("waveforms", kEnginePostgres));
  BIGDAWG_CHECK_OK(dawg_.MigrateObject("waveforms", kEngineSciDb));
  auto result = *dawg_.Execute("ARRAY(aggregate(waveforms, sum, hr))");
  // Sum of 60..67 + 70..77 + 80..87 = 3*8*70 + ... compute: (63.5+73.5+83.5)*8
  EXPECT_EQ(*result.At(0, "sum_hr"), Value((63.5 + 73.5 + 83.5) * 8));
}

TEST_F(BigDawgTest, CastAndStorePersistsObjects) {
  BIGDAWG_CHECK_OK(dawg_.CastAndStore("waveforms", DataModel::kTileMatrix,
                                      "waveforms_tiles"));
  EXPECT_TRUE(dawg_.tiledb().HasArray("waveforms_tiles"));
  EXPECT_EQ((*dawg_.catalog().Lookup("waveforms_tiles")).engine, kEngineTileDb);
  auto table = *dawg_.FetchAsTable("waveforms_tiles");
  EXPECT_EQ(table.num_rows(), 24u);
}

// Every object the catalog and the engines hold, as one comparable dump.
std::string EngineAndCatalogState(BigDawg& dawg) {
  std::string out;
  for (const ObjectLocation& loc : dawg.catalog().List()) {
    out += "catalog " + loc.object + "@" + loc.engine + ":" + loc.native_name + "\n";
  }
  for (const std::string& t : dawg.postgres().ListTables()) out += "postgres " + t + "\n";
  for (const std::string& a : dawg.scidb().ListArrays()) out += "scidb " + a + "\n";
  for (const std::string& a : dawg.tiledb().ListArrays()) out += "tiledb " + a + "\n";
  for (const auto& [name, assoc] : dawg.assoc_store()) out += "d4m " + name + "\n";
  for (const std::string& d : dawg.accumulo().ListDocumentIds()) {
    out += "accumulo " + d + "\n";
  }
  for (const std::string& t : dawg.sstore().ListTables()) out += "sstore " + t + "\n";
  return out;
}

TEST_F(BigDawgTest, CastWritesNoEngineOrCatalog) {
  const std::string before = EngineAndCatalogState(dawg_);

  // A successful CAST.
  auto cast = dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(waveforms, relation))");
  ASSERT_TRUE(cast.ok()) << cast.status().ToString();
  EXPECT_EQ(*cast->At(0, "n"), Value(24));
  EXPECT_EQ(EngineAndCatalogState(dawg_), before);

  // A nested CAST: the inner result feeds the ARRAY subquery, whose
  // result the outer CAST hands to the relational island.
  auto nested = dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(ARRAY(filter(CAST(waveforms, "
      "array), hr >= 80)), relation))");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(*nested->At(0, "n"), Value(8));
  EXPECT_EQ(EngineAndCatalogState(dawg_), before);

  // A failed CAST: a 1-D source cannot become a tile matrix.
  auto failed = dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(RELATIONAL(SELECT "
      "patient_id, hr FROM waveforms WHERE t = 0), tilematrix))");
  EXPECT_TRUE(failed.status().IsFailedPrecondition()) << failed.status().ToString();
  EXPECT_EQ(EngineAndCatalogState(dawg_), before);

  // A CAST cancelled while its source read is in flight: the read
  // finishes, and the query stops before the island runs. (A native
  // postgres read, so no cast-cache entry can serve it without parking.)
  obs::FakeClock clock;
  dawg_.fault_injector().SetClock(&clock);
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetLatencyMs(kEnginePostgres, 10);
  std::atomic<bool> cancelled{false};
  std::atomic<bool> done{false};
  ExecContext ctx;
  ctx.cancelled = &cancelled;
  std::thread query([&] {
    auto r = dawg_.Execute(
        "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(patients, assoc))", &ctx);
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
    done.store(true);
  });
  while (clock.sleepers() < 1 && !done.load()) std::this_thread::yield();
  cancelled.store(true);
  clock.AdvanceMs(10);
  query.join();
  dawg_.fault_injector().Disable();
  dawg_.fault_injector().SetClock(obs::Clock::System());
  EXPECT_TRUE(ctx.overlay.empty());
  EXPECT_EQ(EngineAndCatalogState(dawg_), before);
}

TEST_F(BigDawgTest, CastSucceedsWhileTheTargetModelsEngineIsDown) {
  // The CAST result never touches the target model's engine, so d4m
  // being down does not matter to a CAST into the associative model.
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetDown(kEngineD4m, true);
  auto result = dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(patients, assoc))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One (row, col, value) triple per non-key cell: 3 patients x 3 columns.
  EXPECT_EQ(*result->At(0, "n"), Value(9));
}

TEST_F(BigDawgTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(dawg_.Execute("RELATIONAL(SELECT * FROM ghost)").status().IsNotFound());
  EXPECT_TRUE(dawg_.Execute("ARRAY(aggregate(ghost, avg, v))").status().IsNotFound());
  EXPECT_TRUE(
      dawg_.Execute("RELATIONAL(SELECT * FROM CAST(patients))").status().IsParseError());
  EXPECT_TRUE(dawg_.Execute("RELATIONAL(SELECT * FROM CAST(patients, graph))")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(dawg_.RegisterObject("x", "oracle", "x").IsInvalidArgument());
  // Single-engine scopes read only their engine's own objects, so they
  // cannot read a CAST result; the error names the island to use.
  Status in_postgres =
      dawg_.Execute("POSTGRES(SELECT * FROM CAST(waveforms, relation))").status();
  EXPECT_TRUE(in_postgres.IsInvalidArgument()) << in_postgres.ToString();
  EXPECT_NE(in_postgres.message().find("RELATIONAL"), std::string::npos)
      << in_postgres.ToString();
  Status in_scidb =
      dawg_.Execute("SCIDB(aggregate(CAST(patients, array), avg, age))").status();
  EXPECT_TRUE(in_scidb.IsInvalidArgument()) << in_scidb.ToString();
  EXPECT_NE(in_scidb.message().find("ARRAY"), std::string::npos)
      << in_scidb.ToString();
}

TEST_F(BigDawgTest, ScopeParsingSurvivesParensInStringLiterals) {
  // A ')' inside a string literal must not end the SCOPE early.
  BIGDAWG_CHECK_OK(dawg_.postgres().CreateTable(
      "tagged", Schema({Field("tag", DataType::kString)})));
  BIGDAWG_CHECK_OK(dawg_.postgres().Insert("tagged", {Value(")weird(")}));
  BIGDAWG_CHECK_OK(dawg_.RegisterObject("tagged", kEnginePostgres, "tagged"));
  auto result = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM tagged WHERE tag = ')weird(')");
  EXPECT_EQ(*result.At(0, "n"), Value(1));
  // Escaped quotes inside literals too.
  auto escaped = *dawg_.Execute(
      "RELATIONAL(SELECT COUNT(*) AS n FROM tagged WHERE tag = 'it''s ) here')");
  EXPECT_EQ(*escaped.At(0, "n"), Value(0));
}

TEST_F(BigDawgTest, GetIslandIsCaseInsensitive) {
  EXPECT_TRUE(dawg_.GetIsland("relational").ok());
  EXPECT_TRUE(dawg_.GetIsland("Array").ok());
}

TEST_F(BigDawgTest, FetchAsAssocFromEveryEngine) {
  auto from_relational = *dawg_.FetchAsAssoc("patients");
  EXPECT_GT(from_relational.NumNonEmpty(), 0u);
  auto from_text = *dawg_.FetchAsAssoc("notes");
  EXPECT_TRUE(from_text.Contains("sick", "n1"));
  auto from_array = *dawg_.FetchAsAssoc("waveforms");
  EXPECT_GT(from_array.NumNonEmpty(), 0u);
}

}  // namespace
}  // namespace bigdawg::core
