#include "exec/explain.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/array.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "exec/query_service.h"
#include "obs/clock.h"
#include "obs/slow_query_log.h"

namespace bigdawg {
namespace {

using exec::ExplainMode;
using exec::ParseExplainPrefix;
using obs::FakeClock;

std::string ColumnText(const relational::Table& table) {
  std::string out;
  for (const Row& row : table.rows()) {
    out += *row[0].AsString();
    out += "\n";
  }
  return out;
}

TEST(ExplainPrefixTest, DetectsAndStripsThePrefix) {
  std::string body;
  EXPECT_EQ(ParseExplainPrefix("SELECT * FROM t", &body), ExplainMode::kNone);
  EXPECT_EQ(body, "SELECT * FROM t");

  EXPECT_EQ(ParseExplainPrefix("EXPLAIN SELECT * FROM t", &body),
            ExplainMode::kPlan);
  EXPECT_EQ(body, "SELECT * FROM t");

  EXPECT_EQ(ParseExplainPrefix("  explain analyze ARRAY(scan(a))", &body),
            ExplainMode::kAnalyze);
  EXPECT_EQ(body, "ARRAY(scan(a))");

  // ANALYZE is case-insensitive and optional.
  EXPECT_EQ(ParseExplainPrefix("Explain Analyze q", &body),
            ExplainMode::kAnalyze);
  EXPECT_EQ(body, "q");

  // A longer identifier starting with EXPLAIN is not the keyword.
  EXPECT_EQ(ParseExplainPrefix("EXPLAINER(q)", &body), ExplainMode::kNone);
  EXPECT_EQ(body, "EXPLAINER(q)");

  // Bare EXPLAIN with nothing after it stays a plain query.
  EXPECT_EQ(ParseExplainPrefix("EXPLAIN", &body), ExplainMode::kNone);
  EXPECT_EQ(body, "EXPLAIN");
}

/// Shared polystore: a 20-row readings table on postgres with a fresh
/// scidb replica — the same data the golden-trace suite uses.
class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dawg_.fault_injector().SetClock(&clock_);
    BIGDAWG_CHECK_OK(dawg_.postgres().CreateTable(
        "readings", Schema({Field("t", DataType::kInt64),
                            Field("v", DataType::kDouble)})));
    for (int64_t i = 0; i < 20; ++i) {
      BIGDAWG_CHECK_OK(dawg_.postgres().Insert(
          "readings", {Value(i), Value(static_cast<double>(i) * 0.5)}));
    }
    BIGDAWG_CHECK_OK(
        dawg_.RegisterObject("readings", core::kEnginePostgres, "readings"));
    BIGDAWG_CHECK_OK(dawg_.ReplicateObject("readings", core::kEngineSciDb));
  }

  core::BigDawg dawg_;
  FakeClock clock_{FakeClock::Mode::kAutoAdvance};
};

TEST_F(ExplainTest, PlanRendersScopeLocksAndCasts) {
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});
  auto plan = service.ExecuteSync(
      "EXPLAIN ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->schema().fields()[0].name, "plan");

  const std::string text = ColumnText(*plan);
  EXPECT_NE(text.find("query: ARRAY(aggregate(CAST(readings, array), avg, v))"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("island: ARRAY (engine scidb)"), std::string::npos);
  EXPECT_NE(text.find("locks: shared="), std::string::npos);
  EXPECT_NE(text.find("cast 1: readings (relation on postgres) -> array"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("not executed"), std::string::npos);
}

TEST_F(ExplainTest, PlanIsADryRunThatTouchesNoEngine) {
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});
  // Down engines cannot matter: EXPLAIN reads only the catalog.
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetDown(core::kEnginePostgres, true);
  dawg_.fault_injector().SetDown(core::kEngineSciDb, true);

  auto plan = service.ExecuteSync(
      "EXPLAIN ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // No engine calls were recorded and no CAST temp materialized.
  for (const core::EngineHealth& h : dawg_.monitor().EngineHealthView()) {
    EXPECT_EQ(h.calls, 0) << h.engine;
  }
  auto stats = service.Stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.retries, 0);
}

TEST_F(ExplainTest, PlanSurfacesParseErrors) {
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});
  auto plan = service.ExecuteSync(
      "EXPLAIN RELATIONAL(SELECT * FROM CAST(readings))");
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsParseError()) << plan.status().ToString();
}

TEST_F(ExplainTest, PlanWalksNestedSubqueryCasts) {
  auto steps = dawg_.PlanCasts(
      "RELATIONAL(SELECT * FROM "
      "CAST(ARRAY(filter(CAST(readings, array), v > 1)), relation))");
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  ASSERT_EQ(steps->size(), 2u);
  // Execution order: the inner cast feeds the subquery, then the outer
  // cast consumes its result.
  EXPECT_EQ((*steps)[0].source, "readings");
  EXPECT_EQ((*steps)[0].from_model, "relation");
  EXPECT_EQ((*steps)[0].to_model, "array");
  EXPECT_EQ((*steps)[0].source_engine, "postgres");
  EXPECT_FALSE((*steps)[0].subquery);
  EXPECT_TRUE((*steps)[1].subquery);
  EXPECT_EQ((*steps)[1].from_model, "relation");
  EXPECT_EQ((*steps)[1].to_model, "relation");
}

/// Registers a scidb-homed array whose fetch-as-relation is cacheable
/// (native postgres sources bypass the cache, so the fixture's readings
/// table never shows a temperature).
void RegisterScidbArray(core::BigDawg* dawg) {
  BIGDAWG_CHECK_OK(dawg->scidb().CreateArray(
      "hr", {array::Dimension("i", 0, 4, 4)}, {"bpm"}));
  for (int64_t i = 0; i < 4; ++i) {
    BIGDAWG_CHECK_OK(dawg->scidb().SetCell("hr", {i}, {60.0 + i}));
  }
  BIGDAWG_CHECK_OK(dawg->RegisterObject("hr", core::kEngineSciDb, "hr"));
}

TEST_F(ExplainTest, PlanAnnotatesCacheTemperature) {
  if (!dawg_.cast_cache().enabled()) {
    GTEST_SKIP() << "cast cache disabled via BIGDAWG_CAST_CACHE";
  }
  RegisterScidbArray(&dawg_);
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});

  const std::string query =
      "EXPLAIN RELATIONAL(SELECT * FROM CAST(hr, relation))";
  auto cold = service.ExecuteSync(query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(ColumnText(*cold).find("[cache: cold]"), std::string::npos)
      << ColumnText(*cold);

  // Warm the entry, then the dry-run plan reports it without executing.
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  auto warm = service.ExecuteSync(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_NE(ColumnText(*warm).find("[cache: warm]"), std::string::npos)
      << ColumnText(*warm);

  // A version bump makes the same plan cold again.
  BIGDAWG_CHECK_OK(dawg_.MarkObjectWritten("hr"));
  auto stale = service.ExecuteSync(query);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_NE(ColumnText(*stale).find("[cache: cold]"), std::string::npos)
      << ColumnText(*stale);
}

TEST_F(ExplainTest, AnalyzeReportsCacheOutcomes) {
  if (!dawg_.cast_cache().enabled()) {
    GTEST_SKIP() << "cast cache disabled via BIGDAWG_CAST_CACHE";
  }
  RegisterScidbArray(&dawg_);
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});

  const std::string query =
      "EXPLAIN ANALYZE RELATIONAL(SELECT * FROM CAST(hr, relation))";
  auto first = service.ExecuteSync(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string text = ColumnText(*first);
  EXPECT_NE(text.find("cache=miss"), std::string::npos) << text;
  EXPECT_NE(text.find("cast cache: hits=0 misses=1 coalesced=0"),
            std::string::npos)
      << text;

  auto second = service.ExecuteSync(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  text = ColumnText(*second);
  EXPECT_NE(text.find("cache=hit"), std::string::npos) << text;
  EXPECT_NE(text.find("cast cache: hits=1 misses=0 coalesced=0"),
            std::string::npos)
      << text;
}

/// The EXPLAIN ANALYZE golden: the golden-trace scenario (postgres down,
/// one injected fault on the scidb replica -> exactly one retry and one
/// failover) rendered as a per-stage profile. The tracer stays DISABLED:
/// ANALYZE must trace its own query regardless.
TEST_F(ExplainTest, AnalyzeGoldenProfile) {
  // check.sh runs tier1 with BIGDAWG_TRACE=1, which the Tracer ctor
  // honors — force it off so this test proves ANALYZE traces on its own.
  dawg_.tracer().Disable();
  exec::QueryService service(&dawg_,
                             {.num_workers = 1,
                              .retry = {.max_attempts = 4,
                                        .base_backoff_ms = 2,
                                        .max_backoff_ms = 2},
                              .breaker = {.failure_threshold = 100},
                              .clock = &clock_});
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetDown(core::kEnginePostgres, true);
  dawg_.fault_injector().FailNextCalls(core::kEngineSciDb, 1);

  auto profile = service.ExecuteSync(
      "EXPLAIN ANALYZE ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->schema().fields()[0].name, "profile");

  auto stats = service.Stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.failovers, 1);

  const std::string kGolden =
      "profile: island=ARRAY status=OK attempts=2 failovers=1 total_ms=2.000\n"
      "attempt n=1 error=Unavailable 0.000ms\n"
      "  locks 0.000ms\n"
      "  scope island=ARRAY engine=scidb 0.000ms\n"
      "    cast source=readings from=relation 0.000ms\n"
      "      shim:table object=readings engine=postgres 0.000ms\n"
      "        failover from=postgres error=unavailable 0.000ms\n"
      "          fault engine=scidb 0.000ms\n"
      "backoff delay_ms=2.000 2.000ms\n"
      "attempt n=2 0.000ms\n"
      "  locks 0.000ms\n"
      "  scope island=ARRAY engine=scidb 0.000ms\n"
      "    cast source=readings from=relation to=array rows=20 bytes=320 "
      "temp=__overlay0 0.000ms\n"
      "      shim:table object=readings engine=postgres 0.000ms\n"
      "        failover from=postgres to=scidb 0.000ms\n"
      "    exec 0.000ms\n"
      "stage totals: attempt=0.000ms backoff=2.000ms cast=0.000ms "
      "exec=0.000ms failover=0.000ms fault=0.000ms locks=0.000ms "
      "scope=0.000ms shim=0.000ms\n"
      "cast volume: rows=20 bytes=320\n"
      "engines touched: postgres scidb\n"
      "retries: 1\n";
  EXPECT_EQ(ColumnText(*profile), kGolden);

  // The process-wide tracer was off, so nothing landed in its ring.
  EXPECT_TRUE(dawg_.tracer().FinishedTraces().empty());
}

TEST_F(ExplainTest, AnalyzeStillRecordsToTheTracerWhenEnabled) {
  dawg_.tracer().Enable();
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});
  auto profile =
      service.ExecuteSync("EXPLAIN ANALYZE ARRAY(scan(readings_scidb))");
  // The object does not exist; the profile is withheld and the real error
  // propagates, but a trace of the failed run is still recorded.
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(dawg_.tracer().FinishedTraces().size(), 1u);
  dawg_.tracer().Disable();
}

TEST_F(ExplainTest, AnalyzeFailurePropagatesTheExecutionError) {
  exec::QueryService service(&dawg_, {.num_workers = 1, .clock = &clock_});
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetDown(core::kEngineSciDb, true);
  // ARRAY island needs scidb; readings' replica cannot help the island's
  // own compute engine.
  auto profile = service.ExecuteSync(
      "EXPLAIN ANALYZE ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_FALSE(profile.ok());
  EXPECT_TRUE(profile.status().IsUnavailable()) << profile.status().ToString();
}

// ---------------------------------------------------------------------------
// Slow-query log (service integration)
// ---------------------------------------------------------------------------

TEST_F(ExplainTest, SlowQueryLogRecordsQueriesPastTheThreshold) {
  // Threshold 0: every finished query is "slow" — deterministic under the
  // FakeClock, where most queries take exactly 0 ms.
  exec::QueryService service(
      &dawg_, {.num_workers = 1, .clock = &clock_, .slow_query_ms = 0});
  int64_t session = service.OpenSession();
  ASSERT_TRUE(
      service.ExecuteSync("RELATIONAL(SELECT COUNT(*) AS n FROM readings)",
                          {.session = session})
          .ok());

  std::vector<obs::SlowQueryEntry> entries = service.slow_log().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query_id, 0);
  EXPECT_EQ(entries[0].session, session);
  EXPECT_EQ(entries[0].query, "RELATIONAL(SELECT COUNT(*) AS n FROM readings)");
  EXPECT_EQ(entries[0].island, "RELATIONAL");
  EXPECT_EQ(entries[0].status, "OK");
  EXPECT_EQ(entries[0].attempts, 1);
  const std::string line = entries[0].ToLine();
  EXPECT_NE(line.find("q0 session=" + std::to_string(session)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("status=OK"), std::string::npos);
}

TEST_F(ExplainTest, SlowQueryLogSkipsFastQueries) {
  // Everything under the FakeClock finishes in 0 ms, far below 50.
  exec::QueryService service(
      &dawg_, {.num_workers = 1, .clock = &clock_, .slow_query_ms = 50});
  ASSERT_TRUE(service.ExecuteSync("RELATIONAL(SELECT * FROM readings)").ok());
  EXPECT_TRUE(service.slow_log().Entries().empty());
  EXPECT_EQ(service.slow_log().total_recorded(), 0);
}

TEST_F(ExplainTest, SlowQueryLogRingIsBounded) {
  exec::QueryService service(&dawg_, {.num_workers = 1,
                                      .clock = &clock_,
                                      .slow_query_ms = 0,
                                      .slow_query_capacity = 3});
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(service.ExecuteSync("RELATIONAL(SELECT * FROM readings)").ok());
  }
  std::vector<obs::SlowQueryEntry> entries = service.slow_log().Entries();
  ASSERT_EQ(entries.size(), 3u);
  // Oldest first, and only the newest three survive.
  EXPECT_EQ(entries[0].query_id, 4);
  EXPECT_EQ(entries[2].query_id, 6);
  EXPECT_EQ(service.slow_log().total_recorded(), 7);

  // Drain empties the ring but keeps the lifetime total.
  EXPECT_EQ(service.slow_log().Drain().size(), 3u);
  EXPECT_TRUE(service.slow_log().Entries().empty());
  EXPECT_EQ(service.slow_log().total_recorded(), 7);
}

TEST(SlowQueryLogTest, ThresholdComesFromTheEnvironment) {
  ASSERT_EQ(setenv("BIGDAWG_SLOW_MS", "7.5", 1), 0);
  obs::SlowQueryLog from_env;  // threshold < 0 reads the env
  EXPECT_DOUBLE_EQ(from_env.threshold_ms(), 7.5);
  EXPECT_FALSE(from_env.ShouldLog(7.4));
  EXPECT_TRUE(from_env.ShouldLog(7.5));

  ASSERT_EQ(setenv("BIGDAWG_SLOW_MS", "not-a-number", 1), 0);
  obs::SlowQueryLog fallback;
  EXPECT_DOUBLE_EQ(fallback.threshold_ms(),
                   obs::SlowQueryLog::kDefaultThresholdMs);

  ASSERT_EQ(unsetenv("BIGDAWG_SLOW_MS"), 0);
  obs::SlowQueryLog unset;
  EXPECT_DOUBLE_EQ(unset.threshold_ms(),
                   obs::SlowQueryLog::kDefaultThresholdMs);

  obs::SlowQueryLog explicit_threshold(12.0);
  EXPECT_DOUBLE_EQ(explicit_threshold.threshold_ms(), 12.0);
}

}  // namespace
}  // namespace bigdawg
