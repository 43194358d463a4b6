#include "obs/profiler.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "array/array.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "exec/query_service.h"
#include "obs/clock.h"

namespace bigdawg {
namespace {

using obs::ClassProfile;
using obs::FakeClock;
using obs::Profiler;
using obs::TraceSpan;

TraceSpan Span(const std::string& name, double duration_ms,
               std::vector<std::pair<std::string, std::string>> tags = {},
               std::vector<TraceSpan> children = {}) {
  TraceSpan span;
  span.name = name;
  span.duration_ms = duration_ms;
  span.tags = std::move(tags);
  span.children = std::move(children);
  return span;
}

TEST(ProfilerTest, FoldsSelfTimeAndClassKeysFromTheRootIslandTag) {
  Profiler profiler;
  // query(10) -> scope(8) -> exec(6): self = 2 / 2 / 6.
  profiler.Ingest(Span(
      "query", 10.0, {{"island", "RELATIONAL"}, {"status", "OK"}},
      {Span("scope", 8.0, {{"engine", "postgres"}},
            {Span("exec", 6.0)})}));

  ClassProfile profile = profiler.Snapshot("RELATIONAL");
  EXPECT_EQ(profile.queries, 1);
  EXPECT_EQ(profile.errors, 0);
  EXPECT_DOUBLE_EQ(profile.total_ms, 10.0);
  EXPECT_DOUBLE_EQ(profile.root.self_ms, 2.0);
  ASSERT_EQ(profile.root.children.count("scope"), 1u);
  const obs::ProfileNode& scope = profile.root.children.at("scope");
  EXPECT_DOUBLE_EQ(scope.self_ms, 2.0);
  EXPECT_DOUBLE_EQ(scope.children.at("exec").self_ms, 6.0);
  // exec self time lands on the enclosing scope's engine.
  ASSERT_EQ(profile.engines.count("postgres"), 1u);
  EXPECT_EQ(profile.engines.at("postgres").execs, 1);
  EXPECT_DOUBLE_EQ(profile.engines.at("postgres").exec_self_ms, 6.0);
  EXPECT_DOUBLE_EQ(profiler.ExecSelfShare("RELATIONAL"), 0.6);

  // An untagged root folds into the "unknown" class, not a crash.
  profiler.Ingest(Span("query", 1.0));
  EXPECT_EQ(profiler.Snapshot("unknown").queries, 1);
  EXPECT_EQ(profiler.Classes(),
            (std::vector<std::string>{"RELATIONAL", "unknown"}));
}

TEST(ProfilerTest, SelfTimeClampsWhenChildrenOutlastTheParent) {
  Profiler profiler;
  // Clock rounding can make a child's rounded duration exceed its
  // parent's; self time must clamp at zero, not go negative.
  profiler.Ingest(Span("query", 1.0, {{"island", "X"}},
                       {Span("scope", 1.5)}));
  EXPECT_DOUBLE_EQ(profiler.Snapshot("X").root.self_ms, 0.0);
}

TEST(ProfilerTest, CoordinationShareCountsLocksBackoffAndBreaker) {
  Profiler profiler;
  profiler.Ingest(Span("query", 10.0, {{"island", "X"}},
                       {Span("locks", 2.0), Span("backoff", 2.0),
                        Span("breaker", 1.0), Span("exec", 5.0)}));
  EXPECT_DOUBLE_EQ(profiler.CoordinationShare("X"), 0.5);
  EXPECT_DOUBLE_EQ(profiler.ExecSelfShare("X"), 0.5);
  EXPECT_DOUBLE_EQ(profiler.CoordinationShare("nope"), 0.0);
}

TEST(ProfilerTest, ShimSpansAttributeToTheirOwnEngineTag) {
  Profiler profiler;
  // A failover reroutes the shim to another engine than the scope's: its
  // self time must land on the shim's tagged engine.
  profiler.Ingest(
      Span("query", 4.0, {{"island", "X"}},
           {Span("scope", 4.0, {{"engine", "postgres"}},
                 {Span("exec", 1.0),
                  Span("shim:table", 3.0, {{"engine", "scidb"}})})}));
  ClassProfile profile = profiler.Snapshot("X");
  EXPECT_DOUBLE_EQ(profile.engines.at("postgres").exec_self_ms, 1.0);
  EXPECT_DOUBLE_EQ(profile.engines.at("scidb").exec_self_ms, 3.0);
}

TEST(ProfilerTest, CastVolumeAndRetriesAccumulate) {
  Profiler profiler;
  TraceSpan root = Span(
      "query", 5.0,
      {{"island", "ARRAY"}, {"status", "Unavailable"}, {"attempts", "3"},
       {"failovers", "2"}},
      {Span("scope", 5.0, {{"engine", "scidb"}},
            {Span("cast", 4.0, {{"rows", "20"}, {"bytes", "320"}})})});
  profiler.Ingest(root);
  profiler.Ingest(root);
  ClassProfile profile = profiler.Snapshot("ARRAY");
  EXPECT_EQ(profile.queries, 2);
  EXPECT_EQ(profile.errors, 2);
  EXPECT_EQ(profile.retries, 4);    // (3 attempts - 1) x 2
  EXPECT_EQ(profile.failovers, 4);
  EXPECT_EQ(profile.engines.at("scidb").cast_rows, 40);
  EXPECT_EQ(profile.engines.at("scidb").cast_bytes, 640);
}

TEST(ProfilerTest, SampleEveryNIngestsTheFirstOfEachStride) {
  Profiler every_third(3);
  EXPECT_TRUE(every_third.Sample());
  EXPECT_FALSE(every_third.Sample());
  EXPECT_FALSE(every_third.Sample());
  EXPECT_TRUE(every_third.Sample());

  Profiler clamped(0);  // nonsense rates clamp to "every completion"
  EXPECT_TRUE(clamped.Sample());
  EXPECT_TRUE(clamped.Sample());
}

TEST(ProfilerTest, EnvAllowsIsAKillSwitchAndAForceSwitch) {
  ASSERT_EQ(unsetenv("BIGDAWG_PROFILE"), 0);
  EXPECT_TRUE(Profiler::EnvAllows(true));
  EXPECT_FALSE(Profiler::EnvAllows(false));
  ASSERT_EQ(setenv("BIGDAWG_PROFILE", "0", 1), 0);
  EXPECT_FALSE(Profiler::EnvAllows(true));
  ASSERT_EQ(setenv("BIGDAWG_PROFILE", "1", 1), 0);
  EXPECT_TRUE(Profiler::EnvAllows(false));
  ASSERT_EQ(unsetenv("BIGDAWG_PROFILE"), 0);
}

TEST(ProfilerTest, RenderFiltersByClassAndCostsOmitsTheFlameTree) {
  Profiler profiler;
  profiler.Ingest(Span("query", 1.0, {{"island", "A"}}));
  profiler.Ingest(Span("query", 2.0, {{"island", "B"}}));
  const std::string all = profiler.Render();
  EXPECT_NE(all.find("class A "), std::string::npos);
  EXPECT_NE(all.find("class B "), std::string::npos);
  const std::string only_b = profiler.Render("B");
  EXPECT_EQ(only_b.find("class A "), std::string::npos);
  EXPECT_NE(only_b.find("class B "), std::string::npos);
  const std::string costs = profiler.RenderCosts();
  EXPECT_NE(costs.find("costs: classes=2 ingested=2"), std::string::npos);
  EXPECT_EQ(costs.find("  query count="), std::string::npos);
}

/// The golden-profile scenario — the same deterministic retry + failover
/// + cast workload as GoldenTraceTest (trace_test.cc), fed through the
/// always-on profiler via a real QueryService on an auto-advancing
/// FakeClock. Every duration is exact, so the /profile rendering is
/// stable byte-for-byte. The process-wide tracer stays DISABLED: the
/// profiler must source its own spans.
class GoldenProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // BIGDAWG_TRACE=1 in the environment enables the tracer at
    // construction; this scenario needs it off.
    dawg_.tracer().Disable();
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

TEST_F(GoldenProfileTest, RetryAndFailoverProduceTheDocumentedProfile) {
  ASSERT_FALSE(dawg_.tracer().enabled());
  exec::QueryService service(&dawg_,
                             {.num_workers = 1,
                              .retry = {.max_attempts = 4,
                                        .base_backoff_ms = 2,
                                        .max_backoff_ms = 2},
                              .breaker = {.failure_threshold = 100},
                              .clock = &clock_});
  ASSERT_NE(service.profiler(), nullptr);
  dawg_.fault_injector().Enable();
  dawg_.fault_injector().SetDown(core::kEnginePostgres, true);
  dawg_.fault_injector().FailNextCalls(core::kEngineSciDb, 1);

  auto result =
      service.ExecuteSync("ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One retry (the injected scidb fault), one failover (postgres down),
  // one 2 ms backoff: the query's 2.000 ms is pure coordination, and the
  // cast moved 20 rows / 320 bytes through scidb.
  const std::string kGolden =
      "profile: classes=1 ingested=1\n"
      "class ARRAY queries=1 errors=0 retries=1 failovers=1 total=2.000ms "
      "p50=2.000ms p95=2.000ms exec_share=0.00 coord_share=1.00\n"
      "  query count=1 total=2.000ms self=0.000ms p50=2.000ms p95=2.000ms\n"
      "    attempt count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "      locks count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "      scope count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "        cast count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "          shim:table count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "            failover count=2 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "              fault count=1 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "        exec count=1 total=0.000ms self=0.000ms p50=0.000ms "
      "p95=0.000ms\n"
      "    backoff count=1 total=2.000ms self=2.000ms p50=2.000ms "
      "p95=2.000ms\n"
      "  engine postgres execs=2 exec_self=0.000ms cast_rows=0 cast_bytes=0 "
      "shards=0\n"
      "  engine scidb execs=1 exec_self=0.000ms cast_rows=20 cast_bytes=320 "
      "shards=0\n";
  EXPECT_EQ(service.profiler()->Render(), kGolden);

  // The tracer stayed out of it: always-on profiling retains no traces.
  EXPECT_TRUE(dawg_.tracer().FinishedTraces().empty());

  // The signal the placement gate reads: this class's latency is all
  // coordination (the backoff), no engine work.
  EXPECT_DOUBLE_EQ(service.profiler()->CoordinationShare("ARRAY"), 1.0);
  EXPECT_DOUBLE_EQ(service.profiler()->ExecSelfShare("ARRAY"), 0.0);
}

}  // namespace
}  // namespace bigdawg
