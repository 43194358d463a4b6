#include "obs/trace.h"

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

using obs::DumpSpanTree;
using obs::FakeClock;
using obs::Trace;
using obs::Tracer;
using obs::TraceSpan;

TEST(TraceTest, SpanTreeMirrorsCallStructure) {
  FakeClock clock;
  Trace trace(&clock, "root");
  clock.AdvanceMs(1.0);
  int64_t outer = trace.StartSpan("outer");
  clock.AdvanceMs(2.0);
  int64_t inner = trace.StartSpan("inner");
  trace.Tag(inner, "k", "v");
  clock.AdvanceMs(3.0);
  trace.EndSpan(inner);
  clock.AdvanceMs(4.0);
  trace.EndSpan(outer);
  int64_t sibling = trace.StartSpan("sibling");
  clock.AdvanceMs(5.0);
  trace.EndSpan(sibling);

  TraceSpan root = std::move(trace).Finish();
  EXPECT_EQ(root.name, "root");
  EXPECT_DOUBLE_EQ(root.start_ms, 0.0);
  EXPECT_DOUBLE_EQ(root.duration_ms, 15.0);
  ASSERT_EQ(root.children.size(), 2u);

  const TraceSpan& o = root.children[0];
  EXPECT_EQ(o.name, "outer");
  EXPECT_DOUBLE_EQ(o.start_ms, 1.0);
  EXPECT_DOUBLE_EQ(o.duration_ms, 9.0);
  ASSERT_EQ(o.children.size(), 1u);
  EXPECT_EQ(o.children[0].name, "inner");
  EXPECT_DOUBLE_EQ(o.children[0].start_ms, 3.0);
  EXPECT_DOUBLE_EQ(o.children[0].duration_ms, 3.0);

  EXPECT_EQ(root.children[1].name, "sibling");
  EXPECT_DOUBLE_EQ(root.children[1].start_ms, 10.0);
  EXPECT_DOUBLE_EQ(root.children[1].duration_ms, 5.0);
}

TEST(TraceTest, FindTagAndFindChild) {
  FakeClock clock;
  Trace trace(&clock, "root");
  int64_t child = trace.StartSpan("child");
  trace.Tag(child, "engine", "scidb");
  trace.Tag(child, "engine", "shadowed");
  trace.EndSpan(child);
  TraceSpan root = std::move(trace).Finish();

  ASSERT_NE(root.FindChild("child"), nullptr);
  EXPECT_EQ(root.FindChild("nope"), nullptr);
  const std::string* tag = root.FindChild("child")->FindTag("engine");
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(*tag, "scidb");  // first insertion wins
  EXPECT_EQ(root.FindTag("engine"), nullptr);
}

// A failing operation early-returns out of nested SpanGuards; ending an
// outer span must unwind the open-span stack through it so later spans
// parent correctly.
TEST(TraceTest, EndSpanUnwindsThroughEarlyReturns) {
  FakeClock clock;
  Trace trace(&clock, "root");
  int64_t outer = trace.StartSpan("outer");
  trace.StartSpan("abandoned");  // never explicitly ended
  trace.EndSpan(outer);
  int64_t next = trace.StartSpan("next");
  trace.EndSpan(next);

  TraceSpan root = std::move(trace).Finish();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "outer");
  EXPECT_EQ(root.children[1].name, "next");  // root's child, not outer's
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "abandoned");
}

TEST(TraceTest, FinishClosesOpenSpansAtTheCurrentInstant) {
  FakeClock clock;
  Trace trace(&clock, "root");
  trace.StartSpan("open");
  clock.AdvanceMs(7.0);
  TraceSpan root = std::move(trace).Finish();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_DOUBLE_EQ(root.children[0].duration_ms, 7.0);
  EXPECT_DOUBLE_EQ(root.duration_ms, 7.0);
}

TEST(TraceTest, DumpSpanTreeFormatsDeterministically) {
  FakeClock clock;
  Trace trace(&clock, "query");
  trace.Tag(trace.root(), "island", "ARRAY");
  clock.AdvanceMs(0.25);
  int64_t scope = trace.StartSpan("scope");
  trace.Tag(scope, "engine", "scidb");
  clock.AdvanceMs(1.5);
  trace.EndSpan(scope);
  TraceSpan root = std::move(trace).Finish();

  EXPECT_EQ(DumpSpanTree(root),
            "query 0.000ms +1.750ms island=ARRAY\n"
            "  scope 0.250ms +1.500ms engine=scidb\n");
}

TEST(TraceTest, DumpSpanTreeRendersABareRoot) {
  // Root with no children, no tags, zero duration — one line, no
  // trailing junk.
  TraceSpan root;
  root.name = "query";
  EXPECT_EQ(DumpSpanTree(root), "query 0.000ms +0.000ms\n");
}

TEST(TraceTest, DumpSpanTreeIndentsDeepNesting) {
  // Build a 6-deep chain by hand and check two spaces of indent per
  // level — the renderer must not flatten or clip deep trees.
  TraceSpan root;
  root.name = "d0";
  TraceSpan* cursor = &root;
  for (int depth = 1; depth <= 5; ++depth) {
    TraceSpan child;
    child.name = "d" + std::to_string(depth);
    child.start_ms = static_cast<double>(depth);
    child.duration_ms = 0.5;
    cursor->children.push_back(std::move(child));
    cursor = &cursor->children.back();
  }
  EXPECT_EQ(DumpSpanTree(root),
            "d0 0.000ms +0.000ms\n"
            "  d1 1.000ms +0.500ms\n"
            "    d2 2.000ms +0.500ms\n"
            "      d3 3.000ms +0.500ms\n"
            "        d4 4.000ms +0.500ms\n"
            "          d5 5.000ms +0.500ms\n");
}

TEST(TraceTest, DumpSpanTreeOmitsTheTagBlockWhenUntagged) {
  // Sibling spans where only one carries tags: untagged lines end right
  // after the duration, and tag order is insertion order.
  TraceSpan root;
  root.name = "root";
  root.duration_ms = 2.0;
  TraceSpan tagged;
  tagged.name = "tagged";
  tagged.duration_ms = 1.0;
  tagged.tags = {{"b", "2"}, {"a", "1"}};
  TraceSpan untagged;
  untagged.name = "untagged";
  untagged.start_ms = 1.0;
  untagged.duration_ms = 1.0;
  root.children.push_back(std::move(tagged));
  root.children.push_back(std::move(untagged));
  EXPECT_EQ(DumpSpanTree(root),
            "root 0.000ms +2.000ms\n"
            "  tagged 0.000ms +1.000ms b=2 a=1\n"
            "  untagged 1.000ms +1.000ms\n");
}

TEST(TracerTest, DisabledByDefaultAndTogglable) {
  // The constructor honors BIGDAWG_TRACE, and check.sh runs tier1 with
  // it forced on — the "default" this test pins is env-dependent.
  const char* env = std::getenv("BIGDAWG_TRACE");
  const bool env_on =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  Tracer tracer;
  EXPECT_EQ(tracer.enabled(), env_on);
  tracer.Enable();
  EXPECT_TRUE(tracer.enabled());
  tracer.Disable();
  EXPECT_FALSE(tracer.enabled());
}

TEST(TracerTest, RingKeepsTheNewestTraces) {
  Tracer tracer;
  for (int i = 0; i < 200; ++i) {
    TraceSpan span;
    span.name = "t" + std::to_string(i);
    tracer.Record(std::move(span));
  }
  std::vector<TraceSpan> kept = tracer.FinishedTraces();
  ASSERT_EQ(kept.size(), Tracer::kMaxFinished);
  EXPECT_EQ(kept.front().name, "t" + std::to_string(200 - Tracer::kMaxFinished));
  EXPECT_EQ(kept.back().name, "t199");

  std::vector<TraceSpan> drained = tracer.DrainFinished();
  EXPECT_EQ(drained.size(), Tracer::kMaxFinished);
  EXPECT_TRUE(tracer.FinishedTraces().empty());
}

/// The golden-trace scenario: a cross-island query whose CAST source sits
/// on a down engine with a fresh scidb replica, and whose first replica
/// read eats one injected fault. The query therefore records exactly one
/// retry and one failover, and on an auto-advancing FakeClock every
/// duration in the tree is exact, making the dump stable byte-for-byte.
class GoldenTraceTest : public ::testing::Test {
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

TEST_F(GoldenTraceTest, RetryAndFailoverProduceTheDocumentedSpanTree) {
  dawg_.tracer().Enable();
  // base == max pins every backoff to exactly 2 ms regardless of jitter.
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

  auto result =
      service.ExecuteSync("ARRAY(aggregate(CAST(readings, array), avg, v))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto stats = service.Stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.failovers, 1);

  std::vector<TraceSpan> traces = dawg_.tracer().DrainFinished();
  ASSERT_EQ(traces.size(), 1u);
  // Attempt 1: the CAST's table fetch finds postgres down, fails over,
  // and the scidb replica read eats the injected fault — Unavailable.
  // After exactly one 2 ms backoff, attempt 2 repeats the path: the
  // failover read succeeds, the cast hands 20 rows (320 bytes) to the
  // ARRAY island as an array in the execution's overlay, and the island
  // reads it from there without touching an engine.
  const std::string kGolden =
      "query 0.000ms +2.000ms island=ARRAY status=OK attempts=2 failovers=1\n"
      "  attempt 0.000ms +0.000ms n=1 error=Unavailable\n"
      "    locks 0.000ms +0.000ms\n"
      "    scope 0.000ms +0.000ms island=ARRAY engine=scidb\n"
      "      cast 0.000ms +0.000ms source=readings from=relation\n"
      "        shim:table 0.000ms +0.000ms object=readings engine=postgres\n"
      "          failover 0.000ms +0.000ms from=postgres error=unavailable\n"
      "            fault 0.000ms +0.000ms engine=scidb\n"
      "  backoff 0.000ms +2.000ms delay_ms=2.000\n"
      "  attempt 2.000ms +0.000ms n=2\n"
      "    locks 2.000ms +0.000ms\n"
      "    scope 2.000ms +0.000ms island=ARRAY engine=scidb\n"
      "      cast 2.000ms +0.000ms source=readings from=relation to=array "
      "rows=20 bytes=320 temp=__overlay0\n"
      "        shim:table 2.000ms +0.000ms object=readings engine=postgres\n"
      "          failover 2.000ms +0.000ms from=postgres to=scidb\n"
      "      exec 2.000ms +0.000ms\n";
  EXPECT_EQ(DumpSpanTree(traces[0]), kGolden);

  // The monitor learns engine/query-class affinity from the same tree:
  // the successful scope span attributes its exec time to (ARRAY, scidb).
  dawg_.monitor().IngestTraces(traces);
  bool saw_scidb = false;
  for (const core::EngineTiming& t : dawg_.monitor().TimingsFor("ARRAY")) {
    if (t.engine == core::kEngineSciDb) {
      saw_scidb = true;
      EXPECT_EQ(t.samples, 1);
    }
  }
  EXPECT_TRUE(saw_scidb);
}

}  // namespace
}  // namespace bigdawg
