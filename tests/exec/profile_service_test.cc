#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/bigdawg.h"
#include "exec/admin_endpoints.h"
#include "exec/query_service.h"
#include "obs/clock.h"
#include "obs/exposition.h"

namespace bigdawg::exec {
namespace {

using obs::FakeClock;

void LoadTinyFederation(core::BigDawg* dawg) {
  BIGDAWG_CHECK_OK(dawg->postgres().CreateTable(
      "patients", Schema({Field("patient_id", DataType::kInt64),
                          Field("age", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(dawg->postgres().InsertMany(
      "patients", {{Value(int64_t{0}), Value(int64_t{71})},
                   {Value(int64_t{1}), Value(int64_t{46})}}));
  BIGDAWG_CHECK_OK(
      dawg->RegisterObject("patients", core::kEnginePostgres, "patients"));
}

/// One federation + FakeClock + service, so two stacks built with
/// different environments run byte-identical workloads.
struct Stack {
  explicit Stack(double slow_query_ms = -1) {
    // The tests below pin tracer-off behaviour, which BIGDAWG_TRACE=1 in
    // the environment would otherwise override.
    dawg.tracer().Disable();
    LoadTinyFederation(&dawg);
    service = std::make_unique<QueryService>(
        &dawg, QueryServiceConfig{.num_workers = 1,
                                  .clock = &clock,
                                  .slow_query_ms = slow_query_ms});
  }

  void RunWorkload() {
    for (int i = 0; i < 3; ++i) {
      auto result =
          service->ExecuteSync("SELECT COUNT(*) AS n FROM patients");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }

  core::BigDawg dawg;
  FakeClock clock;
  std::unique_ptr<QueryService> service;
};

/// Drops every line belonging to a bigdawg_profile_* family (samples and
/// their # TYPE lines).
std::string StripProfileSeries(const std::string& exposition) {
  std::vector<std::string> lines = Split(exposition, '\n');
  // Split leaves one empty trailing piece for the final newline.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  std::string out;
  for (const std::string& line : lines) {
    if (line.find("bigdawg_profile_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(ProfileServiceTest, KillSwitchDumpIsByteIdenticalModuloProfileSeries) {
  ASSERT_EQ(setenv("BIGDAWG_PROFILE", "0", 1), 0);
  Stack off;
  ASSERT_EQ(off.service->profiler(), nullptr);
  off.RunWorkload();
  const std::string off_dump = off.service->DumpMetrics();
  EXPECT_EQ(off_dump.find("bigdawg_profile_"), std::string::npos);
  EXPECT_EQ(off_dump.find(" # {"), std::string::npos);  // no exemplars

  ASSERT_EQ(setenv("BIGDAWG_PROFILE", "1", 1), 0);
  Stack on;
  ASSERT_NE(on.service->profiler(), nullptr);
  on.RunWorkload();
  const std::string on_dump = on.service->DumpMetrics();
  EXPECT_NE(on_dump.find("bigdawg_profile_queries"), std::string::npos);
  EXPECT_EQ(on_dump.find(" # {"), std::string::npos);  // tracer off

  // Same FakeClock workload: everything the profiler did not add is
  // byte-for-byte what the kill-switched service produced.
  EXPECT_EQ(StripProfileSeries(on_dump), off_dump);
  ASSERT_EQ(unsetenv("BIGDAWG_PROFILE"), 0);
}

TEST(ProfileServiceTest, BuildInfoGaugeIdentifiesTheBinary) {
  Stack stack;
  const std::string dump = stack.service->DumpMetrics();
  EXPECT_NE(dump.find("# TYPE bigdawg_build_info gauge"), std::string::npos);
  const size_t series = dump.find("bigdawg_build_info{version=\"");
  ASSERT_NE(series, std::string::npos);
  EXPECT_NE(dump.find("git_sha=\"", series), std::string::npos);
  EXPECT_NE(dump.find("build_type=\"", series), std::string::npos);
  auto parsed = obs::ParseExposition(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::ExpositionFamily* family = parsed->Find("bigdawg_build_info");
  ASSERT_NE(family, nullptr);
  ASSERT_EQ(family->series.size(), 1u);
  EXPECT_EQ(family->series[0].value, 1.0);
}

TEST(ProfileServiceTest, LatencyHistogramExemplarLinksToARetainedTrace) {
  Stack stack;
  stack.dawg.tracer().Enable();
  auto result =
      stack.service->ExecuteSync("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(result.ok());

  const std::string dump = stack.service->DumpMetrics();
  ASSERT_NE(dump.find(" # {trace_id=\"1\"} "), std::string::npos);

  // The strict conformance parser accepts the exemplar and surfaces it.
  auto parsed = obs::ParseExposition(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::ExpositionFamily* family =
      parsed->Find("bigdawg_query_latency_ms");
  ASSERT_NE(family, nullptr);
  int exemplars = 0;
  for (const obs::ExpositionSeries& series : family->series) {
    if (!series.has_exemplar) continue;
    ++exemplars;
    ASSERT_EQ(series.exemplar_labels.size(), 1u);
    EXPECT_EQ(series.exemplar_labels[0].first, "trace_id");
    EXPECT_EQ(series.exemplar_labels[0].second, "1");
  }
  EXPECT_EQ(exemplars, 1);  // one sample -> exactly one stamped bucket

  // The exemplar's trace_id resolves to the retained span tree.
  auto found = stack.dawg.tracer().Find(1);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->root.name, "query");
}

TEST(ProfileServiceTest, SlowQueryEntriesCarryTheTraceId) {
  Stack traced(/*slow_query_ms=*/0);  // log every query
  traced.dawg.tracer().Enable();
  ASSERT_TRUE(
      traced.service->ExecuteSync("SELECT COUNT(*) AS n FROM patients").ok());
  std::vector<obs::SlowQueryEntry> entries = traced.service->slow_log().Drain();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, 1);
  EXPECT_NE(entries[0].ToLine().find(" trace=1 "), std::string::npos);

  // With the tracer off, the query is still profiled (a trace object
  // exists for ingestion) but nothing is retained — the entry must carry
  // the "no trace" sentinel, not a dangling id.
  Stack untraced(/*slow_query_ms=*/0);
  ASSERT_TRUE(untraced.service
                  ->ExecuteSync("SELECT COUNT(*) AS n FROM patients")
                  .ok());
  entries = untraced.service->slow_log().Drain();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, -1);
  EXPECT_NE(entries[0].ToLine().find(" trace=- "), std::string::npos);
}

/// Full admin stack for the endpoint-facing satellites.
class ProfileEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stack_.dawg.tracer().Enable();
    auto started = StartAdminServer(stack_.service.get(), &stack_.dawg);
    BIGDAWG_CHECK_OK(started.status());
    server_ = std::move(*started);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(stack_.service
                      ->ExecuteSync("SELECT COUNT(*) AS n FROM patients")
                      .ok());
    }
  }

  obs::HttpResponse Get(const std::string& path) {
    auto response = obs::HttpGet("127.0.0.1", server_->port(), path);
    BIGDAWG_CHECK_OK(response.status());
    return *response;
  }

  Stack stack_;
  std::unique_ptr<obs::AdminServer> server_;
};

TEST_F(ProfileEndpointsTest, ProfileAndCostsRenderTheProfiler) {
  obs::HttpResponse response = Get("/profile");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("profile: classes=1 ingested=2"),
            std::string::npos);
  EXPECT_NE(response.body.find("class RELATIONAL queries=2"),
            std::string::npos);
  EXPECT_NE(response.body.find("  query count=2"), std::string::npos);
  EXPECT_NE(response.body.find("  engine postgres execs="),
            std::string::npos);

  // ?class= filters; a class nobody ran leaves just the header.
  response = Get("/profile?class=RELATIONAL");
  EXPECT_NE(response.body.find("class RELATIONAL"), std::string::npos);
  response = Get("/profile?class=ARRAY");
  EXPECT_EQ(response.body.find("class "), std::string::npos);

  response = Get("/costs");
  EXPECT_NE(response.body.find("costs: classes=1 ingested=2"),
            std::string::npos);
  EXPECT_NE(response.body.find("  engine postgres"), std::string::npos);
  EXPECT_EQ(response.body.find("  query count="), std::string::npos);
}

TEST_F(ProfileEndpointsTest, TracesSupportIdLookupAndLimit) {
  obs::HttpResponse all = Get("/traces");
  EXPECT_NE(all.body.find("traces: retained=2"), std::string::npos);
  EXPECT_NE(all.body.find("trace id=1 important="), std::string::npos);
  EXPECT_NE(all.body.find("trace id=2 important="), std::string::npos);

  obs::HttpResponse newest = Get("/traces?limit=1");
  EXPECT_NE(newest.body.find("traces: retained=2"), std::string::npos);
  EXPECT_EQ(newest.body.find("trace id=1 "), std::string::npos);
  EXPECT_NE(newest.body.find("trace id=2 "), std::string::npos);

  obs::HttpResponse one = Get("/traces?id=1");
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body.find("trace id=1 important="), std::string::npos);
  EXPECT_NE(one.body.find("query "), std::string::npos);
  EXPECT_EQ(one.body.find("trace id=2"), std::string::npos);

  obs::HttpResponse missing = Get("/traces?id=999");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("not retained"), std::string::npos);
}

TEST(ProfileServiceTest, DisabledProfilerEndpointSaysHowToEnableIt) {
  ASSERT_EQ(setenv("BIGDAWG_PROFILE", "0", 1), 0);
  Stack stack;
  ASSERT_EQ(unsetenv("BIGDAWG_PROFILE"), 0);
  auto started = StartAdminServer(stack.service.get(), &stack.dawg);
  BIGDAWG_CHECK_OK(started.status());
  for (const char* path : {"/profile", "/costs"}) {
    auto response = obs::HttpGet("127.0.0.1", (*started)->port(), path);
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response->body.find("profiler: disabled"), std::string::npos)
        << path;
    EXPECT_NE(response->body.find("BIGDAWG_PROFILE"), std::string::npos);
  }
}

}  // namespace
}  // namespace bigdawg::exec
