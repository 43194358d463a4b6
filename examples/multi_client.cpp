// Multi-client access: several threads share one polystore through the
// query service — sessions, admission control, timeouts, and per-engine
// locking, with a live migration running underneath the readers. The
// finale brings up the embedded admin server and scrapes it the way a
// Prometheus instance (or an operator with curl) would.
//
// Build & run:  ./build/examples/multi_client

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "array/array.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "core/stream_ageout.h"
#include "exec/admin_endpoints.h"
#include "exec/query_service.h"
#include "obs/admin_server.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "stream/alerting.h"
#include "stream/stream_engine.h"

using bigdawg::Field;
using bigdawg::DataType;
using bigdawg::Schema;
using bigdawg::Value;
namespace core = bigdawg::core;
namespace array = bigdawg::array;
namespace exec = bigdawg::exec;
namespace obs = bigdawg::obs;

int main() {
  core::BigDawg dawg;
  // Record a span tree for every query this demo runs (also reachable via
  // BIGDAWG_TRACE=1 in the environment); dumped at the end.
  dawg.tracer().Enable();

  // --- Load the quickstart federation: patients on postgres, hr on scidb.
  BIGDAWG_CHECK_OK(dawg.postgres().CreateTable(
      "patients", Schema({Field("patient_id", DataType::kInt64),
                          Field("name", DataType::kString),
                          Field("age", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(dawg.postgres().InsertMany(
      "patients", {{Value(0), Value("ann"), Value(71)},
                   {Value(1), Value("bob"), Value(46)},
                   {Value(2), Value("cal"), Value(64)}}));
  BIGDAWG_CHECK_OK(
      dawg.RegisterObject("patients", core::kEnginePostgres, "patients"));
  BIGDAWG_CHECK_OK(dawg.scidb().CreateArray(
      "hr", {array::Dimension("patient_id", 0, 3, 1),
             array::Dimension("t", 0, 4, 4)}, {"bpm"}));
  for (int64_t p = 0; p < 3; ++p) {
    for (int64_t t = 0; t < 4; ++t) {
      BIGDAWG_CHECK_OK(dawg.scidb().SetCell(
          "hr", {p, t}, {60.0 + 10.0 * static_cast<double>(p) +
                         static_cast<double>(t)}));
    }
  }
  BIGDAWG_CHECK_OK(dawg.RegisterObject("hr", core::kEngineSciDb, "hr"));
  // readings: the object the migrator moves (int64 + double columns, so
  // it round-trips between the relational and array representations).
  BIGDAWG_CHECK_OK(dawg.postgres().CreateTable(
      "readings", Schema({Field("id", DataType::kInt64),
                          Field("v", DataType::kDouble)})));
  for (int64_t i = 0; i < 16; ++i) {
    BIGDAWG_CHECK_OK(dawg.postgres().Insert(
        "readings", {Value(i), Value(static_cast<double>(i) * 0.25)}));
  }
  BIGDAWG_CHECK_OK(
      dawg.RegisterObject("readings", core::kEnginePostgres, "readings"));

  // --- One service, many clients. Threshold 0 treats every query as
  // "slow" so the admin scrape below has entries to show; the per-entry
  // warn lines are muted to keep the demo output readable.
  bigdawg::SetLogLevel(bigdawg::LogLevel::kError);
  exec::QueryService service(
      &dawg, {.num_workers = 4, .max_in_flight = 16, .slow_query_ms = 0});

  // Three client threads, each with its own session, running cross-island
  // queries concurrently; each query's CAST results stay in its own
  // execution context.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&service, c] {
      int64_t session = service.OpenSession();
      for (int i = 0; i < 4; ++i) {
        auto result = service.ExecuteSync(
            "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(hr, relation) "
            "WHERE bpm > 70)",
            {.session = session});
        BIGDAWG_CHECK(result.ok()) << result.status().ToString();
      }
      std::printf("client %d: 4 CAST queries done on session %lld\n", c,
                  static_cast<long long>(session));
      BIGDAWG_CHECK_OK(service.CloseSession(session));
    });
  }
  // A migration runs underneath the readers, serialized by the
  // per-engine locks rather than by stopping the world.
  std::thread migrator([&service] {
    BIGDAWG_CHECK_OK(service.Migrate("readings", core::kEngineSciDb));
    BIGDAWG_CHECK_OK(service.Migrate("readings", core::kEnginePostgres));
    std::printf("migrator: bounced readings scidb <-> postgres\n");
  });
  for (std::thread& t : clients) t.join();
  migrator.join();

  // --- Admission control: a deliberately tiny service rejects overload
  // with a typed status instead of queueing without bound. A gated task
  // pins the single admission slot so the rejection is deterministic.
  exec::QueryService tiny(&dawg, {.num_workers = 1, .max_in_flight = 1});
  std::mutex gate;
  std::atomic<bool> started{false};
  gate.lock();
  auto first = tiny.SubmitTask([&gate, &started] {
    started.store(true);
    std::lock_guard<std::mutex> hold(gate);
    return bigdawg::Result<bigdawg::relational::Table>(
        bigdawg::relational::Table(Schema({Field("x", DataType::kInt64)})));
  });
  while (!started.load()) std::this_thread::yield();
  auto second = tiny.Submit("SELECT COUNT(*) AS n FROM patients");
  std::printf("tiny service: first=%s second=%s\n",
              first.ok() ? "admitted" : first.status().ToString().c_str(),
              second.ok() ? "admitted" : second.status().ToString().c_str());
  gate.unlock();
  if (first.ok()) (void)first->Wait();
  tiny.Drain();

  // --- The stats surface.
  auto stats = service.Stats();
  std::printf("\nservice stats: submitted=%lld completed=%lld failed=%lld "
              "rejected=%lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.rejected));
  for (const exec::IslandLatency& island : stats.islands) {
    std::printf("  %-12s count=%lld p50=%.2fms p95=%.2fms\n",
                island.island.c_str(), static_cast<long long>(island.count),
                island.p50_ms, island.p95_ms);
  }

  // --- Observability: every query above left a span tree in the tracer.
  // Show where the last one spent its time (scope routing, CASTs with
  // bytes moved, engine shims), feed the batch to the monitor so it can
  // refine engine affinities from real span timings, and dump the metrics
  // registry in the Prometheus text form.
  auto traces = dawg.tracer().DrainFinished();
  std::printf("\n%zu traces recorded; the last one:\n", traces.size());
  if (!traces.empty()) {
    std::printf("%s", obs::DumpSpanTree(traces.back()).c_str());
  }
  dawg.monitor().IngestTraces(traces);
  auto best = dawg.monitor().BestEngineFor("RELATIONAL");
  if (best.ok()) {
    std::printf("\nmonitor learned from traces: RELATIONAL runs best on %s\n",
                best->c_str());
  }
  std::printf("\n%s", service.DumpMetrics().c_str());

  // --- EXPLAIN: the planner's dry run — scope, lock set, cast plan —
  // with nothing executed; EXPLAIN ANALYZE runs the query and folds the
  // trace into a per-stage profile.
  auto print_column = [](const bigdawg::relational::Table& table) {
    for (const bigdawg::Row& row : table.rows()) {
      std::printf("  %s\n", row[0].AsString()->c_str());
    }
  };
  auto plan = service.ExecuteSync(
      "EXPLAIN RELATIONAL(SELECT COUNT(*) AS n FROM CAST(hr, relation) "
      "WHERE bpm > 70)");
  BIGDAWG_CHECK(plan.ok()) << plan.status().ToString();
  std::printf("\nEXPLAIN says:\n");
  print_column(*plan);
  auto profile = service.ExecuteSync(
      "EXPLAIN ANALYZE RELATIONAL(SELECT COUNT(*) AS n FROM "
      "CAST(hr, relation) WHERE bpm > 70)");
  BIGDAWG_CHECK(profile.ok()) << profile.status().ToString();
  std::printf("\nEXPLAIN ANALYZE says:\n");
  print_column(*profile);

  // --- The admin surface: an ephemeral-port HTTP server an operator (or
  // Prometheus) scrapes. The /metrics body is byte-identical to the
  // DumpMetrics() text above and round-trips through the strict
  // exposition parser.
  auto admin = exec::StartAdminServer(&service, &dawg);
  BIGDAWG_CHECK(admin.ok()) << admin.status().ToString();
  std::printf("\nadmin server on 127.0.0.1:%u\n", (*admin)->port());
  auto scrape = obs::HttpGet("127.0.0.1", (*admin)->port(), "/metrics");
  BIGDAWG_CHECK(scrape.ok()) << scrape.status().ToString();
  BIGDAWG_CHECK(scrape->status == 200);
  BIGDAWG_CHECK(scrape->body == service.DumpMetrics())
      << "/metrics must match DumpMetrics() byte for byte";
  auto parsed = obs::ParseExposition(scrape->body);
  BIGDAWG_CHECK(parsed.ok()) << parsed.status().ToString();
  std::printf("GET /metrics: %d, %zu families / %zu series, "
              "byte-identical to DumpMetrics()\n",
              scrape->status, parsed->families.size(), parsed->TotalSeries());
  for (const char* path : {"/healthz", "/readyz"}) {
    auto probe = obs::HttpGet("127.0.0.1", (*admin)->port(), path);
    BIGDAWG_CHECK(probe.ok()) << probe.status().ToString();
    std::printf("GET %s: %d\n", path, probe->status);
  }
  auto slow = obs::HttpGet("127.0.0.1", (*admin)->port(), "/queries/slow");
  BIGDAWG_CHECK(slow.ok()) << slow.status().ToString();
  std::printf("GET /queries/slow:\n%s", slow->body.c_str());
  // The cast-result cache, warmed by the CAST(hr, relation) queries above.
  auto cache = obs::HttpGet("127.0.0.1", (*admin)->port(), "/cache");
  BIGDAWG_CHECK(cache.ok()) << cache.status().ToString();
  std::printf("GET /cache:\n%s", cache->body.c_str());

  // --- Live-ingest finale: the STREAM island at production rate. An ICU
  // feed pushes through the bounded front door (a full ring means typed
  // backpressure, so the feeder retries instead of losing tuples); a
  // reference table drives the demo's threshold + window-mean alert
  // procedures; and everything retention evicts is archived into the
  // array engine as vitals_live__history, CAST-able like any object.
  auto& sstore = dawg.sstore();
  BIGDAWG_CHECK_OK(sstore.CreateStream(
      "vitals_live", Schema({Field("patient_id", DataType::kInt64),
                             Field("hr", DataType::kDouble)}),
      /*retention=*/64));
  BIGDAWG_CHECK_OK(sstore.CreateWindow("recent", "vitals_live",
                                       /*size=*/8, /*slide=*/4));
  BIGDAWG_CHECK_OK(sstore.CreateTable(
      "reference", Schema({Field("patient_id", DataType::kInt64),
                           Field("low", DataType::kDouble),
                           Field("high", DataType::kDouble),
                           Field("mean", DataType::kDouble)})));
  bigdawg::stream::WaveformAlertConfig alert;
  alert.stream = "vitals_live";
  alert.window = "recent";
  alert.reference = "reference";
  alert.window_key = Value(0);
  BIGDAWG_CHECK_OK(InstallWaveformAlert(&sstore, alert));
  BIGDAWG_CHECK_OK(sstore.RegisterProcedure(
      "load_reference", [](bigdawg::stream::ProcContext* ctx) {
        return ctx->Put("reference",
                        {Value(0), Value(55.0), Value(100.0), Value(75.0)});
      }));
  BIGDAWG_CHECK_OK(sstore.ExecuteProcedure("load_reference", {}));
  BIGDAWG_CHECK_OK(dawg.EnableStreamAgeOut());

  sstore.Start();
  for (int i = 0; i < 400; ++i) {
    // A normal sinus rhythm with a tachycardia run at the end.
    double hr = i < 380 ? 70.0 + static_cast<double>(i % 12) : 150.0;
    while (!sstore.Ingest("vitals_live", {Value(0), Value(hr)}).ok()) {
      std::this_thread::yield();  // backpressure: retry, never drop
    }
  }
  sstore.WaitForDrain();
  auto stream_stats = sstore.GetStats();
  auto alerts = sstore.TakeAlerts();
  std::printf("\nstreamed 400 tuples: committed=%lld alerts=%zu "
              "(first: %s patient=%lld hr=%.0f)\n",
              static_cast<long long>(stream_stats.committed), alerts.size(),
              alerts.empty() ? "-" : alerts[0][0].AsString()->c_str(),
              alerts.empty() ? 0LL
                             : static_cast<long long>(
                                   alerts[0][1].int64_unchecked()),
              alerts.empty() ? 0.0 : alerts[0][2].double_unchecked());

  // The island surface sees streaming state like any other data.
  auto streams = service.ExecuteSync("STREAM(STREAMS)");
  BIGDAWG_CHECK(streams.ok()) << streams.status().ToString();
  std::printf("\nSTREAM(STREAMS):\n%s", streams->ToString().c_str());
  auto window_aggs = service.ExecuteSync("STREAM(AGGREGATE recent)");
  BIGDAWG_CHECK(window_aggs.ok()) << window_aggs.status().ToString();
  std::printf("\nSTREAM(AGGREGATE recent):\n%s",
              window_aggs->ToString().c_str());

  // Age-out made history durable in the array engine; read it back
  // through the polystore's own CAST surface.
  BIGDAWG_CHECK_OK(dawg.stream_ageout()->FlushAll());
  auto history = service.ExecuteSync(
      "RELATIONAL(SELECT COUNT(*) AS archived FROM "
      "CAST(vitals_live__history, relation))");
  BIGDAWG_CHECK(history.ok()) << history.status().ToString();
  std::printf("\naged-out history via CAST:\n%s", history->ToString().c_str());

  // And the operator's view of all of it.
  auto streams_page = obs::HttpGet("127.0.0.1", (*admin)->port(), "/streams");
  BIGDAWG_CHECK(streams_page.ok()) << streams_page.status().ToString();
  std::printf("\nGET /streams:\n%s", streams_page->body.c_str());
  sstore.Stop();

  (*admin)->Stop();
  return 0;
}
