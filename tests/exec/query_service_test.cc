#include "exec/query_service.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "array/array.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "exec/engine_locks.h"
#include "exec/query_analysis.h"

namespace bigdawg::exec {
namespace {

/// Loads the quickstart federation: patients on postgres, hr on scidb,
/// and a few clinical notes on accumulo.
void LoadSmallFederation(core::BigDawg* dawg) {
  BIGDAWG_CHECK_OK(dawg->postgres().CreateTable(
      "patients", Schema({Field("patient_id", DataType::kInt64),
                          Field("name", DataType::kString),
                          Field("age", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(dawg->postgres().InsertMany(
      "patients", {{Value(int64_t{0}), Value("ann"), Value(int64_t{71})},
                   {Value(int64_t{1}), Value("bob"), Value(int64_t{46})},
                   {Value(int64_t{2}), Value("cal"), Value(int64_t{64})}}));
  BIGDAWG_CHECK_OK(
      dawg->RegisterObject("patients", core::kEnginePostgres, "patients"));

  BIGDAWG_CHECK_OK(dawg->scidb().CreateArray(
      "hr", {array::Dimension("patient_id", 0, 3, 1),
             array::Dimension("t", 0, 4, 4)},
      {"bpm"}));
  for (int64_t p = 0; p < 3; ++p) {
    for (int64_t t = 0; t < 4; ++t) {
      BIGDAWG_CHECK_OK(dawg->scidb().SetCell(
          "hr", {p, t},
          {60.0 + 10.0 * static_cast<double>(p) + static_cast<double>(t)}));
    }
  }
  BIGDAWG_CHECK_OK(dawg->RegisterObject("hr", core::kEngineSciDb, "hr"));

  BIGDAWG_CHECK_OK(
      dawg->accumulo().AddDocument("n0", "0", "patient very sick overnight"));
  BIGDAWG_CHECK_OK(dawg->accumulo().AddDocument("n1", "1", "patient stable"));
  BIGDAWG_CHECK_OK(dawg->RegisterObject("notes", core::kEngineAccumulo, "notes"));
}

TEST(QueryServiceTest, ExecuteSyncMatchesDirectExecute) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  const std::string query =
      "SELECT name, age FROM patients WHERE age > 50 ORDER BY age DESC";
  auto direct = *dawg.Execute(query);

  QueryService service(&dawg, {.num_workers = 2});
  auto via_service = service.ExecuteSync(query);
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  EXPECT_EQ(via_service->ToString(), direct.ToString());

  auto stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.in_flight, 0);
  ASSERT_EQ(stats.islands.size(), 1u);
  EXPECT_EQ(stats.islands[0].island, "RELATIONAL");
  EXPECT_EQ(stats.islands[0].count, 1);
  EXPECT_GE(stats.islands[0].p95_ms, stats.islands[0].p50_ms);
}

TEST(QueryServiceTest, SessionsGateSubmission) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 2});

  int64_t session = service.OpenSession();
  EXPECT_EQ(service.Stats().sessions_open, 1);

  auto ok = service.ExecuteSync("SELECT COUNT(*) AS n FROM patients",
                                {.session = session});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  ASSERT_TRUE(service.CloseSession(session).ok());
  EXPECT_EQ(service.Stats().sessions_open, 0);
  // Submissions on a closed session are refused up front.
  auto refused = service.Submit("SELECT 1 AS x", {.session = session});
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());
  // Closing twice (or closing an unknown session) is NotFound.
  EXPECT_TRUE(service.CloseSession(session).IsNotFound());
  EXPECT_TRUE(service.CloseSession(12345).IsNotFound());
}

TEST(QueryServiceTest, AdmissionRejectsPastLimit) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 1, .max_in_flight = 1});

  // Occupy the single admission slot with a gated task.
  std::mutex gate;
  std::atomic<bool> started{false};
  gate.lock();
  auto blocker = service.SubmitTask([&gate, &started]() -> Result<relational::Table> {
    started.store(true);
    std::lock_guard hold(gate);
    return relational::Table(Schema({Field("x", DataType::kInt64)}));
  });
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // The service is at max_in_flight: further submissions get the typed
  // rejection without ever reaching the worker pool.
  auto rejected = service.Submit("SELECT COUNT(*) AS n FROM patients");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());

  gate.unlock();
  ASSERT_TRUE(blocker->Wait().ok());
  service.Drain();

  // Capacity is back after the blocker finished.
  auto accepted = service.ExecuteSync("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();

  auto stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(QueryServiceTest, DeadlinePassedWhileQueuedTimesOut) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 1});

  std::mutex gate;
  std::atomic<bool> started{false};
  gate.lock();
  auto blocker = service.SubmitTask([&gate, &started]() -> Result<relational::Table> {
    started.store(true);
    std::lock_guard hold(gate);
    return relational::Table(Schema({Field("x", DataType::kInt64)}));
  });
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // The single worker is busy, so this query waits in the queue past
  // its 1 ms deadline.
  auto doomed = service.Submit("SELECT COUNT(*) AS n FROM patients",
                               {.timeout_ms = 1.0});
  ASSERT_TRUE(doomed.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.unlock();

  auto result = doomed->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
  ASSERT_TRUE(blocker->Wait().ok());
  service.Drain();
  EXPECT_EQ(service.Stats().timed_out, 1);
}

TEST(QueryServiceTest, CancelWhileQueuedReturnsCancelled) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 1});

  std::mutex gate;
  std::atomic<bool> started{false};
  gate.lock();
  auto blocker = service.SubmitTask([&gate, &started]() -> Result<relational::Table> {
    started.store(true);
    std::lock_guard hold(gate);
    return relational::Table(Schema({Field("x", DataType::kInt64)}));
  });
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  auto victim = service.Submit("SELECT COUNT(*) AS n FROM patients");
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(service.Cancel(victim->id()).ok());
  gate.unlock();

  auto result = victim->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  ASSERT_TRUE(blocker->Wait().ok());
  service.Drain();

  auto stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1);
  // Once finished, the query is no longer cancellable.
  EXPECT_TRUE(service.Cancel(victim->id()).IsNotFound());
}

TEST(QueryServiceTest, ConcurrentCastsKeepSeparateTempNamespaces) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 4});

  // Each client runs the same CAST query under its own session. Every
  // execution holds its CAST result in its own context's overlay, so the
  // clients never see (or free) each other's intermediates.
  const std::vector<core::ObjectLocation> catalog_before = dawg.catalog().List();
  constexpr int kClients = 4;
  constexpr int kRepeats = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &failures] {
      int64_t session = service.OpenSession();
      for (int i = 0; i < kRepeats; ++i) {
        auto result = service.ExecuteSync(
            "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(hr, relation) "
            "WHERE bpm > 61)",
            {.session = session});
        if (!result.ok() || *result->At(0, "n")->AsInt64() != 10) {
          failures.fetch_add(1);
        }
      }
      BIGDAWG_CHECK_OK(service.CloseSession(session));
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No CAST wrote the catalog.
  const std::vector<core::ObjectLocation> catalog_after = dawg.catalog().List();
  ASSERT_EQ(catalog_after.size(), catalog_before.size());
  for (size_t i = 0; i < catalog_after.size(); ++i) {
    EXPECT_EQ(catalog_after[i].object, catalog_before[i].object);
  }
  auto stats = service.Stats();
  EXPECT_EQ(stats.completed, kClients * kRepeats);
  EXPECT_EQ(stats.failed, 0);
}

TEST(QueryServiceTest, FailedQueriesCountAsFailed) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 1});
  auto bad = service.ExecuteSync("SELECT * FROM no_such_table");
  EXPECT_FALSE(bad.ok());
  auto stats = service.Stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 0);
}

TEST(QueryServiceTest, ServiceMigrationKeepsObjectQueryable) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryService service(&dawg, {.num_workers = 2});

  ASSERT_TRUE(service.Migrate("hr", core::kEnginePostgres).ok());
  EXPECT_EQ(dawg.catalog().Lookup("hr")->engine, core::kEnginePostgres);
  auto after = service.ExecuteSync("ARRAY(aggregate(hr, count, bpm))");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after->At(0, "count_bpm"), Value(12.0));

  ASSERT_TRUE(service.Migrate("hr", core::kEngineSciDb).ok());
  EXPECT_EQ(dawg.catalog().Lookup("hr")->engine, core::kEngineSciDb);
  EXPECT_TRUE(service.Migrate("absent", core::kEngineSciDb).IsNotFound());
}

// ---- Query analysis: the lock sets admission computes ----

TEST(QueryAnalysisTest, ReadOnlyQueryTakesSharedLocks) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryPlan plan = AnalyzeQuery(dawg, "SELECT name FROM patients");
  EXPECT_EQ(plan.island, "RELATIONAL");
  EXPECT_FALSE(plan.is_write);
  EXPECT_EQ(plan.exclusive_engines, 0u);
  EXPECT_NE(plan.shared_engines & kLockPostgres, 0u);
}

TEST(QueryAnalysisTest, CrossEngineReadSharesBothEngines) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryPlan plan = AnalyzeQuery(
      dawg, "RELATIONAL(SELECT COUNT(*) AS n FROM patients p JOIN hr w ON "
            "p.patient_id = w.patient_id)");
  EXPECT_EQ(plan.exclusive_engines, 0u);
  EXPECT_NE(plan.shared_engines & kLockPostgres, 0u);
  EXPECT_NE(plan.shared_engines & kLockSciDb, 0u);
}

TEST(QueryAnalysisTest, CastQueriesShareExactlyTheEnginesTheyRead) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  // A CAST writes no engine: the island's engine and the source's home
  // are read, nothing is locked exclusively, and the target model's
  // engine (d4m) is not touched at all.
  QueryPlan plain = AnalyzeQuery(
      dawg, "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(hr, assoc))");
  EXPECT_EQ(plain.exclusive_engines, 0u);
  EXPECT_EQ(plain.shared_engines, kLockPostgres | kLockSciDb);

  // A nested scope reads its own island's engines too.
  QueryPlan nested = AnalyzeQuery(
      dawg, "RELATIONAL(SELECT owner FROM CAST(TEXT(SEARCH sick), relation))");
  EXPECT_EQ(nested.exclusive_engines, 0u);
  EXPECT_EQ(nested.shared_engines, kLockPostgres | kLockAccumulo);
}

TEST(QueryAnalysisTest, WriteQueryTakesExclusiveLocks) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  QueryPlan plan =
      AnalyzeQuery(dawg, "POSTGRES(INSERT INTO patients VALUES (9, 'zed', 30))");
  EXPECT_TRUE(plan.is_write);
  EXPECT_NE(plan.exclusive_engines & kLockPostgres, 0u);
}

TEST(QueryAnalysisTest, IslandScopeSetsBaseEngine) {
  core::BigDawg dawg;
  LoadSmallFederation(&dawg);
  EXPECT_NE(AnalyzeQuery(dawg, "TEXT(SEARCH sick)").shared_engines & kLockAccumulo,
            0u);
  EXPECT_NE(AnalyzeQuery(dawg, "ARRAY(aggregate(hr, avg, bpm))").shared_engines &
                kLockSciDb,
            0u);
}

// ---- Engine lock manager ----

TEST(EngineLockManagerTest, EngineNamesMapToBits) {
  EXPECT_EQ(EngineLockBitFor(core::kEnginePostgres), kLockPostgres);
  EXPECT_EQ(EngineLockBitFor(core::kEngineSciDb), kLockSciDb);
  EXPECT_EQ(EngineLockBitFor(core::kEngineAccumulo), kLockAccumulo);
  EXPECT_EQ(EngineLockBitFor(core::kEngineSStore), kLockSStore);
  EXPECT_EQ(EngineLockBitFor(core::kEngineTileDb), kLockTileDb);
  EXPECT_EQ(EngineLockBitFor(core::kEngineD4m), kLockD4m);
  EXPECT_EQ(EngineLockBitFor("no_such_engine"), 0u);
}

TEST(EngineLockManagerTest, SharedHoldersOverlapExclusiveWaits) {
  EngineLockManager mgr;
  auto readers = mgr.Acquire(kLockPostgres | kLockSciDb, 0);
  // Another reader gets in immediately even while the first holds.
  auto reader2 = mgr.Acquire(kLockPostgres, 0);
  reader2.Release();

  std::atomic<bool> writer_in{false};
  std::thread writer([&mgr, &writer_in] {
    auto w = mgr.Acquire(0, kLockPostgres);
    writer_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());  // blocked behind the shared holder
  readers.Release();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(EngineLockManagerTest, DisjointExclusiveSetsDoNotBlock) {
  EngineLockManager mgr;
  auto a = mgr.Acquire(0, kLockPostgres);
  // Must not block: different engine.
  auto b = mgr.Acquire(0, kLockSciDb);
  SUCCEED();
}

TEST(EngineLockManagerTest, ExclusiveWinsWhenMasksOverlap) {
  EngineLockManager mgr;
  // postgres appears in both masks; it must be taken exclusive (a
  // second exclusive acquire from another thread must block).
  auto both = mgr.Acquire(kLockPostgres | kLockSciDb, kLockPostgres);
  std::atomic<bool> second_in{false};
  std::thread t([&mgr, &second_in] {
    auto w = mgr.Acquire(0, kLockPostgres);
    second_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_in.load());
  both.Release();
  t.join();
  EXPECT_TRUE(second_in.load());
}

}  // namespace
}  // namespace bigdawg::exec
