// The versioned cast-result cache: hit/miss accounting, LRU eviction by
// bytes, version-bump and re-registration invalidation, the
// BIGDAWG_CAST_CACHE=0 kill switch, and single-flight coalescing
// (including error propagation and waiter cancellation). Conversion work
// is metered through the fault injector's per-engine call counters;
// coalescing is made deterministic by parking the leader on injected
// latency driven by a manual FakeClock.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "array/array.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "obs/clock.h"

namespace bigdawg::core {
namespace {

constexpr size_t kHrCells = 16;  // 4 patients x 4 ticks

void LoadFederation(BigDawg* dawg) {
  // hr on scidb: FetchAsTable must convert, so the relation is cacheable.
  BIGDAWG_CHECK_OK(dawg->scidb().CreateArray(
      "hr", {array::Dimension("patient_id", 0, 4, 1),
             array::Dimension("t", 0, 4, 4)},
      {"bpm"}));
  for (int64_t p = 0; p < 4; ++p) {
    for (int64_t t = 0; t < 4; ++t) {
      BIGDAWG_CHECK_OK(dawg->scidb().SetCell(
          "hr", {p, t}, {60.0 + 5.0 * static_cast<double>(p) +
                         static_cast<double>(t)}));
    }
  }
  BIGDAWG_CHECK_OK(dawg->RegisterObject("hr", kEngineSciDb, "hr"));

  // wave on postgres: FetchAsArray must convert, so the array is cacheable.
  BIGDAWG_CHECK_OK(dawg->postgres().CreateTable(
      "wave", Schema({Field("id", DataType::kInt64),
                      Field("v", DataType::kDouble)})));
  for (int64_t i = 0; i < 32; ++i) {
    BIGDAWG_CHECK_OK(dawg->postgres().Insert(
        "wave", {Value(i), Value(static_cast<double>(i) * 0.5)}));
  }
  BIGDAWG_CHECK_OK(dawg->RegisterObject("wave", kEnginePostgres, "wave"));
}

class CastCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Under the BIGDAWG_CAST_CACHE=0 pass of scripts/check.sh there is
    // nothing here to test: every fetch takes the uncached path.
    if (!dawg_.cast_cache().enabled()) {
      GTEST_SKIP() << "cast cache disabled via BIGDAWG_CAST_CACHE";
    }
    LoadFederation(&dawg_);
  }

  int64_t ScidbCalls() {
    return dawg_.fault_injector().CountersFor(kEngineSciDb).calls;
  }

  BigDawg dawg_;
};

TEST_F(CastCacheTest, HitServesWithoutTouchingTheEngine) {
  dawg_.fault_injector().Enable();  // meter engine calls; no faults
  Result<relational::Table> first = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int64_t calls_after_first = ScidbCalls();
  EXPECT_GT(calls_after_first, 0);

  Result<relational::Table> second = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ScidbCalls(), calls_after_first) << "hit must not touch scidb";
  EXPECT_EQ(second->num_rows(), kHrCells);

  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST_F(CastCacheTest, NativeReadsBypassTheCache) {
  // A postgres-homed relation fetched as a relation is a native read.
  ASSERT_TRUE(dawg_.FetchAsTable("wave").ok());
  ASSERT_TRUE(dawg_.FetchAsTable("wave").ok());
  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST_F(CastCacheTest, MarkObjectWrittenIsNeverServedStale) {
  Result<relational::Table> before = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(before.ok());

  // The documented write protocol: write the data, then bump the version.
  BIGDAWG_CHECK_OK(dawg_.scidb().SetCell("hr", {0, 0}, {999.0}));
  BIGDAWG_CHECK_OK(dawg_.MarkObjectWritten("hr"));

  Result<relational::Table> after = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(after.ok());
  bool saw_new_value = false;
  for (const Row& row : after->rows()) {
    if (row.back().double_unchecked() == 999.0) saw_new_value = true;
  }
  EXPECT_TRUE(saw_new_value) << "post-write fetch served stale cached data";
  EXPECT_EQ(dawg_.cast_cache().Stats().misses, 2);

  // The new version is itself cacheable.
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  EXPECT_EQ(dawg_.cast_cache().Stats().hits, 1);
}

TEST_F(CastCacheTest, ReRegistrationIsNotServedFromTheOldInstance) {
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());

  // Remove + re-register the logical name against different data. The
  // version resets to 0 both times; the instance id is what keeps the old
  // entry unreachable.
  BIGDAWG_CHECK_OK(dawg_.scidb().CreateArray(
      "hr2", {array::Dimension("i", 0, 2, 2)}, {"bpm"}));
  BIGDAWG_CHECK_OK(dawg_.scidb().SetCell("hr2", {0}, {1.0}));
  BIGDAWG_CHECK_OK(dawg_.scidb().SetCell("hr2", {1}, {2.0}));
  BIGDAWG_CHECK_OK(dawg_.catalog().Remove("hr"));
  BIGDAWG_CHECK_OK(dawg_.RegisterObject("hr", kEngineSciDb, "hr2"));

  Result<relational::Table> after = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_rows(), 2u);
  EXPECT_EQ(dawg_.cast_cache().Stats().misses, 2);
}

TEST_F(CastCacheTest, LruEvictsByBytes) {
  // Cache both casts under the default budget to measure their sizes.
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  const int64_t hr_bytes = dawg_.cast_cache().Stats().bytes;
  ASSERT_GT(hr_bytes, 0);
  ASSERT_TRUE(dawg_.FetchAsArray("wave").ok());
  const int64_t wave_bytes = dawg_.cast_cache().Stats().bytes - hr_bytes;
  ASSERT_GT(wave_bytes, 0);

  // A budget that holds either entry but not both evicts the LRU one
  // (hr, fetched first) and keeps wave resident.
  dawg_.cast_cache().SetMaxBytes(std::max(hr_bytes, wave_bytes));
  CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_GE(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_LE(stats.bytes, dawg_.cast_cache().max_bytes());
  std::vector<CastCacheEntryView> entries = dawg_.cast_cache().DumpEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key.object, "wave");

  // The evicted relation misses again.
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  EXPECT_EQ(dawg_.cast_cache().Stats().misses, 3);
}

TEST_F(CastCacheTest, SupersededVersionsAreDroppedAtInsert) {
  // An unrelated cast that must survive every write to hr.
  ASSERT_TRUE(dawg_.FetchAsArray("wave").ok());
  constexpr int kVersions = 5;
  for (int k = 0; k < kVersions; ++k) {
    BIGDAWG_CHECK_OK(dawg_.scidb().SetCell("hr", {0, 0}, {100.0 + k}));
    BIGDAWG_CHECK_OK(dawg_.MarkObjectWritten("hr"));
    ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  }
  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.misses, kVersions + 1);
  EXPECT_EQ(stats.evictions, kVersions - 1) << "each new hr version drops the last";
  EXPECT_EQ(stats.entries, 2);
  int hr_entries = 0;
  bool wave_resident = false;
  for (const CastCacheEntryView& e : dawg_.cast_cache().DumpEntries()) {
    if (e.key.object == "hr") ++hr_entries;
    if (e.key.object == "wave") wave_resident = true;
  }
  EXPECT_EQ(hr_entries, 1);
  EXPECT_TRUE(wave_resident);

  // The newest version is the resident one, and the accounting holds
  // only what is resident.
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  EXPECT_EQ(dawg_.cast_cache().Stats().hits, 1);
  int64_t resident = 0;
  for (const CastCacheEntryView& e : dawg_.cast_cache().DumpEntries()) resident += e.bytes;
  EXPECT_EQ(dawg_.cast_cache().Stats().bytes, resident);
}

TEST_F(CastCacheTest, OversizedResultsAreNotCached) {
  dawg_.cast_cache().SetMaxBytes(1);
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
}

TEST_F(CastCacheTest, KillSwitchDisablesCaching) {
  ::setenv("BIGDAWG_CAST_CACHE", "0", 1);
  BigDawg dawg;
  ::unsetenv("BIGDAWG_CAST_CACHE");
  LoadFederation(&dawg);
  EXPECT_FALSE(dawg.cast_cache().enabled());
  ASSERT_TRUE(dawg.FetchAsTable("hr").ok());
  ASSERT_TRUE(dawg.FetchAsTable("hr").ok());
  const CastCacheStats stats = dawg.cast_cache().Stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST_F(CastCacheTest, ExplicitDisableDropsEntries) {
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  EXPECT_EQ(dawg_.cast_cache().Stats().entries, 1);
  dawg_.cast_cache().SetEnabled(false);
  EXPECT_EQ(dawg_.cast_cache().Stats().entries, 0);
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  EXPECT_EQ(dawg_.cast_cache().Stats().misses, 1);  // unchanged: bypassed
}

TEST_F(CastCacheTest, DumpEntriesDescribesResidentCasts) {
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  ASSERT_TRUE(dawg_.FetchAsTable("hr").ok());
  std::vector<CastCacheEntryView> entries = dawg_.cast_cache().DumpEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key.object, "hr");
  EXPECT_EQ(entries[0].key.version, 0);
  EXPECT_EQ(entries[0].key.target, CastTarget::kTable);
  EXPECT_EQ(entries[0].hits, 1);
  EXPECT_GT(entries[0].bytes, 0);
  EXPECT_GE(entries[0].age_ms, 0.0);
  EXPECT_EQ(entries[0].key.ToString(),
            "hr@v0#" + std::to_string(entries[0].key.instance_id) +
                "->relation");
}

// ---------------------------------------------------------------------------
// Single-flight coalescing. The leader is parked on injected scidb
// latency under a manual FakeClock; waiters pile up deterministically
// (observed via the coalesced-waits counter) before time advances.
// ---------------------------------------------------------------------------

class CastCacheSingleFlightTest : public CastCacheTest {
 protected:
  void SetUp() override {
    CastCacheTest::SetUp();
    if (IsSkipped()) return;
    dawg_.fault_injector().SetClock(&clock_);
    dawg_.fault_injector().Enable();
    dawg_.fault_injector().SetLatencyMs(kEngineSciDb, 50);
  }

  void WaitForCoalesced(int64_t n) {
    while (dawg_.cast_cache().Stats().coalesced_waits < n) {
      std::this_thread::yield();
    }
  }

  obs::FakeClock clock_;  // kManual
};

TEST_F(CastCacheSingleFlightTest, ConcurrentMissesConvertExactlyOnce) {
  std::thread leader([this] {
    Result<relational::Table> r = dawg_.FetchAsTable("hr");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_rows(), kHrCells);
  });
  // The leader is inside the engine call (parked on injected latency)
  // before any waiter starts, so the flight exists.
  while (clock_.sleepers() < 1) std::this_thread::yield();

  constexpr int kWaiters = 3;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([this] {
      Result<relational::Table> r = dawg_.FetchAsTable("hr");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->num_rows(), kHrCells);
    });
  }
  WaitForCoalesced(kWaiters);
  clock_.AdvanceMs(50);
  leader.join();
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(ScidbCalls(), 1) << "exactly one conversion for K requests";
  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced_waits, kWaiters);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST_F(CastCacheSingleFlightTest, WaitersSeeTheLeadersErrorAndNothingIsCached) {
  dawg_.fault_injector().FailNextCalls(kEngineSciDb, 1);
  std::thread leader([this] {
    Result<relational::Table> r = dawg_.FetchAsTable("hr");
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  });
  while (clock_.sleepers() < 1) std::this_thread::yield();

  constexpr int kWaiters = 2;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([this] {
      Result<relational::Table> r = dawg_.FetchAsTable("hr");
      // The leader's error, not a cache entry and not a hang.
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    });
  }
  WaitForCoalesced(kWaiters);
  clock_.AdvanceMs(50);
  leader.join();
  for (std::thread& t : waiters) t.join();

  CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.insertions, 0) << "a failed cast must never be cached";
  EXPECT_EQ(stats.entries, 0);

  // The flight is gone: the next request retries from scratch and, with
  // the schedule exhausted, succeeds and caches.
  dawg_.fault_injector().SetLatencyMs(kEngineSciDb, 0);
  Result<relational::Table> retry = dawg_.FetchAsTable("hr");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST_F(CastCacheSingleFlightTest, CoalescedWaiterHonorsCancellation) {
  std::thread leader([this] {
    Result<relational::Table> r = dawg_.FetchAsTable("hr");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  while (clock_.sleepers() < 1) std::this_thread::yield();

  std::atomic<bool> cancelled{false};
  std::thread waiter([this, &cancelled] {
    ExecContext ctx;
    ctx.cancelled = &cancelled;
    Result<relational::Table> r =
        dawg_.Execute("RELATIONAL(SELECT * FROM CAST(hr, relation))", &ctx);
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  });
  WaitForCoalesced(1);
  cancelled.store(true);
  waiter.join();  // returns promptly: the wait polls in ~1ms slices

  // The abandoned leader still finishes and caches.
  clock_.AdvanceMs(50);
  leader.join();
  const CastCacheStats stats = dawg_.cast_cache().Stats();
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
}

}  // namespace
}  // namespace bigdawg::core
