// The stream -> array-engine age-out pipeline: retention-evicted rows
// land in a `<stream>__history` array object exactly once, survive
// injected array-engine outages, and every flush bumps the catalog
// version so the cast-result cache can never serve pre-flush history.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/columnar.h"
#include "common/logging.h"
#include "common/macros.h"
#include "core/bigdawg.h"
#include "core/stream_ageout.h"
#include "core/wire_format.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace bigdawg::core {
namespace {

Schema VitalsSchema() {
  return Schema({Field("patient_id", DataType::kInt64),
                 Field("hr", DataType::kDouble)});
}

// The hr column of a fetched history table. The pipeline prepends a
// unique hist_seq dimension, so the array scan returns rows in age-out
// order — exact-order assertions double as exactly-once checks.
std::vector<double> HistoryValues(BigDawg* dawg, const std::string& object) {
  relational::Table table = *dawg->FetchAsTable(object);
  common::ColumnView column = *table.Column("hr");
  std::vector<double> values;
  for (const Value& v : column) {
    values.push_back(*v.ToNumeric());
  }
  return values;
}

TEST(StreamAgeOutTest, AgedRowsReachArrayEngineExactlyOnce) {
  BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.sstore().CreateStream("vitals", VitalsSchema(), 3));
  StreamAgeOutConfig config;
  config.flush_rows = 4;
  BIGDAWG_CHECK_OK(dawg.EnableStreamAgeOut(config));

  dawg.sstore().Start();
  for (int i = 0; i < 12; ++i) {
    BIGDAWG_CHECK_OK(
        dawg.sstore().Ingest("vitals", {Value(1), Value(static_cast<double>(i))}));
  }
  dawg.sstore().WaitForDrain();
  dawg.sstore().Stop();

  // Retention 3 after 12 ingests evicts rows 0..8. Two threshold flushes
  // (at 4 and 8 pending) have already run; FlushAll commits the last one.
  StreamAgeOutStats mid = dawg.stream_ageout()->GetStats();
  EXPECT_EQ(mid.flushes, 2);
  EXPECT_EQ(mid.flushed_rows, 8);
  EXPECT_EQ(mid.pending_rows, 1);
  BIGDAWG_CHECK_OK(dawg.stream_ageout()->FlushAll());

  const std::string history = dawg.stream_ageout()->HistoryObjectName("vitals");
  EXPECT_EQ(history, "vitals__history");
  EXPECT_EQ(HistoryValues(&dawg, history),
            (std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  StreamAgeOutStats done = dawg.stream_ageout()->GetStats();
  EXPECT_EQ(done.pending_rows, 0);
  EXPECT_EQ(done.flushed_rows, 9);
  EXPECT_EQ(done.flush_failures, 0);
  // The engine's own retention buffer still holds the live tail.
  EXPECT_EQ(dawg.sstore().StreamContents("vitals")->size(), 3u);
}

TEST(StreamAgeOutTest, FailedFlushKeepsRowsPendingThenDeliversOnce) {
  BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.sstore().CreateStream("vitals", VitalsSchema(), 2));
  StreamAgeOutConfig config;
  config.flush_rows = 2;
  BIGDAWG_CHECK_OK(dawg.EnableStreamAgeOut(config));

  dawg.fault_injector().Enable();
  dawg.fault_injector().SetDown(kEngineSciDb, true);

  dawg.sstore().Start();
  for (int i = 0; i < 8; ++i) {
    BIGDAWG_CHECK_OK(
        dawg.sstore().Ingest("vitals", {Value(1), Value(static_cast<double>(i))}));
  }
  dawg.sstore().WaitForDrain();
  dawg.sstore().Stop();

  // Every threshold flush hit the downed array engine: rows 0..5 are all
  // still pending, none lost, none stored.
  StreamAgeOutStats down = dawg.stream_ageout()->GetStats();
  EXPECT_GT(down.flush_failures, 0);
  EXPECT_EQ(down.pending_rows, 6);
  EXPECT_EQ(down.flushed_rows, 0);
  EXPECT_TRUE(dawg.stream_ageout()->FlushAll().IsUnavailable());
  EXPECT_FALSE(dawg.FetchAsTable("vitals__history").ok());

  // Engine recovers: one FlushAll delivers everything exactly once.
  dawg.fault_injector().SetDown(kEngineSciDb, false);
  BIGDAWG_CHECK_OK(dawg.stream_ageout()->FlushAll());
  EXPECT_EQ(HistoryValues(&dawg, "vitals__history"),
            (std::vector<double>{0, 1, 2, 3, 4, 5}));
  StreamAgeOutStats up = dawg.stream_ageout()->GetStats();
  EXPECT_EQ(up.pending_rows, 0);
  EXPECT_EQ(up.flushed_rows, 6);

  // A second FlushAll with nothing pending must not double-append.
  BIGDAWG_CHECK_OK(dawg.stream_ageout()->FlushAll());
  EXPECT_EQ(HistoryValues(&dawg, "vitals__history").size(), 6u);
}

TEST(StreamAgeOutTest, FlushBumpsVersionSoCacheNeverServesStaleHistory) {
  obs::FakeClock clock;
  BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.sstore().SetClock(&clock));
  stream::StreamOptions options;
  options.retention = 1000;   // count retention out of the way
  options.retention_ms = 50;  // age-based eviction on fake time
  BIGDAWG_CHECK_OK(dawg.sstore().CreateStream("vitals", VitalsSchema(), options));
  StreamAgeOutConfig config;
  config.flush_rows = 1;  // flush every aged row immediately
  BIGDAWG_CHECK_OK(dawg.EnableStreamAgeOut(config));

  dawg.sstore().Start();
  BIGDAWG_CHECK_OK(dawg.sstore().Ingest("vitals", {Value(1), Value(10.0)}));
  BIGDAWG_CHECK_OK(dawg.sstore().Ingest("vitals", {Value(1), Value(11.0)}));
  dawg.sstore().WaitForDrain();
  clock.AdvanceMs(60);
  dawg.sstore().AdvanceRetention();  // both rows age out and flush

  const std::string history = "vitals__history";
  const int64_t v1 = dawg.catalog().Snapshot(history)->version;
  // Read through the cast cache at v1; this populates the cache.
  EXPECT_EQ(HistoryValues(&dawg, history), (std::vector<double>{10, 11}));
  EXPECT_EQ(HistoryValues(&dawg, history), (std::vector<double>{10, 11}));

  BIGDAWG_CHECK_OK(dawg.sstore().Ingest("vitals", {Value(1), Value(12.0)}));
  dawg.sstore().WaitForDrain();
  clock.AdvanceMs(60);
  dawg.sstore().AdvanceRetention();
  dawg.sstore().Stop();

  // The flush rewrote the history object and bumped its version; a reader
  // at the new version must see the post-age-out rows, not cached bytes.
  const int64_t v2 = dawg.catalog().Snapshot(history)->version;
  EXPECT_GT(v2, v1);
  EXPECT_EQ(HistoryValues(&dawg, history),
            (std::vector<double>{10, 11, 12}));
}

TEST(StreamAgeOutTest, AttachValidatesConfig) {
  BigDawg dawg;
  StreamAgeOutConfig config;
  config.flush_rows = 0;
  EXPECT_TRUE(dawg.EnableStreamAgeOut(config).IsInvalidArgument());
  // A valid enable with no streams defined is fine; rows for streams the
  // pipeline never saw are skipped, not crashed on.
  BIGDAWG_CHECK_OK(dawg.EnableStreamAgeOut());
  dawg.stream_ageout()->OnAgeOut("ghost", {Value(1), Value(2.0)});
  EXPECT_EQ(dawg.stream_ageout()->GetStats().pending_rows, 0);
}

// ---------------------------------------------------------------------------
// Append-path oracle: rows are handed to OnAgeOut directly, so the test
// knows every aged row and its hist_seq. After every flush the stored
// history must hold exactly the cells a full rebuild from the kept aged
// rows holds, in the same Scan order.
// ---------------------------------------------------------------------------

class HistoryOracle {
 public:
  explicit HistoryOracle(StreamAgeOutConfig config) {
    BIGDAWG_CHECK_OK(dawg_.sstore().CreateStream("vitals", VitalsSchema(), 16));
    max_rows_ = config.max_history_rows;
    BIGDAWG_CHECK_OK(dawg_.EnableStreamAgeOut(config));
  }

  BigDawg& dawg() { return dawg_; }
  StreamAgeOut& ageout() { return *dawg_.stream_ageout(); }

  /// Ages out one row; the pipeline stamps it with the next hist_seq.
  void Age(int64_t patient, double hr) {
    aged_.push_back({Value(static_cast<int64_t>(aged_.size())), Value(patient),
                     Value(hr)});
    ageout().OnAgeOut("vitals", {Value(patient), Value(hr)});
  }

  /// The history a full rebuild from the last `max_rows_` flushed rows
  /// would store.
  array::Array Rebuilt() {
    const size_t flushed = static_cast<size_t>(ageout_stats().flushed_rows);
    const size_t first = flushed > max_rows_ ? flushed - max_rows_ : 0;
    relational::Table all{Schema({Field(kHistorySeqColumn, DataType::kInt64),
                                  Field("patient_id", DataType::kInt64),
                                  Field("hr", DataType::kDouble)})};
    for (size_t i = first; i < flushed; ++i) all.AppendUnchecked(aged_[i]);
    return *TableToArray(all);
  }

  /// The stored history (gathered when sharded) against Rebuilt().
  void ExpectMatchesRebuild() {
    array::Array stored = *dawg_.FetchAsArray("vitals__history");
    array::Array rebuilt = Rebuilt();
    ASSERT_EQ(stored.num_dims(), rebuilt.num_dims());
    for (size_t d = 0; d < stored.num_dims(); ++d) {
      EXPECT_EQ(stored.dims()[d].start, rebuilt.dims()[d].start) << d;
      EXPECT_EQ(stored.dims()[d].length, rebuilt.dims()[d].length) << d;
    }
    EXPECT_EQ(EncodeTable(*ArrayToTable(stored)), EncodeTable(*ArrayToTable(rebuilt)));
    EXPECT_EQ(stored.NonEmptyCount(), rebuilt.NonEmptyCount());
  }

  StreamAgeOutStats ageout_stats() { return ageout().GetStats(); }

 private:
  BigDawg dawg_;
  size_t max_rows_ = 0;
  std::vector<Row> aged_;
};

StreamAgeOutConfig FlushEvery(size_t rows) {
  StreamAgeOutConfig config;
  config.flush_rows = rows;
  return config;
}

TEST(StreamAgeOutAppendTest, NewPatientAfterFirstFlushRebuildsOnce) {
  HistoryOracle h(FlushEvery(200));
  for (int i = 0; i < 600; ++i) h.Age(i % 4, 60.0 + i);
  // Three flushes: the first builds the history, the next two append.
  EXPECT_EQ(h.ageout_stats().flushes, 3);
  EXPECT_EQ(h.ageout_stats().rebuilds, 0);
  h.ExpectMatchesRebuild();

  // Patient 9 lies outside the patient_id dimension: that flush rebuilds,
  // and appends resume on the wider grid.
  h.Age(9, 1.0);
  for (int i = 0; i < 399; ++i) h.Age(i % 10, 70.0 + i);
  EXPECT_EQ(h.ageout_stats().flushes, 5);
  EXPECT_EQ(h.ageout_stats().rebuilds, 1);
  h.ExpectMatchesRebuild();
  for (int i = 0; i < 200; ++i) h.Age(i % 10, 80.0 + i);
  EXPECT_EQ(h.ageout_stats().rebuilds, 1);
  h.ExpectMatchesRebuild();

  // The counter is on /metrics beside the other age-out gauges.
  obs::MetricsRegistry registry;
  h.ageout().ExportMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("bigdawg_stream_ageout_rebuilds_total")->Value(), 1.0);
  EXPECT_EQ(registry.GetGauge("bigdawg_stream_ageout_flushes_total")->Value(), 6.0);
}

TEST(StreamAgeOutAppendTest, SmallFirstFlushKeepsTheSeqGridForAppends) {
  HistoryOracle h(FlushEvery(100000));
  for (int i = 0; i < 10; ++i) h.Age(i % 4, 60.0 + i);
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  h.ExpectMatchesRebuild();
  array::Array first = *h.dawg().scidb().GetArray("vitals__history");
  // hist_seq keeps the full chunk; the 4-value patient_id is clamped.
  EXPECT_EQ(first.dims()[0].chunk_length, kHistoryChunkLength);
  EXPECT_EQ(first.dims()[1].chunk_length, 4);

  for (int i = 0; i < 500; ++i) h.Age(i % 4, 70.0 + i);
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  EXPECT_EQ(h.ageout_stats().rebuilds, 0);
  h.ExpectMatchesRebuild();
  array::Array grown = *h.dawg().scidb().GetArray("vitals__history");
  EXPECT_EQ(grown.dims()[0].start, 0);
  EXPECT_EQ(grown.dims()[0].length, 510);
  EXPECT_EQ(grown.dims()[0].chunk_length, kHistoryChunkLength);
  EXPECT_EQ(grown.NumChunks(), 2u);  // seq 0..255 and 256..509
}

TEST(StreamAgeOutAppendTest, MaxHistoryRowsTrimsByRebuilding) {
  StreamAgeOutConfig config = FlushEvery(128);
  config.max_history_rows = 300;
  HistoryOracle h(config);
  for (int i = 0; i < 256; ++i) h.Age(i % 4, 60.0 + i);
  EXPECT_EQ(h.ageout_stats().rebuilds, 0);  // 256 rows fit under the cap
  for (int i = 0; i < 744; ++i) h.Age(i % 4, 90.0 + i);
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  EXPECT_GT(h.ageout_stats().rebuilds, 0);
  EXPECT_EQ(h.ageout_stats().flushed_rows, 1000);
  h.ExpectMatchesRebuild();
  array::Array stored = *h.dawg().scidb().GetArray("vitals__history");
  EXPECT_EQ(stored.NonEmptyCount(), 300);
  EXPECT_EQ(stored.dims()[0].start, 700);
}

TEST(StreamAgeOutAppendTest, FailedFlushLeavesArchiveAndPendingUntouched) {
  HistoryOracle h(FlushEvery(100));
  for (int i = 0; i < 300; ++i) h.Age(i % 4, 60.0 + i);
  const std::string before =
      EncodeArray(*h.dawg().scidb().GetArray("vitals__history"));

  h.dawg().fault_injector().Enable();
  h.dawg().fault_injector().SetDown(kEngineSciDb, true);
  for (int i = 0; i < 150; ++i) h.Age(i % 4, 70.0 + i);  // an append
  h.Age(7, 1.0);                                          // and a rebuild
  EXPECT_TRUE(h.ageout().FlushAll().IsUnavailable());
  EXPECT_GT(h.ageout_stats().flush_failures, 0);
  EXPECT_EQ(h.ageout_stats().pending_rows, 151);
  EXPECT_EQ(h.ageout_stats().flushed_rows, 300);
  h.dawg().fault_injector().SetDown(kEngineSciDb, false);
  EXPECT_EQ(EncodeArray(*h.dawg().scidb().GetArray("vitals__history")), before);

  // Recovery delivers the 151 rows exactly once.
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  EXPECT_EQ(h.ageout_stats().pending_rows, 0);
  EXPECT_EQ(h.ageout_stats().flushed_rows, 451);
  h.ExpectMatchesRebuild();
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  EXPECT_EQ(h.dawg().FetchAsArray("vitals__history")->NonEmptyCount(), 451);
}

TEST(StreamAgeOutAppendTest, SnapshotTakenBeforeAFlushNeverChanges) {
  HistoryOracle h(FlushEvery(100));
  for (int i = 0; i < 130; ++i) h.Age(i % 4, 60.0 + i);
  // The stored array's last chunk is partly filled, so the next append
  // writes into a chunk this snapshot shares.
  array::Array snapshot = *h.dawg().scidb().GetArray("vitals__history");
  const std::string before = EncodeArray(snapshot);
  for (int i = 0; i < 100; ++i) h.Age(i % 4, 70.0 + i);  // append
  EXPECT_EQ(EncodeArray(snapshot), before);
  for (int i = 0; i < 100; ++i) h.Age(5 + i % 2, 80.0 + i);  // rebuild
  EXPECT_EQ(h.ageout_stats().rebuilds, 1);
  EXPECT_EQ(EncodeArray(snapshot), before);
  EXPECT_EQ(snapshot.NonEmptyCount(), 100);
  h.ExpectMatchesRebuild();
}

TEST(StreamAgeOutAppendTest, ShardedHistoryAppendsPerFragment) {
  for (const std::string key : {"", "patient_id"}) {
    SCOPED_TRACE("shard key '" + key + "'");
    HistoryOracle h(FlushEvery(100));
    for (int i = 0; i < 300; ++i) h.Age(i % 4, 60.0 + i);
    BIGDAWG_CHECK_OK(h.dawg().ShardObject("vitals__history", 3, key));
    for (int i = 0; i < 300; ++i) h.Age(i % 4, 70.0 + i);
    EXPECT_EQ(h.ageout_stats().rebuilds, 0);
    h.ExpectMatchesRebuild();

    // A down shard instance defers the flush; the rows stay pending and
    // land exactly once when it recovers.
    h.dawg().fault_injector().Enable();
    const std::string shard1 = ShardInstanceName(kEngineSciDb, 1);
    h.dawg().fault_injector().SetDown(shard1, true);
    for (int i = 0; i < 100; ++i) h.Age(i % 4, 80.0 + i);
    EXPECT_EQ(h.ageout_stats().pending_rows, 100);
    h.dawg().fault_injector().SetDown(shard1, false);

    h.Age(8, 1.0);  // new patient: the fragments are rebuilt together
    BIGDAWG_CHECK_OK(h.ageout().FlushAll());
    EXPECT_EQ(h.ageout_stats().rebuilds, 1);
    EXPECT_EQ(h.ageout_stats().flushed_rows, 701);
    h.ExpectMatchesRebuild();
    for (int i = 0; i < 200; ++i) h.Age(i % 9, 90.0 + i);
    EXPECT_EQ(h.ageout_stats().rebuilds, 1);
    h.ExpectMatchesRebuild();
  }
}

TEST(StreamAgeOutAppendTest, ShardedRebuildFailingPartWayHealsOnRetry) {
  HistoryOracle h(FlushEvery(100));
  for (int i = 0; i < 300; ++i) h.Age(i % 4, 60.0 + i);
  BIGDAWG_CHECK_OK(h.dawg().ShardObject("vitals__history", 3));
  for (int i = 0; i < 99; ++i) h.Age(i % 4, 70.0 + i);

  // A new patient forces a rebuild; shard 2's store (its second call)
  // fails after shards 0 and 1 took the rebuilt fragments.
  h.dawg().fault_injector().Enable();
  h.dawg().fault_injector().Reset();
  h.dawg().fault_injector().FailEveryNth(ShardInstanceName(kEngineSciDb, 2), 2);
  h.Age(6, 1.0);
  EXPECT_EQ(h.ageout_stats().flush_failures, 1);
  EXPECT_EQ(h.ageout_stats().pending_rows, 100);

  // The fragments now sit on different grids; the retry rebuilds them
  // together and delivers the rows exactly once.
  h.dawg().fault_injector().Reset();
  BIGDAWG_CHECK_OK(h.ageout().FlushAll());
  EXPECT_EQ(h.ageout_stats().rebuilds, 1);
  EXPECT_EQ(h.ageout_stats().flushed_rows, 400);
  h.ExpectMatchesRebuild();
  for (int i = 0; i < 100; ++i) h.Age(i % 7, 80.0 + i);
  EXPECT_EQ(h.ageout_stats().rebuilds, 1);
  h.ExpectMatchesRebuild();
}

TEST(StreamAgeOutAppendTest, AttachRejectsAZeroHistoryCap) {
  BigDawg dawg;
  StreamAgeOutConfig config;
  config.max_history_rows = 0;
  EXPECT_TRUE(dawg.EnableStreamAgeOut(config).IsInvalidArgument());
}

}  // namespace
}  // namespace bigdawg::core
