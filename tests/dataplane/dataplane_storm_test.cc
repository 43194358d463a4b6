// 8-thread share/mutate storm over one hot block. Readers continuously
// take zero-copy handle copies, checksum them, and read memoized
// metadata (ByteSize, column slices); writers thaw private clones and
// mutate them. The original block's checksum must never move, and the
// whole dance must be TSan-clean — the proof that CoW refcounts, the
// byte-size memo, and the slice cache are properly synchronized. A second
// storm does the same over a cached block born from columns, whose rows
// are a memo the readers race to build while writers clone it.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/columnar.h"
#include "common/logging.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "d4m/assoc_array.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"
#include "relational/table.h"

namespace bigdawg {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 200;

relational::Table SeedTable() {
  relational::Table t{Schema({Field("id", DataType::kInt64),
                              Field("v", DataType::kDouble)})};
  for (int64_t i = 0; i < 64; ++i) {
    t.AppendUnchecked({Value(i), Value(static_cast<double>(i) * 0.5)});
  }
  return t;
}

uint64_t RowsChecksum(const relational::Table& t) {
  uint64_t h = 1469598103934665603ull;
  for (const Row& row : t.rows()) {
    for (const Value& v : row) {
      for (unsigned char c : v.ToString()) {
        h ^= c;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(DataPlaneStormTest, TableShareMutateStormKeepsTheSourceStable) {
  const relational::Table source = SeedTable();
  const uint64_t golden = RowsChecksum(source);
  const int64_t golden_bytes = source.ByteSize();

  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&source, golden, golden_bytes, &corrupted, tid] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Zero-copy share of the hot block.
        relational::Table mine = source;
        if (mine.ByteSize() != golden_bytes) corrupted = true;
        // Memoized column slices, read concurrently from every thread.
        common::ColumnView col = mine.ColumnAt(1);
        if (col.size() != 64) corrupted = true;
        // Mutate the private copy: must thaw a clone, never the source.
        mine.AppendUnchecked({Value(1000 + tid), Value(-1.0)});
        mine.mutable_rows()[0][1] = Value(static_cast<double>(tid));
        if (mine.SharesStorageWith(source)) corrupted = true;
        if (RowsChecksum(mine) == golden) corrupted = true;  // did mutate
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(corrupted.load());
  EXPECT_EQ(RowsChecksum(source), golden);
  EXPECT_EQ(source.ByteSize(), golden_bytes);
}

TEST(DataPlaneStormTest, ColumnarBlockShareMutateStormKeepsTheSourceStable) {
  core::BigDawg dawg;
  relational::Table history{Schema({Field("hist_seq", DataType::kInt64),
                                    Field("patient_id", DataType::kInt64),
                                    Field("mv", DataType::kDouble)})};
  constexpr int64_t kRows = 300;
  for (int64_t i = 0; i < kRows; ++i) {
    history.AppendUnchecked({Value(i), Value(i % 4), Value(0.5 * static_cast<double>(i))});
  }
  BIGDAWG_CHECK_OK(dawg.StoreStreamHistory("h", history));
  // The cast cache's block (a fresh conversion with the cache off): born
  // from columns, rows not yet built.
  const relational::Table source = *dawg.FetchAsTable("h");
  ASSERT_FALSE(source.HasRowStorage());
  // The oracle comes from a second conversion, so the shared block's row
  // memo is first built inside the storm.
  const relational::Table reference = *core::ArrayToTable(*dawg.scidb().GetArray("h"));
  const uint64_t golden = RowsChecksum(reference);
  const int64_t golden_bytes = reference.ByteSize();
  const double golden_sum = 0.5 * static_cast<double>(kRows * (kRows - 1) / 2);
  const relational::SelectStatement count_sum = std::get<relational::SelectStatement>(
      *relational::ParseSql("SELECT COUNT(*) AS n, SUM(mv) AS s FROM h"));

  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kItersPerThread / 4; ++i) {
        relational::Table mine = source;
        if (mine.num_rows() != static_cast<size_t>(kRows)) corrupted = true;
        if (mine.ByteSize() != golden_bytes) corrupted = true;
        if (tid % 2 == 0) {
          // Reader: the column slices, the count/sum query over them, and
          // the lazily built rows.
          if (mine.ColumnAt(2).DoubleAt(7) != 3.5) corrupted = true;
          Result<relational::Table> answer = relational::ExecuteSelect(
              count_sum,
              [&mine](const std::string&) -> Result<const relational::Table*> {
                return &mine;
              });
          if (!answer.ok() || answer->rows()[0][0] != Value(kRows) ||
              answer->rows()[0][1] != Value(golden_sum)) {
            corrupted = true;
          }
          if ((tid + i) % 3 == 0 && RowsChecksum(mine) != golden) corrupted = true;
          Result<Value> cell = mine.At(11, "mv");
          if (!cell.ok() || *cell != Value(5.5)) corrupted = true;
        } else {
          // Writer: thaw a private clone (building its rows from the
          // shared slices) and mutate it.
          mine.mutable_rows()[0][2] = Value(-1.0 - tid);
          mine.AppendUnchecked({Value(kRows + tid), Value(0), Value(1.0)});
          if (mine.SharesStorageWith(source) || !mine.HasRowStorage()) corrupted = true;
          if (mine.ColumnAt(2).DoubleAt(0) != -1.0 - tid) corrupted = true;
          if (RowsChecksum(mine) == golden) corrupted = true;  // did mutate
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(corrupted.load());
  EXPECT_EQ(RowsChecksum(source), golden);
  EXPECT_EQ(source.ByteSize(), golden_bytes);
  EXPECT_EQ(source.num_rows(), static_cast<size_t>(kRows));
}

TEST(DataPlaneStormTest, AssocShareMutateStormKeepsTheSourceStable) {
  d4m::AssocArray seed;
  for (int i = 0; i < 32; ++i) {
    seed.Set("r" + std::to_string(i), "c", Value(static_cast<double>(i)));
  }
  const d4m::AssocArray source = seed;
  const int64_t golden_bytes = source.ByteSize();

  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&source, golden_bytes, &corrupted, tid] {
      for (int i = 0; i < kItersPerThread; ++i) {
        d4m::AssocArray mine = source;
        if (mine.ByteSize() != golden_bytes) corrupted = true;
        mine.Set("thread" + std::to_string(tid), "c", Value(1.0));
        if (mine.SharesStorageWith(source)) corrupted = true;
        if (mine.NumNonEmpty() != 33) corrupted = true;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(corrupted.load());
  EXPECT_EQ(source.NumNonEmpty(), 32u);
  EXPECT_EQ(source.ByteSize(), golden_bytes);
}

}  // namespace
}  // namespace bigdawg
