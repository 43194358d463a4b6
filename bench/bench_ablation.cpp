// Ablations for the design choices DESIGN.md calls out:
//   A1 array-engine chunk length (storage/scan trade-off)
//   A2 TileDB tile extents (tile-local kernels vs bookkeeping)
//   A3 stream window slide (trigger amortization vs alert granularity)
//   A4 relational join strategy (hash equi-join vs nested loop)
// (A5, chunked-parallel CAST, is no longer reproduced: its binary codec
// was removed.)

#include <cstdio>

#include "array/array.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "relational/database.h"
#include "stream/stream_engine.h"
#include "tiledb/tiledb.h"

using namespace bigdawg;  // NOLINT
using bench::MedianMs;

namespace {

void ArrayChunkLength() {
  std::printf("\n-- A1: array chunk length (1-D, 200k cells, scan+aggregate) --\n");
  std::printf("%10s %10s %12s %12s\n", "chunk", "chunks", "load/ms", "scan/ms");
  for (int64_t chunk : {64, 512, 4096, 32768, 200000}) {
    constexpr int64_t kN = 200000;
    array::Array a;
    double load_ms = MedianMs(3, [&a, chunk] {
      a = *array::Array::Create({array::Dimension("i", 0, kN, chunk)}, {"v"});
      for (int64_t i = 0; i < kN; ++i) {
        BIGDAWG_CHECK_OK(a.Set({i}, {static_cast<double>(i)}));
      }
    });
    double scan_ms = MedianMs(3, [&a] {
      auto sum = a.Aggregate(array::AggFunc::kSum, 0);
      BIGDAWG_CHECK(sum.ok());
    });
    std::printf("%10lld %10zu %12.2f %12.2f\n", static_cast<long long>(chunk),
                a.NumChunks(), load_ms, scan_ms);
  }
}

void TileExtents() {
  std::printf("\n-- A2: TileDB tile extents (1000x1000, 2%% fill, SpMV) --\n");
  std::printf("%12s %10s %14s %12s\n", "tile", "tiles", "consolidate/ms",
              "spmv/ms");
  Rng rng(5);
  std::vector<tiledb::CellEntry> cells;
  for (int64_t r = 0; r < 1000; ++r) {
    for (int64_t c = 0; c < 1000; ++c) {
      if (rng.NextBool(0.02)) cells.push_back({r, c, rng.NextDouble(-1, 1)});
    }
  }
  std::vector<double> x(1000, 1.0);
  for (int64_t extent : {10, 50, 200, 1000}) {
    tiledb::TileDbArray a =
        *tiledb::TileDbArray::Create({1000, 1000, extent, extent});
    BIGDAWG_CHECK_OK(a.WriteBatch(cells));
    double consolidate_ms = MedianMs(1, [&a] { BIGDAWG_CHECK_OK(a.Consolidate()); });
    double spmv_ms = MedianMs(5, [&a, &x] {
      auto y = a.SpMV(x);
      BIGDAWG_CHECK(y.ok());
    });
    std::printf("%7lldx%-4lld %10lld %14.2f %12.3f\n",
                static_cast<long long>(extent), static_cast<long long>(extent),
                static_cast<long long>(a.MaterializedTileCount()), consolidate_ms,
                spmv_ms);
  }
}

void WindowSlide() {
  std::printf("\n-- A3: stream window slide (size 128, 20k tuples) --\n");
  std::printf("%8s %14s %14s %12s\n", "slide", "evaluations", "ingest-ms",
              "tuples/eval");
  for (size_t slide : {1u, 8u, 32u, 128u}) {
    stream::StreamEngine engine;
    BIGDAWG_CHECK_OK(engine.CreateStream(
        "s", Schema({Field("v", DataType::kDouble)}), 100000));
    BIGDAWG_CHECK_OK(engine.CreateWindow("w", "s", 128, slide));
    int64_t evaluations = 0;
    BIGDAWG_CHECK_OK(engine.RegisterProcedure("eval", [&evaluations](
                                                          stream::ProcContext* ctx) {
      BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows, ctx->Window("w"));
      double sum = 0;
      for (const Row& r : rows) sum += r[0].double_unchecked();
      ++evaluations;
      (void)sum;
      return Status::OK();
    }));
    BIGDAWG_CHECK_OK(engine.BindWindowTrigger("w", "eval"));
    engine.Start();
    Stopwatch timer;
    constexpr int kTuples = 20000;
    for (int i = 0; i < kTuples; ++i) {
      BIGDAWG_CHECK_OK(engine.Ingest("s", {Value(1.0)}));
    }
    engine.WaitForDrain();
    double ms = timer.ElapsedMillis();
    engine.Stop();
    std::printf("%8zu %14lld %14.1f %12.1f\n", slide,
                static_cast<long long>(evaluations), ms,
                evaluations > 0 ? static_cast<double>(kTuples) / evaluations : 0);
  }
}

void JoinStrategy() {
  std::printf("\n-- A4: equi-join hash path vs nested-loop fallback --\n");
  relational::Database db;
  constexpr int64_t kN = 4000;
  {
    relational::Table l{Schema({Field("a", DataType::kInt64)})};
    relational::Table r{Schema({Field("b", DataType::kInt64)})};
    for (int64_t i = 0; i < kN; ++i) {
      l.AppendUnchecked({Value(i)});
      r.AppendUnchecked({Value(i)});
    }
    BIGDAWG_CHECK_OK(db.PutTable("l", std::move(l)));
    BIGDAWG_CHECK_OK(db.PutTable("r", std::move(r)));
  }
  double hash_ms = MedianMs(3, [&db] {
    auto result = db.ExecuteSql("SELECT COUNT(*) AS n FROM l JOIN r ON a = b");
    BIGDAWG_CHECK(result.ok());
  });
  // a = b - 0 defeats the equi-key extractor -> nested loop.
  double loop_ms = MedianMs(1, [&db] {
    auto result =
        db.ExecuteSql("SELECT COUNT(*) AS n FROM l JOIN r ON a + 0 = b");
    BIGDAWG_CHECK(result.ok());
  });
  std::printf("hash join:   %10.2f ms\n", hash_ms);
  std::printf("nested loop: %10.2f ms  (%.0fx slower)\n", loop_ms,
              loop_ms / hash_ms);
}

}  // namespace

int main() {
  bench::PrintHeader("Ablations over DESIGN.md's design choices",
                     "chunking, tiling, window slide, join strategy");
  ArrayChunkLength();
  TileExtents();
  WindowSlide();
  JoinStrategy();
  return 0;
}
