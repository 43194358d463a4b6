// Google-benchmark micro-benchmarks for the polystore's hot primitives:
// expression evaluation, hash aggregation, array scans, KV range scans,
// the binary CAST wire format, and FFT kernels. These are per-operation
// numbers supporting the experiment-level benches.

#include <benchmark/benchmark.h>

#include "analytics/fft.h"
#include "array/array.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/wire_format.h"
#include "kvstore/kvstore.h"
#include "relational/database.h"
#include "relational/sql_parser.h"

using namespace bigdawg;  // NOLINT

namespace {

relational::Table MakeTable(int64_t rows) {
  Rng rng(1);
  relational::Table t{Schema({Field("id", DataType::kInt64),
                              Field("grp", DataType::kString),
                              Field("v", DataType::kDouble)})};
  const char* groups[] = {"a", "b", "c", "d"};
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(i), Value(groups[rng.NextBelow(4)]),
                       Value(rng.NextDouble(0, 100))});
  }
  return t;
}

void BM_ExpressionEval(benchmark::State& state) {
  relational::Table t = MakeTable(1);
  relational::ExprPtr expr =
      *relational::ParseExpression("v * 2 + 1 > 50 AND grp = 'a'");
  BIGDAWG_CHECK_OK(expr->Bind(t.schema()));
  const Row& row = t.rows()[0];
  for (auto _ : state) {
    auto v = expr->Eval(row);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExpressionEval);

void BM_SqlGroupBy(benchmark::State& state) {
  relational::Database db;
  BIGDAWG_CHECK_OK(db.CreateTable("t", MakeTable(0).schema()));
  BIGDAWG_CHECK_OK(db.PutTable("t", MakeTable(state.range(0))));
  for (auto _ : state) {
    auto result = db.ExecuteSql("SELECT grp, AVG(v) AS a FROM t GROUP BY grp");
    BIGDAWG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SqlGroupBy)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SqlHashJoin(benchmark::State& state) {
  relational::Database db;
  const int64_t n = state.range(0);
  BIGDAWG_CHECK_OK(db.PutTable("l", MakeTable(n)));
  BIGDAWG_CHECK_OK(db.PutTable("r", MakeTable(n / 4)));
  for (auto _ : state) {
    auto result = db.ExecuteSql(
        "SELECT COUNT(*) AS n FROM l JOIN r ON l.id = r.id");
    BIGDAWG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SqlHashJoin)->Arg(10000)->Arg(50000);

void BM_ArrayScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  array::Array a = *array::Array::Create(
      {array::Dimension("i", 0, n, 1024)}, {"v"});
  for (int64_t i = 0; i < n; ++i) {
    BIGDAWG_CHECK_OK(a.Set({i}, {static_cast<double>(i)}));
  }
  for (auto _ : state) {
    double sum = 0;
    a.Scan([&sum](const array::Coordinates&, const std::vector<double>& v) {
      sum += v[0];
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ArrayScan)->Arg(10000)->Arg(100000);

void BM_KvRangeScan(benchmark::State& state) {
  kvstore::KvStore store;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    store.Put(kvstore::Key("row" + std::to_string(i), "f", "q"),
              std::to_string(i));
  }
  for (auto _ : state) {
    int64_t count = 0;
    store.ApplyToRange(kvstore::ScanOptions{}, [&count](const kvstore::Cell&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvRangeScan)->Arg(10000)->Arg(100000);

void BM_WireCastRoundTrip(benchmark::State& state) {
  relational::Table t = MakeTable(state.range(0));
  for (auto _ : state) {
    std::string wire = core::EncodeTable(t);
    auto back = core::DecodeTable(wire);
    BIGDAWG_CHECK(back.ok());
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireCastRoundTrip)->Arg(1000)->Arg(10000);

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> signal(n);
  for (double& v : signal) v = rng.NextGaussian();
  for (auto _ : state) {
    auto spectrum = analytics::PowerSpectrum(signal);
    BIGDAWG_CHECK(spectrum.ok());
    benchmark::DoNotOptimize(spectrum);
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
