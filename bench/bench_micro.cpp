// Google-benchmark micro-benchmarks for the polystore's hot primitives:
// expression evaluation, SQL scans/aggregates/joins/DISTINCT, Myria
// iteration, array scans, array -> relation CASTs, KV range scans, the
// MIMIC demo's TEXT/ARRAY/D4M island kernels, the binary CAST wire
// format, and FFT kernels. These are per-operation numbers supporting
// the experiment-level benches.

#include <benchmark/benchmark.h>

#include "analytics/fft.h"
#include "array/array.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "core/stream_ageout.h"
#include "core/wire_format.h"
#include "kvstore/kvstore.h"
#include "mimic/mimic.h"
#include "myria/myria.h"
#include "relational/database.h"
#include "relational/executor.h"
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

// The analytic workload's join shape: an aliased equi-join of n labs to
// n/25 patients, a WHERE on the build side, and a GROUP BY on a string.
void BM_SqlJoinGroupBy(benchmark::State& state) {
  relational::Database db;
  const int64_t n = state.range(0);
  const int64_t patients = n / 25;
  Rng rng(2);
  relational::Table p{Schema({Field("patient_id", DataType::kInt64),
                              Field("age", DataType::kInt64),
                              Field("sex", DataType::kString)})};
  for (int64_t i = 0; i < patients; ++i) {
    p.AppendUnchecked({Value(i), Value(rng.NextInt(18, 95)),
                       Value(rng.NextBelow(2) == 0 ? "F" : "M")});
  }
  relational::Table labs{Schema({Field("lab_id", DataType::kInt64),
                                 Field("patient_id", DataType::kInt64),
                                 Field("value", DataType::kDouble)})};
  for (int64_t i = 0; i < n; ++i) {
    labs.AppendUnchecked({Value(i),
                          Value(static_cast<int64_t>(rng.NextBelow(patients))),
                          Value(rng.NextDouble(0, 100))});
  }
  BIGDAWG_CHECK_OK(db.PutTable("patients", std::move(p)));
  BIGDAWG_CHECK_OK(db.PutTable("labs", std::move(labs)));
  for (auto _ : state) {
    auto result = db.ExecuteSql(
        "SELECT sex, COUNT(*) AS n, SUM(value) AS s FROM labs l JOIN patients p "
        "ON l.patient_id = p.patient_id WHERE age >= 50 GROUP BY sex");
    BIGDAWG_CHECK(result.ok() && result->num_rows() == 2);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SqlJoinGroupBy)->Arg(100000)->Unit(benchmark::kMillisecond);

// One SELECT through relational::ExecuteSelect over `table`, named "t";
// the statement is parsed once, outside the timed loop.
void RunSelect(benchmark::State& state, const relational::Table& table,
               const std::string& sql) {
  auto stmt = relational::ParseSql(sql);
  BIGDAWG_CHECK(stmt.ok());
  const auto& select = std::get<relational::SelectStatement>(*stmt);
  relational::TableResolver resolver =
      [&table](const std::string&) -> Result<const relational::Table*> { return &table; };
  for (auto _ : state) {
    auto result = relational::ExecuteSelect(select, resolver);
    BIGDAWG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(table.num_rows()));
}

constexpr int64_t kScanRows = 250000;

void BM_SqlCount(benchmark::State& state) {
  RunSelect(state, MakeTable(kScanRows), "SELECT COUNT(*) AS n FROM t");
}
BENCHMARK(BM_SqlCount)->Unit(benchmark::kMillisecond);

void BM_SqlFilteredSum(benchmark::State& state) {
  RunSelect(state, MakeTable(kScanRows),
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > 50");
}
BENCHMARK(BM_SqlFilteredSum)->Unit(benchmark::kMillisecond);

void BM_SqlPoint(benchmark::State& state) {
  RunSelect(state, MakeTable(kScanRows), "SELECT * FROM t WHERE id = 83333");
}
BENCHMARK(BM_SqlPoint)->Unit(benchmark::kMillisecond);

// SELECT DISTINCT over 10^5 rows holding 10^4 distinct values.
void BM_SqlDistinct(benchmark::State& state) {
  relational::Table t{Schema({Field("k", DataType::kInt64)})};
  for (int64_t i = 0; i < 100000; ++i) t.AppendUnchecked({Value(i % 10000)});
  RunSelect(state, t, "SELECT DISTINCT k FROM t");
}
BENCHMARK(BM_SqlDistinct)->Unit(benchmark::kMillisecond);

// Myria Iterate: transitive closure of an n-node chain (n(n-1)/2 pairs).
void BM_MyriaChainClosure(benchmark::State& state) {
  const int64_t n = state.range(0);
  relational::Table chain{Schema({Field("src", DataType::kInt64),
                                  Field("dst", DataType::kInt64)})};
  for (int64_t i = 0; i + 1 < n; ++i) chain.AppendUnchecked({Value(i), Value(i + 1)});
  myria::PlanPtr plan = myria::Iterate(
      myria::Scan("chain"),
      myria::Project(
          myria::Join(myria::Scan("$iter"), myria::Scan("chain"), "dst", "src"),
          {"src", "right.dst"}, {"", "dst"}),
      n);
  myria::Resolver resolver = [&chain](const std::string&) -> Result<relational::Table> {
    return chain;
  };
  for (auto _ : state) {
    auto closure = myria::ExecutePlan(*plan, resolver, nullptr);
    BIGDAWG_CHECK(closure.ok() &&
                  closure->num_rows() == static_cast<size_t>(n * (n - 1) / 2));
    benchmark::DoNotOptimize(closure);
  }
}
BENCHMARK(BM_MyriaChainClosure)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

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

// n aged-out vitals in the stream-history schema: one patient per
// sequence number over four patients, so the 2-D history array
// (hist_seq x patient_id) has three empty cells per filled one.
relational::Table HistoryRows(int64_t n) {
  Rng rng(3);
  relational::Table t{Schema({Field(core::kHistorySeqColumn, DataType::kInt64),
                              Field("patient_id", DataType::kInt64),
                              Field("mv", DataType::kDouble)})};
  for (int64_t i = 0; i < n; ++i) {
    t.AppendUnchecked({Value(i), Value(i % 4), Value(rng.NextDouble(40, 160))});
  }
  return t;
}

void BM_ArrayToTable(benchmark::State& state) {
  const array::Array history =
      *core::TableToArray(HistoryRows(state.range(0)), core::kHistoryChunkLength, 1);
  for (auto _ : state) {
    auto table = core::ArrayToTable(history);
    BIGDAWG_CHECK(table.ok());
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ArrayToTable)->Arg(10000)->Arg(50000);

// The stream reader's history_cast over a 5x10^4-row history. Each
// iteration bumps the history's version first, as an age-out flush does,
// so every run is a cast-cache miss that converts the whole archive.
void BM_CastCountSum(benchmark::State& state) {
  core::BigDawg dawg;
  BIGDAWG_CHECK_OK(dawg.StoreStreamHistory("h", HistoryRows(50000)));
  for (auto _ : state) {
    BIGDAWG_CHECK_OK(dawg.MarkObjectWritten("h"));
    auto result = dawg.Execute(
        "RELATIONAL(SELECT COUNT(*) AS n, SUM(mv) AS s FROM CAST(h, relation))");
    BIGDAWG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CastCountSum)->Unit(benchmark::kMillisecond);

void BM_KvRangeScan(benchmark::State& state) {
  kvstore::KvStore store;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    store.Put(kvstore::Key("row" + std::to_string(i), "f", "q"),
              std::to_string(i));
  }
  for (auto _ : state) {
    int64_t count = 0;
    store.Read().Range(kvstore::ScanOptions{},
                       [&count](const kvstore::Key&, const std::string&) {
                         ++count;
                         return true;
                       });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvRangeScan)->Arg(10000)->Arg(100000);

// The MIMIC demo at the benchmark's icu_interactive size: 2000 patients,
// 3 notes each in the text store, 64 waveform samples each in the
// (patient_id, t) array with one chunk per patient, and the notes' D4M
// term x document view. Built once and shared by the island kernels.
struct MimicDemo {
  mimic::MimicData data;
  core::BigDawg dawg;
  d4m::AssocArray notes;
};

MimicDemo& Demo() {
  static MimicDemo* demo = [] {
    mimic::MimicConfig config;
    config.num_patients = 2000;
    config.waveform_seconds = 1;
    config.waveform_hz = 64;
    config.seed = 1;
    auto* d = new MimicDemo{*mimic::Generate(config), {}, {}};
    BIGDAWG_CHECK_OK(mimic::LoadIntoBigDawg(d->data, &d->dawg));
    d->notes = *d->dawg.FetchAsAssoc("notes");
    return d;
  }();
  return *demo;
}

void BM_TextSearch(benchmark::State& state) {
  const std::vector<std::string> terms =
      state.range(0) == 1 ? std::vector<std::string>{"patient"}
                          : std::vector<std::string>{"very", "sick"};
  core::BigDawg& dawg = Demo().dawg;
  for (auto _ : state) {
    auto hits = dawg.accumulo().SearchAllTerms(terms);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TextSearch)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_TextPhrase(benchmark::State& state) {
  core::BigDawg& dawg = Demo().dawg;
  for (auto _ : state) {
    auto owners = dawg.accumulo().OwnersWithPhraseCount("very sick", 2);
    benchmark::DoNotOptimize(owners);
  }
}
BENCHMARK(BM_TextPhrase)->Unit(benchmark::kMillisecond);

void BM_ArrayAggregateBy(benchmark::State& state) {
  const array::Array& waveforms = Demo().data.waveforms;
  for (auto _ : state) {
    auto groups = waveforms.AggregateBy(array::AggFunc::kAvg, 0, 0);
    BIGDAWG_CHECK(groups.ok());
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * waveforms.NonEmptyCount());
}
BENCHMARK(BM_ArrayAggregateBy)->Unit(benchmark::kMillisecond);

// The Browsing interface: 8 patients x all 64 samples.
void BM_Subarray(benchmark::State& state) {
  const array::Array& waveforms = Demo().data.waveforms;
  for (auto _ : state) {
    auto box = waveforms.Subarray({10, 0}, {17, 63});
    BIGDAWG_CHECK(box.ok());
    benchmark::DoNotOptimize(box);
  }
}
BENCHMARK(BM_Subarray)->Unit(benchmark::kMillisecond);

void BM_AssocRowSums(benchmark::State& state) {
  const d4m::AssocArray& notes = Demo().notes;
  for (auto _ : state) {
    auto sums = notes.RowSums();
    benchmark::DoNotOptimize(sums);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(notes.NumNonEmpty()));
}
BENCHMARK(BM_AssocRowSums)->Unit(benchmark::kMillisecond);

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
