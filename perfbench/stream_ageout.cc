// stream_ageout: the write path. One producer ingests a fixed count of
// live vitals as fast as backpressure allows while one reader polls the
// stream, the aged-out history in the array engine, and a CAST of that
// history through the query service.
//
// Why: the only workload that writes. It covers the stream engine, the
// S-Store -> SciDB age-out, array stores and cast-cache misses (every
// flush bumps the history's version). Each flush rewrites the whole
// history, so the ingest rate falls as an episode goes on.
//
// The two-column vitals_live schema is deliberate: MIMIC's three-column
// vitals (patient_id, t, mv) plus hist_seq makes a 3-D history array that
// exhausts memory in age-out long before an episode ends.

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "common/macros.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "core/stream_ageout.h"
#include "harness.h"
#include "stream/alerting.h"

namespace perfbench {
namespace {

namespace core = bigdawg::core;
namespace stream = bigdawg::stream;
using bigdawg::DataType;
using bigdawg::Field;
using bigdawg::Row;
using bigdawg::Schema;
using bigdawg::Value;
using Clock = std::chrono::steady_clock;

constexpr char kStream[] = "vitals_live";
constexpr char kWindow[] = "vitals_window";
constexpr char kHistory[] = "vitals_live__history";
constexpr int64_t kPatients = 4;
constexpr size_t kRetention = 512;
constexpr double kMeanMv = 75;
/// Ingested during setup so the first flush has created the history
/// object before the reader starts: retention plus one default flush.
const int64_t kPrime = static_cast<int64_t>(kRetention) +
                       static_cast<int64_t>(core::StreamAgeOutConfig{}.flush_rows);

enum Cls { kStreamAggregate, kHistoryAggregate, kHistoryCast };
const std::vector<std::string> kClassNames = {"stream_aggregate", "history_aggregate",
                                              "history_cast"};

/// One episode's polystore: a fresh stream engine with the alerting
/// procedures and age-out installed, primed, and the events to ingest.
struct StreamWorld {
  std::vector<Row> events;
  std::vector<double> prefix_mv;  ///< [n]: sum of the first n events' mv
  World world;
};

StreamWorld Build(uint64_t seed, int64_t events) {
  StreamWorld w;
  Rng rng(seed);
  const int64_t total = kPrime + events;
  w.events.reserve(static_cast<size_t>(total));
  w.prefix_mv.assign(1, 0.0);
  for (int64_t i = 0; i < total; ++i) {
    const double mv = kMeanMv + 10.0 * rng.NextGaussian();
    w.events.push_back({Value(static_cast<int64_t>(rng.NextBelow(kPatients))), Value(mv)});
    w.prefix_mv.push_back(w.prefix_mv.back() + mv);
  }
  w.world.dawg = std::make_unique<core::BigDawg>();
  core::BigDawg* dawg = w.world.dawg.get();
  stream::StreamEngine& sstore = dawg->sstore();
  BIGDAWG_CHECK_OK(sstore.CreateStream(kStream,
                                       Schema({Field("patient_id", DataType::kInt64),
                                               Field("mv", DataType::kDouble)}),
                                       kRetention));
  BIGDAWG_CHECK_OK(sstore.CreateWindow(kWindow, kStream, 256, 64));
  BIGDAWG_CHECK_OK(sstore.CreateTable("reference",
                                      Schema({Field("patient_id", DataType::kInt64),
                                              Field("low", DataType::kDouble),
                                              Field("high", DataType::kDouble),
                                              Field("mean", DataType::kDouble)})));
  stream::WaveformAlertConfig alert;
  alert.stream = kStream;
  alert.window = kWindow;
  alert.reference = "reference";
  alert.window_key = Value(static_cast<int64_t>(0));
  BIGDAWG_CHECK_OK(stream::InstallWaveformAlert(&sstore, alert));
  // Reference bands wide enough that the alerting procedures run on
  // every tuple and slide but emit nothing.
  BIGDAWG_CHECK_OK(sstore.RegisterProcedure("load_reference", [](stream::ProcContext* ctx) {
    for (int64_t p = 0; p < kPatients; ++p) {
      BIGDAWG_RETURN_NOT_OK(
          ctx->Put("reference", {Value(p), Value(0.0), Value(1000.0), Value(kMeanMv)}));
    }
    return bigdawg::Status::OK();
  }));
  BIGDAWG_CHECK_OK(sstore.ExecuteProcedure("load_reference", {}));
  BIGDAWG_CHECK_OK(dawg->EnableStreamAgeOut());
  w.world.service = std::make_unique<bigdawg::exec::QueryService>(
      dawg, bigdawg::exec::QueryServiceConfig{.num_workers = 2});
  sstore.Start();
  for (int64_t i = 0; i < kPrime; ++i) {
    while (sstore.Ingest(kStream, w.events[static_cast<size_t>(i)]).IsResourceExhausted()) {
      std::this_thread::yield();
    }
  }
  sstore.WaitForDrain();
  return w;
}

/// The history's row count is a whole number of automatic flushes while
/// the producer runs, or every aged row once the final FlushAll lands.
bool ValidHistoryCount(int64_t n, int64_t flush_rows, int64_t final_rows) {
  return n > 0 && (n % flush_rows == 0 || n == final_rows);
}

Query Make(const StreamWorld& w, int cls) {
  const int64_t flush_rows = static_cast<int64_t>(core::StreamAgeOutConfig{}.flush_rows);
  const int64_t final_rows = static_cast<int64_t>(w.events.size()) -
                             static_cast<int64_t>(kRetention);
  Query q;
  q.cls = cls;
  switch (cls) {
    case kStreamAggregate:
      q.text = std::string("STREAM(AGGREGATE ") + kWindow + ")";
      q.check = [](const Table& t, std::string* why) {
        for (size_t r = 0; r < t.num_rows(); ++r) {
          int64_t count = 0;
          double lo = 0, hi = 0, avg = 0;
          if (!CellInt(t, r, 1, &count) || count != 256 || !CellDouble(t, r, 3, &lo) ||
              !CellDouble(t, r, 4, &hi) || !CellDouble(t, r, 5, &avg) || lo > avg ||
              avg > hi) {
            *why = "window aggregate row " + std::to_string(r) + " is inconsistent";
            return false;
          }
        }
        if (t.num_rows() == 0) *why = "no window aggregates";
        return t.num_rows() > 0;
      };
      break;
    case kHistoryAggregate:
      q.text = std::string("ARRAY(aggregate(") + kHistory + ", count, mv))";
      q.check = [flush_rows, final_rows](const Table& t, std::string* why) {
        double count = 0;
        const int64_t n = CellDouble(t, 0, 0, &count) ? static_cast<int64_t>(count) : 0;
        if (!ValidHistoryCount(n, flush_rows, final_rows)) {
          *why = "history count " + std::to_string(n);
          return false;
        }
        return true;
      };
      break;
    default: {
      q.text = std::string("RELATIONAL(SELECT COUNT(*) AS n, SUM(mv) AS s FROM CAST(") +
               kHistory + ", relation))";
      const std::vector<double>* prefix = &w.prefix_mv;
      q.check = [prefix, flush_rows, final_rows](const Table& t, std::string* why) {
        int64_t n = 0;
        double s = 0;
        if (!CellInt(t, 0, 0, &n) || !ValidHistoryCount(n, flush_rows, final_rows) ||
            !CellDouble(t, 0, 1, &s) ||
            !Near(s, (*prefix)[static_cast<size_t>(n)])) {
          *why = "history of " + std::to_string(n) + " rows does not hold the first " +
                 std::to_string(n) + " events";
          return false;
        }
        return true;
      };
      break;
    }
  }
  return q;
}

/// Per-episode figures the traced run turns into stream-layer metrics.
struct EpisodeStats {
  double rate = 0;
  double rate_q1 = 0;
  double rate_q4 = 0;
  double ingest_call_us = 0;
  int64_t backpressured = 0;
  int64_t flushes = 0;
  int64_t flushed_rows = 0;
};

/// Runs one episode: the producer ingests every non-priming event and
/// then waits for drain + FlushAll, while one reader polls until the
/// producer is done. Checks the accounting identities afterwards.
EpisodeStats RunEpisode(StreamWorld* w, uint64_t seed, bool trace, Phase* phase,
                        Report* report) {
  core::BigDawg* dawg = w->world.dawg.get();
  stream::StreamEngine& sstore = dawg->sstore();
  const stream::StreamEngineStats before = sstore.GetStats();
  const size_t total = w->events.size();
  const size_t first = static_cast<size_t>(kPrime);
  const size_t quarter = (total - first) / 4;
  EpisodeStats es;
  std::atomic<bool> done{false};

  // Quarter rates follow processing, not acceptance: the ingest ring
  // absorbs the first 64k tuples at enqueue speed. Commits per tuple are
  // constant (ingest + threshold check, plus a drift check per slide), so
  // the commit counter's progress is the episode's progress.
  const Clock::time_point start = Clock::now();
  const int64_t committed0 = sstore.committed_txns();
  const double commits_per_event = 2.0 + 1.0 / 64.0;
  std::thread producer([&] {
    double call_us = 0;
    for (size_t i = first; i < total; ++i) {
      for (;;) {
        const Clock::time_point t0 = trace ? Clock::now() : Clock::time_point{};
        bigdawg::Status st = sstore.Ingest(kStream, w->events[i]);
        if (st.ok()) {
          if (trace) call_us += 1e3 * MsSince(t0);
          break;
        }
        std::this_thread::yield();  // backpressure: retry, never drop
      }
    }
    sstore.WaitForDrain();
    (void)dawg->stream_ageout()->FlushAll();
    const double n = static_cast<double>(total - first);
    es.rate = n / (MsSince(start) / 1e3);
    es.ingest_call_us = call_us / n;
    done.store(true);
  });
  std::thread monitor([&] {
    const double quarter_commits =
        commits_per_event * static_cast<double>(quarter);
    double q1 = 0, q3 = 0;
    while (!done.load()) {
      const double progress = static_cast<double>(sstore.committed_txns() - committed0);
      const double now = MsSince(start) / 1e3;
      if (q1 == 0 && progress >= quarter_commits) q1 = now;
      if (q3 == 0 && progress >= 3 * quarter_commits) q3 = now;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double end = static_cast<double>(total - first) / es.rate;
    es.rate_q1 = q1 > 0 ? static_cast<double>(quarter) / q1 : 0;
    es.rate_q4 = q3 > 0 && end > q3 ? static_cast<double>(quarter) / (end - q3) : 0;
  });
  Phase reader = RunClients(
      w->world.service.get(), 1, seed, {kStreamAggregate, kHistoryAggregate, kHistoryCast},
      [w](int, Deck* deck) { return Make(*w, deck->Next()); },
      [&done] { return !done.load(); }, trace);
  producer.join();
  monitor.join();
  phase->wall_s += reader.wall_s;
  phase->Merge(std::move(reader));

  const stream::StreamEngineStats after = sstore.GetStats();
  const core::StreamAgeOutStats ageout = dawg->stream_ageout()->GetStats();
  int64_t slides = 0, buffered = 0;
  for (const stream::WindowInfo& info : sstore.ListWindows()) slides += info.slides;
  for (const stream::StreamInfo& info : sstore.ListStreams()) {
    buffered += static_cast<int64_t>(info.buffered);
  }
  const int64_t events = static_cast<int64_t>(total);
  report->Invariant(after.ingested == events,
                    "ingested " + std::to_string(after.ingested) + " of " +
                        std::to_string(events) + " events");
  // Every tuple commits its ingest and its threshold check, every window
  // slide one drift check, and setup one load_reference call.
  report->Invariant(after.committed == 2 * after.ingested + slides + 1,
                    "committed " + std::to_string(after.committed) + " != 2 x " +
                        std::to_string(after.ingested) + " + " + std::to_string(slides));
  report->Invariant(buffered + after.aged_out == events,
                    "live " + std::to_string(buffered) + " + aged " +
                        std::to_string(after.aged_out) + " != events");
  report->Invariant(ageout.flushed_rows == after.aged_out && ageout.pending_rows == 0,
                    "flushed " + std::to_string(ageout.flushed_rows) + " of " +
                        std::to_string(after.aged_out) + " aged rows");
  bigdawg::Result<bigdawg::array::Array> history = dawg->FetchAsArray(kHistory);
  report->Invariant(history.ok() && history->NonEmptyCount() == ageout.flushed_rows,
                    "history cells != flushed_rows");
  es.backpressured = after.backpressured - before.backpressured;
  es.flushes = ageout.flushes;
  es.flushed_rows = ageout.flushed_rows;
  sstore.Stop();
  return es;
}

}  // namespace

Report RunStreamAgeOut(const Options& options) {
  const int64_t events = options.smoke ? 5000 : 50000;
  Report report;
  report.class_names = kClassNames;
  StreamWorld w;
  uint64_t episode = 0;

  // One phase: fresh episodes until the phase's time is used up. Every
  // episode has its own service, so the service counters are summed per
  // episode into `service_delta`.
  auto run_phase = [&](bool trace, Phase* phase, std::vector<EpisodeStats>* stats,
                       ServiceTotals* service_delta) {
    const std::function<bool()> keep_going = For(options.seconds);
    do {
      ++episode;
      TimedSetups<StreamWorld>(1, &report, &w, [&] {
        return Build(options.seed * 7919 + episode, events);
      });
      const ServiceTotals before =
          ReadServiceTotals(w.world.dawg.get(), w.world.service.get());
      stats->push_back(RunEpisode(&w, options.seed + episode, trace, phase, &report));
      const ServiceTotals after =
          ReadServiceTotals(w.world.dawg.get(), w.world.service.get());
      service_delta->queries += after.queries - before.queries;
      service_delta->latency_ms += after.latency_ms - before.latency_ms;
      service_delta->root_ms += after.root_ms - before.root_ms;
      service_delta->locks_ms += after.locks_ms - before.locks_ms;
      service_delta->cache_hits += after.cache_hits - before.cache_hits;
      service_delta->cache_misses += after.cache_misses - before.cache_misses;
    } while (keep_going() && !options.smoke);
    std::vector<double> rates;
    for (const EpisodeStats& s : *stats) rates.push_back(s.rate);
    phase->extra["ingest_events_per_s"] = Median(rates);
  };

  std::vector<EpisodeStats> untraced_stats, traced_stats;
  ServiceTotals untraced_delta, traced_delta;
  run_phase(false, &report.untraced, &untraced_stats, &untraced_delta);
  if (!options.trace) return report;
  run_phase(true, &report.traced, &traced_stats, &traced_delta);

  Layers& layers = report.layers;
  RecordServiceLayers(w.world.service.get(), ServiceTotals{}, traced_delta, &layers);
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const EpisodeStats& s : traced_stats) v.push_back(static_cast<double>(field(s)));
    return Median(v);
  };
  layers.Set("stream.ingest_events_per_s", report.traced.extra["ingest_events_per_s"],
             "events/s");
  layers.Set("stream.ingest_call_us",
             median_of([](const EpisodeStats& s) { return s.ingest_call_us; }), "us");
  layers.Set("stream.backpressured",
             median_of([](const EpisodeStats& s) { return s.backpressured; }), "count");
  layers.Set("stream.rate_q1", median_of([](const EpisodeStats& s) { return s.rate_q1; }),
             "events/s");
  layers.Set("stream.rate_q4", median_of([](const EpisodeStats& s) { return s.rate_q4; }),
             "events/s");
  layers.Set("stream_ageout.flushes",
             median_of([](const EpisodeStats& s) { return s.flushes; }), "count");
  layers.Set("stream_ageout.flushed_rows",
             median_of([](const EpisodeStats& s) { return s.flushed_rows; }), "count");

  core::BigDawg* dawg = w.world.dawg.get();
  RelationalProbe relational(dawg);
  auto history = std::make_shared<bigdawg::array::Array>(*dawg->FetchAsArray(kHistory));
  auto history_table = std::make_shared<Table>(*core::ArrayToTable(*history));
  const std::string aggregate_afl = std::string("aggregate(") + kHistory + ", count, mv)";
  std::vector<ClassProbe> probes = {
      {"stream_aggregate", "stream", std::string("STREAM(AGGREGATE ") + kWindow + ")",
       {{"", [dawg] { (void)dawg->sstore().WindowAggregates(kWindow); }}}},
      {"history_aggregate", "array", "ARRAY(" + aggregate_afl + ")",
       {{"core.fetch_array_ms", [dawg] { (void)dawg->FetchAsArray(kHistory); }},
        {"array.query_ms.aggregate",
         [dawg, aggregate_afl] { (void)dawg->scidb().Query(aggregate_afl); }}}},
      // Under load every flush bumps the history's version, so the class
      // meets a stale cache: `prepare` stales it before every timed call,
      // and the fetch pays the array -> relation conversion.
      {"history_cast", "relational",
       std::string("RELATIONAL(SELECT COUNT(*) AS n, SUM(mv) AS s FROM CAST(") + kHistory +
           ", relation))",
       {{"core.fetch_table_ms", [dawg] { (void)dawg->FetchAsTable(kHistory); }},
        {"core.cast.array_to_table_ms", [history] { (void)core::ArrayToTable(*history); },
         false},
        {"core.cast.table_to_array_ms",
         [history_table] { (void)core::TableToArray(*history_table); }, false}},
       0,
       [dawg] { (void)dawg->MarkObjectWritten(kHistory); }},
  };
  relational.AddSelect("history_cast", "SELECT COUNT(*) AS n, SUM(mv) AS s FROM h",
                       &probes[2], {{"h", *history_table}});
  std::string why;
  report.Invariant(Decompose(dawg, w.world.service.get(), probes, &layers, &why),
                   "decomposition: " + why);
  relational.Finish(&layers);
  report.Invariant(relational.error().empty(), relational.error());

  // Cost of one whole-history store at growing history sizes: the term
  // that makes age-out quadratic.
  for (int64_t rows : {50000, 100000, 200000}) {
    if (options.smoke) rows /= 100;
    Table archive{Schema({Field(core::kHistorySeqColumn, DataType::kInt64),
                          Field("patient_id", DataType::kInt64),
                          Field("mv", DataType::kDouble)})};
    for (int64_t i = 0; i < rows; ++i) {
      archive.AppendUnchecked({Value(i), Value(i % kPatients), Value(kMeanMv)});
    }
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      report.Invariant(dawg->StoreStreamHistory("store_probe", archive).ok(),
                       "StoreStreamHistory of " + std::to_string(rows) + " rows");
      times.push_back(MsSince(t0));
      (void)dawg->DropObject("store_probe");
    }
    layers.Set("core.store_history_ms." + std::to_string(options.smoke ? rows * 100 : rows),
               Median(times), "ms");
  }
  return report;
}

}  // namespace perfbench
