// Shared machinery of the polystore benchmark: command-line options, the
// closed-loop query clients, span recording, repeated-call layer timing,
// and the raw JSON report run.py turns into metrics.
//
// The benchmark never reaches inside the library: every number comes from
// timing calls into a module's public functions, or from the counters the
// library already exposes (QueryService::Stats, the profiler, CastCache).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/query_service.h"
#include "relational/table.h"

namespace perfbench {

using bigdawg::Rng;
using bigdawg::relational::Table;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy-size inputs and short phases: every code path, in seconds.
  bool smoke = false;
  /// Where the traced run writes its spans (JSON lines); "" = nowhere.
  std::string trace_out;
};

/// Checks a query result against the generator's answer; on mismatch
/// returns false and says why.
using Oracle = std::function<bool(const Table&, std::string* why)>;

/// One query a client submits: its class (an index into the workload's
/// class list), its text, and the oracle its result must satisfy.
struct Query {
  int cls = 0;
  std::string text;
  Oracle check;
};

/// A client-side span around one ExecuteSync: the benchmark's own trace
/// of the query layer boundary.
struct Span {
  int cls = 0;
  int client = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  bool ok = true;
};

/// The outcome of one load phase.
struct Phase {
  double wall_s = 0;
  std::vector<double> latencies_ms;
  int64_t attempted = 0;
  int64_t failed = 0;  ///< non-OK status (retries on backpressure excluded)
  int64_t wrong = 0;   ///< OK status but the oracle disagreed
  std::vector<std::string> errors;  ///< the first few failure messages
  std::vector<Span> spans;          ///< filled only when tracing
  /// Workload-specific end-to-end figures (ingest rate, ...).
  std::map<std::string, double> extra;

  void Merge(Phase other);
  void NoteError(const std::string& message);
};

/// Deals a client's queries from a shuffled deck so every run sees the
/// class mix in exact proportion, in a seeded order.
class Deck {
 public:
  Deck(std::vector<int> classes, uint64_t seed);
  int Next();
  /// True before the first query of a round.
  bool AtRoundStart() const { return next_ >= classes_.size(); }
  Rng* rng() { return &rng_; }

 private:
  std::vector<int> classes_;
  size_t next_ = 0;
  Rng rng_;
};

/// Runs `clients` closed-loop clients, each on its own session, until
/// `keep_going` turns false. A client waits for each result before it
/// submits the next query, and stops only between rounds of its deck, so
/// a phase holds the class mix in exact proportion however few rounds it
/// runs. `make(client, deck)` builds the next query.
Phase RunClients(bigdawg::exec::QueryService* service, int clients,
                 uint64_t seed, const std::vector<int>& deck_classes,
                 const std::function<Query(int client, Deck* deck)>& make,
                 const std::function<bool()>& keep_going, bool trace);

/// keep_going predicate for a fixed-length phase.
std::function<bool()> For(double seconds);

/// Median of `v` (the upper middle for an even count); 0 when empty.
double Median(std::vector<double> v);

/// Median wall time, in ms, of repeated calls to `fn`: at least
/// `min_reps` calls, more while the total stays under `budget_ms` (and at
/// most 31). Idle-system timing of small calls.
double MedianMs(const std::function<void()>& fn, int min_reps = 3,
                double budget_ms = 400);

/// Per-layer figures of one traced run, by metric name.
class Layers {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Add(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One timed layer call of a class decomposition.
struct LayerCall {
  /// Per-layer metric the call's median is recorded as; "" = timed as
  /// part of the class but not reported on its own.
  std::string metric;
  std::function<void()> call;
  /// False for a call timed beside the class rather than inside it, such
  /// as the cold conversion a warm cache lets the class skip.
  bool inside = true;
};

/// One query class as the decomposition sees it: a representative query,
/// its island, and the layer calls the query is made of. Whatever of
/// BigDawg::Execute those calls do not cover is the class's
/// core.other_ms.<class>.
struct ClassProbe {
  std::string name;
  std::string island;
  std::string query;
  std::vector<LayerCall> calls;
  /// Layer time measured once, outside the rounds (SQL parsing: a few
  /// microseconds, too small to time inside a round).
  double fixed_ms = 0;
  /// Runs untimed before every timed call, to put the system in the state
  /// the class meets under load (a stale cache).
  std::function<void()> prepare;
};

/// Times every class on an idle system in interleaved rounds of
/// QueryService::ExecuteSync, BigDawg::Execute and the class's layer
/// calls, so slow drift hits all of them alike; remainders are medians of
/// per-round differences. Every class is one deck entry, so mix-wide
/// figures weigh classes equally. Records exec.service_overhead_ms,
/// core.execute_ms.<island>, core.plan_casts_us, core.other_ms.<class>
/// and each call's metric. Returns false (with a message) when a
/// representative query fails.
bool Decompose(bigdawg::core::BigDawg* dawg,
               bigdawg::exec::QueryService* service,
               const std::vector<ClassProbe>& classes, Layers* layers,
               std::string* why);

/// Snapshot of the service-side counters a traced load phase reads:
/// queries, admission-to-completion ms, worker-side root-span ms, and
/// the profiler's `locks` span ms. Differences of two snapshots give the
/// per-query queue and lock wait of the phase between them.
struct ServiceTotals {
  int64_t queries = 0;
  double latency_ms = 0;
  double root_ms = 0;
  double locks_ms = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};
ServiceTotals ReadServiceTotals(bigdawg::core::BigDawg* dawg,
                                bigdawg::exec::QueryService* service);
/// Records exec.lock_wait_ms, exec.queue_wait_ms, the cast-cache
/// counters, obs.profiler_ingested and obs.dump_metrics_ms.
void RecordServiceLayers(bigdawg::exec::QueryService* service,
                         const ServiceTotals& before,
                         const ServiceTotals& after, Layers* layers);

/// A loaded polystore and the service in front of it. The service is
/// declared last so it is destroyed (its workers joined) first.
struct World {
  std::unique_ptr<bigdawg::core::BigDawg> dawg;
  std::unique_ptr<bigdawg::exec::QueryService> service;

  World() = default;
  World(World&&) = default;
  /// Retires the old service before the polystore it points at.
  World& operator=(World&& other) noexcept {
    service.reset();
    dawg = std::move(other.dawg);
    service = std::move(other.service);
    return *this;
  }
};

/// A closed-loop query workload over a World: its clients, its class mix
/// (one deck entry per query in a round), its query maker, and the
/// probes that decompose each class, built only for a traced run.
struct QueryMix {
  int clients = 1;
  std::vector<std::string> class_names;
  std::vector<int> deck;
  std::function<Query(int client, Deck* deck)> make;
  std::function<std::vector<ClassProbe>()> probes;
};

/// Warms every class up, runs the untraced phase, and in a traced run the
/// traced phase plus the idle decomposition.
struct Report;
void MeasureQueries(const Options& options, World* world, const QueryMix& mix,
                    Report* report);

/// Expected answer of a GROUP BY over one string key column: key ->
/// aggregate values in the order of `columns`.
struct GroupAnswer {
  std::string key_column;
  std::vector<std::string> columns;
  std::map<std::string, std::vector<double>> groups;
};
bool CheckGroups(const Table& t, const GroupAnswer& expected, std::string* why);
/// True when queries `a` and `b` return the same groups: the cross-island
/// oracle (RELATIONAL and MYRIA must agree on one GROUP BY).
bool SameGroups(bigdawg::core::BigDawg* dawg, const std::string& a, const std::string& b,
                const std::string& key, const std::vector<std::string>& columns,
                std::string* why);

/// Builds the relational part of a class probe: relational::ExecuteSelect
/// of one SELECT over postgres snapshots (the executor without the
/// polystore around it), recorded as relational.select_ms.<name>, with
/// relational::ParseSql timed once as the probe's fixed time. Keeps the
/// rows handed to and returned by the executor for
/// relational.rows_examined_per_result.
class RelationalProbe {
 public:
  explicit RelationalProbe(bigdawg::core::BigDawg* dawg) : dawg_(dawg) {}
  /// `tables` supplies relations that are not postgres objects (a CAST's
  /// fetched input). Adds the select call and the parse time to `probe`.
  void AddSelect(const std::string& name, const std::string& sql, ClassProbe* probe,
                 const std::map<std::string, Table>& tables = {});
  void Finish(Layers* layers) const;
  /// Empty unless a probe query failed to parse or execute.
  const std::string& error() const { return error_; }

 private:
  bigdawg::core::BigDawg* dawg_;
  std::string error_;
  double parse_us_ = 0;
  int classes_ = 0;
  double examined_ = 0;
  double returned_ = 0;
};

/// Microseconds on the steady clock since an arbitrary process epoch.
int64_t NowUs();
double MsSince(std::chrono::steady_clock::time_point start);

/// Result-reading helpers for oracles.
bool CellInt(const Table& t, size_t row, size_t col, int64_t* out);
bool CellDouble(const Table& t, size_t row, size_t col, double* out);
bool Near(double a, double b, double rel = 1e-9);
/// A result cell as text: strings verbatim, other values rendered.
std::string Text(const bigdawg::Value& v);

/// Everything one workload run hands back to main().
struct Report {
  std::vector<double> setup_s;
  std::vector<std::string> class_names;
  Phase untraced;
  Phase traced;  ///< only in a traced run
  Layers layers; ///< only in a traced run
  /// Invariant checks outside query results (accounting identities);
  /// each failure is one wrong answer.
  int64_t invariant_checks = 0;
  std::vector<std::string> invariant_failures;

  void Invariant(bool ok, const std::string& what);
};

/// Builds a fresh World `reps` times, timing each build into
/// report->setup_s, and keeps the last. The previous World is destroyed
/// before the next is built, so peak memory holds one.
template <typename T>
void TimedSetups(int reps, Report* report, T* kept, const std::function<T()>& build) {
  for (int i = 0; i < reps; ++i) {
    *kept = T{};
    const auto start = std::chrono::steady_clock::now();
    *kept = build();
    report->setup_s.push_back(MsSince(start) / 1e3);
  }
}

/// The workloads. Each builds its own inputs from options.seed.
Report RunIcuInteractive(const Options& options);
Report RunAnalyticScan(const Options& options);
Report RunStreamAgeOut(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
