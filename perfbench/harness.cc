#include "harness.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>
#include <variant>

#include "common/status.h"
#include "core/bigdawg.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace perfbench {

namespace core = bigdawg::core;
namespace exec = bigdawg::exec;
using Clock = std::chrono::steady_clock;

namespace {
constexpr size_t kMaxErrors = 5;
}  // namespace

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void Phase::NoteError(const std::string& message) {
  if (errors.size() < kMaxErrors) errors.push_back(message);
}

void Phase::Merge(Phase other) {
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (std::string& e : other.errors) NoteError(e);
}

Deck::Deck(std::vector<int> classes, uint64_t seed)
    : classes_(std::move(classes)), next_(classes_.size()), rng_(seed) {}

int Deck::Next() {
  if (next_ >= classes_.size()) {
    for (size_t i = classes_.size(); i > 1; --i) {
      std::swap(classes_[i - 1], classes_[rng_.NextBelow(i)]);
    }
    next_ = 0;
  }
  return classes_[next_++];
}

std::function<bool()> For(double seconds) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  return [end] { return Clock::now() < end; };
}

Phase RunClients(exec::QueryService* service, int clients, uint64_t seed,
                 const std::vector<int>& deck_classes,
                 const std::function<Query(int client, Deck* deck)>& make,
                 const std::function<bool()>& keep_going, bool trace) {
  std::mutex mu;
  Phase total;
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Phase mine;
      Deck deck(deck_classes, seed * 1000003 + static_cast<uint64_t>(c));
      const int64_t session = service->OpenSession();
      while (!deck.AtRoundStart() || keep_going()) {
        Query q = make(c, &deck);
        const Clock::time_point start_q = Clock::now();
        const int64_t t0 = NowUs();
        bigdawg::Result<Table> result = service->ExecuteSync(q.text, {.session = session});
        // Admission backpressure is a retry, not a failure; its wait
        // stays inside the query's latency.
        while (!result.ok() && result.status().IsResourceExhausted()) {
          std::this_thread::yield();
          result = service->ExecuteSync(q.text, {.session = session});
        }
        mine.latencies_ms.push_back(MsSince(start_q));
        const int64_t t1 = NowUs();
        ++mine.attempted;
        bool ok = result.ok();
        if (!ok) {
          ++mine.failed;
          mine.NoteError(q.text + ": " + result.status().ToString());
        } else {
          std::string why;
          if (!q.check(*result, &why)) {
            ok = false;
            ++mine.wrong;
            mine.NoteError(q.text + ": wrong answer: " + why);
          }
        }
        if (trace) mine.spans.push_back({q.cls, c, t0, t1, ok});
      }
      (void)service->CloseSession(session);
      std::lock_guard<std::mutex> lock(mu);
      total.Merge(std::move(mine));
    });
  }
  for (std::thread& t : threads) t.join();
  total.wall_s = MsSince(start) / 1e3;
  return total;
}

double MedianMs(const std::function<void()>& fn, int min_reps, double budget_ms) {
  constexpr int kMaxReps = 31;
  std::vector<double> times;
  double spent = 0;
  while (static_cast<int>(times.size()) < min_reps ||
         (spent < budget_ms && static_cast<int>(times.size()) < kMaxReps)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(MsSince(t0));
    spent += times.back();
  }
  return Median(std::move(times));
}

void Layers::Set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

void Layers::Add(const std::string& name, double value, const std::string& unit) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    Set(name, value, unit);
  } else {
    it->second.first += value;
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

bool Decompose(core::BigDawg* dawg, exec::QueryService* service,
               const std::vector<ClassProbe>& classes, Layers* layers,
               std::string* why) {
  constexpr int kMinRounds = 5;
  constexpr int kMaxRounds = 15;
  constexpr double kBudgetMs = 3000;
  std::map<std::string, int> island_classes;
  for (const ClassProbe& c : classes) ++island_classes[c.island];
  for (const ClassProbe& c : classes) {
    bigdawg::Result<Table> probe = dawg->Execute(c.query);
    if (!probe.ok()) {
      *why = c.query + ": " + probe.status().ToString();
      return false;
    }
    auto timed = [&c](const std::function<void()>& fn) {
      if (c.prepare) c.prepare();
      const Clock::time_point t0 = Clock::now();
      fn();
      return MsSince(t0);
    };
    std::vector<double> execute, overhead, other;
    std::vector<std::vector<double>> call_ms(c.calls.size());
    double spent = 0;
    for (int round = 0; round < kMinRounds || (spent < kBudgetMs && round < kMaxRounds);
         ++round) {
      const double service_ms = timed([&] { (void)service->ExecuteSync(c.query); });
      const double execute_ms = timed([&] { (void)dawg->Execute(c.query); });
      double inside_ms = c.fixed_ms;
      spent += service_ms + execute_ms;
      for (size_t i = 0; i < c.calls.size(); ++i) {
        const double ms = timed(c.calls[i].call);
        call_ms[i].push_back(ms);
        spent += ms;
        if (c.calls[i].inside) inside_ms += ms;
      }
      execute.push_back(execute_ms);
      overhead.push_back(service_ms - execute_ms);
      other.push_back(execute_ms - inside_ms);
    }
    for (size_t i = 0; i < c.calls.size(); ++i) {
      if (!c.calls[i].metric.empty()) layers->Set(c.calls[i].metric, Median(call_ms[i]), "ms");
    }
    const double share = 1.0 / static_cast<double>(classes.size());
    const double plan_us =
        1e3 * MedianMs([&] { (void)dawg->PlanCasts(c.query); }, 5, 20);
    layers->Add("exec.service_overhead_ms", share * Median(overhead), "ms");
    layers->Add("core.plan_casts_us", share * plan_us, "us");
    layers->Add("core.execute_ms." + c.island, Median(execute) / island_classes[c.island],
                "ms");
    layers->Set("core.other_ms." + c.name, Median(other), "ms");
  }
  return true;
}

namespace {

double SumNamed(const bigdawg::obs::ProfileNode& node, const std::string& name) {
  double total = 0;
  for (const auto& [child_name, child] : node.children) {
    total += child_name == name ? child.total_ms : SumNamed(child, name);
  }
  return total;
}

}  // namespace

ServiceTotals ReadServiceTotals(core::BigDawg* dawg, exec::QueryService* service) {
  ServiceTotals t;
  for (const exec::IslandLatency& island : service->Stats().islands) {
    t.queries += island.count;
    t.latency_ms += island.mean_ms * static_cast<double>(island.count);
  }
  if (const bigdawg::obs::Profiler* profiler = service->profiler()) {
    for (const std::string& klass : profiler->Classes()) {
      bigdawg::obs::ClassProfile p = profiler->Snapshot(klass);
      t.root_ms += p.total_ms;
      t.locks_ms += SumNamed(p.root, "locks");
    }
  }
  core::CastCacheStats cache = dawg->cast_cache().Stats();
  t.cache_hits = cache.hits;
  t.cache_misses = cache.misses;
  return t;
}

void RecordServiceLayers(exec::QueryService* service, const ServiceTotals& before,
                         const ServiceTotals& after, Layers* layers) {
  const double q = static_cast<double>(std::max<int64_t>(1, after.queries - before.queries));
  const double latency = after.latency_ms - before.latency_ms;
  const double root = after.root_ms - before.root_ms;
  layers->Set("exec.queue_wait_ms", (latency - root) / q, "ms");
  layers->Set("exec.lock_wait_ms", (after.locks_ms - before.locks_ms) / q, "ms");
  const int64_t hits = after.cache_hits - before.cache_hits;
  const int64_t misses = after.cache_misses - before.cache_misses;
  layers->Set("core.cast_cache.hits", static_cast<double>(hits), "count");
  layers->Set("core.cast_cache.misses", static_cast<double>(misses), "count");
  layers->Set("core.cast_cache.hit_ratio",
              hits + misses == 0 ? 0.0
                                 : static_cast<double>(hits) /
                                       static_cast<double>(hits + misses),
              "ratio");
  const bigdawg::obs::Profiler* profiler = service->profiler();
  layers->Set("obs.profiler_ingested",
              profiler == nullptr ? 0.0 : static_cast<double>(profiler->ingested()),
              "count");
  layers->Set("obs.dump_metrics_ms",
              MedianMs([&] { (void)service->DumpMetrics(); }), "ms");
}

bool CellInt(const Table& t, size_t row, size_t col, int64_t* out) {
  if (row >= t.num_rows() || col >= t.rows()[row].size()) return false;
  bigdawg::Result<int64_t> v = t.rows()[row][col].AsInt64();
  if (!v.ok()) return false;
  *out = *v;
  return true;
}

bool CellDouble(const Table& t, size_t row, size_t col, double* out) {
  if (row >= t.num_rows() || col >= t.rows()[row].size()) return false;
  bigdawg::Result<double> v = t.rows()[row][col].ToNumeric();
  if (!v.ok()) return false;
  *out = *v;
  return true;
}

std::string Text(const bigdawg::Value& v) {
  return v.type() == bigdawg::DataType::kString ? v.string_unchecked() : v.ToString();
}

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool CheckGroups(const Table& t, const GroupAnswer& expected, std::string* why) {
  bigdawg::Result<size_t> key = t.schema().IndexOf(expected.key_column);
  if (!key.ok()) {
    *why = "no column " + expected.key_column;
    return false;
  }
  std::vector<size_t> cols;
  for (const std::string& name : expected.columns) {
    bigdawg::Result<size_t> idx = t.schema().IndexOf(name);
    if (!idx.ok()) {
      *why = "no column " + name;
      return false;
    }
    cols.push_back(*idx);
  }
  if (t.num_rows() != expected.groups.size()) {
    *why = std::to_string(t.num_rows()) + " groups, expected " +
           std::to_string(expected.groups.size());
    return false;
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const std::string group = Text(t.rows()[r][*key]);
    auto it = expected.groups.find(group);
    if (it == expected.groups.end()) {
      *why = "unexpected group " + group;
      return false;
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      double v = 0;
      if (!CellDouble(t, r, cols[c], &v) || !Near(v, it->second[c])) {
        *why = "group " + group + " " + expected.columns[c] + " = " +
               t.rows()[r][cols[c]].ToString() + ", expected " +
               std::to_string(it->second[c]);
        return false;
      }
    }
  }
  return true;
}

bool SameGroups(core::BigDawg* dawg, const std::string& a, const std::string& b,
                const std::string& key, const std::vector<std::string>& columns,
                std::string* why) {
  bigdawg::Result<Table> left = dawg->Execute(a);
  bigdawg::Result<Table> right = dawg->Execute(b);
  if (!left.ok() || !right.ok()) {
    *why = (left.ok() ? right : left).status().ToString();
    return false;
  }
  bigdawg::Result<size_t> key_idx = left->schema().IndexOf(key);
  if (!key_idx.ok()) {
    *why = a + ": no column " + key;
    return false;
  }
  GroupAnswer groups{key, columns, {}};
  for (size_t r = 0; r < left->num_rows(); ++r) {
    std::vector<double>& values = groups.groups[Text(left->rows()[r][*key_idx])];
    for (const std::string& c : columns) {
      double v = 0;
      bigdawg::Result<size_t> idx = left->schema().IndexOf(c);
      if (!idx.ok() || !CellDouble(*left, r, *idx, &v)) {
        *why = a + ": no numeric column " + c;
        return false;
      }
      values.push_back(v);
    }
  }
  if (!CheckGroups(*right, groups, why)) {
    *why = b + " disagrees with " + a + ": " + *why;
    return false;
  }
  return true;
}

void RelationalProbe::AddSelect(const std::string& name, const std::string& sql,
                                ClassProbe* probe,
                                const std::map<std::string, Table>& tables) {
  namespace rel = bigdawg::relational;
  // Statement, snapshots and resolver live as long as the probe's call.
  struct Select {
    rel::SelectStatement stmt;
    std::map<std::string, Table> snapshots;
  };
  auto select = std::make_shared<Select>();
  const double parse_ms = MedianMs([&] { (void)rel::ParseSql(sql); }, 5, 20);
  bigdawg::Result<rel::Statement> parsed = rel::ParseSql(sql);
  if (!parsed.ok() || !std::holds_alternative<rel::SelectStatement>(*parsed)) {
    error_ = sql + ": not a SELECT";
    return;
  }
  select->stmt = std::move(std::get<rel::SelectStatement>(*parsed));
  select->snapshots = tables;
  std::vector<std::string> names = {select->stmt.from.name};
  for (const rel::JoinClause& j : select->stmt.joins) names.push_back(j.table.name);
  double examined = 0;
  for (const std::string& n : names) {
    if (select->snapshots.count(n) == 0) {
      bigdawg::Result<Table> t = dawg_->postgres().GetTable(n);
      if (!t.ok()) {
        error_ = sql + ": " + t.status().ToString();
        return;
      }
      select->snapshots[n] = *t;
    }
    examined += static_cast<double>(select->snapshots[n].num_rows());
  }
  auto run = [select] {
    return rel::ExecuteSelect(
        select->stmt, [&](const std::string& n) -> bigdawg::Result<const Table*> {
          auto it = select->snapshots.find(n);
          if (it == select->snapshots.end()) return bigdawg::Status::NotFound(n);
          return &it->second;
        });
  };
  bigdawg::Result<Table> result = run();
  if (!result.ok()) {
    error_ = sql + ": " + result.status().ToString();
    return;
  }
  probe->calls.push_back({"relational.select_ms." + name, [run] { (void)run(); }});
  probe->fixed_ms += parse_ms;
  parse_us_ += 1e3 * parse_ms;
  ++classes_;
  examined_ += examined;
  returned_ += static_cast<double>(result->num_rows());
}

void RelationalProbe::Finish(Layers* layers) const {
  if (classes_ == 0) return;
  layers->Set("relational.parse_us", parse_us_ / classes_, "us");
  layers->Set("relational.rows_examined_per_result",
              examined_ / std::max(1.0, returned_), "ratio");
}

void MeasureQueries(const Options& options, World* world, const QueryMix& mix,
                    Report* report) {
  report->class_names = mix.class_names;
  // Warm-up: one full round through the service, so the cast cache and
  // lazily built columnar metadata are in place before anything is timed.
  Deck warm(mix.deck, options.seed ^ 0x5eedULL);
  for (size_t i = 0; i < mix.deck.size(); ++i) {
    Query q = mix.make(0, &warm);
    bigdawg::Result<Table> r = world->service->ExecuteSync(q.text);
    std::string why;
    report->Invariant(r.ok() && q.check(*r, &why),
                      "warm-up " + q.text + ": " +
                          (r.ok() ? why : r.status().ToString()));
  }
  report->untraced = RunClients(world->service.get(), mix.clients, options.seed,
                                mix.deck, mix.make, For(options.seconds), false);
  if (!options.trace) return;

  const ServiceTotals before = ReadServiceTotals(world->dawg.get(), world->service.get());
  report->traced = RunClients(world->service.get(), mix.clients, options.seed + 1,
                              mix.deck, mix.make, For(options.seconds), true);
  const ServiceTotals after = ReadServiceTotals(world->dawg.get(), world->service.get());
  RecordServiceLayers(world->service.get(), before, after, &report->layers);
  std::string why;
  report->Invariant(Decompose(world->dawg.get(), world->service.get(), mix.probes(),
                              &report->layers, &why),
                    "decomposition: " + why);
}

void Report::Invariant(bool ok, const std::string& what) {
  ++invariant_checks;
  if (!ok) invariant_failures.push_back(what);
}

}  // namespace perfbench
