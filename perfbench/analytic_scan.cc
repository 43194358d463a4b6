// analytic_scan: one client of scans, aggregates and a join over a seeded
// labs-shaped table of 2.5x10^5 rows and a patients table of 10^4 rows,
// both on postgres, through RELATIONAL and MYRIA. No CAST.
//
// Why: the relational and myria executors do nearly all the work and the
// service and core layers nearly none -- the mirror image of
// icu_interactive. The point lookup scans every row to return one.
//
// The table is a quarter of the 10^6 rows the workload was sized at: at
// 10^6 every join allocates ~0.5 GB afresh, its latency follows the
// host's page-fault speed, and query_tail_ms (which lands on the joins)
// spread by a quarter across seeds.

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "core/bigdawg.h"
#include "harness.h"

namespace perfbench {
namespace {

namespace core = bigdawg::core;
using bigdawg::DataType;
using bigdawg::Field;
using bigdawg::Schema;
using bigdawg::Value;

enum Cls { kCount, kSumWhere, kGroupBy, kMyriaGroupBy, kPoint, kJoin };
const std::vector<std::string> kClassNames = {"count", "sum_where", "group_by",
                                              "myria_group_by", "point", "join"};
const std::vector<std::string> kTests = {"lactate", "creatinine", "hemoglobin", "wbc",
                                         "sodium",  "potassium",  "glucose",    "platelets"};
// Parameters vary with the seed inside narrow bands, so every class does
// the same amount of work on every seed and runs stay comparable.
const std::vector<double> kGroupThresholds = {46, 48, 50, 52};
const std::vector<int64_t> kAgeThresholds = {50, 52, 54, 56};

/// The generated rows in plain arrays: what the oracles recompute from.
struct Rows {
  std::vector<int64_t> patient;
  std::vector<uint8_t> test;
  std::vector<double> value;
  std::vector<int64_t> age;
  std::vector<uint8_t> sex;  ///< 0 = F, 1 = M
};

struct ScanWorld {
  Rows rows;
  World world;
};

ScanWorld Build(uint64_t seed, int64_t labs, int64_t patients) {
  ScanWorld w;
  Rng rng(seed);
  Rows& r = w.rows;
  Table patient_table{Schema({Field("patient_id", DataType::kInt64),
                              Field("age", DataType::kInt64),
                              Field("sex", DataType::kString)})};
  patient_table.mutable_rows().reserve(static_cast<size_t>(patients));
  for (int64_t p = 0; p < patients; ++p) {
    r.age.push_back(rng.NextInt(18, 95));
    r.sex.push_back(static_cast<uint8_t>(rng.NextBelow(2)));
    patient_table.AppendUnchecked({Value(p), Value(r.age.back()),
                                   Value(r.sex.back() == 0 ? "F" : "M")});
  }
  Table lab_table{Schema({Field("lab_id", DataType::kInt64),
                          Field("patient_id", DataType::kInt64),
                          Field("test", DataType::kString),
                          Field("value", DataType::kDouble)})};
  lab_table.mutable_rows().reserve(static_cast<size_t>(labs));
  for (int64_t i = 0; i < labs; ++i) {
    r.patient.push_back(static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(patients))));
    r.test.push_back(static_cast<uint8_t>(rng.NextBelow(kTests.size())));
    r.value.push_back(rng.NextDouble(0, 100));
    lab_table.AppendUnchecked({Value(i), Value(r.patient.back()),
                               Value(kTests[r.test.back()]), Value(r.value.back())});
  }
  w.world.dawg = std::make_unique<core::BigDawg>();
  core::BigDawg* dawg = w.world.dawg.get();
  BIGDAWG_CHECK_OK(dawg->postgres().PutTable("labs", std::move(lab_table)));
  BIGDAWG_CHECK_OK(dawg->postgres().PutTable("patients", std::move(patient_table)));
  BIGDAWG_CHECK_OK(dawg->RegisterObject("labs", core::kEnginePostgres, "labs"));
  BIGDAWG_CHECK_OK(dawg->RegisterObject("patients", core::kEnginePostgres, "patients"));
  // One client needs one worker.
  w.world.service = std::make_unique<bigdawg::exec::QueryService>(
      dawg, bigdawg::exec::QueryServiceConfig{.num_workers = 1});
  return w;
}

struct Answers {
  int64_t labs = 0;
  std::vector<double> sorted_value;
  std::vector<double> suffix_sum;  ///< [i]: sum of sorted_value[i..]
  std::vector<GroupAnswer> by_test;  ///< per kGroupThresholds
  std::vector<GroupAnswer> by_sex;   ///< per kAgeThresholds
};

Answers Solve(const Rows& r) {
  Answers a;
  a.labs = static_cast<int64_t>(r.value.size());
  a.sorted_value = r.value;
  std::sort(a.sorted_value.begin(), a.sorted_value.end());
  a.suffix_sum.assign(a.sorted_value.size() + 1, 0.0);
  for (size_t i = a.sorted_value.size(); i > 0; --i) {
    a.suffix_sum[i - 1] = a.suffix_sum[i] + a.sorted_value[i - 1];
  }
  for (double x : kGroupThresholds) {
    GroupAnswer g{"test", {"n", "s"}, {}};
    for (size_t i = 0; i < r.value.size(); ++i) {
      if (!(r.value[i] > x)) continue;
      std::vector<double>& agg = g.groups[kTests[r.test[i]]];
      agg.resize(2, 0.0);
      agg[0] += 1;
      agg[1] += r.value[i];
    }
    a.by_test.push_back(std::move(g));
  }
  for (int64_t min_age : kAgeThresholds) {
    GroupAnswer g{"sex", {"n", "s"}, {}};
    for (size_t i = 0; i < r.value.size(); ++i) {
      const size_t p = static_cast<size_t>(r.patient[i]);
      if (r.age[p] < min_age) continue;
      std::vector<double>& agg = g.groups[r.sex[p] == 0 ? "F" : "M"];
      agg.resize(2, 0.0);
      agg[0] += 1;
      agg[1] += r.value[i];
    }
    a.by_sex.push_back(std::move(g));
  }
  return a;
}

std::string GroupSql(double x) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT test, COUNT(*) AS n, SUM(value) AS s FROM labs "
                "WHERE value > %.0f GROUP BY test", x);
  return buf;
}

std::string JoinSql(int64_t min_age) {
  return "SELECT sex, COUNT(*) AS n, SUM(value) AS s FROM labs l JOIN patients p "
         "ON l.patient_id = p.patient_id WHERE age >= " + std::to_string(min_age) +
         " GROUP BY sex";
}

std::string PointSql(int64_t k) {
  return "SELECT * FROM labs WHERE lab_id = " + std::to_string(k);
}

Query Make(const Answers& a, const Rows& rows, int cls, Rng* rng) {
  Query q;
  q.cls = cls;
  switch (cls) {
    case kCount: {
      q.text = "RELATIONAL(SELECT COUNT(*) AS n FROM labs)";
      const int64_t expected = a.labs;
      q.check = [expected](const Table& t, std::string* why) {
        int64_t n = 0;
        if (!CellInt(t, 0, 0, &n) || n != expected) {
          *why = "count " + std::to_string(n);
          return false;
        }
        return true;
      };
      break;
    }
    case kSumWhere: {
      char x[32];
      std::snprintf(x, sizeof(x), "%.3f", rng->NextDouble(45, 55));
      q.text = std::string("RELATIONAL(SELECT COUNT(*) AS n, SUM(value) AS s FROM labs "
                           "WHERE value > ") + x + ")";
      const double threshold = std::strtod(x, nullptr);
      const size_t first = static_cast<size_t>(
          std::upper_bound(a.sorted_value.begin(), a.sorted_value.end(), threshold) -
          a.sorted_value.begin());
      const int64_t n = static_cast<int64_t>(a.sorted_value.size() - first);
      const double s = a.suffix_sum[first];
      q.check = [n, s](const Table& t, std::string* why) {
        int64_t got_n = 0;
        double got_s = 0;
        if (!CellInt(t, 0, 0, &got_n) || got_n != n || !CellDouble(t, 0, 1, &got_s) ||
            !Near(got_s, s)) {
          *why = "count/sum differ from the generator's";
          return false;
        }
        return true;
      };
      break;
    }
    case kGroupBy:
    case kMyriaGroupBy: {
      const size_t i = rng->NextBelow(kGroupThresholds.size());
      q.text = std::string(cls == kGroupBy ? "RELATIONAL(" : "MYRIA(") +
               GroupSql(kGroupThresholds[i]) + ")";
      const GroupAnswer* expected = &a.by_test[i];
      q.check = [expected](const Table& t, std::string* why) {
        return CheckGroups(t, *expected, why);
      };
      break;
    }
    case kPoint: {
      const int64_t k = rng->NextInt(0, a.labs - 1);
      q.text = "RELATIONAL(" + PointSql(k) + ")";
      const size_t i = static_cast<size_t>(k);
      const bigdawg::Row expected = {Value(k), Value(rows.patient[i]),
                                     Value(kTests[rows.test[i]]), Value(rows.value[i])};
      q.check = [expected](const Table& t, std::string* why) {
        if (t.num_rows() != 1 || t.rows()[0] != expected) {
          *why = std::to_string(t.num_rows()) + " rows, not the lab's row";
          return false;
        }
        return true;
      };
      break;
    }
    default: {
      const size_t i = rng->NextBelow(kAgeThresholds.size());
      q.text = "RELATIONAL(" + JoinSql(kAgeThresholds[i]) + ")";
      const GroupAnswer* expected = &a.by_sex[i];
      q.check = [expected](const Table& t, std::string* why) {
        return CheckGroups(t, *expected, why);
      };
      break;
    }
  }
  return q;
}

}  // namespace

Report RunAnalyticScan(const Options& options) {
  const int64_t labs = options.smoke ? 10000 : 250000;
  const int64_t patients = options.smoke ? 100 : 10000;

  Report report;
  ScanWorld w;
  TimedSetups<ScanWorld>(options.smoke ? 1 : 5, &report, &w,
                         [&] { return Build(options.seed, labs, patients); });
  const Answers answers = Solve(w.rows);
  core::BigDawg* dawg = w.world.dawg.get();
  std::string why;
  report.Invariant(SameGroups(dawg, "RELATIONAL(" + GroupSql(50) + ")",
                              "MYRIA(" + GroupSql(50) + ")", "test", {"n", "s"}, &why),
                   why);

  QueryMix mix;
  mix.clients = 1;
  mix.class_names = kClassNames;
  for (int c = 0; c < static_cast<int>(kClassNames.size()); ++c) mix.deck.push_back(c);
  mix.make = [&answers, &w](int, Deck* deck) {
    const int cls = deck->Next();
    return Make(answers, w.rows, cls, deck->rng());
  };

  RelationalProbe relational(dawg);
  mix.probes = [&] {
    const std::vector<std::pair<std::string, std::string>> selects = {
        {"count", "SELECT COUNT(*) AS n FROM labs"},
        {"sum_where", "SELECT COUNT(*) AS n, SUM(value) AS s FROM labs WHERE value > 50"},
        {"group_by", GroupSql(50)},
        {"point", PointSql(labs / 3)},
        {"join", JoinSql(54)},
    };
    std::vector<ClassProbe> probes;
    for (const auto& [name, sql] : selects) {
      probes.push_back({name, "relational", "RELATIONAL(" + sql + ")", {}});
      relational.AddSelect(name, sql, &probes.back());
    }
    probes[0].calls.push_back(
        {"core.fetch_table_ms", [dawg] { (void)dawg->FetchAsTable("labs"); }});
    core::Island* myria = *dawg->GetIsland("MYRIA");
    const std::string group_sql = GroupSql(50);
    probes.push_back({"myria_group_by", "myria", "MYRIA(" + group_sql + ")",
                      {{"myria.execute_ms.group_by",
                        [myria, group_sql] { (void)myria->Execute(group_sql); }}}});
    return probes;
  };

  MeasureQueries(options, &w.world, mix, &report);
  if (options.trace) {
    relational.Finish(&report.layers);
    report.Invariant(relational.error().empty(), relational.error());
  }
  return report;
}

}  // namespace perfbench
