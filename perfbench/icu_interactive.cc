// icu_interactive: the paper's five MIMIC II interfaces as one seeded
// query mix over the whole polystore, with two closed-loop clients
// against a two-worker QueryService.
//
// Why: every query here does little work, so the service and core layers
// (admission, engine locks, SCOPE/CAST rewrite, warm cast-cache hits)
// make up most of the latency. The one CAST query in nine takes every
// engine's lock exclusively, which is what sets the tail.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>

#include "common/logging.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "harness.h"
#include "mimic/mimic.h"

namespace perfbench {
namespace {

namespace core = bigdawg::core;
namespace mimic = bigdawg::mimic;

enum Cls {
  kBrowse,
  kGroupBy,
  kMyriaGroupBy,
  kPoint,
  kArrayAggregate,
  kCastFilter,
  kTextSearch,
  kTextPhrase,
  kD4mRowSum,
};
const std::vector<std::string> kClassNames = {
    "browse",          "group_by",    "myria_group_by",
    "point",           "array_aggregate", "cast_filter",
    "text_search",     "text_phrase", "d4m_rowsum"};

constexpr int64_t kBrowsePatients = 8;
const std::vector<std::string> kTerms = {
    "patient", "very",  "sick",    "stable",  "administered",
    "heparin", "aspirin", "monitor", "rhythm", "family"};
const std::vector<std::string> kPhrases = {"very sick", "heart rhythm",
                                           "patient stable", "family updated"};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Lower-cased alphanumeric runs: the documented TEXT island tokenizer.
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The generator's answer to every question the mix can ask, computed
/// from the generated rows without going through the polystore.
struct Answers {
  int64_t patients = 0;
  int64_t samples = 0;
  std::vector<double> patient_sum;   ///< sum of mv per patient
  std::vector<double> sorted_mv;
  std::vector<GroupAnswer> by_severity;  ///< [s-1]: WHERE severity >= s
  std::vector<bigdawg::Row> patient_rows;
  /// "a b" -> (documents containing every term, summed term frequency).
  std::map<std::string, std::pair<int64_t, int64_t>> search;
  /// phrase -> owner -> documents containing the phrase.
  std::map<std::string, std::map<std::string, int64_t>> phrase_owners;
  std::map<std::string, double> term_totals;  ///< D4M ROWSUM of notes
};

Answers Solve(const mimic::MimicData& data, int64_t patients, int64_t samples) {
  Answers a;
  a.patients = patients;
  a.samples = samples;
  a.patient_sum.assign(static_cast<size_t>(patients), 0.0);
  data.waveforms.Scan([&](const bigdawg::array::Coordinates& c,
                          const std::vector<double>& v) {
    a.patient_sum[static_cast<size_t>(c[0])] += v[0];
    a.sorted_mv.push_back(v[0]);
    return true;
  });
  std::sort(a.sorted_mv.begin(), a.sorted_mv.end());

  for (int64_t s = 1; s <= 4; ++s) {
    GroupAnswer g{"race", {"n", "stay"}, {}};
    for (const bigdawg::Row& r : data.admissions.rows()) {
      if (r[3].int64_unchecked() < s) continue;
      std::vector<double>& agg = g.groups[r[5].string_unchecked()];
      agg.resize(2, 0.0);
      agg[0] += 1;
      agg[1] += r[4].double_unchecked();
    }
    a.by_severity.push_back(std::move(g));
  }
  a.patient_rows = data.patients.rows();

  std::vector<std::map<std::string, int64_t>> tf;
  for (const mimic::Note& note : data.notes) {
    std::map<std::string, int64_t>& doc = tf.emplace_back();
    for (const std::string& t : Tokens(note.text)) {
      ++doc[t];
      a.term_totals[t] += 1;
    }
    const std::string text = Lower(note.text);
    for (const std::string& phrase : kPhrases) {
      if (text.find(phrase) != std::string::npos) ++a.phrase_owners[phrase][note.patient_id];
    }
  }
  auto solve_search = [&](const std::vector<std::string>& terms) {
    std::pair<int64_t, int64_t>& out = a.search[terms.size() == 1 ? terms[0]
                                                : terms[0] + " " + terms[1]];
    for (const auto& doc : tf) {
      int64_t score = 0;
      bool all = true;
      for (const std::string& t : terms) {
        auto it = doc.find(t);
        if (it == doc.end()) {
          all = false;
          break;
        }
        score += it->second;
      }
      if (all) {
        ++out.first;
        out.second += score;
      }
    }
  };
  for (size_t i = 0; i < kTerms.size(); ++i) {
    solve_search({kTerms[i]});
    for (size_t j = i + 1; j < kTerms.size(); ++j) solve_search({kTerms[i], kTerms[j]});
  }
  return a;
}

bool SumColumn(const Table& t, size_t col, double* sum, std::string* why) {
  *sum = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double v = 0;
    if (!CellDouble(t, r, col, &v)) {
      *why = "non-numeric cell in column " + std::to_string(col);
      return false;
    }
    *sum += v;
  }
  return true;
}

Query Make(const Answers& a, int cls, Rng* rng) {
  Query q;
  q.cls = cls;
  switch (cls) {
    case kBrowse: {
      const int64_t lo = rng->NextInt(0, a.patients - kBrowsePatients);
      const int64_t hi = lo + kBrowsePatients - 1;
      q.text = "ARRAY(subarray(waveforms, " + std::to_string(lo) + ", 0, " +
               std::to_string(hi) + ", " + std::to_string(a.samples - 1) + "))";
      double expected = 0;
      for (int64_t p = lo; p <= hi; ++p) expected += a.patient_sum[static_cast<size_t>(p)];
      const size_t cells = static_cast<size_t>(kBrowsePatients * a.samples);
      q.check = [expected, cells](const Table& t, std::string* why) {
        double sum = 0;
        if (t.num_rows() != cells || t.schema().num_fields() != 3) {
          *why = std::to_string(t.num_rows()) + " cells, expected " + std::to_string(cells);
          return false;
        }
        if (!SumColumn(t, 2, &sum, why)) return false;
        if (!Near(sum, expected)) {
          *why = "sum " + std::to_string(sum) + ", expected " + std::to_string(expected);
          return false;
        }
        return true;
      };
      break;
    }
    case kGroupBy:
    case kMyriaGroupBy: {
      const int64_t s = rng->NextInt(1, 4);
      const std::string sql =
          "SELECT race, COUNT(*) AS n, SUM(stay_days) AS stay FROM admissions "
          "WHERE severity >= " + std::to_string(s) + " GROUP BY race";
      q.text = (cls == kGroupBy ? "RELATIONAL(" : "MYRIA(") + sql + ")";
      const GroupAnswer* expected = &a.by_severity[static_cast<size_t>(s - 1)];
      q.check = [expected](const Table& t, std::string* why) {
        return CheckGroups(t, *expected, why);
      };
      break;
    }
    case kPoint: {
      const int64_t k = rng->NextInt(0, a.patients - 1);
      q.text = "RELATIONAL(SELECT * FROM patients WHERE patient_id = " +
               std::to_string(k) + ")";
      const bigdawg::Row* expected = &a.patient_rows[static_cast<size_t>(k)];
      q.check = [expected](const Table& t, std::string* why) {
        if (t.num_rows() != 1 || t.rows()[0] != *expected) {
          *why = std::to_string(t.num_rows()) + " rows, not the patient's row";
          return false;
        }
        return true;
      };
      break;
    }
    case kArrayAggregate: {
      q.text = "ARRAY(aggregate(waveforms, avg, mv, patient_id))";
      const Answers* ans = &a;
      q.check = [ans](const Table& t, std::string* why) {
        if (t.num_rows() != static_cast<size_t>(ans->patients)) {
          *why = std::to_string(t.num_rows()) + " patients";
          return false;
        }
        for (size_t r = 0; r < t.num_rows(); ++r) {
          int64_t p = 0;
          double avg = 0;
          if (!CellInt(t, r, 0, &p) || !CellDouble(t, r, 1, &avg) || p < 0 ||
              p >= ans->patients ||
              !Near(avg, ans->patient_sum[static_cast<size_t>(p)] /
                             static_cast<double>(ans->samples))) {
            *why = "patient row " + std::to_string(r) + " has the wrong average";
            return false;
          }
        }
        return true;
      };
      break;
    }
    case kCastFilter: {
      const double lo = a.sorted_mv.front(), hi = a.sorted_mv.back();
      const std::string x = Fmt("%.4f", rng->NextDouble(lo, hi));
      q.text = "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(waveforms, relation) "
               "WHERE mv > " + x + ")";
      const double threshold = std::strtod(x.c_str(), nullptr);
      const int64_t expected = static_cast<int64_t>(
          a.sorted_mv.end() -
          std::upper_bound(a.sorted_mv.begin(), a.sorted_mv.end(), threshold));
      q.check = [expected](const Table& t, std::string* why) {
        int64_t n = 0;
        if (!CellInt(t, 0, 0, &n) || n != expected) {
          *why = "count " + std::to_string(n) + ", expected " + std::to_string(expected);
          return false;
        }
        return true;
      };
      break;
    }
    case kTextSearch: {
      const size_t i = rng->NextBelow(kTerms.size());
      size_t j = rng->NextBelow(kTerms.size());
      std::string key = kTerms[i];
      if (j != i) key = kTerms[std::min(i, j)] + " " + kTerms[std::max(i, j)];
      q.text = "TEXT(SEARCH " + key + ")";
      const std::pair<int64_t, int64_t> expected = a.search.at(key);
      q.check = [expected](const Table& t, std::string* why) {
        double score = 0;
        if (static_cast<int64_t>(t.num_rows()) != expected.first ||
            !SumColumn(t, 2, &score, why) ||
            static_cast<int64_t>(score) != expected.second) {
          *why = std::to_string(t.num_rows()) + " documents, expected " +
                 std::to_string(expected.first);
          return false;
        }
        return true;
      };
      break;
    }
    case kTextPhrase: {
      const std::string& phrase = kPhrases[rng->NextBelow(kPhrases.size())];
      const int64_t min_docs = rng->NextInt(1, 3);
      q.text = "TEXT(OWNERS_WITH_PHRASE '" + phrase + "' " + std::to_string(min_docs) + ")";
      int64_t owners = 0, docs = 0;
      auto it = a.phrase_owners.find(phrase);
      if (it != a.phrase_owners.end()) {
        for (const auto& [owner, count] : it->second) {
          if (count >= min_docs) {
            ++owners;
            docs += count;
          }
        }
      }
      q.check = [owners, docs](const Table& t, std::string* why) {
        double sum = 0;
        if (static_cast<int64_t>(t.num_rows()) != owners || !SumColumn(t, 1, &sum, why) ||
            static_cast<int64_t>(sum) != docs) {
          *why = std::to_string(t.num_rows()) + " owners, expected " + std::to_string(owners);
          return false;
        }
        return true;
      };
      break;
    }
    default: {
      q.text = "D4M(ROWSUM notes)";
      const std::map<std::string, double>* expected = &a.term_totals;
      q.check = [expected](const Table& t, std::string* why) {
        if (t.num_rows() != expected->size()) {
          *why = std::to_string(t.num_rows()) + " terms, expected " +
                 std::to_string(expected->size());
          return false;
        }
        for (size_t r = 0; r < t.num_rows(); ++r) {
          double sum = 0;
          auto it = expected->find(Text(t.rows()[r][0]));
          if (it == expected->end() || !CellDouble(t, r, 1, &sum) || sum != it->second) {
            *why = "term " + Text(t.rows()[r][0]) + " has the wrong total";
            return false;
          }
        }
        return true;
      };
      break;
    }
  }
  return q;
}

struct IcuWorld {
  mimic::MimicData data;
  World world;
};

}  // namespace

Report RunIcuInteractive(const Options& options) {
  mimic::MimicConfig config;
  config.num_patients = options.smoke ? 100 : 2000;
  config.waveform_seconds = 1;
  config.waveform_hz = 64;
  config.seed = options.seed;
  const int64_t samples = config.waveform_seconds * config.waveform_hz;

  Report report;
  IcuWorld w;
  TimedSetups<IcuWorld>(options.smoke ? 1 : 3, &report, &w, [&] {
    IcuWorld fresh;
    bigdawg::Result<mimic::MimicData> data = mimic::Generate(config);
    BIGDAWG_CHECK_OK(data.status());
    fresh.data = std::move(*data);
    fresh.world.dawg = std::make_unique<core::BigDawg>();
    BIGDAWG_CHECK_OK(mimic::LoadIntoBigDawg(fresh.data, fresh.world.dawg.get()));
    fresh.world.service = std::make_unique<bigdawg::exec::QueryService>(
        fresh.world.dawg.get(), bigdawg::exec::QueryServiceConfig{.num_workers = 2});
    return fresh;
  });
  const Answers answers = Solve(w.data, config.num_patients, samples);
  core::BigDawg* dawg = w.world.dawg.get();
  const std::string group_sql =
      "SELECT race, COUNT(*) AS n, SUM(stay_days) AS stay FROM admissions "
      "WHERE severity >= 2 GROUP BY race";
  std::string why;
  report.Invariant(SameGroups(dawg, "RELATIONAL(" + group_sql + ")", "MYRIA(" + group_sql + ")",
                              "race", {"n", "stay"}, &why),
                   why);

  QueryMix mix;
  mix.clients = 2;
  mix.class_names = kClassNames;
  for (int c = 0; c < static_cast<int>(kClassNames.size()); ++c) mix.deck.push_back(c);
  mix.make = [&answers](int, Deck* deck) {
    const int cls = deck->Next();
    return Make(answers, cls, deck->rng());
  };

  RelationalProbe relational(dawg);
  mix.probes = [&] {
    // The island hands an array result back as a relation.
    auto array_calls = [dawg](const std::string& fetch_metric, const std::string& op,
                              const std::string& afl) {
      auto result = std::make_shared<bigdawg::array::Array>(*dawg->scidb().Query(afl));
      return std::vector<LayerCall>{
          {fetch_metric, [dawg] { (void)dawg->FetchAsArray("waveforms"); }},
          {"array.query_ms." + op, [dawg, afl] { (void)dawg->scidb().Query(afl); }},
          {"", [result] { (void)core::ArrayToTable(*result); }}};
    };
    const std::string browse_afl = "subarray(waveforms, 10, 0, " +
                                   std::to_string(10 + kBrowsePatients - 1) + ", " +
                                   std::to_string(samples - 1) + ")";
    const std::string aggregate_afl = "aggregate(waveforms, avg, mv, patient_id)";
    const std::string point_sql = "SELECT * FROM patients WHERE patient_id = 7";
    const std::string filter_sql = "SELECT COUNT(*) AS n FROM w WHERE mv > 0.25";
    core::Island* myria = *dawg->GetIsland("MYRIA");
    auto notes = std::make_shared<bigdawg::d4m::AssocArray>(*dawg->FetchAsAssoc("notes"));
    auto wave = std::make_shared<bigdawg::array::Array>(*dawg->scidb().GetArray("waveforms"));
    auto wave_table = std::make_shared<Table>(*dawg->FetchAsTable("waveforms"));
    auto admissions = std::make_shared<Table>(w.data.admissions);

    std::vector<ClassProbe> probes = {
        {"browse", "array", "ARRAY(" + browse_afl + ")",
         array_calls("core.fetch_array_ms", "subarray", browse_afl)},
        {"group_by", "relational", "RELATIONAL(" + group_sql + ")", {}},
        {"myria_group_by", "myria", "MYRIA(" + group_sql + ")",
         {{"myria.execute_ms.group_by", [myria, group_sql] { (void)myria->Execute(group_sql); }}}},
        {"point", "relational", "RELATIONAL(" + point_sql + ")", {}},
        {"array_aggregate", "array", "ARRAY(" + aggregate_afl + ")",
         array_calls("", "aggregate", aggregate_afl)},
        // Warm path: the cast cache serves the relation. The cold
        // conversions are timed beside the class, not inside it.
        {"cast_filter", "relational",
         "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(waveforms, relation) WHERE mv > 0.25)",
         {{"core.fetch_table_ms", [dawg] { (void)dawg->FetchAsTable("waveforms"); }},
          {"core.cast.array_to_table_ms", [wave] { (void)core::ArrayToTable(*wave); }, false},
          {"core.cast.table_to_array_ms", [wave_table] { (void)core::TableToArray(*wave_table); },
           false},
          {"core.cast.table_to_assoc_ms", [admissions] { (void)core::TableToAssoc(*admissions); },
           false}}},
        {"text_search", "text", "TEXT(SEARCH very sick)",
         {{"kvstore.search_ms",
           [dawg] { (void)dawg->accumulo().SearchAllTerms({"very", "sick"}); }}}},
        {"text_phrase", "text", "TEXT(OWNERS_WITH_PHRASE 'very sick' 2)",
         {{"kvstore.phrase_owners_ms",
           [dawg] { (void)dawg->accumulo().OwnersWithPhraseCount("very sick", 2); }}}},
        {"d4m_rowsum", "d4m", "D4M(ROWSUM notes)",
         {{"core.fetch_assoc_ms", [dawg] { (void)dawg->FetchAsAssoc("notes"); }},
          {"d4m.rowsum_ms", [notes] { (void)notes->RowSums(); }}}},
    };
    relational.AddSelect("group_by", group_sql, &probes[1]);
    relational.AddSelect("point", point_sql, &probes[3]);
    relational.AddSelect("cast_filter", filter_sql, &probes[5], {{"w", *wave_table}});
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
