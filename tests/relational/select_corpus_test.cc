// Golden corpus for the two SQL dialects. A seeded generator builds about
// 400 SELECTs over synthesized tables (NULLs, int64 and double columns,
// integral doubles that equal int64 values, strings, an empty table) and
// runs each through the RELATIONAL island and the MYRIA island. Every
// answer is rendered as one line — status code, or schema names and
// types, row count and a fingerprint of every cell's type and value in
// row order — and the whole rendering must match the committed golden
// file byte for byte.
//
// The corpus runs twice: over the tables as loaded (row storage) and over
// copies born from columns (Table::FromColumns over the same slices); both
// must match the one golden.
//
// The rendering of the current build is always written next to the test
// binary (select_corpus.actual, and select_corpus.actual.columnar for the
// second run); after an intended behaviour change,
// review the differing lines and copy that file over
// tests/relational/select_corpus.golden.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/bigdawg.h"
#include "corpus_tables.h"
#include "myria/myria.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace bigdawg {
namespace {

// ---------------------------------------------------------------------------
// Query generator
// ---------------------------------------------------------------------------

// A FROM clause with the select lists, predicates and sort keys that are
// meaningful over it. Not every combination is valid; the invalid ones
// pin error statuses.
struct Shape {
  const char* from;
  std::vector<const char*> lists;
  std::vector<const char*> wheres;
  std::vector<const char*> orders;
};

// An aggregate query family: select list, GROUP BY, HAVING and ORDER BY
// choices over its output.
struct AggShape {
  const char* from;
  const char* list;
  const char* group;
  std::vector<const char*> havings;
  std::vector<const char*> orders;
};

const std::vector<Shape>& PlainShapes() {
  static const std::vector<Shape> shapes = {
      {"pt",
       {"*", "id, a", "a, b, s", "id, a + 1", "a * b AS ab, id", "s + 'x' AS sx",
        "abs(a) AS m, b", "a / 2 AS h", "pt.a, pt.s", "a, a", "id, lower(s)",
        "coalesce(a, 0) AS ca, grp", "b, a", "grp", "s", "b"},
       {"", "a > 3", "a >= 0 AND b < 5.5", "s LIKE 'a%'", "NOT a = 4", "a = b",
        "b > 2 OR s = 'beta'", "grp = 2", "a > 100", "id % 7 = 0", "a <> grp",
        "pt.b <= 3"},
       {"", "a", "a DESC, id", "b, id", "s DESC, id", "id DESC", "grp, b DESC"}},
      {"rx",
       {"*", "rid, x", "y, s", "x + y AS xy", "id", "s, y"},
       {"", "y > 2", "x < 2.5", "s = 'gamma' OR y = 1", "id = y"},
       {"", "y, rid", "x DESC", "s"}},
      {"tiny", {"*", "k", "v", "v, k"}, {"", "v > 1", "k <> 3"}, {"", "v", "k DESC"}},
      {"empty_t", {"*", "a", "a + b AS c"}, {"", "a > 0", "a / 0 > 1"}, {"", "a"}},
      {"pt JOIN rx ON pt.id = rx.id",
       {"*", "pt.id, rx.x", "pt.s, rx.s", "a, y", "s", "rid, b"},
       {"", "y > 2", "pt.a < rx.y", "rx.s = 'beta'"},
       {"", "pt.id, rx.rid", "x DESC, rid"}},
      {"pt p JOIN rx r ON p.id = r.id",
       {"*", "p.id, r.x", "p.s AS ps, r.s AS rs", "a + y AS ay", "rid"},
       {"", "r.y > 2", "p.b > r.x", "p.s = r.s"},
       {"", "p.id, r.rid", "ay DESC, rid", "r.x, rid"}},
      {"pt p JOIN rx r ON r.id = p.id AND p.a > r.y",
       {"*", "p.id, r.rid", "p.a, r.y"},
       {"", "r.s <> 'alpha'"},
       {"", "p.a DESC, r.rid", "rid"}},
      {"pt p JOIN rx r ON p.a < r.y",
       {"p.id, r.rid", "p.a, r.y, r.rid"},
       {"", "p.grp = 1", "r.rid < 5"},
       {"", "r.rid, p.id"}},
      {"pt p JOIN tiny t ON p.b = t.v",
       {"*", "p.id, t.k"}, {"", "t.k > 1"}, {"", "t.k, p.id"}},
      {"pt p JOIN tiny t ON p.a = t.v", {"*", "p.id, p.a, t.k"}, {""}, {"", "p.id"}},
      {"pt p JOIN rx r ON p.id = r.id JOIN tiny t ON r.y = t.k",
       {"*", "p.id, r.rid, t.v"}, {"", "t.v > 1"}, {"", "r.rid"}},
      {"pt p1 JOIN pt p2 ON p1.grp = p2.grp AND p1.id < p2.id",
       {"p1.id, p2.id", "p1.grp, p1.a, p2.a"}, {"", "p1.a > p2.a"}, {"", "p2.id, p1.id"}},
      {"pt JOIN pt ON pt.id = pt.id", {"*"}, {""}, {""}},
      {"pt JOIN empty_t ON pt.id = empty_t.id", {"*", "pt.id"}, {""}, {""}},
      {"pt JOIN rx ON id = id", {"*", "id, x", "grp, y", "s", "rid, right.s"},
       {"", "y > 3", "right.s = 'beta'"}, {""}},
      {"pt JOIN rx ON pt.id = rx.id OR pt.a = rx.y", {"pt.id, rx.rid"}, {""},
       {"", "rx.rid, pt.id"}},
      {"pt JOIN tiny ON a = k", {"*", "id, v"}, {"", "v > 1"}, {""}},
  };
  return shapes;
}

const std::vector<AggShape>& AggShapes() {
  static const std::vector<AggShape> shapes = {
      {"pt", "grp, COUNT(*)", "grp", {"", "count_all > 7"},
       {"", "grp", "count_all DESC, grp"}},
      {"pt", "grp, COUNT(a) AS na, SUM(a), SUM(b), AVG(b), MIN(s), MAX(s)", "grp",
       {"", "na >= 5", "sum_a > 20"}, {"", "grp DESC", "sum_b"}},
      {"pt", "COUNT(*), SUM(a), AVG(a), MIN(b), MAX(b)", "", {""}, {""}},
      {"pt", "s, SUM(a + 1), COUNT(b)", "s", {"", "count_b > 3"}, {"", "s"}},
      {"pt", "SUM(a) AS t, grp", "grp", {"", "t > 10"}, {"", "t DESC"}},
      {"pt", "grp, s, COUNT(*) AS n", "grp, s", {"", "n > 1"}, {"", "n DESC, grp, s"}},
      {"pt", "MIN(id), MAX(id), SUM(b * 2)", "", {""}, {""}},
      {"pt", "a, COUNT(*) AS n", "a", {""}, {"", "a"}},
      {"pt", "b, COUNT(*) AS n, SUM(a) AS t", "b", {"", "n > 1"}, {"", "b DESC"}},
      {"pt", "SUM(a), SUM(a)", "", {""}, {""}},
      {"pt", "grp + 1 AS g1, COUNT(*) AS n", "grp", {""}, {"", "g1"}},
      {"pt", "pt.grp, SUM(pt.a)", "pt.grp", {""}, {"", "grp"}},
      {"pt", "grp, COUNT(*), SUM(a), SUM(b), AVG(a), MIN(s), MAX(b)", "grp", {""}, {""}},
      {"pt", "COUNT(*) AS n, SUM(a) AS t", "", {""}, {""}},
      {"pt", "grp, MIN(a) AS lo, MAX(a) AS hi", "grp", {"", "hi - lo > 10"}, {"", "lo"}},
      {"rx", "id, COUNT(*) AS n, SUM(y) AS sy, AVG(x)", "id", {"", "n > 1"},
       {"", "n DESC, id"}},
      {"rx", "s, MAX(x), MIN(y)", "s", {""}, {"", "s"}},
      {"rx", "y, SUM(x), COUNT(s)", "y", {""}, {""}},
      {"tiny", "v, COUNT(*), SUM(k)", "v", {""}, {"", "v"}},
      {"pt p JOIN rx r ON p.id = r.id", "p.grp, COUNT(*) AS n, SUM(r.y) AS sy", "p.grp",
       {"", "n > 3"}, {"", "grp", "n DESC, grp"}},
      {"pt p JOIN rx r ON p.id = r.id", "r.s, AVG(p.b), MAX(r.x)", "r.s", {""},
       {"", "s"}},
      {"pt JOIN rx ON id = id", "grp, COUNT(*), SUM(y)", "grp", {""}, {""}},
      {"pt JOIN rx ON id = id", "s, SUM(x), MIN(right.s)", "s", {""}, {""}},
      {"empty_t", "COUNT(*), SUM(a), AVG(b), MIN(a)", "", {""}, {""}},
      {"empty_t", "a, COUNT(*)", "a", {""}, {""}},
  };
  return shapes;
}

// Statements that must fail, one fault each.
const std::vector<std::string>& ErrorQueries() {
  static const std::vector<std::string> queries = {
      "SELECT * FROM nope",
      "SELECT zzz FROM pt",
      "SELECT a FROM pt HAVING a > 1",
      "SELECT *, COUNT(*) FROM pt",
      "SELECT * FROM pt GROUP BY grp",
      "SELECT DISTINCT id FROM pt ORDER BY a",
      "SELECT a / 0 FROM pt",
      "SELECT id FROM pt WHERE s > 1",
      "SELECT median(a) FROM pt",
      "SELECT id FROM pt ORDER BY zzz",
      "SELECT COUNT(*) FROM pt GROUP BY zzz",
      "SELECT grp, COUNT(*) FROM pt GROUP BY grp HAVING zzz > 1",
      "SELECT id FROM pt WHERE id % 0 = 1",
      "SELECT id FROM pt WHERE b % 2 = 1",
      "SELEC id FROM pt",
      "SELECT pt.id FROM pt JOIN rx ON pt.id = rx.zzz",
      "SELECT p.id FROM pt p JOIN nope q ON p.id = q.id",
      "SELECT sqrt(a - 100) FROM pt",
      "SELECT COUNT(*) FROM pt WHERE 1 / 0 > 1",
      "SELECT SUM(zzz) FROM pt",
      "SELECT grp, SUM(a + s) FROM pt GROUP BY grp",
      "SELECT id FROM pt ORDER BY s > 1",
      "SELECT id FROM pt LIMIT x",
      "SELECT id FROM pt JOIN rx ON pt.id = rx.id",
      "SELECT x FROM pt JOIN rx ON pt.a = rx.s",
      "SELECT id FROM nope JOIN rx ON id = id",
      "INSERT INTO pt VALUES (1, 1, 1, 1.0, 'a')",
  };
  return queries;
}

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& options) {
  return options[rng->NextBelow(options.size())];
}

std::string Limit(Rng* rng) {
  static const std::vector<const char*> kLimits = {"", "", "", " LIMIT 0", " LIMIT 3",
                                                   " LIMIT 10"};
  return Pick(rng, kLimits);
}

std::vector<std::string> Corpus() {
  Rng rng(15);
  std::vector<std::string> out;
  // A "bare" query has no DISTINCT, ORDER BY or LIMIT, so it stays inside
  // the MYRIA subset whenever its FROM clause does.
  for (int i = 0; i < 230; ++i) {
    const Shape& s = Pick(&rng, PlainShapes());
    const bool bare = rng.NextBool(0.35);
    std::string q = "SELECT ";
    if (!bare && rng.NextBool(0.2)) q += "DISTINCT ";
    q += std::string(Pick(&rng, s.lists)) + " FROM " + s.from;
    const std::string where = Pick(&rng, s.wheres);
    if (!where.empty()) q += " WHERE " + where;
    const std::string order = bare ? "" : Pick(&rng, s.orders);
    if (!order.empty()) q += " ORDER BY " + order;
    out.push_back(bare ? q : q + Limit(&rng));
  }
  static const std::vector<const char*> kAggWheres = {"", "", "a > 2", "b < 4.5",
                                                      "s <> 'alpha'", "a > 1000"};
  for (int i = 0; i < 145; ++i) {
    const AggShape& s = Pick(&rng, AggShapes());
    const bool bare = rng.NextBool(0.35);
    std::string q = "SELECT ";
    if (!bare && rng.NextBool(0.15)) q += "DISTINCT ";
    q += std::string(s.list) + " FROM " + s.from;
    // The shared WHERE choices name pt's columns; other relations keep
    // their own (usually none).
    const std::string where = std::string(s.from) == "pt" ? Pick(&rng, kAggWheres) : "";
    if (!where.empty()) q += " WHERE " + where;
    if (*s.group != '\0') q += std::string(" GROUP BY ") + s.group;
    const std::string having = Pick(&rng, s.havings);
    if (!having.empty()) q += " HAVING " + having;
    const std::string order = bare ? "" : Pick(&rng, s.orders);
    if (!order.empty()) q += " ORDER BY " + order;
    out.push_back(bare ? q : q + Limit(&rng));
  }
  for (const std::string& q : ErrorQueries()) out.push_back(q);
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

void AppendCell(const Value& v, std::string* out) {
  char buf[64];
  switch (v.type()) {
    case DataType::kNull:
      *out += "N;";
      return;
    case DataType::kBool:
      *out += v.bool_unchecked() ? "B1;" : "B0;";
      return;
    case DataType::kInt64:
      std::snprintf(buf, sizeof(buf), "I%" PRId64 ";", v.int64_unchecked());
      *out += buf;
      return;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "D%.17g;", v.double_unchecked());
      *out += buf;
      return;
    case DataType::kString:
      *out += "S" + std::to_string(v.string_unchecked().size()) + ":" +
              v.string_unchecked() + ";";
      return;
  }
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Render(const Result<relational::Table>& result) {
  if (!result.ok()) {
    return std::string("ERR ") + StatusCodeToString(result.status().code());
  }
  std::string cells;
  for (const Row& row : result->rows()) {
    for (const Value& v : row) AppendCell(v, &cells);
    cells += "\n";
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, Fnv1a(cells));
  return "OK [" + result->schema().ToString() + "] rows=" +
         std::to_string(result->num_rows()) + " fp=" + fp;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Runs the corpus through both dialects and compares the rendering with
// the golden file. `from_columns` first rebuilds every table as a block
// born from columns; the answers must not change by a byte.
void ExpectCorpusMatchesGolden(bool from_columns) {
  core::BigDawg dawg;
  LoadTables(&dawg);
  if (from_columns) RebuildFromColumns(&dawg, {"pt", "rx", "tiny", "empty_t"});
  core::Island* relational = *dawg.GetIsland("RELATIONAL");
  core::Island* myria = *dawg.GetIsland("MYRIA");

  const std::vector<std::string> corpus = Corpus();
  ASSERT_GE(corpus.size(), 400u);
  std::string actual;
  for (const std::string& sql : corpus) {
    actual += "RELATIONAL " + sql + "  =>  " + Render(relational->Execute(sql)) + "\n";
    actual += "MYRIA      " + sql + "  =>  " + Render(myria->Execute(sql)) + "\n";
  }
  const std::string actual_path =
      std::string(SELECT_CORPUS_ACTUAL) + (from_columns ? ".columnar" : "");
  {
    std::ofstream out(actual_path, std::ios::binary);
    out << actual;
  }
  std::ifstream in(SELECT_CORPUS_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << SELECT_CORPUS_GOLDEN
                         << "; this build's rendering is in " << actual_path;
  std::stringstream golden;
  golden << in.rdbuf();

  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(actual);
  ASSERT_EQ(want.size(), got.size()) << "rendering is in " << actual_path;
  int shown = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == got[i]) continue;
    ADD_FAILURE() << "line " << i + 1 << "\n  golden: " << want[i]
                  << "\n  actual: " << got[i];
    if (++shown == 20) break;
  }
  EXPECT_EQ(shown, 0) << "rendering is in " << actual_path;
}

TEST(SelectCorpusTest, MatchesGolden) { ExpectCorpusMatchesGolden(false); }

TEST(SelectCorpusTest, TablesBornFromColumnsMatchGolden) {
  ExpectCorpusMatchesGolden(true);
}

// The Myria optimizer's pushdown and reorder rules trust PlanSchema, and
// SQL lowering reads it to place ORDER BY: for every corpus query that
// lowers and runs, PlanSchema of the plan must be the schema execution
// returns — for both dialects, and for Myria's optimized plans too.
TEST(SelectCorpusTest, PlanSchemaMatchesExecutedSchema) {
  core::BigDawg dawg;
  LoadTables(&dawg);
  relational::Database& pg = dawg.postgres();
  relational::CatalogStats catalog;
  catalog.row_count = [&pg](const std::string& name) { return pg.TableRowCount(name); };
  catalog.schema = [&pg](const std::string& name) { return pg.GetSchema(name); };
  relational::PlanResolver resolver = [&pg](const std::string& name) {
    return pg.GetTable(name);
  };

  int checked = 0;
  auto check = [&](const std::string& what, const relational::PlanNode& plan) {
    Result<relational::Table> executed = relational::ExecutePlan(plan, resolver, nullptr);
    if (!executed.ok()) return;
    Result<Schema> derived = relational::PlanSchema(plan, catalog);
    ASSERT_TRUE(derived.ok()) << what << ": " << derived.status().ToString();
    EXPECT_EQ(derived->ToString(), executed->schema().ToString()) << what;
    ++checked;
  };
  for (const std::string& sql : Corpus()) {
    Result<relational::Statement> stmt = relational::ParseSql(sql);
    if (!stmt.ok()) continue;
    const auto* select = std::get_if<relational::SelectStatement>(&*stmt);
    if (select == nullptr) continue;
    Result<relational::PlanPtr> sql_plan = relational::LowerSelect(*select, catalog);
    if (sql_plan.ok()) check("RELATIONAL " + sql, **sql_plan);
    Result<relational::PlanPtr> myria_plan = myria::LowerSelect(*select);
    if (myria_plan.ok()) {
      check("MYRIA " + sql, **myria_plan);
      check("MYRIA optimized " + sql, *myria::Optimize(*myria_plan, catalog));
    }
  }
  EXPECT_GE(checked, 500);
}

}  // namespace
}  // namespace bigdawg
