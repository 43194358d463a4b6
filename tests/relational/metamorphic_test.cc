// Reference-free oracles for the one relational executor, run through
// both SQL dialects (the RELATIONAL and MYRIA islands) over the golden
// corpus's synthesized tables plus a table with a column that mixes int64
// and double cells and a string column that is all NULL. A seeded generator builds predicates p from
// comparisons, arithmetic, LIKE, functions, IS NULL, NOT, AND and OR,
// and checks two oracles:
//
//  - Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020): a query Q
//    equals the recombination of Q WHERE p, Q WHERE NOT p and
//    Q WHERE p IS NULL. Checked for COUNT/SUM/MIN/MAX and for the row
//    multiset of a plain SELECT.
//  - NoREC (Rigger & Su, ESEC/FSE 2020): the row count of WHERE p equals
//    the number of rows where SELECT p is TRUE.
//
// The partitions cover every row under SQL three-valued logic, so any
// operator bug in NULL handling, NOT, short-circuiting or mixed-type
// comparison breaks an equality. A failure prints the failing query.
// Every oracle runs twice: over the tables as loaded, and over copies born
// from columns (MetamorphicFromColumnsTest).

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/bigdawg.h"
#include "corpus_tables.h"
#include "relational/expression.h"

namespace bigdawg {
namespace {

// A FROM clause and the columns the generator may reference in it.
struct From {
  const char* from;
  std::vector<const char*> ints;
  std::vector<const char*> doubles;  // may hold int64 cells ("mix.m")
  std::vector<const char*> strings;
  const char* columns;  // select list for the row-multiset oracle
};

const std::vector<From>& Froms() {
  static const std::vector<From> froms = {
      {"pt", {"id", "grp", "a"}, {"b"}, {"s"}, "id, grp, a, b, s"},
      {"rx", {"rid", "id", "y"}, {"x"}, {"s"}, "rid, id, x, y, s"},
      {"tiny", {"k"}, {"v"}, {}, "k, v"},
      {"empty_t", {"id", "a"}, {"b"}, {}, "id, a, b"},
      {"mix", {"k"}, {"m"}, {"t", "u"}, "k, m, t, u"},
      {"pt JOIN rx ON pt.id = rx.id",
       {"pt.a", "rx.y", "pt.grp"},
       {"pt.b", "rx.x"},
       {"pt.s", "rx.s"},
       "pt.id, pt.a, pt.b, rx.rid, rx.x, rx.s"},
  };
  return froms;
}

// Column m is declared double but holds int64 and double cells (3 and
// 3.0 both appear), plus NULLs. Column u is a string column that is NULL
// in every row.
void LoadMixedTable(core::BigDawg* dawg) {
  relational::Table mix{Schema({Field("k", DataType::kInt64),
                                Field("m", DataType::kDouble),
                                Field("t", DataType::kString),
                                Field("u", DataType::kString)})};
  Rng rng(77);
  for (int64_t k = 0; k < 30; ++k) {
    Value m;
    switch (rng.NextBelow(4)) {
      case 0:
        break;  // NULL
      case 1:
        m = Value(rng.NextInt(-3, 6));
        break;
      default:
        m = Value(static_cast<double>(rng.NextInt(-12, 24)) / 4.0);
        break;
    }
    mix.AppendUnchecked({Value(k), m,
                         rng.NextBool(0.15) ? Value::Null()
                                            : Value(kWords[rng.NextBelow(5)]),
                         Value::Null()});
  }
  BIGDAWG_CHECK_OK(dawg->postgres().PutTable("mix", std::move(mix)));
  BIGDAWG_CHECK_OK(dawg->RegisterObject("mix", core::kEnginePostgres, "mix"));
}

class Generator {
 public:
  Generator(uint64_t seed, const From& from) : rng_(seed), from_(from) {}

  std::string Predicate(int depth) {
    const uint64_t pick = rng_.NextBelow(depth > 0 ? 10 : 6);
    switch (pick) {
      case 0:
      case 1:
      case 2:
        return NumericTerm(1) + " " + Comparison() + " " + NumericTerm(1);
      case 3:
        if (from_.strings.empty()) return Column() + " IS NULL";
        return rng_.NextBool(0.5)
                   ? Pick(from_.strings) + " " + Comparison() + " " + StringTerm()
                   : Pick(from_.strings) + " LIKE '" +
                         std::string(rng_.NextBool(0.5) ? "%a" : "b%") + "'";
      case 4:
        return Column() + (rng_.NextBool(0.5) ? " IS NULL" : " IS NOT NULL");
      case 5: {
        static const char* const kConstants[] = {"TRUE", "FALSE", "NULL = 1"};
        return kConstants[rng_.NextBelow(3)];
      }
      case 6:
        return "NOT (" + Predicate(depth - 1) + ")";
      case 7:
        return "(" + Predicate(depth - 1) + ") IS NULL";
      case 8:
        return "(" + Predicate(depth - 1) + " AND " + Predicate(depth - 1) + ")";
      default:
        return "(" + Predicate(depth - 1) + " OR " + Predicate(depth - 1) + ")";
    }
  }

  // A numeric column to aggregate.
  std::string AggregateColumn() {
    return rng_.NextBool(0.5) ? Pick(from_.ints) : Pick(from_.doubles);
  }

 private:
  std::string Pick(const std::vector<const char*>& options) {
    return options[rng_.NextBelow(options.size())];
  }

  std::string Column() {
    const uint64_t kind = rng_.NextBelow(3);
    if (kind == 2 && !from_.strings.empty()) return Pick(from_.strings);
    return kind == 0 ? Pick(from_.ints) : Pick(from_.doubles);
  }

  std::string Comparison() {
    static const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[rng_.NextBelow(6)];
  }

  std::string NumericTerm(int depth) {
    const uint64_t pick = rng_.NextBelow(depth > 0 ? 9 : 5);
    switch (pick) {
      case 0:
      case 1:
        return Pick(from_.ints);
      case 2:
        return Pick(from_.doubles);
      case 3:
        return std::to_string(rng_.NextInt(-2, 8));
      case 4: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(rng_.NextInt(-8, 32)) / 4.0);
        return buf;
      }
      case 5: {
        static const char* const kOps[] = {" + ", " - ", " * "};
        return "(" + NumericTerm(depth - 1) + kOps[rng_.NextBelow(3)] +
               NumericTerm(depth - 1) + ")";
      }
      case 6:
        return "-" + Pick(from_.ints);
      case 7:
        return "abs(" + NumericTerm(depth - 1) + ")";
      default:
        return "coalesce(" + Pick(from_.doubles) + ", " + Pick(from_.ints) + ")";
    }
  }

  std::string StringTerm() {
    if (rng_.NextBool(0.3)) return Pick(from_.strings);
    return std::string("'") + kWords[rng_.NextBelow(5)] + "'";
  }

  Rng rng_;
  const From& from_;
};

// Exact type-tagged rendering, so partitions must reproduce cell types.
std::string Render(const Value& v) {
  char buf[64];
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kBool:
      return v.bool_unchecked() ? "B1" : "B0";
    case DataType::kInt64:
      std::snprintf(buf, sizeof(buf), "I%" PRId64, v.int64_unchecked());
      return buf;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "D%.17g", v.double_unchecked());
      return buf;
    case DataType::kString:
      return "S" + v.string_unchecked();
  }
  return "?";
}

std::vector<std::string> SortedRows(const relational::Table& t) {
  std::vector<std::string> rows;
  for (const Row& row : t.rows()) {
    std::string line;
    for (const Value& v : row) line += Render(v) + ";";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// SQL's SUM of partial sums: NULL partials drop out, all-NULL is NULL.
Value AddPartial(const Value& total, const Value& part) {
  if (part.is_null()) return total;
  if (total.is_null()) return part;
  if (total.type() == DataType::kInt64 && part.type() == DataType::kInt64) {
    return Value(total.int64_unchecked() + part.int64_unchecked());
  }
  return Value(*total.ToNumeric() + *part.ToNumeric());
}

Value Extreme(const Value& best, const Value& part, int sign) {
  if (part.is_null()) return best;
  if (best.is_null() || part.Compare(best) * sign > 0) return part;
  return best;
}

int64_t Int(const relational::Table& t, size_t col) {
  return t.rows()[0][col].int64_unchecked();
}

class MetamorphicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadTables(&dawg_);
    LoadMixedTable(&dawg_);
    relational_ = *dawg_.GetIsland("RELATIONAL");
    myria_ = *dawg_.GetIsland("MYRIA");
  }

  // The oracles; each TEST_F below runs one over this fixture's tables.
  void CheckTernaryLogicPartitioningOfAggregates();
  void CheckTernaryLogicPartitioningOfRows();
  void CheckNoRecCountsMatchProjectedPredicate();

  core::BigDawg dawg_;
  core::Island* relational_ = nullptr;
  core::Island* myria_ = nullptr;
};

// The same oracles over copies of every table born from columns.
class MetamorphicFromColumnsTest : public MetamorphicTest {
 protected:
  void SetUp() override {
    MetamorphicTest::SetUp();
    RebuildFromColumns(&dawg_, {"pt", "rx", "tiny", "empty_t", "mix"});
  }
};

constexpr int kPredicatesPerFrom = 60;
const char* const kPartitions[] = {"(%s)", "NOT (%s)", "(%s) IS NULL"};

std::string Partition(int i, const std::string& p) {
  std::string out = kPartitions[i];
  out.replace(out.find("%s"), 2, p);
  return out;
}

void MetamorphicTest::CheckTernaryLogicPartitioningOfAggregates() {
  int checked = 0;
  for (size_t f = 0; f < Froms().size(); ++f) {
    const From& from = Froms()[f];
    Generator gen(1800 + f, from);
    for (int i = 0; i < kPredicatesPerFrom; ++i) {
      const std::string p = gen.Predicate(3);
      const std::string c = gen.AggregateColumn();
      const std::string base = "SELECT COUNT(*) AS n, COUNT(" + c + ") AS nc, SUM(" + c +
                               ") AS s, MIN(" + c + ") AS lo, MAX(" + c +
                               ") AS hi FROM " + from.from;
      for (core::Island* island : {relational_, myria_}) {
        Result<relational::Table> whole = island->Execute(base);
        if (!whole.ok()) continue;
        int64_t n = 0, nc = 0;
        Value s, lo, hi;
        bool ok = true;
        std::string queries;
        for (int part = 0; part < 3 && ok; ++part) {
          const std::string sql = base + " WHERE " + Partition(part, p);
          queries += "\n  " + sql;
          Result<relational::Table> r = island->Execute(sql);
          if (!r.ok()) {
            ok = false;
            break;
          }
          n += Int(*r, 0);
          nc += Int(*r, 1);
          s = AddPartial(s, r->rows()[0][2]);
          lo = Extreme(lo, r->rows()[0][3], -1);
          hi = Extreme(hi, r->rows()[0][4], 1);
        }
        if (!ok) continue;
        const Row& want = whole->rows()[0];
        EXPECT_TRUE(n == Int(*whole, 0) && nc == Int(*whole, 1) && s == want[2] &&
                    lo == want[3] && hi == want[4])
            << island->name() << " TLP aggregate mismatch for\n  " << base << queries;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 500);
}

void MetamorphicTest::CheckTernaryLogicPartitioningOfRows() {
  int checked = 0;
  for (size_t f = 0; f < Froms().size(); ++f) {
    const From& from = Froms()[f];
    Generator gen(2800 + f, from);
    for (int i = 0; i < kPredicatesPerFrom; ++i) {
      const std::string p = gen.Predicate(3);
      const std::string base = std::string("SELECT ") + from.columns + " FROM " + from.from;
      for (core::Island* island : {relational_, myria_}) {
        Result<relational::Table> whole = island->Execute(base);
        if (!whole.ok()) continue;
        std::vector<std::string> rows;
        bool ok = true;
        for (int part = 0; part < 3 && ok; ++part) {
          Result<relational::Table> r = island->Execute(base + " WHERE " + Partition(part, p));
          ok = r.ok();
          if (!ok) break;
          std::vector<std::string> got = SortedRows(*r);
          rows.insert(rows.end(), got.begin(), got.end());
        }
        if (!ok) continue;
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, SortedRows(*whole))
            << island->name() << " TLP row mismatch for " << base << " WHERE " << p;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 500);
}

void MetamorphicTest::CheckNoRecCountsMatchProjectedPredicate() {
  int checked = 0;
  for (size_t f = 0; f < Froms().size(); ++f) {
    const From& from = Froms()[f];
    Generator gen(3800 + f, from);
    for (int i = 0; i < kPredicatesPerFrom; ++i) {
      const std::string p = gen.Predicate(3);
      // The reference evaluates p once per row, with no filter to
      // optimize: only the RELATIONAL dialect can project an expression.
      const std::string ref_sql = "SELECT (" + p + ") AS v FROM " + std::string(from.from);
      Result<relational::Table> ref = relational_->Execute(ref_sql);
      if (!ref.ok()) continue;
      int64_t want = 0;
      for (const Row& row : ref->rows()) want += relational::IsTrue(row[0]) ? 1 : 0;
      const std::string sql =
          "SELECT COUNT(*) AS n FROM " + std::string(from.from) + " WHERE " + p;
      // MYRIA lowers a join without qualifiers, so its qualified names
      // bind differently and the RELATIONAL reference does not apply.
      const bool join = std::string(from.from).find(" JOIN ") != std::string::npos;
      for (core::Island* island : {relational_, myria_}) {
        if (island == myria_ && join) continue;
        Result<relational::Table> r = island->Execute(sql);
        if (!r.ok()) continue;
        EXPECT_EQ(Int(*r, 0), want) << island->name() << " NoREC mismatch for\n  " << sql
                                    << "\n  " << ref_sql;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 500);
}

TEST_F(MetamorphicTest, TernaryLogicPartitioningOfAggregates) {
  CheckTernaryLogicPartitioningOfAggregates();
}

TEST_F(MetamorphicTest, TernaryLogicPartitioningOfRows) {
  CheckTernaryLogicPartitioningOfRows();
}

TEST_F(MetamorphicTest, NoRecCountsMatchProjectedPredicate) {
  CheckNoRecCountsMatchProjectedPredicate();
}

TEST_F(MetamorphicFromColumnsTest, TernaryLogicPartitioningOfAggregates) {
  CheckTernaryLogicPartitioningOfAggregates();
}

TEST_F(MetamorphicFromColumnsTest, TernaryLogicPartitioningOfRows) {
  CheckTernaryLogicPartitioningOfRows();
}

TEST_F(MetamorphicFromColumnsTest, NoRecCountsMatchProjectedPredicate) {
  CheckNoRecCountsMatchProjectedPredicate();
}

}  // namespace
}  // namespace bigdawg
