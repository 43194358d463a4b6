// The batch executor's contracts beyond answer equality (which the golden
// corpus and the metamorphic oracles pin): which operators build rows,
// which share blocks, typed and mixed slices, int64 overflow, and which
// error a failing query reports.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/macros.h"
#include "relational/database.h"
#include "relational/executor.h"
#include "relational/plan.h"
#include "relational/sql_parser.h"

namespace bigdawg::relational {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// labs/patients in the analytic workload's shape.
class BatchExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table patients{Schema({Field("patient_id", DataType::kInt64),
                           Field("age", DataType::kInt64),
                           Field("sex", DataType::kString)})};
    for (int64_t p = 0; p < 20; ++p) {
      patients.AppendUnchecked({Value(p), Value(20 + 3 * p), Value(p % 3 ? "F" : "M")});
    }
    Table labs{Schema({Field("lab_id", DataType::kInt64),
                       Field("patient_id", DataType::kInt64),
                       Field("test", DataType::kString),
                       Field("value", DataType::kDouble)})};
    for (int64_t i = 0; i < 200; ++i) {
      labs.AppendUnchecked({Value(i), Value((i * 7) % 23), Value(i % 2 ? "wbc" : "sodium"),
                            Value(static_cast<double>(i % 50) + 0.5)});
    }
    BIGDAWG_CHECK_OK(db_.PutTable("patients", std::move(patients)));
    BIGDAWG_CHECK_OK(db_.PutTable("labs", std::move(labs)));
    resolver_ = [this](const std::string& name) { return db_.GetTable(name); };
    catalog_.schema = [this](const std::string& name) { return db_.GetSchema(name); };
  }

  // Lowers and runs `sql`, filling `stats`.
  Result<Table> Run(const std::string& sql, ExecStats* stats) {
    BIGDAWG_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
    BIGDAWG_ASSIGN_OR_RETURN(PlanPtr plan,
                             LowerSelect(std::get<SelectStatement>(stmt), catalog_));
    return ExecutePlan(*plan, resolver_, stats);
  }

  Database db_;
  PlanResolver resolver_;
  CatalogStats catalog_;
};

TEST_F(BatchExecutorTest, JoinFilterGroupByMaterializesOnlyItsOutputRows) {
  ExecStats stats;
  Result<Table> t = Run(
      "SELECT sex, COUNT(*) AS n, SUM(value) AS s FROM labs l JOIN patients p "
      "ON l.patient_id = p.patient_id WHERE age >= 35 GROUP BY sex",
      &stats);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(stats.rows_materialized, 2);
  // The join and the filter still count their rows as before.
  EXPECT_EQ(stats.rows_scanned, 220);
  EXPECT_GT(stats.intermediate_rows, 200);
}

TEST_F(BatchExecutorTest, PointLookupMaterializesOneRow) {
  ExecStats stats;
  Result<Table> t = Run("SELECT * FROM labs WHERE lab_id = 77", &stats);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->rows()[0][0], Value(77));
  EXPECT_EQ(stats.rows_materialized, 1);
}

TEST_F(BatchExecutorTest, AliasedScanSharesItsInputBlock) {
  const Table labs = *db_.GetTable("labs");
  ExecStats stats;
  Result<Table> t = ExecutePlan(*Scan("labs", "l"), resolver_, &stats);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->SharesStorageWith(labs));
  EXPECT_EQ(t->schema().field(0).name, "l.lab_id");
  EXPECT_EQ(labs.schema().field(0).name, "lab_id");
  EXPECT_EQ(stats.rows_materialized, 0);

  // SELECT * over a whole table is the table itself.
  Result<Table> star = Run("SELECT * FROM labs", &stats);
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(star->SharesStorageWith(labs));
  EXPECT_EQ(stats.rows_materialized, 0);
}

TEST_F(BatchExecutorTest, RenamedHandleThawsIntoItsOwnSchema) {
  const Table labs = *db_.GetTable("labs");
  Table renamed = *ExecutePlan(*Scan("labs", "l"), resolver_, nullptr);
  renamed.AppendUnchecked({Value(999), Value(1), Value("wbc"), Value(1.0)});
  EXPECT_FALSE(renamed.SharesStorageWith(labs));
  EXPECT_EQ(renamed.schema().field(1).name, "l.patient_id");
  EXPECT_EQ(renamed.num_rows(), 201u);
  EXPECT_EQ(labs.num_rows(), 200u);
  EXPECT_EQ((*renamed.Column("l.lab_id")).Int64At(200), 999);
}

TEST(ColumnSliceTest, TypedAndMixedKinds) {
  Table t{Schema({Field("i", DataType::kInt64), Field("d", DataType::kDouble),
                  Field("s", DataType::kString), Field("m", DataType::kDouble)})};
  t.AppendUnchecked({Value(1), Value(1.5), Value("x"), Value(3)});
  t.AppendUnchecked({Value::Null(), Value(2.5), Value("y"), Value(3.0)});
  t.AppendUnchecked({Value(3), Value::Null(), Value("x"), Value::Null()});
  EXPECT_EQ(t.ColumnAt(0).kind(), common::SliceKind::kInt64);
  EXPECT_EQ(t.ColumnAt(1).kind(), common::SliceKind::kDouble);
  EXPECT_EQ(t.ColumnAt(2).kind(), common::SliceKind::kString);
  EXPECT_EQ(t.ColumnAt(3).kind(), common::SliceKind::kMixed);
  EXPECT_EQ(t.ColumnAt(2).slice()->dict.size(), 2u);
  EXPECT_EQ(t.ColumnAt(2)[2], Value("x"));
  EXPECT_TRUE(t.ColumnAt(0)[1].is_null());
  EXPECT_EQ(t.ColumnAt(3)[0].type(), DataType::kInt64);
  EXPECT_EQ(*t.ColumnAt(3).NumericAt(1), 3.0);
  EXPECT_EQ(t.ColumnAt(0).byte_size(), 8 + 1 + 8);
}

TEST(MixedColumnTest, IntegralDoublesGroupAndJoinWithInts) {
  Database db;
  Table m{Schema({Field("k", DataType::kInt64), Field("m", DataType::kDouble)})};
  m.AppendUnchecked({Value(1), Value(3)});
  m.AppendUnchecked({Value(2), Value(3.0)});
  m.AppendUnchecked({Value(3), Value(0.5)});
  m.AppendUnchecked({Value(4), Value::Null()});
  BIGDAWG_CHECK_OK(db.PutTable("m", std::move(m)));
  Table g = *db.ExecuteSql("SELECT m, COUNT(*) AS n, SUM(m) AS s FROM m GROUP BY m");
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.rows()[0][0].type(), DataType::kInt64);  // the first of 3 and 3.0
  EXPECT_EQ(g.rows()[0][1], Value(2));
  EXPECT_EQ(g.rows()[0][2].type(), DataType::kDouble);  // one double makes SUM double
  Table j = *db.ExecuteSql("SELECT a.k, b.k FROM m a JOIN m b ON a.k = b.m");
  ASSERT_EQ(j.num_rows(), 2u);  // k = 3 matches m = 3 and m = 3.0
  EXPECT_EQ(j.rows()[0][1], Value(1));
  EXPECT_EQ(j.rows()[1][1], Value(2));
  EXPECT_EQ(db.ExecuteSql("SELECT k FROM m WHERE m = 3")->num_rows(), 2u);
}

// NULL rows of a dictionary-coded string column carry code 0, which
// indexes nothing when every row is NULL and the dictionary is empty.
TEST(AllNullStringTest, KernelsNeverIndexTheEmptyDictionary) {
  Database db;
  BIGDAWG_CHECK_OK(db.CreateTable(
      "t", Schema({Field("k", DataType::kInt64), Field("s", DataType::kString)})));
  BIGDAWG_CHECK_OK(db.Insert("t", {Value(1), Value::Null()}));
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t WHERE s = 'x'")->num_rows(), 0u);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t WHERE 'x' <> s")->num_rows(), 0u);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t WHERE s LIKE 'a%'")->num_rows(), 0u);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t WHERE s < s")->num_rows(), 0u);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM t WHERE s IS NULL")->num_rows(), 1u);
  Table t = *db.ExecuteSql("SELECT s FROM t");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.rows()[0][0].is_null());
  Table g = *db.ExecuteSql("SELECT s, COUNT(*) AS n, MIN(s) AS lo FROM t GROUP BY s");
  ASSERT_EQ(g.num_rows(), 1u);
  EXPECT_TRUE(g.rows()[0][0].is_null());
  EXPECT_TRUE(g.rows()[0][2].is_null());
  EXPECT_EQ(db.ExecuteSql("SELECT a.k FROM t a JOIN t b ON a.s = b.s")->num_rows(), 0u);
}

// Int64 equi-join keys over a small right range index a direct table;
// it must agree with Value equality at the range's edges and beyond.
TEST(DenseJoinTest, DirectTableAgreesWithValueEquality) {
  Database db;
  BIGDAWG_CHECK_OK(db.CreateTable(
      "r", Schema({Field("k", DataType::kInt64), Field("tag", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(db.InsertMany("r", {{Value(-2), Value(0)},
                                       {Value(0), Value(1)},
                                       {Value(-2), Value(2)},
                                       {Value::Null(), Value(3)},
                                       {Value(1), Value(4)}}));
  BIGDAWG_CHECK_OK(db.CreateTable(
      "l", Schema({Field("k", DataType::kInt64), Field("id", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(db.InsertMany("l", {{Value(kMin), Value(0)},
                                       {Value(-2), Value(1)},
                                       {Value::Null(), Value(2)},
                                       {Value(1), Value(3)},
                                       {Value(kMax), Value(4)},
                                       {Value(5), Value(5)},
                                       {Value(0), Value(6)}}));
  Table j = *db.ExecuteSql("SELECT l.id, r.tag FROM l JOIN r ON l.k = r.k");
  ASSERT_EQ(j.num_rows(), 4u);
  const int64_t want[4][2] = {{1, 0}, {1, 2}, {3, 4}, {6, 1}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(j.rows()[i][0], Value(want[i][0]));
    EXPECT_EQ(j.rows()[i][1], Value(want[i][1]));
  }
  // 2^53 and 2^53 + 1 are one double, so Value equality joins both.
  constexpr int64_t kExact = int64_t{1} << 53;
  BIGDAWG_CHECK_OK(db.CreateTable(
      "r2", Schema({Field("k", DataType::kInt64), Field("tag", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(
      db.InsertMany("r2", {{Value(kExact), Value(0)}, {Value(kExact + 1), Value(1)}}));
  BIGDAWG_CHECK_OK(db.CreateTable("l2", Schema({Field("k", DataType::kInt64)})));
  BIGDAWG_CHECK_OK(db.Insert("l2", {Value(kExact + 1)}));
  EXPECT_EQ(db.ExecuteSql("SELECT l2.k FROM l2 JOIN r2 ON l2.k = r2.k")->num_rows(), 2u);
}

class OverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BIGDAWG_CHECK_OK(db_.CreateTable("t", Schema({Field("v", DataType::kInt64)})));
    BIGDAWG_CHECK_OK(db_.InsertMany("t", {{Value(kMin)}, {Value(kMax)}}));
  }
  Status Error(const std::string& sql) { return db_.ExecuteSql(sql).status(); }

  Database db_;
};

TEST_F(OverflowTest, ModuloByMinusOneIsZero) {
  Table t = *db_.ExecuteSql("SELECT v % -1 AS r FROM t");
  EXPECT_EQ(t.rows()[0][0], Value(0));
  EXPECT_EQ(t.rows()[1][0], Value(0));
}

TEST_F(OverflowTest, ArithmeticReportsOutOfRange) {
  EXPECT_TRUE(Error("SELECT v + 1 AS r FROM t").IsOutOfRange());
  EXPECT_TRUE(Error("SELECT v - 1 AS r FROM t").IsOutOfRange());
  EXPECT_TRUE(Error("SELECT v * 2 AS r FROM t").IsOutOfRange());
  EXPECT_TRUE(Error("SELECT -v AS r FROM t").IsOutOfRange());
  EXPECT_TRUE(Error("SELECT v FROM t WHERE v + v > 0").IsOutOfRange());
  EXPECT_TRUE(Error("SELECT abs(v) AS r FROM t").IsOutOfRange());
  // Literals alone take the same path.
  EXPECT_TRUE(Error("SELECT v FROM t WHERE 9223372036854775807 + 1 > 0").IsOutOfRange());
  // In range stays exact.
  Table t = *db_.ExecuteSql("SELECT v + 0 AS a, -(v + 1) AS b FROM t WHERE v < 0");
  EXPECT_EQ(t.rows()[0][0], Value(kMin));
  EXPECT_EQ(t.rows()[0][1], Value(kMax));
}

TEST_F(OverflowTest, SumChecksOnlyTheFinalTotal) {
  // kMin + kMax = -1: the running total leaves int64 range only if it is
  // accumulated in int64.
  Table t = *db_.ExecuteSql("SELECT SUM(v) AS s FROM t");
  EXPECT_EQ(t.rows()[0][0], Value(-1));
  BIGDAWG_CHECK_OK(db_.Insert("t", {Value(kMax)}));
  BIGDAWG_CHECK_OK(db_.Insert("t", {Value(kMax)}));
  EXPECT_TRUE(Error("SELECT SUM(v) AS s FROM t").IsOutOfRange());
  // AVG adds doubles and does not overflow.
  EXPECT_TRUE(db_.ExecuteSql("SELECT AVG(v) AS a FROM t").ok());
}

TEST(OverflowEvalTest, RowEvalSharesTheCheckedHelper) {
  Schema schema({Field("v", DataType::kInt64)});
  auto eval = [&schema](const std::string& text, int64_t v) {
    ExprPtr e = *ParseExpression(text);
    BIGDAWG_CHECK_OK(e->Bind(schema));
    return e->Eval({Value(v)});
  };
  EXPECT_EQ(*eval("v % -1", kMin), Value(0));
  EXPECT_TRUE(eval("v + 1", kMax).status().IsOutOfRange());
  EXPECT_TRUE(eval("v - 1", kMin).status().IsOutOfRange());
  EXPECT_TRUE(eval("v * 2", kMax).status().IsOutOfRange());
  EXPECT_TRUE(eval("-v", kMin).status().IsOutOfRange());
  EXPECT_EQ(*eval("v * -1", kMax), Value(-kMax));
}

// The error a query reports is the one a row-at-a-time evaluation meets
// first: row 0's right conjunct (TypeError) precedes row 1's left one
// (division by zero), and AND/OR never evaluate their right side where
// the left decides.
TEST(ErrorOrderTest, FirstErrorInRowOrderWins) {
  Database db;
  BIGDAWG_CHECK_OK(db.CreateTable(
      "t", Schema({Field("d", DataType::kDouble), Field("s", DataType::kString)})));
  BIGDAWG_CHECK_OK(db.InsertMany("t", {{Value(1.0), Value("a")}, {Value(0.0), Value("b")}}));
  EXPECT_TRUE(db.ExecuteSql("SELECT d FROM t WHERE 1 / d > 0 AND s > 1").status().IsTypeError());
  EXPECT_TRUE(
      db.ExecuteSql("SELECT d FROM t WHERE 1 / d > 5 AND s > 1").status().IsInvalidArgument());
  EXPECT_EQ(db.ExecuteSql("SELECT d FROM t WHERE d = 0 OR 1 / d > 0")->num_rows(), 2u);
  EXPECT_EQ(db.ExecuteSql("SELECT d FROM t WHERE d <> 0 AND 1 / d > 0")->num_rows(), 1u);
  // Projection: row 0's second item precedes row 1's first.
  EXPECT_TRUE(db.ExecuteSql("SELECT 1 / d AS q, s + 1 AS r FROM t").status().IsTypeError());
  // Aggregate arguments in the same order.
  EXPECT_TRUE(
      db.ExecuteSql("SELECT SUM(1 / d) AS q, MAX(s + 1) AS r FROM t").status().IsTypeError());
}

}  // namespace
}  // namespace bigdawg::relational
