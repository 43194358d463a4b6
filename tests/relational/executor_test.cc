#include "relational/executor.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "relational/database.h"

namespace bigdawg::relational {
namespace {

// Shared fixture: a tiny clinical database.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BIGDAWG_CHECK_OK(db_.CreateTable(
        "patients", Schema({Field("patient_id", DataType::kInt64),
                            Field("name", DataType::kString),
                            Field("age", DataType::kInt64),
                            Field("race", DataType::kString)})));
    BIGDAWG_CHECK_OK(db_.InsertMany(
        "patients",
        {{Value(1), Value("ann"), Value(70), Value("white")},
         {Value(2), Value("bob"), Value(45), Value("black")},
         {Value(3), Value("cal"), Value(61), Value("asian")},
         {Value(4), Value("dee"), Value(33), Value("white")},
         {Value(5), Value("eve"), Value(58), Value("black")}}));

    BIGDAWG_CHECK_OK(db_.CreateTable(
        "prescriptions", Schema({Field("rx_id", DataType::kInt64),
                                 Field("patient_id", DataType::kInt64),
                                 Field("drug", DataType::kString),
                                 Field("dose", DataType::kDouble)})));
    BIGDAWG_CHECK_OK(db_.InsertMany(
        "prescriptions",
        {{Value(100), Value(1), Value("heparin"), Value(5.0)},
         {Value(101), Value(1), Value("aspirin"), Value(1.0)},
         {Value(102), Value(2), Value("heparin"), Value(4.0)},
         {Value(103), Value(3), Value("statin"), Value(2.0)},
         {Value(104), Value(9), Value("orphan"), Value(1.0)}}));
  }

  Table Run(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
    return result.ok() ? *result : Table();
  }

  Database db_;
};

TEST_F(ExecutorTest, SelectStarPreservesEverything) {
  Table t = Run("SELECT * FROM patients");
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.schema().num_fields(), 4u);
  EXPECT_EQ(t.schema().field(0).name, "patient_id");
}

TEST_F(ExecutorTest, WhereFilters) {
  Table t = Run("SELECT name FROM patients WHERE age > 50");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(*t.At(0, "name"), Value("ann"));
}

TEST_F(ExecutorTest, ProjectionWithExpressionsAndAliases) {
  Table t = Run("SELECT name, age * 2 AS dbl FROM patients WHERE patient_id = 1");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.schema().field(1).name, "dbl");
  EXPECT_EQ(*t.At(0, "dbl"), Value(140));
}

TEST_F(ExecutorTest, OrderByMultipleKeys) {
  Table t = Run("SELECT name, race, age FROM patients ORDER BY race, age DESC");
  ASSERT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(*t.At(0, "race"), Value("asian"));
  EXPECT_EQ(*t.At(1, "race"), Value("black"));
  EXPECT_EQ(*t.At(1, "name"), Value("eve"));  // 58 before 45 (DESC)
  EXPECT_EQ(*t.At(2, "name"), Value("bob"));
}

TEST_F(ExecutorTest, OrderByExpressionNotInSelectList) {
  Table t = Run("SELECT name FROM patients ORDER BY age");
  EXPECT_EQ(*t.At(0, "name"), Value("dee"));  // youngest first
  EXPECT_EQ(*t.At(4, "name"), Value("ann"));
}

TEST_F(ExecutorTest, Limit) {
  Table t = Run("SELECT name FROM patients ORDER BY age LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(*t.At(1, "name"), Value("bob"));
}

TEST_F(ExecutorTest, Distinct) {
  Table t = Run("SELECT DISTINCT race FROM patients ORDER BY race");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(*t.At(0, "race"), Value("asian"));
  EXPECT_EQ(*t.At(2, "race"), Value("white"));
}

TEST_F(ExecutorTest, GlobalAggregates) {
  Table t = Run("SELECT COUNT(*), AVG(age), MIN(age), MAX(age), SUM(age) FROM patients");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], Value(5));
  EXPECT_EQ(t.rows()[0][1], Value(53.4));
  EXPECT_EQ(t.rows()[0][2], Value(33));
  EXPECT_EQ(t.rows()[0][3], Value(70));
  EXPECT_EQ(t.rows()[0][4], Value(267));
}

TEST_F(ExecutorTest, GlobalAggregateOverEmptyInput) {
  Table t = Run("SELECT COUNT(*), SUM(age) FROM patients WHERE age > 1000");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], Value(0));
  EXPECT_TRUE(t.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  Table t = Run(
      "SELECT race, COUNT(*) AS n, AVG(age) AS avg_age FROM patients "
      "GROUP BY race HAVING n >= 2 ORDER BY race");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(*t.At(0, "race"), Value("black"));
  EXPECT_EQ(*t.At(0, "n"), Value(2));
  EXPECT_EQ(*t.At(0, "avg_age"), Value(51.5));
  EXPECT_EQ(*t.At(1, "race"), Value("white"));
}

TEST_F(ExecutorTest, AggregatesSkipNulls) {
  BIGDAWG_CHECK_OK(db_.CreateTable(
      "vitals", Schema({Field("id", DataType::kInt64), Field("hr", DataType::kDouble)})));
  BIGDAWG_CHECK_OK(db_.InsertMany(
      "vitals", {{Value(1), Value(60.0)}, {Value(2), Value::Null()},
                 {Value(3), Value(80.0)}}));
  Table t = Run("SELECT COUNT(hr) AS c, AVG(hr) AS a, COUNT(*) AS all_rows FROM vitals");
  EXPECT_EQ(*t.At(0, "c"), Value(2));
  EXPECT_EQ(*t.At(0, "a"), Value(70.0));
  EXPECT_EQ(*t.At(0, "all_rows"), Value(3));
}

TEST_F(ExecutorTest, HashJoinOnEquiKey) {
  Table t = Run(
      "SELECT p.name, r.drug FROM patients p JOIN prescriptions r "
      "ON p.patient_id = r.patient_id ORDER BY p.name, r.drug");
  ASSERT_EQ(t.num_rows(), 4u);  // rx for patient 9 has no match
  EXPECT_EQ(*t.At(0, "name"), Value("ann"));
  EXPECT_EQ(*t.At(0, "drug"), Value("aspirin"));
  EXPECT_EQ(*t.At(3, "name"), Value("cal"));
}

TEST_F(ExecutorTest, JoinWithResidualPredicate) {
  Table t = Run(
      "SELECT p.name FROM patients p JOIN prescriptions r "
      "ON p.patient_id = r.patient_id AND r.dose > 3 ORDER BY p.name");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(*t.At(0, "name"), Value("ann"));
  EXPECT_EQ(*t.At(1, "name"), Value("bob"));
}

TEST_F(ExecutorTest, NonEquiJoinFallsBackToNestedLoop) {
  Table t = Run(
      "SELECT p.name FROM patients p JOIN prescriptions r "
      "ON p.patient_id < r.rx_id - 99 WHERE r.drug = 'statin' ORDER BY p.name");
  // rx_id 103 - 99 = 4 -> patients 1..3 match.
  ASSERT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, JoinAggregation) {
  Table t = Run(
      "SELECT r.drug, COUNT(*) AS n FROM patients p JOIN prescriptions r "
      "ON p.patient_id = r.patient_id GROUP BY r.drug ORDER BY r.drug");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(*t.At(1, "drug"), Value("heparin"));
  EXPECT_EQ(*t.At(1, "n"), Value(2));
}

TEST_F(ExecutorTest, LikePredicate) {
  Table t = Run("SELECT name FROM patients WHERE name LIKE '%e%' ORDER BY name");
  ASSERT_EQ(t.num_rows(), 2u);  // dee, eve
  EXPECT_EQ(*t.At(0, "name"), Value("dee"));
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(db_.ExecuteSql("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(db_.ExecuteSql("SELECT missing FROM patients").status().IsNotFound());
  EXPECT_TRUE(
      db_.ExecuteSql("SELECT name FROM patients HAVING name = 'x'").status()
          .IsInvalidArgument());
  EXPECT_TRUE(db_.ExecuteSql("SELECT * FROM patients GROUP BY race").status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, DuplicateOutputNamesDisambiguated) {
  Table t = Run("SELECT age, age FROM patients LIMIT 1");
  EXPECT_EQ(t.schema().field(0).name, "age");
  EXPECT_EQ(t.schema().field(1).name, "age_2");
}

TEST_F(ExecutorTest, DistinctKeepsFirstOccurrenceUnderValueEquality) {
  BIGDAWG_CHECK_OK(db_.CreateTable(
      "mix", Schema({Field("x", DataType::kInt64), Field("y", DataType::kDouble)})));
  BIGDAWG_CHECK_OK(db_.InsertMany(
      "mix", {{Value(3), Value::Null()}, {Value::Null(), Value(3.0)},
              {Value::Null(), Value::Null()}, {Value::Null(), Value::Null()},
              {Value(4), Value(9.0)}, {Value(3), Value(1.0)}}));
  // 3 and 3.0 are one value; NULLs are one value; the first occurrence
  // (and its type) is kept, in input order.
  Table t = Run("SELECT DISTINCT coalesce(x, y) AS v FROM mix");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.rows()[0][0].type(), DataType::kInt64);
  EXPECT_EQ(t.rows()[0][0], Value(3));
  EXPECT_TRUE(t.rows()[1][0].is_null());
  EXPECT_EQ(t.rows()[2][0], Value(4));

  Table pairs = Run("SELECT DISTINCT x, y FROM mix");
  EXPECT_EQ(pairs.num_rows(), 5u);  // only the (NULL, NULL) repeat collapses
}

}  // namespace
}  // namespace bigdawg::relational
