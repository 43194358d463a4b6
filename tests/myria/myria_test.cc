#include "myria/myria.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "relational/database.h"
#include "relational/sql_parser.h"

namespace bigdawg::myria {
namespace {

using relational::Database;
using relational::ParseExpression;

class MyriaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BIGDAWG_CHECK_OK(db_.CreateTable(
        "patients", Schema({Field("pid", DataType::kInt64),
                            Field("age", DataType::kInt64)})));
    BIGDAWG_CHECK_OK(db_.InsertMany("patients", {{Value(1), Value(70)},
                                                 {Value(2), Value(45)},
                                                 {Value(3), Value(61)}}));
    BIGDAWG_CHECK_OK(db_.CreateTable(
        "rx", Schema({Field("pid2", DataType::kInt64),
                      Field("drug", DataType::kString)})));
    BIGDAWG_CHECK_OK(db_.InsertMany(
        "rx", {{Value(1), Value("heparin")}, {Value(1), Value("aspirin")},
               {Value(3), Value("statin")}}));
    // Edge list for iteration tests.
    BIGDAWG_CHECK_OK(db_.CreateTable(
        "edges", Schema({Field("src", DataType::kInt64),
                         Field("dst", DataType::kInt64)})));
    BIGDAWG_CHECK_OK(db_.InsertMany("edges", {{Value(1), Value(2)},
                                              {Value(2), Value(3)},
                                              {Value(3), Value(4)}}));

    resolver_ = [this](const std::string& name) -> Result<Table> {
      return db_.GetTable(name);
    };
    catalog_.row_count = [this](const std::string& name) -> Result<size_t> {
      return db_.TableRowCount(name);
    };
    catalog_.schema = [this](const std::string& name) -> Result<Schema> {
      return db_.GetSchema(name);
    };
  }

  Database db_;
  Resolver resolver_;
  CatalogStats catalog_;
};

TEST_F(MyriaTest, ScanSelectProject) {
  PlanPtr plan = Project(
      Select(Scan("patients"), *ParseExpression("age > 50")), {"pid"});
  Table result = *ExecutePlan(*plan, resolver_, nullptr);
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.schema().field(0).name, "pid");
}

TEST_F(MyriaTest, JoinProducesConcatenatedSchema) {
  PlanPtr plan = Join(Scan("patients"), Scan("rx"), "pid", "pid2");
  Table result = *ExecutePlan(*plan, resolver_, nullptr);
  EXPECT_EQ(result.num_rows(), 3u);
  EXPECT_EQ(result.schema().num_fields(), 4u);
}

TEST_F(MyriaTest, AggregateWithGroupBy) {
  PlanPtr plan = Aggregate(
      Join(Scan("patients"), Scan("rx"), "pid", "pid2"), {"pid"},
      {{"count", "", "n"}, {"max", "age", "oldest"}});
  Table result = *ExecutePlan(*plan, resolver_, nullptr);
  ASSERT_EQ(result.num_rows(), 2u);  // patients 1 and 3
  // Patient 1 has two prescriptions.
  bool found = false;
  for (const Row& row : result.rows()) {
    if (row[0] == Value(1)) {
      EXPECT_EQ(row[1], Value(2));
      EXPECT_EQ(row[2], Value(70));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MyriaTest, GlobalAggregateOnEmptyInput) {
  PlanPtr plan = Aggregate(
      Select(Scan("patients"), *ParseExpression("age > 1000")), {},
      {{"count", "", "n"}, {"sum", "age", "total"}});
  Table result = *ExecutePlan(*plan, resolver_, nullptr);
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows()[0][0], Value(0));
  EXPECT_TRUE(result.rows()[0][1].is_null());
}

TEST_F(MyriaTest, IterationRejectsMismatchedStepSchema) {
  // Step output (src, right.dst) does not match init schema (src, dst):
  // the engine must refuse rather than silently union mismatched columns.
  PlanPtr step = Project(Join(Scan("$iter"), Scan("edges"), "dst", "src"),
                         {"src", "right.dst"});
  PlanPtr plan = Iterate(Scan("edges"), step, 10);
  Result<Table> result = ExecutePlan(*plan, resolver_, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(MyriaTest, IterationReachesTransitiveClosureFixpoint) {
  // Multi-hop paths from the edge list 1->2->3->4. Init = 2-hop paths
  // renamed back to (src, dst); step extends by one hop via the edges'
  // dst column, re-aliased so union/fixpoint semantics apply.
  PlanPtr init = Project(Join(Scan("edges"), Scan("edges"), "dst", "src"),
                         {"src", "right.dst"}, {"", "dst"});
  Table init_result = *ExecutePlan(*init, resolver_, nullptr);
  ASSERT_EQ(init_result.schema().field(1).name, "dst");
  EXPECT_EQ(init_result.num_rows(), 2u);  // (1,3), (2,4)

  PlanPtr iter_plan = Iterate(
      init->Clone(),
      Project(Join(Scan("$iter"), Scan("edges"), "dst", "src"),
              {"src", "right.dst"}, {"", "dst"}),
      10);
  ExecStats stats;
  Table closure = *ExecutePlan(*iter_plan, resolver_, &stats);
  // Multi-hop paths: (1,3), (2,4), (1,4). Fixpoint well before 10 iters.
  EXPECT_EQ(closure.num_rows(), 3u);
  EXPECT_GE(stats.iterations, 1);
  EXPECT_LT(stats.iterations, 10);
}

TEST_F(MyriaTest, IterationClosesALongChain) {
  // 0 -> 1 -> ... -> 63: the closure holds every pair i < j, 64*63/2 of
  // them, reached after one iteration per extra hop.
  BIGDAWG_CHECK_OK(db_.CreateTable(
      "chain", Schema({Field("src", DataType::kInt64), Field("dst", DataType::kInt64)})));
  for (int64_t i = 0; i + 1 < 64; ++i) {
    BIGDAWG_CHECK_OK(db_.Insert("chain", {Value(i), Value(i + 1)}));
  }
  PlanPtr plan = Iterate(Scan("chain"),
                         Project(Join(Scan("$iter"), Scan("chain"), "dst", "src"),
                                 {"src", "right.dst"}, {"", "dst"}),
                         100);
  ExecStats stats;
  Table closure = *ExecutePlan(*plan, resolver_, &stats);
  EXPECT_EQ(closure.num_rows(), 2016u);
  for (const Row& row : closure.rows()) {
    EXPECT_LT(row[0].int64_unchecked(), row[1].int64_unchecked());
  }
  EXPECT_LT(stats.iterations, 100);
}

TEST_F(MyriaTest, ExecStatsTracksScannedRows) {
  ExecStats stats;
  PlanPtr plan = Select(Scan("patients"), *ParseExpression("age > 50"));
  BIGDAWG_CHECK_OK(ExecutePlan(*plan, resolver_, &stats).status());
  EXPECT_EQ(stats.rows_scanned, 3);
  EXPECT_GT(stats.intermediate_rows, 0);
}

TEST_F(MyriaTest, PlanSchemaDerivation) {
  PlanPtr plan = Aggregate(
      Join(Scan("patients"), Scan("rx"), "pid", "pid2"), {"drug"},
      {{"avg", "age", "avg_age"}});
  Schema schema = *PlanSchema(*plan, catalog_);
  ASSERT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.field(0).name, "drug");
  EXPECT_EQ(schema.field(1).name, "avg_age");
  EXPECT_EQ(schema.field(1).type, DataType::kDouble);
}

TEST_F(MyriaTest, OptimizerPushesSelectionBelowJoin) {
  PlanPtr plan = Select(Join(Scan("patients"), Scan("rx"), "pid", "pid2"),
                        *ParseExpression("age > 50"));
  PlanPtr optimized = Optimize(plan, catalog_);
  // Root should now be the join (possibly reordered), not the select.
  EXPECT_NE(optimized->kind, OpKind::kSelect);
  Table expected = *ExecutePlan(*plan, resolver_, nullptr);
  Table actual = *ExecutePlan(*optimized, resolver_, nullptr);
  EXPECT_EQ(actual.num_rows(), expected.num_rows());
}

TEST_F(MyriaTest, OptimizerFusesAdjacentSelects) {
  PlanPtr plan = Select(Select(Scan("patients"), *ParseExpression("age > 40")),
                        *ParseExpression("age < 65"));
  PlanPtr optimized = Optimize(plan, catalog_);
  EXPECT_EQ(optimized->kind, OpKind::kSelect);
  EXPECT_EQ(optimized->children[0]->kind, OpKind::kScan);
  Table result = *ExecutePlan(*optimized, resolver_, nullptr);
  EXPECT_EQ(result.num_rows(), 2u);  // 45 and 61
}

TEST_F(MyriaTest, OptimizedPlansProduceIdenticalResults) {
  PlanPtr plan = Aggregate(
      Select(Join(Scan("patients"), Scan("rx"), "pid", "pid2"),
             *ParseExpression("age >= 45")),
      {"drug"}, {{"count", "", "n"}});
  PlanPtr optimized = Optimize(plan, catalog_);
  Table a = *ExecutePlan(*plan, resolver_, nullptr);
  Table b = *ExecutePlan(*optimized, resolver_, nullptr);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  // Same multiset of rows.
  for (const Row& row : a.rows()) {
    bool found = false;
    for (const Row& other : b.rows()) {
      if (row == other) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(MyriaTest, ErrorsSurface) {
  PlanPtr plan = Scan("missing");
  EXPECT_TRUE(ExecutePlan(*plan, resolver_, nullptr).status().IsNotFound());
  plan = Select(Scan("patients"), *ParseExpression("ghost > 1"));
  EXPECT_TRUE(ExecutePlan(*plan, resolver_, nullptr).status().IsNotFound());
  plan = Aggregate(Scan("patients"), {}, {{"median", "age", ""}});
  EXPECT_TRUE(ExecutePlan(*plan, resolver_, nullptr).status().IsInvalidArgument());
}

}  // namespace
}  // namespace bigdawg::myria
