#ifndef BIGDAWG_MYRIA_MYRIA_H_
#define BIGDAWG_MYRIA_MYRIA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/plan.h"
#include "relational/sql_ast.h"

namespace bigdawg::myria {

using relational::CatalogStats;
using relational::ExecStats;
using relational::ExecutePlan;
using relational::Expr;
using relational::ExprPtr;
using relational::Iterate;
using relational::OpKind;
using relational::PlanNode;
using relational::PlanPtr;
using relational::PlanSchema;
using relational::Scan;
using relational::Select;
using relational::Table;

/// \brief Supplies base relations to a Myria plan by name. The polystore
/// wires this to shims over Postgres- and SciDB-class engines.
using Resolver = relational::PlanResolver;

/// \brief Aggregate spec for Myria's Aggregate builder.
struct MyriaAgg {
  std::string func;    // count | sum | avg | min | max
  std::string column;  // aggregated column ("" for count)
  std::string alias;   // output name ("" = lower-case func_column)
};

/// Myria's plan builders over the shared relational algebra (plan.h),
/// which also provides Scan, Select and Iterate. Project keeps the named
/// columns, each renamed by the parallel alias ("" keeps the input name);
/// Join is an equi-join on one column per side; Aggregate outputs the
/// group columns, then one column per aggregate.
PlanPtr Project(PlanPtr child, std::vector<std::string> columns,
                std::vector<std::string> aliases = {});
PlanPtr Join(PlanPtr left, PlanPtr right, std::string left_column,
             std::string right_column);
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<MyriaAgg> aggregates);

/// \brief Lowers a SELECT in the MYRIA dialect. The dialect has no ORDER
/// BY, LIMIT, DISTINCT or table aliases; joins name one column per side
/// (`ON patient_id = patient_id`), and a right-side column whose name
/// clashes is "right.<name>"; aggregates and projections take plain
/// columns, and an aggregate query outputs its GROUP BY columns first.
/// NotImplemented outside the dialect.
Result<PlanPtr> LowerSelect(const relational::SelectStatement& stmt);

/// \brief Estimated output cardinality of a plan.
size_t EstimateRows(const PlanNode& plan, const CatalogStats& catalog);

/// \brief Myria's rule-based optimizer:
///  1. selection pushdown through joins (predicates referencing one side),
///  2. join input ordering: the smaller estimated input becomes the hash
///     build side (join outputs keep left-then-right column order, so
///     swapped joins are re-projected to the original order),
///  3. adjacent selection fusion (AND).
PlanPtr Optimize(const PlanPtr& plan, const CatalogStats& catalog);

}  // namespace bigdawg::myria

#endif  // BIGDAWG_MYRIA_MYRIA_H_
