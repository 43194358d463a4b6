#ifndef BIGDAWG_RELATIONAL_PLAN_H_
#define BIGDAWG_RELATIONAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/expression.h"
#include "relational/sql_ast.h"
#include "relational/table.h"

namespace bigdawg::relational {

/// \brief Supplies base relations to a plan by name.
using PlanResolver = std::function<Result<Table>(const std::string&)>;

/// \brief Node kinds of the one relational algebra every SQL dialect
/// lowers to: the standard operators extended with iteration (the
/// paper's "relational algebra extended with iteration").
enum class OpKind : int {
  kScan,
  kSelect,
  kProject,
  kJoin,
  kAggregate,
  kIterate,
  kSort,
  kDistinct,
  kLimit,
};

/// \brief One output column of a kAggregate node.
struct AggItem {
  /// count | sum | avg | min | max (any case); "" makes a plain item:
  /// `arg` evaluated on the group's first row (NULL for an empty group).
  std::string func;
  ExprPtr arg;       // null only for COUNT(*)
  std::string name;  // "" = the input column's name, or the arg's text

  AggItem Clone() const;
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// \brief A logical plan node. Fields are used according to `kind`.
struct PlanNode {
  OpKind kind = OpKind::kScan;

  // kScan. A non-empty `qualifier` names every output field
  // "qualifier.field".
  std::string relation;
  std::string qualifier;

  // kSelect: keeps the rows where `predicate` is TRUE. kJoin: optional
  // residual predicate over the joined row.
  ExprPtr predicate;

  // kProject: one output column per expression. `names`, when non-empty,
  // parallels `exprs`; "" derives the name as AggItem::name does.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kJoin: inner join of children[0] x children[1]. Output fields are
  // left ++ right, a right field whose name clashes prefixed "right.".
  // Hash join on (left_column, right_column) when given, else on an
  // equi-key conjunct of `predicate`; nested loop otherwise.
  std::string left_column;
  std::string right_column;

  // kAggregate: one output row per distinct `group_by` key, in order of
  // first appearance; one row over empty input when `group_by` is empty.
  std::vector<std::string> group_by;
  std::vector<AggItem> aggregates;

  // kSort: stable sort on keys bound against the input.
  std::vector<OrderItem> order_by;

  // kLimit: keeps the first `limit` rows.
  int64_t limit = -1;

  // kIterate: result = fixpoint of children[1] applied to children[0].
  // Inside the step, relation "$iter" is the previous result (union
  // semantics: rows deduplicated on all columns).
  int64_t max_iterations = 100;

  std::vector<PlanPtr> children;

  /// Deep copy (expressions cloned).
  PlanPtr Clone() const;
};

/// Plan builders.
PlanPtr Scan(std::string relation, std::string qualifier = "");
PlanPtr Select(PlanPtr child, ExprPtr predicate);
PlanPtr ProjectExprs(PlanPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names);
PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr predicate);
PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggItem> aggregates);
PlanPtr Sort(PlanPtr child, std::vector<OrderItem> order_by);
PlanPtr Distinct(PlanPtr child);
PlanPtr Limit(PlanPtr child, int64_t limit);
PlanPtr Iterate(PlanPtr init, PlanPtr step, int64_t max_iterations);

/// \brief Counters filled during execution.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t intermediate_rows = 0;  // rows flowing out of every operator
  int64_t iterations = 0;
  /// Rows built as Row objects: by Project, Aggregate, Iterate and the
  /// plan's output. Scan, Select, Join, Sort, Distinct and Limit pass row
  /// ids over shared blocks and build none.
  int64_t rows_materialized = 0;
};

/// \brief Executes a plan against the resolver. `stats` may be null.
Result<Table> ExecutePlan(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats);

/// \brief Catalog metadata for planning: base-relation row counts and
/// schemas (`row_count` may be unset where only schemas are needed).
struct CatalogStats {
  std::function<Result<size_t>(const std::string&)> row_count;
  std::function<Result<Schema>(const std::string&)> schema;
};

/// \brief Output schema of a plan, derived from catalog schemas. Equal to
/// the schema ExecutePlan returns whenever execution succeeds.
Result<Schema> PlanSchema(const PlanNode& plan, const CatalogStats& catalog);

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_PLAN_H_
