#include "myria/myria.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace bigdawg::myria {

PlanPtr Project(PlanPtr child, std::vector<std::string> columns,
                std::vector<std::string> aliases) {
  std::vector<ExprPtr> exprs;
  for (std::string& c : columns) exprs.push_back(relational::Col(std::move(c)));
  return relational::ProjectExprs(std::move(child), std::move(exprs), std::move(aliases));
}

PlanPtr Join(PlanPtr left, PlanPtr right, std::string left_column,
             std::string right_column) {
  PlanPtr n = relational::Join(std::move(left), std::move(right), nullptr);
  n->left_column = std::move(left_column);
  n->right_column = std::move(right_column);
  return n;
}

PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<MyriaAgg> aggregates) {
  std::vector<relational::AggItem> items;
  for (const std::string& g : group_by) items.push_back({"", relational::Col(g), ""});
  for (const MyriaAgg& a : aggregates) {
    const std::string func = ToLower(a.func);
    ExprPtr arg =
        func == "count" && a.column.empty() ? nullptr : relational::Col(a.column);
    items.push_back(
        {func, std::move(arg), a.alias.empty() ? func + "_" + a.column : a.alias});
  }
  return relational::Aggregate(std::move(child), std::move(group_by), std::move(items));
}

// ---------------------------------------------------------------------------
// The MYRIA SQL dialect
// ---------------------------------------------------------------------------

namespace {

// Extracts (left column, right column) from an equi-join condition.
Result<std::pair<std::string, std::string>> EquiColumns(const Expr& on) {
  const auto* bin = dynamic_cast<const relational::BinaryExpr*>(&on);
  if (bin == nullptr || bin->op() != relational::BinaryOp::kEq) {
    return Status::NotImplemented(
        "MYRIA island joins require a simple equality condition");
  }
  const auto* l = dynamic_cast<const relational::ColumnExpr*>(&bin->left());
  const auto* r = dynamic_cast<const relational::ColumnExpr*>(&bin->right());
  if (l == nullptr || r == nullptr) {
    return Status::NotImplemented(
        "MYRIA island joins require column = column conditions");
  }
  return std::make_pair(l->name(), r->name());
}

}  // namespace

Result<PlanPtr> LowerSelect(const relational::SelectStatement& stmt) {
  if (!stmt.order_by.empty() || stmt.limit >= 0 || stmt.distinct) {
    return Status::NotImplemented("MYRIA island subset: no ORDER BY / LIMIT / DISTINCT");
  }
  bool aliased = !stmt.from.alias.empty();
  for (const relational::JoinClause& join : stmt.joins) {
    aliased |= !join.table.alias.empty();
  }
  if (aliased) return Status::NotImplemented("MYRIA island subset: no table aliases");

  PlanPtr plan = Scan(stmt.from.name);
  for (const relational::JoinClause& join : stmt.joins) {
    BIGDAWG_ASSIGN_OR_RETURN(auto cols, EquiColumns(*join.on));
    plan = Join(std::move(plan), Scan(join.table.name), cols.first, cols.second);
  }
  if (stmt.where != nullptr) plan = Select(std::move(plan), stmt.where->Clone());
  if (stmt.HasAggregates()) {
    std::vector<MyriaAgg> aggs;
    for (const relational::SelectItem& item : stmt.items) {
      if (item.agg == relational::AggregateFunc::kNone) continue;
      MyriaAgg agg{relational::AggregateFuncToString(item.agg), "", item.alias};
      if (!item.count_star) {
        const auto* col = dynamic_cast<const relational::ColumnExpr*>(item.expr.get());
        if (col == nullptr) {
          return Status::NotImplemented("MYRIA island aggregates take plain columns");
        }
        agg.column = col->name();
      }
      aggs.push_back(std::move(agg));
    }
    return Aggregate(std::move(plan), stmt.group_by, std::move(aggs));
  }
  bool star = false;
  std::vector<std::string> columns;
  std::vector<std::string> aliases;
  for (const relational::SelectItem& item : stmt.items) {
    if (item.is_star) {
      star = true;
      continue;
    }
    const auto* col = dynamic_cast<const relational::ColumnExpr*>(item.expr.get());
    if (col == nullptr) {
      return Status::NotImplemented("MYRIA island projections take plain columns (or *)");
    }
    columns.push_back(col->name());
    aliases.push_back(item.alias);
  }
  if (star || columns.empty()) return plan;
  return Project(std::move(plan), std::move(columns), std::move(aliases));
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

size_t EstimateRows(const PlanNode& plan, const CatalogStats& catalog) {
  switch (plan.kind) {
    case OpKind::kScan: {
      Result<size_t> n = catalog.row_count(plan.relation);
      return n.ok() ? *n : 1000;
    }
    case OpKind::kSelect:
      return std::max<size_t>(1, EstimateRows(*plan.children[0], catalog) / 3);
    case OpKind::kProject:
    case OpKind::kSort:
    case OpKind::kDistinct:
    case OpKind::kLimit:
      return EstimateRows(*plan.children[0], catalog);
    case OpKind::kJoin: {
      size_t l = EstimateRows(*plan.children[0], catalog);
      size_t r = EstimateRows(*plan.children[1], catalog);
      return std::max<size_t>(1, std::min(l, r));
    }
    case OpKind::kAggregate:
      return std::max<size_t>(1, EstimateRows(*plan.children[0], catalog) / 10);
    case OpKind::kIterate:
      return EstimateRows(*plan.children[0], catalog) * 2;
  }
  return 1000;
}

namespace {

// Whether every column the predicate mentions resolves in `schema`.
bool ResolvesAgainst(const Expr& predicate, const Schema& schema) {
  ExprPtr probe = predicate.Clone();
  return probe->Bind(schema).ok();
}

PlanPtr OptimizeNode(PlanPtr plan, const CatalogStats& catalog);

// Rule 1: Select over Join -> push to the side that can bind it.
PlanPtr PushDownSelect(PlanPtr select_node, const CatalogStats& catalog) {
  PlanPtr join = select_node->children[0];
  Result<Schema> left_schema = PlanSchema(*join->children[0], catalog);
  Result<Schema> right_schema = PlanSchema(*join->children[1], catalog);
  if (left_schema.ok() && ResolvesAgainst(*select_node->predicate, *left_schema)) {
    join->children[0] =
        Select(join->children[0], select_node->predicate->Clone());
    return join;
  }
  if (right_schema.ok() && ResolvesAgainst(*select_node->predicate, *right_schema)) {
    join->children[1] =
        Select(join->children[1], select_node->predicate->Clone());
    return join;
  }
  return select_node;
}

// Rule 2: make the smaller input the hash build (right) side when the two
// sides share no column names (so reprojection restores the output order).
PlanPtr ReorderJoin(PlanPtr join, const CatalogStats& catalog) {
  size_t left_rows = EstimateRows(*join->children[0], catalog);
  size_t right_rows = EstimateRows(*join->children[1], catalog);
  if (right_rows <= left_rows) return join;
  Result<Schema> ls = PlanSchema(*join->children[0], catalog);
  Result<Schema> rs = PlanSchema(*join->children[1], catalog);
  if (!ls.ok() || !rs.ok()) return join;
  for (const Field& f : ls->fields()) {
    if (rs->Contains(f.name)) return join;  // clash: skip the rewrite
  }
  // Swapped join + projection back to the original column order.
  PlanPtr swapped = Join(join->children[1], join->children[0],
                         join->right_column, join->left_column);
  if (join->predicate != nullptr) swapped->predicate = join->predicate->Clone();
  std::vector<std::string> original_order;
  for (const Field& f : ls->fields()) original_order.push_back(f.name);
  for (const Field& f : rs->fields()) original_order.push_back(f.name);
  return Project(std::move(swapped), std::move(original_order));
}

PlanPtr OptimizeNode(PlanPtr plan, const CatalogStats& catalog) {
  // Optimize children first.
  for (PlanPtr& child : plan->children) child = OptimizeNode(child, catalog);

  // Rule 3: fuse adjacent selects.
  if (plan->kind == OpKind::kSelect &&
      plan->children[0]->kind == OpKind::kSelect) {
    PlanPtr inner = plan->children[0];
    ExprPtr fused = relational::Bin(relational::BinaryOp::kAnd,
                                    plan->predicate->Clone(),
                                    inner->predicate->Clone());
    return OptimizeNode(Select(inner->children[0], std::move(fused)), catalog);
  }

  if (plan->kind == OpKind::kSelect &&
      plan->children[0]->kind == OpKind::kJoin) {
    PlanPtr pushed = PushDownSelect(plan, catalog);
    if (pushed != plan) return OptimizeNode(pushed, catalog);
  }

  if (plan->kind == OpKind::kJoin) {
    return ReorderJoin(plan, catalog);
  }
  return plan;
}

}  // namespace

PlanPtr Optimize(const PlanPtr& plan, const CatalogStats& catalog) {
  return OptimizeNode(plan->Clone(), catalog);
}

}  // namespace bigdawg::myria
