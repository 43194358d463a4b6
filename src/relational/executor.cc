#include "relational/executor.h"

#include <algorithm>
#include <map>

#include "common/macros.h"

namespace bigdawg::relational {

namespace {

// Display name for an output column: unqualified tail of a column name.
std::string Unqualify(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

// Claims `name` among `taken`, disambiguating repeats with _2, _3, ...
std::string UniqueName(const std::string& name, std::vector<std::string>* taken) {
  std::string candidate = name;
  for (int suffix = 2;
       std::find(taken->begin(), taken->end(), candidate) != taken->end(); ++suffix) {
    candidate = name + "_" + std::to_string(suffix);
  }
  taken->push_back(candidate);
  return candidate;
}

// SQL's name for a non-star SELECT item: its alias, else a column's
// unqualified name, an aggregate's func_arg ("count_all" for COUNT(*)),
// or an expression's text.
std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.agg != AggregateFunc::kNone) {
    return std::string(AggregateFuncToString(item.agg)) +
           (item.count_star ? "_all" : "_" + Unqualify(item.expr->ToString()));
  }
  const auto* col = dynamic_cast<const ColumnExpr*>(item.expr.get());
  return col != nullptr ? Unqualify(col->name()) : item.expr->ToString();
}

std::vector<OrderItem> CloneOrder(const std::vector<OrderItem>& order_by) {
  std::vector<OrderItem> out;
  for (const OrderItem& item : order_by) out.push_back(item.Clone());
  return out;
}

// Whether every ORDER BY key binds against `schema`.
bool OrderBindsAgainst(const std::vector<OrderItem>& order_by, const Schema& schema) {
  for (const OrderItem& item : order_by) {
    if (!item.expr->Clone()->Bind(schema).ok()) return false;
  }
  return true;
}

}  // namespace

Result<PlanPtr> LowerSelect(const SelectStatement& stmt, const CatalogStats& catalog) {
  // FROM / JOIN: with joins, every field is qualified by its table's alias
  // (or name), so only a repeated alias can make two fields clash.
  const bool qualify = !stmt.joins.empty();
  PlanPtr plan = Scan(stmt.from.name, qualify ? stmt.from.effective_name() : "");
  for (const JoinClause& join : stmt.joins) {
    PlanPtr right = Scan(join.table.name, join.table.effective_name());
    BIGDAWG_ASSIGN_OR_RETURN(Schema left_schema, PlanSchema(*plan, catalog));
    BIGDAWG_ASSIGN_OR_RETURN(Schema right_schema, PlanSchema(*right, catalog));
    for (const Field& f : right_schema.fields()) {
      if (left_schema.Contains(f.name)) {
        return Status::InvalidArgument("duplicate qualified column in join: " + f.name +
                                       " (alias the table to disambiguate)");
      }
    }
    plan = Join(std::move(plan), std::move(right), join.on->Clone());
  }
  if (stmt.where != nullptr) plan = Select(std::move(plan), stmt.where->Clone());

  std::vector<std::string> taken;
  if (stmt.HasAggregates()) {
    // Non-aggregate items are evaluated on each group's first row.
    std::vector<AggItem> items;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * cannot be combined with GROUP BY");
      }
      items.push_back(AggItem{
          item.agg == AggregateFunc::kNone ? "" : AggregateFuncToString(item.agg),
          item.expr ? item.expr->Clone() : nullptr, UniqueName(ItemName(item), &taken)});
    }
    plan = Aggregate(std::move(plan), stmt.group_by, std::move(items));
    // HAVING binds against the aggregate output.
    if (stmt.having != nullptr) plan = Select(std::move(plan), stmt.having->Clone());
    if (stmt.distinct) plan = Distinct(std::move(plan));
    if (!stmt.order_by.empty()) plan = Sort(std::move(plan), CloneOrder(stmt.order_by));
  } else {
    if (stmt.having != nullptr) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      if (!item.is_star) {
        exprs.push_back(item.expr->Clone());
        names.push_back(UniqueName(ItemName(item), &taken));
        continue;
      }
      BIGDAWG_ASSIGN_OR_RETURN(Schema input, PlanSchema(*plan, catalog));
      for (const Field& f : input.fields()) {
        exprs.push_back(Col(f.name));
        names.push_back(UniqueName(Unqualify(f.name), &taken));
      }
    }
    // ORDER BY keys name output columns when they all bind there;
    // otherwise they sort the input before projection.
    PlanPtr project = ProjectExprs(std::move(plan), std::move(exprs), std::move(names));
    bool sort_output = !stmt.order_by.empty();
    if (sort_output) {
      Result<Schema> output = PlanSchema(*project, catalog);
      if (output.ok() && !OrderBindsAgainst(stmt.order_by, *output)) {
        if (stmt.distinct) {
          return Status::InvalidArgument(
              "ORDER BY expressions must appear in the SELECT list when "
              "DISTINCT is used");
        }
        project->children[0] = Sort(project->children[0], CloneOrder(stmt.order_by));
        sort_output = false;
      }
    }
    plan = std::move(project);
    if (stmt.distinct) plan = Distinct(std::move(plan));
    if (sort_output) plan = Sort(std::move(plan), CloneOrder(stmt.order_by));
  }
  if (stmt.limit >= 0) plan = Limit(std::move(plan), stmt.limit);
  return plan;
}

Result<Table> ExecuteSelect(const SelectStatement& stmt, const TableResolver& resolver) {
  // Each relation is resolved once; lowering reads its schema and
  // execution its rows from the same snapshot.
  std::map<std::string, Table> resolved;
  PlanResolver fetch = [&resolved, &resolver](const std::string& name) -> Result<Table> {
    auto it = resolved.find(name);
    if (it == resolved.end()) {
      BIGDAWG_ASSIGN_OR_RETURN(const Table* table, resolver(name));
      it = resolved.emplace(name, *table).first;
    }
    return it->second;
  };
  CatalogStats catalog;
  catalog.schema = [&fetch](const std::string& name) -> Result<Schema> {
    BIGDAWG_ASSIGN_OR_RETURN(Table table, fetch(name));
    return table.schema();
  };
  BIGDAWG_ASSIGN_OR_RETURN(PlanPtr plan, LowerSelect(stmt, catalog));
  return ExecutePlan(*plan, fetch, nullptr);
}

// ---------------------------------------------------------------------------
// Distributive aggregates (sharded scatter-gather pushdown)
// ---------------------------------------------------------------------------

bool IsDistributiveAggregate(const SelectStatement& stmt) {
  if (!stmt.HasAggregates()) return false;
  if (stmt.distinct || !stmt.joins.empty() || !stmt.group_by.empty() ||
      stmt.having != nullptr || !stmt.order_by.empty() || stmt.limit >= 0) {
    return false;
  }
  for (const SelectItem& item : stmt.items) {
    if (item.is_star || item.agg == AggregateFunc::kNone) return false;
  }
  return true;
}

Result<SelectStatement> BuildPartialAggregateSelect(
    const SelectStatement& stmt, const std::string& fragment_table) {
  if (!IsDistributiveAggregate(stmt)) {
    return Status::InvalidArgument(
        "not a distributive scalar aggregate; cannot build a partial query");
  }
  SelectStatement partial;
  partial.from.name = fragment_table;
  // Keep the original alias so qualified column references in WHERE and
  // aggregate arguments bind against the fragment exactly as they did
  // against the whole table.
  partial.from.alias = stmt.from.alias;
  if (stmt.where != nullptr) partial.where = stmt.where->Clone();
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    SelectItem p;
    p.agg = item.agg == AggregateFunc::kAvg ? AggregateFunc::kSum : item.agg;
    p.count_star = item.count_star;
    if (item.expr != nullptr) p.expr = item.expr->Clone();
    p.alias = "p" + std::to_string(i);
    partial.items.push_back(std::move(p));
    if (item.agg == AggregateFunc::kAvg) {
      // AVG is not distributive itself; SUM and COUNT partials are.
      SelectItem c;
      c.agg = AggregateFunc::kCount;
      c.expr = item.expr->Clone();
      c.alias = "p" + std::to_string(i) + "_c";
      partial.items.push_back(std::move(c));
    }
  }
  return partial;
}

Result<Table> CombinePartialAggregates(const SelectStatement& stmt,
                                       const std::vector<Table>& partials) {
  if (!IsDistributiveAggregate(stmt)) {
    return Status::InvalidArgument("not a distributive scalar aggregate");
  }
  if (partials.empty()) return Status::InvalidArgument("no partial results");
  for (const Table& p : partials) {
    if (p.num_rows() != 1) {
      return Status::Internal("aggregate partial must have exactly one row");
    }
  }
  // An Aggregate over the stacked partial rows: COUNTs and SUMs add (a
  // SUM stays NULL when every shard saw only NULLs), MIN/MAX compare, and
  // AVG divides its summed SUM and COUNT partials. The final projection
  // names each column exactly as ExecuteSelect does.
  constexpr char kPartials[] = "$partials";
  std::vector<AggItem> combine;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  std::vector<std::string> taken;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    const std::string p = "p" + std::to_string(i);
    const bool min_max =
        item.agg == AggregateFunc::kMin || item.agg == AggregateFunc::kMax;
    combine.push_back(
        AggItem{min_max ? AggregateFuncToString(item.agg) : "sum", Col(p), p});
    ExprPtr out = Col(p);
    if (item.agg == AggregateFunc::kAvg) {
      combine.push_back(AggItem{"sum", Col(p + "_c"), p + "_c"});
      out = Bin(BinaryOp::kDiv, std::move(out), Col(p + "_c"));
    }
    exprs.push_back(std::move(out));
    names.push_back(UniqueName(ItemName(item), &taken));
  }
  PlanPtr plan = ProjectExprs(Aggregate(Scan(kPartials), {}, std::move(combine)),
                              std::move(exprs), std::move(names));
  std::vector<Row> rows;
  for (const Table& p : partials) rows.push_back(p.rows()[0]);
  Table stacked(partials[0].schema(), std::move(rows));
  return ExecutePlan(*plan,
                     [&stacked](const std::string&) -> Result<Table> { return stacked; },
                     nullptr);
}

}  // namespace bigdawg::relational
