#include "relational/plan.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace bigdawg::relational {

namespace {

constexpr char kIterRelation[] = "$iter";

PlanPtr Node(OpKind kind, std::vector<PlanPtr> children) {
  auto n = std::make_shared<PlanNode>();
  n->kind = kind;
  n->children = std::move(children);
  return n;
}

}  // namespace

AggItem AggItem::Clone() const {
  return AggItem{func, arg ? arg->Clone() : nullptr, name};
}

PlanPtr PlanNode::Clone() const {
  auto out = std::make_shared<PlanNode>();
  out->kind = kind;
  out->relation = relation;
  out->qualifier = qualifier;
  out->predicate = predicate ? predicate->Clone() : nullptr;
  for (const ExprPtr& e : exprs) out->exprs.push_back(e->Clone());
  out->names = names;
  out->left_column = left_column;
  out->right_column = right_column;
  out->group_by = group_by;
  for (const AggItem& a : aggregates) out->aggregates.push_back(a.Clone());
  for (const OrderItem& o : order_by) out->order_by.push_back(o.Clone());
  out->limit = limit;
  out->max_iterations = max_iterations;
  for (const PlanPtr& c : children) out->children.push_back(c->Clone());
  return out;
}

PlanPtr Scan(std::string relation, std::string qualifier) {
  PlanPtr n = Node(OpKind::kScan, {});
  n->relation = std::move(relation);
  n->qualifier = std::move(qualifier);
  return n;
}

PlanPtr Select(PlanPtr child, ExprPtr predicate) {
  PlanPtr n = Node(OpKind::kSelect, {std::move(child)});
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr ProjectExprs(PlanPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names) {
  PlanPtr n = Node(OpKind::kProject, {std::move(child)});
  n->exprs = std::move(exprs);
  n->names = std::move(names);
  return n;
}

PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr predicate) {
  PlanPtr n = Node(OpKind::kJoin, {std::move(left), std::move(right)});
  n->predicate = std::move(predicate);
  return n;
}

PlanPtr Aggregate(PlanPtr child, std::vector<std::string> group_by,
                  std::vector<AggItem> aggregates) {
  PlanPtr n = Node(OpKind::kAggregate, {std::move(child)});
  n->group_by = std::move(group_by);
  n->aggregates = std::move(aggregates);
  return n;
}

PlanPtr Sort(PlanPtr child, std::vector<OrderItem> order_by) {
  PlanPtr n = Node(OpKind::kSort, {std::move(child)});
  n->order_by = std::move(order_by);
  return n;
}

PlanPtr Distinct(PlanPtr child) { return Node(OpKind::kDistinct, {std::move(child)}); }

PlanPtr Limit(PlanPtr child, int64_t limit) {
  PlanPtr n = Node(OpKind::kLimit, {std::move(child)});
  n->limit = limit;
  return n;
}

PlanPtr Iterate(PlanPtr init, PlanPtr step, int64_t max_iterations) {
  PlanPtr n = Node(OpKind::kIterate, {std::move(init), std::move(step)});
  n->max_iterations = max_iterations;
  return n;
}

// ---------------------------------------------------------------------------
// Output schemas. Execution and PlanSchema derive every node's schema
// through these, so the two agree by construction.
// ---------------------------------------------------------------------------

namespace {

Schema QualifiedSchema(const Schema& schema, const std::string& qualifier) {
  if (qualifier.empty()) return schema;
  std::vector<Field> fields;
  fields.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    fields.emplace_back(qualifier + "." + f.name, f.type);
  }
  return Schema(std::move(fields));
}

Schema JoinSchema(const Schema& left, const Schema& right) {
  return left.Concat(right, "right");
}

// Name of an unnamed output column: a plain column keeps its input
// field's name, any other expression is named by its text.
std::string DerivedName(const Expr& bound, const Schema& input) {
  const auto* col = dynamic_cast<const ColumnExpr*>(&bound);
  return col != nullptr ? input.field(col->index()).name : bound.ToString();
}

// The one aggregate naming and typing rule, for an item whose argument
// `arg` is bound against `input` (null for COUNT(*)): COUNT is int64, AVG
// double, SUM int64 over int64 and double otherwise; MIN, MAX and plain
// items keep the argument's type. An unnamed item takes DerivedName.
Field AggregateField(AggregateFunc func, const std::string& name, const Expr* arg,
                     const Schema& input) {
  if (arg == nullptr) return Field(name, DataType::kInt64);
  DataType type = arg->output_type();
  if (func == AggregateFunc::kCount) type = DataType::kInt64;
  if (func == AggregateFunc::kAvg) type = DataType::kDouble;
  if (func == AggregateFunc::kSum && type != DataType::kInt64) type = DataType::kDouble;
  return Field(name.empty() ? DerivedName(*arg, input) : name, type);
}

struct BoundProject {
  std::vector<ExprPtr> exprs;
  Schema schema;
};

Result<BoundProject> BindProject(const PlanNode& node, const Schema& input) {
  if (!node.names.empty() && node.names.size() != node.exprs.size()) {
    return Status::InvalidArgument("project names must parallel its expressions");
  }
  BoundProject out;
  std::vector<Field> fields;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    ExprPtr e = node.exprs[i]->Clone();
    BIGDAWG_RETURN_NOT_OK(e->Bind(input));
    const std::string name = node.names.empty() ? "" : node.names[i];
    fields.emplace_back(name.empty() ? DerivedName(*e, input) : name, e->output_type());
    out.exprs.push_back(std::move(e));
  }
  out.schema = Schema(std::move(fields));
  return out;
}

struct BoundAggregate {
  std::vector<size_t> keys;
  std::vector<AggregateFunc> funcs;
  std::vector<ExprPtr> args;  // null for COUNT(*)
  Schema schema;
};

Result<BoundAggregate> BindAggregate(const PlanNode& node, const Schema& input) {
  BoundAggregate out;
  for (const std::string& g : node.group_by) {
    BIGDAWG_ASSIGN_OR_RETURN(size_t idx, input.Resolve(g));
    out.keys.push_back(idx);
  }
  std::vector<Field> fields;
  for (const AggItem& item : node.aggregates) {
    ExprPtr arg;
    if (item.arg != nullptr) {
      arg = item.arg->Clone();
      BIGDAWG_RETURN_NOT_OK(arg->Bind(input));
    }
    BIGDAWG_ASSIGN_OR_RETURN(AggregateFunc func, AggregateFuncFromString(item.func));
    if (arg == nullptr && func != AggregateFunc::kCount) {
      return Status::InvalidArgument("only COUNT may omit its argument");
    }
    fields.push_back(AggregateField(func, item.name, arg.get(), input));
    out.funcs.push_back(func);
    out.args.push_back(std::move(arg));
  }
  out.schema = Schema(std::move(fields));
  return out;
}

}  // namespace

Result<Schema> PlanSchema(const PlanNode& plan, const CatalogStats& catalog) {
  switch (plan.kind) {
    case OpKind::kScan: {
      BIGDAWG_ASSIGN_OR_RETURN(Schema base, catalog.schema(plan.relation));
      return QualifiedSchema(base, plan.qualifier);
    }
    case OpKind::kSelect:
    case OpKind::kIterate:
    case OpKind::kSort:
    case OpKind::kDistinct:
    case OpKind::kLimit:
      return PlanSchema(*plan.children[0], catalog);
    case OpKind::kProject: {
      BIGDAWG_ASSIGN_OR_RETURN(Schema child, PlanSchema(*plan.children[0], catalog));
      BIGDAWG_ASSIGN_OR_RETURN(BoundProject bound, BindProject(plan, child));
      return std::move(bound.schema);
    }
    case OpKind::kJoin: {
      BIGDAWG_ASSIGN_OR_RETURN(Schema left, PlanSchema(*plan.children[0], catalog));
      BIGDAWG_ASSIGN_OR_RETURN(Schema right, PlanSchema(*plan.children[1], catalog));
      return JoinSchema(left, right);
    }
    case OpKind::kAggregate: {
      BIGDAWG_ASSIGN_OR_RETURN(Schema child, PlanSchema(*plan.children[0], catalog));
      BIGDAWG_ASSIGN_OR_RETURN(BoundAggregate bound, BindAggregate(plan, child));
      return std::move(bound.schema);
    }
  }
  return Status::Internal("unhandled plan kind");
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

namespace {

using RowSet = std::unordered_set<Row, RowHash>;

// The one Distinct: appends each row not yet in `seen`, so the first
// occurrence wins. Rows compare with Value ==, under which 3 and 3.0 are
// equal (and hash alike).
void AppendUnseen(const std::vector<Row>& rows, RowSet* seen, Table* out) {
  for (const Row& row : rows) {
    if (seen->insert(row).second) out->AppendUnchecked(row);
  }
}

// The rows of `t`, moved out when this handle is their only owner.
std::vector<Row> TakeRows(Table* t) {
  if (t->UniquelyOwned()) return std::move(t->mutable_rows());
  return t->rows();
}

Result<Table> ExecuteSelectNode(const PlanNode& node, const Table& input) {
  ExprPtr pred = node.predicate->Clone();
  BIGDAWG_RETURN_NOT_OK(pred->Bind(input.schema()));
  std::vector<Row> out;
  for (const Row& row : input.rows()) {
    BIGDAWG_ASSIGN_OR_RETURN(Value v, pred->Eval(row));
    if (IsTrue(v)) out.push_back(row);
  }
  return Table(input.schema(), std::move(out));
}

Result<Table> ExecuteProject(const PlanNode& node, const Table& input) {
  BIGDAWG_ASSIGN_OR_RETURN(BoundProject bound, BindProject(node, input.schema()));
  std::vector<Row> out;
  out.reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    Row projected;
    projected.reserve(bound.exprs.size());
    for (const ExprPtr& e : bound.exprs) {
      BIGDAWG_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return Table(std::move(bound.schema), std::move(out));
}

struct EquiKey {
  size_t left_index;
  size_t right_index;
};

// One `left.col = right.col` conjunct of `on` usable as a hash-join key.
std::optional<EquiKey> FindEquiKey(const Expr& on, const Schema& left,
                                   const Schema& right) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(&on, &conjuncts);
  for (const Expr* c : conjuncts) {
    const auto* bin = dynamic_cast<const BinaryExpr*>(c);
    if (bin == nullptr || bin->op() != BinaryOp::kEq) continue;
    const auto* lcol = dynamic_cast<const ColumnExpr*>(&bin->left());
    const auto* rcol = dynamic_cast<const ColumnExpr*>(&bin->right());
    if (lcol == nullptr || rcol == nullptr) continue;
    Result<size_t> ll = left.Resolve(lcol->name());
    Result<size_t> rr = right.Resolve(rcol->name());
    if (ll.ok() && rr.ok()) return EquiKey{*ll, *rr};
    Result<size_t> lr = left.Resolve(rcol->name());
    Result<size_t> rl = right.Resolve(lcol->name());
    if (lr.ok() && rl.ok()) return EquiKey{*lr, *rl};
  }
  return std::nullopt;
}

Result<Table> ExecuteJoin(const PlanNode& node, const Table& left, const Table& right) {
  Schema combined = JoinSchema(left.schema(), right.schema());
  ExprPtr residual;
  if (node.predicate != nullptr) {
    residual = node.predicate->Clone();
    BIGDAWG_RETURN_NOT_OK(residual->Bind(combined));
  }
  std::optional<EquiKey> key;
  if (!node.left_column.empty()) {
    BIGDAWG_ASSIGN_OR_RETURN(size_t li, left.schema().Resolve(node.left_column));
    BIGDAWG_ASSIGN_OR_RETURN(size_t ri, right.schema().Resolve(node.right_column));
    key = EquiKey{li, ri};
  } else if (node.predicate != nullptr) {
    key = FindEquiKey(*node.predicate, left.schema(), right.schema());
  }

  std::vector<Row> out;
  auto emit = [&](const Row& l, const Row& r) -> Status {
    Row joined;
    joined.reserve(l.size() + r.size());
    joined.insert(joined.end(), l.begin(), l.end());
    joined.insert(joined.end(), r.begin(), r.end());
    if (residual != nullptr) {
      BIGDAWG_ASSIGN_OR_RETURN(Value v, residual->Eval(joined));
      if (!IsTrue(v)) return Status::OK();
    }
    out.push_back(std::move(joined));
    return Status::OK();
  };

  if (key.has_value()) {
    // Hash join, built on the right input. NULL never equi-matches.
    std::unordered_map<Value, std::vector<const Row*>, ValueHash> hash_table;
    hash_table.reserve(right.num_rows());
    for (const Row& r : right.rows()) {
      if (!r[key->right_index].is_null()) hash_table[r[key->right_index]].push_back(&r);
    }
    for (const Row& l : left.rows()) {
      const Value& v = l[key->left_index];
      if (v.is_null()) continue;
      auto it = hash_table.find(v);
      if (it == hash_table.end()) continue;
      for (const Row* r : it->second) BIGDAWG_RETURN_NOT_OK(emit(l, *r));
    }
  } else {
    for (const Row& l : left.rows()) {
      for (const Row& r : right.rows()) BIGDAWG_RETURN_NOT_OK(emit(l, r));
    }
  }
  return Table(std::move(combined), std::move(out));
}

struct AggState {
  int64_t count = 0;
  double sum = 0;
  int64_t isum = 0;
  bool all_int = true;
  Value min;
  Value max;

  void Update(const Value& v) {
    if (v.is_null()) return;
    if (v.type() == DataType::kInt64) {
      isum += v.int64_unchecked();
      sum += static_cast<double>(v.int64_unchecked());
    } else {
      all_int = false;
      if (v.type() == DataType::kDouble) sum += v.double_unchecked();
    }
    if (count == 0 || v.Compare(min) < 0) min = v;
    if (count == 0 || v.Compare(max) > 0) max = v;
    ++count;
  }

  Value Finalize(AggregateFunc func) const {
    switch (func) {
      case AggregateFunc::kCount:
        return Value(count);
      case AggregateFunc::kSum:
        if (count == 0) return Value::Null();
        return all_int ? Value(isum) : Value(sum);
      case AggregateFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value(sum / static_cast<double>(count));
      case AggregateFunc::kMin:
        return min;
      case AggregateFunc::kMax:
        return max;
      case AggregateFunc::kNone:
        break;
    }
    return Value::Null();
  }
};

// The one group-aggregate loop.
Result<Table> ExecuteAggregate(const PlanNode& node, const Table& input) {
  BIGDAWG_ASSIGN_OR_RETURN(BoundAggregate bound, BindAggregate(node, input.schema()));
  const size_t num_items = bound.funcs.size();
  struct Group {
    const Row* first = nullptr;  // representative row for plain items
    int64_t size = 0;
    std::vector<AggState> states;
  };
  std::vector<Group> groups;
  std::unordered_map<Row, size_t, RowHash> index;
  const std::vector<Row>& rows = input.rows();
  Row key;
  for (const Row& row : rows) {
    size_t g = 0;
    if (!bound.keys.empty()) {
      key.clear();
      for (size_t idx : bound.keys) key.push_back(row[idx]);
      auto it = index.find(key);
      if (it == index.end()) it = index.emplace(key, groups.size()).first;
      g = it->second;
    }
    if (g == groups.size()) {
      groups.push_back(Group{&row, 0, std::vector<AggState>(num_items)});
    }
    Group& group = groups[g];
    ++group.size;
    for (size_t i = 0; i < num_items; ++i) {
      if (bound.funcs[i] == AggregateFunc::kNone || bound.args[i] == nullptr) continue;
      BIGDAWG_ASSIGN_OR_RETURN(Value v, bound.args[i]->Eval(row));
      group.states[i].Update(v);
    }
  }
  // A global aggregate over empty input still yields one row.
  if (bound.keys.empty() && groups.empty()) {
    groups.push_back(Group{nullptr, 0, std::vector<AggState>(num_items)});
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  for (const Group& group : groups) {
    Row result;
    result.reserve(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (bound.funcs[i] == AggregateFunc::kNone) {
        if (group.first == nullptr) {
          result.push_back(Value::Null());
        } else {
          BIGDAWG_ASSIGN_OR_RETURN(Value v, bound.args[i]->Eval(*group.first));
          result.push_back(std::move(v));
        }
      } else if (bound.args[i] == nullptr) {
        result.push_back(Value(group.size));  // COUNT(*)
      } else {
        result.push_back(group.states[i].Finalize(bound.funcs[i]));
      }
    }
    out.push_back(std::move(result));
  }
  return Table(std::move(bound.schema), std::move(out));
}

Result<Table> ExecuteSort(const PlanNode& node, Table input) {
  std::vector<ExprPtr> keys;
  for (const OrderItem& item : node.order_by) {
    ExprPtr k = item.expr->Clone();
    BIGDAWG_RETURN_NOT_OK(k->Bind(input.schema()));
    keys.push_back(std::move(k));
  }
  // Keys are evaluated once per row, not once per comparison.
  std::vector<std::pair<Row, Row>> keyed;  // (keys, row)
  std::vector<Row> rows = TakeRows(&input);
  keyed.reserve(rows.size());
  for (Row& row : rows) {
    Row kv;
    kv.reserve(keys.size());
    for (const ExprPtr& k : keys) {
      BIGDAWG_ASSIGN_OR_RETURN(Value v, k->Eval(row));
      kv.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(kv), std::move(row));
  }
  std::stable_sort(keyed.begin(), keyed.end(), [&node](const auto& a, const auto& b) {
    for (size_t i = 0; i < node.order_by.size(); ++i) {
      int c = a.first[i].Compare(b.first[i]);
      if (node.order_by[i].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  rows.clear();
  for (auto& kv : keyed) rows.push_back(std::move(kv.second));
  return Table(input.schema(), std::move(rows));
}

Result<Table> ExecuteNode(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats);

Result<Table> ExecuteIterate(const PlanNode& node, const PlanResolver& resolver,
                             ExecStats* stats) {
  BIGDAWG_ASSIGN_OR_RETURN(Table init, ExecuteNode(*node.children[0], resolver, stats));
  Table current(init.schema());
  RowSet seen;
  AppendUnseen(init.rows(), &seen, &current);
  // "$iter" refers to the current result.
  PlanResolver overlay = [&current, &resolver](const std::string& name) -> Result<Table> {
    if (name == kIterRelation) return current;
    return resolver(name);
  };
  for (int64_t iter = 0; iter < node.max_iterations; ++iter) {
    if (stats != nullptr) ++stats->iterations;
    BIGDAWG_ASSIGN_OR_RETURN(Table step, ExecuteNode(*node.children[1], overlay, stats));
    if (!(step.schema() == current.schema())) {
      return Status::InvalidArgument(
          "iterate step schema [" + step.schema().ToString() +
          "] differs from init schema [" + current.schema().ToString() + "]");
    }
    const size_t before = current.num_rows();
    AppendUnseen(step.rows(), &seen, &current);
    if (current.num_rows() == before) break;  // fixpoint
  }
  return current;
}

Result<Table> ExecuteOperator(const PlanNode& plan, const PlanResolver& resolver,
                              ExecStats* stats) {
  if (plan.kind == OpKind::kIterate) return ExecuteIterate(plan, resolver, stats);
  if (plan.kind == OpKind::kScan) {
    BIGDAWG_ASSIGN_OR_RETURN(Table t, resolver(plan.relation));
    if (stats != nullptr) stats->rows_scanned += static_cast<int64_t>(t.num_rows());
    if (plan.qualifier.empty()) return t;
    return Table(QualifiedSchema(t.schema(), plan.qualifier), t.rows());
  }
  std::vector<Table> in;
  for (const PlanPtr& child : plan.children) {
    BIGDAWG_ASSIGN_OR_RETURN(Table t, ExecuteNode(*child, resolver, stats));
    in.push_back(std::move(t));
  }
  switch (plan.kind) {
    case OpKind::kSelect:
      return ExecuteSelectNode(plan, in[0]);
    case OpKind::kProject:
      return ExecuteProject(plan, in[0]);
    case OpKind::kJoin:
      return ExecuteJoin(plan, in[0], in[1]);
    case OpKind::kAggregate:
      return ExecuteAggregate(plan, in[0]);
    case OpKind::kSort:
      return ExecuteSort(plan, std::move(in[0]));
    case OpKind::kDistinct: {
      Table out(in[0].schema());
      RowSet seen;
      AppendUnseen(in[0].rows(), &seen, &out);
      return out;
    }
    case OpKind::kLimit: {
      if (plan.limit < 0 || in[0].num_rows() <= static_cast<size_t>(plan.limit)) {
        return std::move(in[0]);
      }
      std::vector<Row> rows = TakeRows(&in[0]);
      rows.resize(static_cast<size_t>(plan.limit));
      return Table(in[0].schema(), std::move(rows));
    }
    case OpKind::kScan:
    case OpKind::kIterate:
      break;
  }
  return Status::Internal("unhandled plan kind");
}

Result<Table> ExecuteNode(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats) {
  Result<Table> result = ExecuteOperator(plan, resolver, stats);
  if (result.ok() && stats != nullptr) {
    stats->intermediate_rows += static_cast<int64_t>(result->num_rows());
  }
  return result;
}

}  // namespace

Result<Table> ExecutePlan(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats) {
  return ExecuteNode(plan, resolver, stats);
}

}  // namespace bigdawg::relational
