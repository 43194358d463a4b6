#include "relational/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
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
// Operators. Each takes and returns a Batch: shared column slices seen
// through row ids. Rows are built only by Project (when it computes),
// Aggregate, Iterate and the plan's output.
// ---------------------------------------------------------------------------

namespace {

using common::IsNumericKind;
using common::SliceKind;
using RowSet = std::unordered_set<Row, RowHash>;

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// Iterate's union over materialized rows: appends each row not yet in
// `seen`, so the first occurrence wins. Rows compare with Value ==, under
// which 3 and 3.0 are equal (and hash alike). The Distinct node keys rows
// through GroupIds instead; the two differ only on NaN (DESIGN.md §17).
int64_t AppendUnseen(const std::vector<Row>& rows, RowSet* seen, Table* out) {
  int64_t appended = 0;
  for (const Row& row : rows) {
    if (seen->insert(row).second) {
      out->AppendUnchecked(row);
      ++appended;
    }
  }
  return appended;
}

int64_t* Materialized(ExecStats* stats) {
  return stats != nullptr ? &stats->rows_materialized : nullptr;
}

// A numeric cell's key code: equal codes iff the cells are Value-equal
// (3 and 3.0 alike, 0.0 and -0.0 alike; every NaN is one code).
uint64_t NumericKey(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) return 0x7ff8000000000000ULL;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}
// A code no numeric cell gets: the group key of NULL.
constexpr uint64_t kNullNumericKey = 0x7ff8000000000001ULL;

double NumericAt(const common::ColumnSlice& slice, size_t row) {
  return slice.kind == SliceKind::kInt64 ? static_cast<double>(slice.ints[row])
                                         : slice.doubles[row];
}

// Open-addressing map from 64-bit keys to dense ids, numbered in order of
// first insertion.
class KeyIndex {
 public:
  explicit KeyIndex(size_t expected) {
    size_t capacity = 16;
    while (capacity < expected * 2) capacity <<= 1;
    slots_.assign(capacity, Slot{0, kNone});
  }

  uint32_t Insert(uint64_t key) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Slot& slot = slots_[Probe(key)];
    if (slot.id == kNone) slot = Slot{key, size_++};
    return slot.id;
  }
  uint32_t Find(uint64_t key) const { return slots_[Probe(key)].id; }
  uint32_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key;
    uint32_t id;
  };

  size_t Probe(uint64_t key) const {
    uint64_t h = key ^ (key >> 33);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    const size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    while (slots_[i].id != kNone && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{0, kNone});
    for (const Slot& s : old) {
      if (s.id != kNone) slots_[Probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  uint32_t size_ = 0;
};

// Dense ids of one column's cells at every position: equal iff the cells
// are equal under Value == (NULL equals NULL), numbered by first
// appearance. Returns the number of distinct cells.
uint32_t ColumnIds(const Batch::Column& col, size_t n, std::vector<uint32_t>* ids) {
  const common::ColumnSlice& slice = *col.slice;
  const Selection all = Selection::All(n);
  ids->resize(n);
  uint32_t* out = ids->data();
  if (slice.kind == SliceKind::kString || slice.kind == SliceKind::kBool) {
    // Codes index a small table whose last slot is NULL's.
    const bool strings = slice.kind == SliceKind::kString;
    const size_t null_code = strings ? slice.dict.size() : 2;
    std::vector<uint32_t> by_code(null_code + 1, kNone);
    uint32_t next = 0;
    const bool has_nulls = slice.null_count > 0;
    ForEachRow(col, all, [&](size_t k, size_t row) {
      size_t code = strings ? slice.codes[row] : slice.bools[row];
      if (has_nulls && slice.IsNull(row)) code = null_code;
      if (by_code[code] == kNone) by_code[code] = next++;
      out[k] = by_code[code];
    });
    return next;
  }
  if (IsNumericKind(slice.kind)) {
    KeyIndex index(64);
    ForEachRow(col, all, [&](size_t k, size_t row) {
      out[k] = index.Insert(slice.IsNull(row) ? kNullNumericKey
                                              : NumericKey(NumericAt(slice, row)));
    });
    return index.size();
  }
  std::unordered_map<Value, uint32_t, ValueHash> index;
  ForEachRow(col, all, [&](size_t k, size_t row) {
    out[k] = index.emplace(slice.values[row], static_cast<uint32_t>(index.size()))
                 .first->second;
  });
  return static_cast<uint32_t>(index.size());
}

// Dense group ids: (*ids)[pos] for every position of `batch`, equal iff
// the rows agree on every column of `keys`, numbered by first
// appearance. Returns the number of groups.
uint32_t GroupIds(const Batch& batch, const std::vector<size_t>& keys,
                  std::vector<uint32_t>* ids) {
  const size_t n = batch.num_rows;
  ids->assign(n, 0);
  if (n == 0) return 0;
  if (keys.empty()) return 1;
  uint32_t groups = ColumnIds(batch.ColumnAt(keys[0]), n, ids);
  std::vector<uint32_t> column_ids;
  for (size_t i = 1; i < keys.size(); ++i) {
    ColumnIds(batch.ColumnAt(keys[i]), n, &column_ids);
    // Refine: (groups so far, this column) pairs.
    KeyIndex pairs(64);
    for (size_t k = 0; k < n; ++k) {
      (*ids)[k] = pairs.Insert((static_cast<uint64_t>((*ids)[k]) << 32) | column_ids[k]);
    }
    groups = pairs.size();
  }
  return groups;
}

// The first position of each group, in group order.
RowIds FirstPositions(const std::vector<uint32_t>& ids, uint32_t groups) {
  RowIds first(groups, kNone);
  for (size_t k = 0; k < ids.size(); ++k) {
    if (first[ids[k]] == kNone) first[ids[k]] = static_cast<uint32_t>(k);
  }
  return first;
}

// Evaluates `exprs` (null entries skipped) at `sel` the way a row loop
// evaluating each row's expressions left to right would fail: each is
// evaluated only before the earliest error so far, so the error returned
// is the one at the smallest (position, expression).
Status EvalInRowOrder(const std::vector<const Expr*>& exprs, const Batch& batch,
                      Selection sel, std::vector<Vector>* out) {
  out->resize(exprs.size());
  size_t limit = sel.size;
  Status first;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i] == nullptr) continue;
    Vector& v = (*out)[i];
    exprs[i]->EvalBatch(batch, sel.Prefix(limit), &v);
    if (!v.ok()) {
      limit = v.error_at;
      first = v.error;
    }
  }
  return first;
}

Result<Batch> ExecuteSelectNode(const PlanNode& node, const Batch& input) {
  ExprPtr pred = node.predicate->Clone();
  BIGDAWG_RETURN_NOT_OK(pred->Bind(input.schema));
  Vector v;
  pred->EvalBatch(input, Selection::All(input.num_rows), &v);
  if (!v.ok()) return v.error;
  RowIds keep(input.num_rows);
  size_t kept = 0;
  if (v.kind == SliceKind::kBool && !v.scalar) {
    for (size_t k = 0; k < input.num_rows; ++k) {
      keep[kept] = static_cast<uint32_t>(k);
      kept += v.bools[k] & (v.nulls[k] ^ 1);
    }
  } else {
    for (size_t k = 0; k < input.num_rows; ++k) {
      if (IsTrue(v, k)) keep[kept++] = static_cast<uint32_t>(k);
    }
  }
  keep.resize(kept);
  if (keep.size() == input.num_rows) return input;
  return input.Take(keep);
}

Result<Batch> ExecuteProject(const PlanNode& node, const Batch& input, ExecStats* stats) {
  BIGDAWG_ASSIGN_OR_RETURN(BoundProject bound, BindProject(node, input.schema));
  std::vector<const Expr*> computed;
  std::vector<const ColumnExpr*> plain;
  for (const ExprPtr& e : bound.exprs) {
    plain.push_back(dynamic_cast<const ColumnExpr*>(e.get()));
    computed.push_back(plain.back() == nullptr ? e.get() : nullptr);
  }
  if (std::all_of(plain.begin(), plain.end(), [](const ColumnExpr* c) { return c; })) {
    // Only column references: a remap of the input's columns.
    Batch out;
    out.schema = std::move(bound.schema);
    out.sources = input.sources;
    out.num_rows = input.num_rows;
    for (const ColumnExpr* c : plain) out.columns.push_back(input.columns[c->index()]);
    return out;
  }
  std::vector<Vector> values;
  BIGDAWG_RETURN_NOT_OK(
      EvalInRowOrder(computed, input, Selection::All(input.num_rows), &values));
  std::vector<Row> rows(input.num_rows);
  for (size_t k = 0; k < rows.size(); ++k) {
    rows[k].reserve(plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      rows[k].push_back(plain[i] != nullptr ? input.ValueAt(k, plain[i]->index())
                                            : values[i].Get(k));
    }
  }
  if (stats != nullptr) stats->rows_materialized += static_cast<int64_t>(rows.size());
  return Batch::Of(Table(std::move(bound.schema), std::move(rows)));
}

struct EquiKey {
  size_t left_index;
  size_t right_index;
  const Expr* conjunct;  // the `=` of the ON clause it came from, if any
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
    if (ll.ok() && rr.ok()) return EquiKey{*ll, *rr, c};
    Result<size_t> lr = left.Resolve(rcol->name());
    Result<size_t> rl = right.Resolve(lcol->name());
    if (lr.ok() && rl.ok()) return EquiKey{*lr, *rl, c};
  }
  return std::nullopt;
}

// Hash-join buckets: each distinct non-NULL key of the right input is a
// bucket, numbered by first appearance; (*right)[pos] is its row's
// bucket and (*left)[pos] the bucket whose key is Value-equal to that
// left row's key. NULL and unmatched keys get kNone. Returns the number
// of buckets.
uint32_t JoinBuckets(const Batch& left, size_t left_index, const Batch& right,
                     size_t right_index, std::vector<uint32_t>* lb,
                     std::vector<uint32_t>* rb) {
  const Batch::Column lc = left.ColumnAt(left_index);
  const Batch::Column rc = right.ColumnAt(right_index);
  const common::ColumnSlice& ls = *lc.slice;
  const common::ColumnSlice& rs = *rc.slice;
  lb->assign(left.num_rows, kNone);
  rb->assign(right.num_rows, kNone);
  uint32_t* lout = lb->data();
  uint32_t* rout = rb->data();
  const Selection lall = Selection::All(left.num_rows);
  const Selection rall = Selection::All(right.num_rows);
  uint32_t buckets = 0;

  if (ls.kind == SliceKind::kInt64 && rs.kind == SliceKind::kInt64) {
    // Ints below 2^53 in magnitude are equal as doubles iff equal as ints,
    // so a dense right key range indexes a table directly.
    constexpr int64_t kExact = int64_t{1} << 53;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    ForEachRow(rc, rall, [&](size_t, size_t row) {
      if (rs.IsNull(row)) return;
      lo = std::min(lo, rs.ints[row]);
      hi = std::max(hi, rs.ints[row]);
    });
    if (lo <= hi && lo > -kExact && hi < kExact &&
        hi - lo < 4 * static_cast<int64_t>(right.num_rows) + 64) {
      std::vector<uint32_t> by_key(static_cast<size_t>(hi - lo + 1), kNone);
      ForEachRow(rc, rall, [&](size_t k, size_t row) {
        if (rs.IsNull(row)) return;
        uint32_t& b = by_key[static_cast<size_t>(rs.ints[row] - lo)];
        if (b == kNone) b = buckets++;
        rout[k] = b;
      });
      ForEachRow(lc, lall, [&](size_t k, size_t row) {
        const int64_t key = ls.ints[row];
        if (key < lo || key > hi || ls.IsNull(row)) return;
        lout[k] = by_key[static_cast<size_t>(key - lo)];
      });
      return buckets;
    }
  }
  if (IsNumericKind(ls.kind) && IsNumericKind(rs.kind)) {
    KeyIndex index(right.num_rows);
    ForEachRow(rc, rall, [&](size_t k, size_t row) {
      if (!rs.IsNull(row)) rout[k] = index.Insert(NumericKey(NumericAt(rs, row)));
    });
    ForEachRow(lc, lall, [&](size_t k, size_t row) {
      if (!ls.IsNull(row)) lout[k] = index.Find(NumericKey(NumericAt(ls, row)));
    });
    return index.size();
  }
  if (ls.kind == SliceKind::kString && rs.kind == SliceKind::kString) {
    // Buckets by right dictionary code; left codes translated into them.
    std::vector<uint32_t> by_code(rs.dict.size(), kNone);
    ForEachRow(rc, rall, [&](size_t k, size_t row) {
      if (rs.IsNull(row)) return;
      uint32_t& b = by_code[rs.codes[row]];
      if (b == kNone) b = buckets++;
      rout[k] = b;
    });
    std::unordered_map<std::string_view, uint32_t> right_codes;
    for (size_t c = 0; c < rs.dict.size(); ++c) {
      right_codes.emplace(rs.dict[c], static_cast<uint32_t>(c));
    }
    std::vector<uint32_t> translated(ls.dict.size(), kNone);
    for (size_t c = 0; c < ls.dict.size(); ++c) {
      auto it = right_codes.find(ls.dict[c]);
      if (it != right_codes.end()) translated[c] = by_code[it->second];
    }
    ForEachRow(lc, lall, [&](size_t k, size_t row) {
      if (!ls.IsNull(row)) lout[k] = translated[ls.codes[row]];
    });
    return buckets;
  }
  std::unordered_map<Value, uint32_t, ValueHash> index;
  ForEachRow(rc, rall, [&](size_t k, size_t row) {
    if (rs.IsNull(row)) return;
    rout[k] = index.emplace(rs.ValueAt(row), static_cast<uint32_t>(index.size()))
                  .first->second;
  });
  ForEachRow(lc, lall, [&](size_t k, size_t row) {
    if (ls.IsNull(row)) return;
    auto it = index.find(ls.ValueAt(row));
    if (it != index.end()) lout[k] = it->second;
  });
  return static_cast<uint32_t>(index.size());
}

Result<Batch> ExecuteJoin(const PlanNode& node, const Batch& left, const Batch& right) {
  Schema combined = JoinSchema(left.schema, right.schema);
  std::optional<EquiKey> key;
  if (node.predicate != nullptr) {
    ExprPtr on = node.predicate->Clone();
    BIGDAWG_RETURN_NOT_OK(on->Bind(combined));
  }
  if (!node.left_column.empty()) {
    BIGDAWG_ASSIGN_OR_RETURN(size_t li, left.schema.Resolve(node.left_column));
    BIGDAWG_ASSIGN_OR_RETURN(size_t ri, right.schema.Resolve(node.right_column));
    key = EquiKey{li, ri, nullptr};
  } else if (node.predicate != nullptr) {
    key = FindEquiKey(*node.predicate, left.schema, right.schema);
  }
  // The residual is the ON clause less the hash key's own conjunct, which
  // is TRUE on every pair the hash table matches.
  ExprPtr residual;
  if (node.predicate != nullptr) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(node.predicate.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      if (key.has_value() && c == key->conjunct) continue;
      residual = residual == nullptr ? c->Clone()
                                     : Bin(BinaryOp::kAnd, std::move(residual), c->Clone());
    }
    if (residual != nullptr) BIGDAWG_RETURN_NOT_OK(residual->Bind(combined));
  }

  // Candidate pairs in output order (left rows in order, each with its
  // right matches in build order), filtered by the residual a chunk at a
  // time.
  constexpr size_t kChunk = 1 << 16;
  RowIds left_ids;
  RowIds right_ids;
  RowIds chunk_left;
  RowIds chunk_right;
  auto flush = [&]() -> Status {
    if (residual == nullptr) {
      left_ids.insert(left_ids.end(), chunk_left.begin(), chunk_left.end());
      right_ids.insert(right_ids.end(), chunk_right.begin(), chunk_right.end());
    } else if (!chunk_left.empty()) {
      const Batch pairs =
          Batch::Concat(left.Take(chunk_left), right.Take(chunk_right), combined);
      Vector v;
      residual->EvalBatch(pairs, Selection::All(pairs.num_rows), &v);
      if (!v.ok()) return v.error;
      for (size_t k = 0; k < pairs.num_rows; ++k) {
        if (!IsTrue(v, k)) continue;
        left_ids.push_back(chunk_left[k]);
        right_ids.push_back(chunk_right[k]);
      }
    }
    chunk_left.clear();
    chunk_right.clear();
    return Status::OK();
  };
  auto emit = [&](uint32_t l, uint32_t r) -> Status {
    chunk_left.push_back(l);
    chunk_right.push_back(r);
    return chunk_left.size() < kChunk ? Status::OK() : flush();
  };

  if (key.has_value()) {
    // Hash join built on the right input; NULL never equi-matches.
    std::vector<uint32_t> lb;
    std::vector<uint32_t> rb;
    const uint32_t buckets =
        JoinBuckets(left, key->left_index, right, key->right_index, &lb, &rb);
    // Each bucket's right positions, in build order.
    std::vector<uint32_t> start(buckets + 1, 0);
    for (uint32_t b : rb) {
      if (b != kNone) ++start[b + 1];
    }
    for (size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
    std::vector<uint32_t> members(start.back());
    std::vector<uint32_t> fill(start.begin(), start.end() - 1);
    for (size_t r = 0; r < right.num_rows; ++r) {
      if (rb[r] != kNone) members[fill[rb[r]]++] = static_cast<uint32_t>(r);
    }
    for (size_t l = 0; l < left.num_rows; ++l) {
      const uint32_t b = lb[l];
      if (b == kNone) continue;
      for (uint32_t m = start[b]; m < start[b + 1]; ++m) {
        BIGDAWG_RETURN_NOT_OK(emit(static_cast<uint32_t>(l), members[m]));
      }
    }
  } else {
    for (size_t l = 0; l < left.num_rows; ++l) {
      for (size_t r = 0; r < right.num_rows; ++r) {
        BIGDAWG_RETURN_NOT_OK(emit(static_cast<uint32_t>(l), static_cast<uint32_t>(r)));
      }
    }
  }
  BIGDAWG_RETURN_NOT_OK(flush());
  return Batch::Concat(left.Take(left_ids), right.Take(right_ids), std::move(combined));
}

// One aggregate item's state in every group, in the feed/get shape: a
// Feed takes a whole argument vector or column at once, Get finalizes a
// group. Each function keeps only the state it reads. SUM and AVG add in
// row order (int64 SUM in 128 bits), and MIN/MAX keep the first of equal
// values as Value::Compare orders them.
class AggColumn {
 public:
  AggColumn(AggregateFunc func, size_t groups) : func_(func), count_(groups, 0) {
    if (func == AggregateFunc::kSum || func == AggregateFunc::kAvg) {
      sum_.assign(groups, 0.0);
      isum_.assign(groups, 0);
      all_int_.assign(groups, 1);
    }
    if (func == AggregateFunc::kMin || func == AggregateFunc::kMax) {
      extreme_.resize(groups);
    }
  }

  // Feeds entries 0..n-1 of a computed argument; group ids from `gid`
  // (null: every entry is in group 0).
  void Feed(const Vector& v, size_t n, const uint32_t* gid) {
    auto is_null = [&v](size_t k) { return v.IsNull(k); };
    if (!v.scalar && v.kind == SliceKind::kInt64) {
      FeedNumbers(v.ints.data(), Identity, is_null, n, gid);
    } else if (!v.scalar && v.kind == SliceKind::kDouble) {
      FeedNumbers(v.doubles.data(), Identity, is_null, n, gid);
    } else {
      FeedValues([&v](size_t k) { return v.Get(k); }, is_null, n, gid);
    }
  }

  // Feeds a column argument at batch positions 0..n-1, straight off its
  // slice.
  void Feed(const Batch::Column& col, size_t n, const uint32_t* gid) {
    if (col.rows == nullptr) {
      FeedSlice(*col.slice, Identity, n, gid);
    } else {
      FeedSlice(*col.slice, [rows = col.rows](size_t k) -> size_t { return rows[k]; }, n,
                gid);
    }
  }

  Result<Value> Get(size_t g) const {
    switch (func_) {
      case AggregateFunc::kCount:
        return Value(count_[g]);
      case AggregateFunc::kSum:
        if (count_[g] == 0) return Value::Null();
        if (!all_int_[g]) return Value(sum_[g]);
        if (isum_[g] < std::numeric_limits<int64_t>::min() ||
            isum_[g] > std::numeric_limits<int64_t>::max()) {
          return Status::OutOfRange("integer overflow in SUM");
        }
        return Value(static_cast<int64_t>(isum_[g]));
      case AggregateFunc::kAvg:
        if (count_[g] == 0) return Value::Null();
        return Value(sum_[g] / static_cast<double>(count_[g]));
      case AggregateFunc::kMin:
      case AggregateFunc::kMax:
        return extreme_[g];
      case AggregateFunc::kNone:
        break;
    }
    return Value::Null();
  }

 private:
  static size_t Identity(size_t k) { return k; }
  bool Sums() const { return !sum_.empty(); }
  bool Extremes() const { return !extreme_.empty(); }
  bool Better(int c) const { return func_ == AggregateFunc::kMin ? c < 0 : c > 0; }

  template <typename Index>
  void FeedSlice(const common::ColumnSlice& slice, Index index, size_t n,
                 const uint32_t* gid) {
    const bool has_nulls = slice.null_count > 0;
    auto is_null = [&](size_t k) { return has_nulls && slice.IsNull(index(k)); };
    if (slice.kind == SliceKind::kInt64) {
      FeedNumbers(slice.ints.data(), index, is_null, n, gid);
    } else if (slice.kind == SliceKind::kDouble) {
      FeedNumbers(slice.doubles.data(), index, is_null, n, gid);
    } else {
      FeedValues([&](size_t k) { return slice.ValueAt(index(k)); }, is_null, n, gid);
    }
  }

  // Numbers x[index(k)]. Extremes compare as doubles, the order
  // Value::Compare gives numbers.
  template <typename T, typename Index, typename IsNull>
  void FeedNumbers(const T* x, Index index, IsNull is_null, size_t n, const uint32_t* gid) {
    constexpr bool kInts = std::is_same_v<T, int64_t>;
    if (Sums() && gid == nullptr) {
      // One group: accumulate in registers.
      int64_t count = 0;
      double sum = sum_[0];
      __int128 isum = isum_[0];
      for (size_t k = 0; k < n; ++k) {
        if (is_null(k)) continue;
        const T v = x[index(k)];
        ++count;
        sum += static_cast<double>(v);
        if constexpr (kInts) isum += v;
      }
      count_[0] += count;
      sum_[0] = sum;
      isum_[0] = isum;
    } else {
      std::vector<uint32_t> best(Extremes() ? count_.size() : 0, kNone);
      for (size_t k = 0; k < n; ++k) {
        if (is_null(k)) continue;
        const T v = x[index(k)];
        const size_t g = gid != nullptr ? gid[k] : 0;
        ++count_[g];
        if (Sums()) {
          sum_[g] += static_cast<double>(v);
          if constexpr (kInts) isum_[g] += v;
        } else if (Extremes()) {
          const double d = static_cast<double>(v);
          const double b = best[g] == kNone ? 0 : static_cast<double>(x[index(best[g])]);
          if (best[g] == kNone || Better((d > b) - (d < b))) best[g] = static_cast<uint32_t>(k);
        }
      }
      for (size_t g = 0; g < best.size(); ++g) {
        if (best[g] != kNone) extreme_[g] = Value(x[index(best[g])]);
      }
    }
    if (!kInts && Sums()) {
      for (size_t g = 0; g < count_.size(); ++g) {
        if (count_[g] > 0) all_int_[g] = 0;
      }
    }
  }

  // Any other argument, cell by cell as Values.
  template <typename GetValue, typename IsNull>
  void FeedValues(GetValue get, IsNull is_null, size_t n, const uint32_t* gid) {
    for (size_t k = 0; k < n; ++k) {
      if (is_null(k)) continue;
      const size_t g = gid != nullptr ? gid[k] : 0;
      ++count_[g];
      if (!Sums() && !Extremes()) continue;
      Value x = get(k);
      if (Sums()) {
        if (x.type() == DataType::kInt64) {
          isum_[g] += x.int64_unchecked();
          sum_[g] += static_cast<double>(x.int64_unchecked());
        } else {
          all_int_[g] = 0;
          if (x.type() == DataType::kDouble) sum_[g] += x.double_unchecked();
        }
      } else if (extreme_[g].is_null() || Better(x.Compare(extreme_[g]))) {
        extreme_[g] = std::move(x);
      }
    }
  }

  AggregateFunc func_;
  std::vector<int64_t> count_;
  std::vector<double> sum_;
  std::vector<__int128> isum_;
  std::vector<uint8_t> all_int_;
  std::vector<Value> extreme_;  // MIN/MAX; NULL until a group sees a value
};

Result<Batch> ExecuteAggregate(const PlanNode& node, const Batch& input,
                               ExecStats* stats) {
  BIGDAWG_ASSIGN_OR_RETURN(BoundAggregate bound, BindAggregate(node, input.schema));
  const size_t num_items = bound.funcs.size();
  const size_t n = input.num_rows;

  // Groups in order of first appearance; a global aggregate has one, even
  // over empty input (its plain items are then NULL).
  std::vector<uint32_t> gid;
  uint32_t groups = 1;
  RowIds first = n > 0 ? RowIds{0} : RowIds{};
  if (!bound.keys.empty()) {
    groups = GroupIds(input, bound.keys, &gid);
    first = FirstPositions(gid, groups);
  }
  std::vector<int64_t> sizes(groups, 0);
  if (bound.keys.empty()) {
    sizes[0] = static_cast<int64_t>(n);
  } else {
    for (uint32_t g : gid) ++sizes[g];
  }

  // Aggregate arguments over every row (a column straight off its
  // slice); plain items on each group's first row. Either way the first
  // error in row order wins.
  std::vector<const ColumnExpr*> columns(num_items, nullptr);
  std::vector<const Expr*> computed(num_items, nullptr);
  std::vector<const Expr*> plain(num_items, nullptr);
  for (size_t i = 0; i < num_items; ++i) {
    const Expr* arg = bound.args[i].get();
    if (bound.funcs[i] == AggregateFunc::kNone) {
      plain[i] = arg;
    } else if (const auto* col = dynamic_cast<const ColumnExpr*>(arg)) {
      columns[i] = col;
    } else {
      computed[i] = arg;
    }
  }
  std::vector<Vector> args;
  BIGDAWG_RETURN_NOT_OK(EvalInRowOrder(computed, input, Selection::All(n), &args));
  std::vector<AggColumn> states;
  states.reserve(num_items);
  const uint32_t* group_of = gid.empty() ? nullptr : gid.data();
  for (size_t i = 0; i < num_items; ++i) {
    states.emplace_back(bound.funcs[i], groups);
    if (columns[i] != nullptr) {
      states.back().Feed(input.ColumnAt(columns[i]->index()), n, group_of);
    } else if (computed[i] != nullptr) {
      states.back().Feed(args[i], n, group_of);
    }
  }
  std::vector<Vector> plain_values;
  BIGDAWG_RETURN_NOT_OK(
      EvalInRowOrder(plain, input, Selection::Of(first), &plain_values));

  std::vector<Row> out(groups);
  for (size_t g = 0; g < groups; ++g) {
    out[g].reserve(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (plain[i] != nullptr) {
        out[g].push_back(g < first.size() ? plain_values[i].Get(g) : Value::Null());
      } else if (bound.args[i] == nullptr) {
        out[g].push_back(Value(sizes[g]));  // COUNT(*)
      } else {
        BIGDAWG_ASSIGN_OR_RETURN(Value v, states[i].Get(g));
        out[g].push_back(std::move(v));
      }
    }
  }
  if (stats != nullptr) stats->rows_materialized += static_cast<int64_t>(out.size());
  return Batch::Of(Table(std::move(bound.schema), std::move(out)));
}

// A stable sort of the positions; keys are evaluated once per row.
Result<Batch> ExecuteSort(const PlanNode& node, const Batch& input) {
  std::vector<ExprPtr> keys;
  std::vector<const Expr*> exprs;
  for (const OrderItem& item : node.order_by) {
    ExprPtr k = item.expr->Clone();
    BIGDAWG_RETURN_NOT_OK(k->Bind(input.schema));
    exprs.push_back(k.get());
    keys.push_back(std::move(k));
  }
  const size_t n = input.num_rows;
  std::vector<Vector> evaluated;
  BIGDAWG_RETURN_NOT_OK(EvalInRowOrder(exprs, input, Selection::All(n), &evaluated));
  std::vector<std::vector<Value>> values(keys.size(), std::vector<Value>(n));
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t k = 0; k < n; ++k) values[i][k] = evaluated[i].Get(k);
  }
  RowIds order(n);
  for (size_t k = 0; k < n; ++k) order[k] = static_cast<uint32_t>(k);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < values.size(); ++i) {
      int c = values[i][a].Compare(values[i][b]);
      if (node.order_by[i].descending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  return input.Take(order);
}

Result<Batch> ExecuteDistinct(const Batch& input) {
  std::vector<size_t> all(input.schema.num_fields());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<uint32_t> ids;
  const uint32_t groups = GroupIds(input, all, &ids);
  if (groups == input.num_rows) return input;
  return input.Take(FirstPositions(ids, groups));
}

Result<Batch> ExecuteNode(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats);

Result<Batch> ExecuteIterate(const PlanNode& node, const PlanResolver& resolver,
                             ExecStats* stats) {
  BIGDAWG_ASSIGN_OR_RETURN(Batch init_batch, ExecuteNode(*node.children[0], resolver, stats));
  const Table init = init_batch.Materialize(Materialized(stats));
  Table current(init.schema());
  RowSet seen;
  int64_t appended = AppendUnseen(init.rows(), &seen, &current);
  // "$iter" refers to the current result.
  PlanResolver overlay = [&current, &resolver](const std::string& name) -> Result<Table> {
    if (name == kIterRelation) return current;
    return resolver(name);
  };
  for (int64_t iter = 0; iter < node.max_iterations; ++iter) {
    if (stats != nullptr) ++stats->iterations;
    BIGDAWG_ASSIGN_OR_RETURN(Batch step_batch, ExecuteNode(*node.children[1], overlay, stats));
    const Table step = step_batch.Materialize(Materialized(stats));
    if (!(step.schema() == current.schema())) {
      return Status::InvalidArgument(
          "iterate step schema [" + step.schema().ToString() +
          "] differs from init schema [" + current.schema().ToString() + "]");
    }
    const int64_t added = AppendUnseen(step.rows(), &seen, &current);
    appended += added;
    if (added == 0) break;  // fixpoint
  }
  if (stats != nullptr) stats->rows_materialized += appended;
  return Batch::Of(current);
}

Result<Batch> ExecuteOperator(const PlanNode& plan, const PlanResolver& resolver,
                              ExecStats* stats) {
  if (plan.kind == OpKind::kIterate) return ExecuteIterate(plan, resolver, stats);
  if (plan.kind == OpKind::kScan) {
    BIGDAWG_ASSIGN_OR_RETURN(Table t, resolver(plan.relation));
    if (stats != nullptr) stats->rows_scanned += static_cast<int64_t>(t.num_rows());
    // A qualifier renames the schema; the block is shared, not copied.
    Schema schema = QualifiedSchema(t.schema(), plan.qualifier);
    return Batch::Of(std::move(t), std::move(schema));
  }
  std::vector<Batch> in;
  for (const PlanPtr& child : plan.children) {
    BIGDAWG_ASSIGN_OR_RETURN(Batch b, ExecuteNode(*child, resolver, stats));
    in.push_back(std::move(b));
  }
  switch (plan.kind) {
    case OpKind::kSelect:
      return ExecuteSelectNode(plan, in[0]);
    case OpKind::kProject:
      return ExecuteProject(plan, in[0], stats);
    case OpKind::kJoin:
      return ExecuteJoin(plan, in[0], in[1]);
    case OpKind::kAggregate:
      return ExecuteAggregate(plan, in[0], stats);
    case OpKind::kSort:
      return ExecuteSort(plan, in[0]);
    case OpKind::kDistinct:
      return ExecuteDistinct(in[0]);
    case OpKind::kLimit: {
      if (plan.limit < 0 || in[0].num_rows <= static_cast<size_t>(plan.limit)) {
        return std::move(in[0]);
      }
      RowIds prefix(static_cast<size_t>(plan.limit));
      for (size_t k = 0; k < prefix.size(); ++k) prefix[k] = static_cast<uint32_t>(k);
      return in[0].Take(prefix);
    }
    case OpKind::kScan:
    case OpKind::kIterate:
      break;
  }
  return Status::Internal("unhandled plan kind");
}

Result<Batch> ExecuteNode(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats) {
  Result<Batch> result = ExecuteOperator(plan, resolver, stats);
  if (result.ok() && stats != nullptr) {
    stats->intermediate_rows += static_cast<int64_t>(result->num_rows);
  }
  return result;
}

}  // namespace

Result<Table> ExecutePlan(const PlanNode& plan, const PlanResolver& resolver,
                          ExecStats* stats) {
  BIGDAWG_ASSIGN_OR_RETURN(Batch out, ExecuteNode(plan, resolver, stats));
  return out.Materialize(Materialized(stats));
}

}  // namespace bigdawg::relational
