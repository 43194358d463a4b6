// The batch kernels behind Expr::EvalBatch. They live apart from the
// per-row Eval so each translation unit keeps its own inlining budget.

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"
#include "relational/expression.h"
#include "relational/scalar_ops.h"

namespace bigdawg::relational {

using common::IsNumericKind;
using common::SliceKind;
using scalar::ApplyBinary;
using scalar::ApplyFunction;
using scalar::ApplyUnary;
using scalar::CheckedIntOp;
using scalar::CheckedNegate;
using scalar::CompareResult;
using scalar::IsComparison;

namespace {

// Calls f(pred) with `op` as a branch-free predicate on two doubles in
// Value::Compare's numeric order (neither a < b nor a > b is equality,
// so NaN equals everything).
template <typename F>
void WithDoubleComparison(BinaryOp op, F&& f) {
  switch (op) {
    case BinaryOp::kEq:
      return f([](double a, double b) { return !((a < b) | (a > b)); });
    case BinaryOp::kNe:
      return f([](double a, double b) { return (a < b) | (a > b); });
    case BinaryOp::kLt:
      return f([](double a, double b) { return a < b; });
    case BinaryOp::kLe:
      return f([](double a, double b) { return !(a > b); });
    case BinaryOp::kGt:
      return f([](double a, double b) { return a > b; });
    default:
      return f([](double a, double b) { return !(a < b); });
  }
}

// `a op b` as `b op' a`.
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

// Three-valued truth.
constexpr uint8_t kFalse = 0;
constexpr uint8_t kTrue = 1;
constexpr uint8_t kUnknown = 2;

// Entry k of `v` as three-valued truth, or the TypeError AsBool raises on
// a non-boolean.
Result<uint8_t> Truth(const Vector& v, size_t k) {
  if (v.IsNull(k)) return kUnknown;
  if (v.kind == SliceKind::kBool) return v.bools[v.At(k)];
  BIGDAWG_ASSIGN_OR_RETURN(bool b, v.Get(k).AsBool());
  return b ? kTrue : kFalse;
}

// Per-element fallback: `entries` results of `apply(k)`, stopping at the
// first error.
template <typename F>
void ApplyEach(size_t entries, bool scalar, Vector* out, F&& apply) {
  out->Reset(SliceKind::kMixed, entries, scalar);
  for (size_t k = 0; k < out->size; ++k) {
    Result<Value> v = apply(k);
    if (!v.ok()) {
      out->Fail(k, v.status());
      return;
    }
    out->nulls[k] = v->is_null() ? 1 : 0;
    out->values[k] = std::move(*v);
  }
}

double NumberAt(const Vector& v, size_t k) {
  const size_t i = v.At(k);
  return v.kind == SliceKind::kInt64 ? static_cast<double>(v.ints[i]) : v.doubles[i];
}

// A comparison or arithmetic operator over two numeric vectors.
void NumericKernel(BinaryOp op, const Vector& l, const Vector& r, size_t entries,
                   bool scalar, Vector* out) {
  const bool both_int = l.kind == SliceKind::kInt64 && r.kind == SliceKind::kInt64;
  if (IsComparison(op)) {
    out->Reset(SliceKind::kBool, entries, scalar);
    WithDoubleComparison(op, [&](auto pred) {
      for (size_t k = 0; k < out->size; ++k) {
        out->nulls[k] = l.IsNull(k) | r.IsNull(k);
        out->bools[k] = pred(NumberAt(l, k), NumberAt(r, k));
      }
    });
    return;
  }
  if (both_int && op != BinaryOp::kDiv) {
    out->Reset(SliceKind::kInt64, entries, scalar);
    for (size_t k = 0; k < out->size; ++k) {
      if (l.IsNull(k) || r.IsNull(k)) {
        out->nulls[k] = 1;
        continue;
      }
      Result<int64_t> v = CheckedIntOp(op, l.ints[l.At(k)], r.ints[r.At(k)]);
      if (!v.ok()) {
        out->Fail(k, v.status());
        return;
      }
      out->ints[k] = *v;
    }
    return;
  }
  out->Reset(SliceKind::kDouble, entries, scalar);
  for (size_t k = 0; k < out->size; ++k) {
    if (l.IsNull(k) || r.IsNull(k)) {
      out->nulls[k] = 1;
      continue;
    }
    const double a = NumberAt(l, k);
    const double b = NumberAt(r, k);
    switch (op) {
      case BinaryOp::kAdd:
        out->doubles[k] = a + b;
        break;
      case BinaryOp::kSub:
        out->doubles[k] = a - b;
        break;
      case BinaryOp::kMul:
        out->doubles[k] = a * b;
        break;
      case BinaryOp::kDiv:
        if (b == 0.0) {
          out->Fail(k, Status::InvalidArgument("division by zero"));
          return;
        }
        out->doubles[k] = a / b;
        break;
      default:  // kMod on a double
        out->Fail(k, Status::TypeError("% requires integer operands"));
        return;
    }
  }
}

}  // namespace

bool IsTrue(const Vector& v, size_t k) {
  if (v.IsNull(k)) return false;
  if (v.kind == SliceKind::kBool) return v.bools[v.At(k)] != 0;
  if (v.kind == SliceKind::kMixed) return IsTrue(v.values[v.At(k)]);
  return false;
}

void Expr::EvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  *out = Vector();
  if (sel.size == 0) return;
  DoEvalBatch(batch, sel, out);
}

void LiteralExpr::DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  (void)batch;
  (void)sel;
  switch (value_.type()) {
    case DataType::kBool:
      out->Reset(SliceKind::kBool, 1, true);
      out->bools[0] = value_.bool_unchecked() ? 1 : 0;
      return;
    case DataType::kInt64:
      out->Reset(SliceKind::kInt64, 1, true);
      out->ints[0] = value_.int64_unchecked();
      return;
    case DataType::kDouble:
      out->Reset(SliceKind::kDouble, 1, true);
      out->doubles[0] = value_.double_unchecked();
      return;
    case DataType::kString:
      out->Reset(SliceKind::kString, 1, true);
      out->strings[0] = &value_.string_unchecked();
      return;
    case DataType::kNull:
      break;
  }
  out->Reset(SliceKind::kMixed, 1, true);
  out->nulls[0] = 1;
}

void ColumnExpr::DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  const Batch::Column col = batch.ColumnAt(index_);
  const common::ColumnSlice& slice = *col.slice;
  out->Reset(slice.kind, sel.size, false);
  switch (slice.kind) {
    case SliceKind::kInt64: {
      int64_t* ints = out->ints.data();
      ForEachRow(col, sel, [&](size_t k, size_t row) { ints[k] = slice.ints[row]; });
      break;
    }
    case SliceKind::kDouble: {
      double* doubles = out->doubles.data();
      ForEachRow(col, sel, [&](size_t k, size_t row) { doubles[k] = slice.doubles[row]; });
      break;
    }
    case SliceKind::kBool: {
      uint8_t* bools = out->bools.data();
      ForEachRow(col, sel, [&](size_t k, size_t row) { bools[k] = slice.bools[row]; });
      break;
    }
    case SliceKind::kString: {
      // A NULL row's code 0 indexes nothing when every row is NULL; its
      // entry is never read, so it may point at an empty string instead.
      static const std::string kNoString;
      const std::string* dict = slice.dict.empty() ? &kNoString : slice.dict.data();
      const std::string** strings = out->strings.data();
      ForEachRow(col, sel,
                 [&](size_t k, size_t row) { strings[k] = dict + slice.codes[row]; });
      break;
    }
    case SliceKind::kMixed:
      ForEachRow(col, sel, [&](size_t k, size_t row) { out->values[k] = slice.values[row]; });
      break;
  }
  if (slice.null_count > 0) {
    uint8_t* nulls = out->nulls.data();
    ForEachRow(col, sel, [&](size_t k, size_t row) { nulls[k] = slice.IsNull(row); });
  }
}

void BinaryExpr::DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    EvalLogical(batch, sel, out);
    return;
  }
  if (IsComparison(op_) && EvalColumnVersusLiteral(batch, sel, out)) return;

  Vector l;
  left_->EvalBatch(batch, sel, &l);
  const size_t nl = l.Valid(sel.size);
  Vector r;
  right_->EvalBatch(batch, sel.Prefix(nl), &r);
  const size_t n = r.Valid(nl);
  if (n > 0) {
    const bool scalar = l.scalar && r.scalar;
    if (op_ != BinaryOp::kLike && IsNumericKind(l.kind) && IsNumericKind(r.kind)) {
      NumericKernel(op_, l, r, n, scalar, out);
    } else if (IsComparison(op_) && l.kind == SliceKind::kString &&
               r.kind == SliceKind::kString) {
      out->Reset(SliceKind::kBool, n, scalar);
      for (size_t k = 0; k < out->size; ++k) {
        if (l.IsNull(k) || r.IsNull(k)) {
          out->nulls[k] = 1;
        } else {
          out->bools[k] =
              CompareResult(op_, l.strings[l.At(k)]->compare(*r.strings[r.At(k)]));
        }
      }
    } else {
      ApplyEach(n, scalar, out,
                [&](size_t k) { return ApplyBinary(op_, l.Get(k), r.Get(k)); });
    }
  }
  if (!r.ok()) out->Fail(r.error_at, r.error);
  if (!l.ok()) out->Fail(l.error_at, l.error);
}

// `column OP literal` (either order) straight off the column's slice:
// numeric columns against a numeric literal, and dictionary-coded strings
// against a string literal, decided once per dictionary entry.
bool BinaryExpr::EvalColumnVersusLiteral(const Batch& batch, Selection sel,
                                         Vector* out) const {
  const auto* col = dynamic_cast<const ColumnExpr*>(left_.get());
  const auto* lit = dynamic_cast<const LiteralExpr*>(right_.get());
  bool flipped = false;
  if (col == nullptr || lit == nullptr) {
    col = dynamic_cast<const ColumnExpr*>(right_.get());
    lit = dynamic_cast<const LiteralExpr*>(left_.get());
    flipped = true;
  }
  if (col == nullptr || lit == nullptr || lit->value().is_null()) return false;
  const Value& literal = lit->value();
  const Batch::Column column = batch.ColumnAt(col->index());
  const common::ColumnSlice& slice = *column.slice;
  const bool numeric = IsNumericKind(slice.kind) && IsNumeric(literal.type());
  const bool strings =
      slice.kind == SliceKind::kString && literal.type() == DataType::kString;
  if (!numeric && !strings) return false;

  // As `column op literal`.
  const BinaryOp op = flipped ? Mirror(op_) : op_;
  out->Reset(SliceKind::kBool, sel.size, false);
  uint8_t* bools = out->bools.data();
  if (strings) {
    // At least one slot: NULL rows carry code 0 even when every row is
    // NULL and the dictionary is empty.
    std::vector<uint8_t> by_code(std::max<size_t>(slice.dict.size(), 1));
    for (size_t c = 0; c < slice.dict.size(); ++c) {
      const int cmp = slice.dict[c].compare(literal.string_unchecked());
      by_code[c] = CompareResult(op, (cmp > 0) - (cmp < 0));
    }
    ForEachRow(column, sel,
               [&](size_t k, size_t row) { bools[k] = by_code[slice.codes[row]]; });
  } else {
    const double x = *literal.ToNumeric();
    WithDoubleComparison(op, [&](auto pred) {
      if (slice.kind == SliceKind::kInt64) {
        const int64_t* ints = slice.ints.data();
        ForEachRow(column, sel, [&](size_t k, size_t row) {
          bools[k] = pred(static_cast<double>(ints[row]), x);
        });
      } else {
        const double* doubles = slice.doubles.data();
        ForEachRow(column, sel,
                   [&](size_t k, size_t row) { bools[k] = pred(doubles[row], x); });
      }
    });
  }
  if (slice.null_count > 0) {
    uint8_t* nulls = out->nulls.data();
    ForEachRow(column, sel, [&](size_t k, size_t row) { nulls[k] = slice.IsNull(row); });
  }
  return true;
}

// AND/OR: the right side runs only at the positions the left side leaves
// open (TRUE or NULL for AND, FALSE or NULL for OR).
void BinaryExpr::EvalLogical(const Batch& batch, Selection sel, Vector* out) const {
  const bool is_and = op_ == BinaryOp::kAnd;
  const uint8_t decisive = is_and ? kFalse : kTrue;
  Vector l;
  left_->EvalBatch(batch, sel, &l);
  size_t n = l.Valid(sel.size);
  std::vector<uint8_t> left(n);
  Status left_error;
  for (size_t k = 0; k < n; ++k) {
    Result<uint8_t> t = Truth(l, k);
    if (!t.ok()) {
      left_error = t.status();
      n = k;
      break;
    }
    left[k] = *t;
  }
  RowIds open_positions;  // batch positions where the right side runs
  std::vector<size_t> open;  // ... and their indexes into `sel`
  for (size_t k = 0; k < n; ++k) {
    if (left[k] != decisive) {
      open.push_back(k);
      open_positions.push_back(sel[k]);
    }
  }
  Vector r;
  right_->EvalBatch(batch, Selection::Of(open_positions), &r);
  size_t m = r.Valid(open.size());
  std::vector<uint8_t> right(m);
  Status right_error;
  size_t right_error_at = std::numeric_limits<size_t>::max();
  for (size_t j = 0; j < m; ++j) {
    Result<uint8_t> t = Truth(r, j);
    if (!t.ok()) {
      right_error = t.status();
      right_error_at = open[j];
      m = j;
      break;
    }
    right[j] = *t;
  }
  if (m < open.size() && right_error_at == std::numeric_limits<size_t>::max()) {
    right_error = r.error;
    right_error_at = open[m];
  }
  const size_t entries = m < open.size() ? open[m] : n;
  out->Reset(SliceKind::kBool, entries, false);
  size_t j = 0;
  for (size_t k = 0; k < entries; ++k) {
    if (j >= open.size() || open[j] != k) {
      out->bools[k] = decisive;
      continue;
    }
    const uint8_t rt = right[j++];
    if (rt == decisive) {
      out->bools[k] = decisive;
    } else if (rt == kUnknown || left[k] == kUnknown) {
      out->nulls[k] = 1;
    } else {
      out->bools[k] = !decisive;
    }
  }
  if (right_error_at != std::numeric_limits<size_t>::max()) {
    out->Fail(right_error_at, right_error);
  }
  if (!left_error.ok()) out->Fail(n, left_error);
  if (!l.ok()) out->Fail(l.error_at, l.error);
}

void UnaryExpr::DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  Vector a;
  operand_->EvalBatch(batch, sel, &a);
  const size_t n = a.Valid(sel.size);
  if (n > 0) {
    const size_t entries = a.scalar ? 1 : n;
    if (op_ == UnaryOp::kIsNull) {
      out->Reset(SliceKind::kBool, n, a.scalar);
      for (size_t k = 0; k < entries; ++k) out->bools[k] = a.nulls[k];
    } else if (op_ == UnaryOp::kNot && a.kind == SliceKind::kBool) {
      out->Reset(SliceKind::kBool, n, a.scalar);
      std::copy_n(a.nulls.begin(), entries, out->nulls.begin());
      for (size_t k = 0; k < entries; ++k) out->bools[k] = a.bools[k] == 0;
    } else if (op_ == UnaryOp::kNeg && a.kind == SliceKind::kDouble) {
      out->Reset(SliceKind::kDouble, n, a.scalar);
      std::copy_n(a.nulls.begin(), entries, out->nulls.begin());
      for (size_t k = 0; k < entries; ++k) out->doubles[k] = -a.doubles[k];
    } else if (op_ == UnaryOp::kNeg && a.kind == SliceKind::kInt64) {
      out->Reset(SliceKind::kInt64, n, a.scalar);
      std::copy_n(a.nulls.begin(), entries, out->nulls.begin());
      for (size_t k = 0; k < entries; ++k) {
        if (a.nulls[k]) continue;
        Result<int64_t> v = CheckedNegate(a.ints[k]);
        if (!v.ok()) {
          out->Fail(k, v.status());
          break;
        }
        out->ints[k] = *v;
      }
    } else {
      ApplyEach(n, a.scalar, out, [&](size_t k) { return ApplyUnary(op_, a.Get(k)); });
    }
  }
  if (!a.ok()) out->Fail(a.error_at, a.error);
}

void FunctionExpr::DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const {
  // Arguments evaluate left to right, each over the rows before the
  // previous one's first error.
  std::vector<Vector> args(args_.size());
  size_t n = sel.size;
  bool scalar = true;
  for (size_t i = 0; i < args_.size(); ++i) {
    args_[i]->EvalBatch(batch, sel.Prefix(n), &args[i]);
    n = args[i].Valid(n);
    scalar = scalar && args[i].scalar;
  }
  if (n > 0) {
    const std::string fn = ToLower(name_);
    std::vector<Value> values(args.size());
    ApplyEach(n, scalar, out, [&](size_t k) {
      for (size_t i = 0; i < args.size(); ++i) values[i] = args[i].Get(k);
      return ApplyFunction(fn, values);
    });
  }
  for (const Vector& a : args) {
    if (!a.ok()) out->Fail(a.error_at, a.error);
  }
}

}  // namespace bigdawg::relational
