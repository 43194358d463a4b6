#include "relational/expression.h"

#include <cmath>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "relational/scalar_ops.h"

namespace bigdawg::relational {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

namespace {

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

}  // namespace

namespace scalar {

Result<Value> ApplyBinary(BinaryOp op, const Value& lv, const Value& rv) {
  if (lv.is_null() || rv.is_null()) return Value::Null();

  if (op == BinaryOp::kLike) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string text, lv.AsString());
    BIGDAWG_ASSIGN_OR_RETURN(std::string pattern, rv.AsString());
    return Value(LikeMatch(text, pattern));
  }

  if (IsComparison(op)) {
    // Comparable types: numeric-vs-numeric via double; otherwise same type.
    const bool numeric = IsNumeric(lv.type()) && IsNumeric(rv.type());
    if (!numeric && lv.type() != rv.type()) {
      return Status::TypeError("cannot compare " +
                               std::string(DataTypeToString(lv.type())) + " with " +
                               DataTypeToString(rv.type()));
    }
    return Value(CompareResult(op, lv.Compare(rv)));
  }

  // Arithmetic.
  if (op == BinaryOp::kAdd && lv.type() == DataType::kString &&
      rv.type() == DataType::kString) {
    return Value(lv.string_unchecked() + rv.string_unchecked());
  }
  BIGDAWG_ASSIGN_OR_RETURN(double ld, lv.ToNumeric());
  BIGDAWG_ASSIGN_OR_RETURN(double rd, rv.ToNumeric());
  const bool both_int =
      lv.type() == DataType::kInt64 && rv.type() == DataType::kInt64;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (!both_int) {
        return Value(op == BinaryOp::kAdd ? ld + rd
                                          : (op == BinaryOp::kSub ? ld - rd : ld * rd));
      }
      BIGDAWG_ASSIGN_OR_RETURN(int64_t v,
                               CheckedIntOp(op, lv.int64_unchecked(), rv.int64_unchecked()));
      return Value(v);
    }
    case BinaryOp::kDiv: {
      if (rd == 0.0) return Status::InvalidArgument("division by zero");
      return Value(ld / rd);
    }
    case BinaryOp::kMod: {
      if (!both_int) return Status::TypeError("% requires integer operands");
      BIGDAWG_ASSIGN_OR_RETURN(int64_t v,
                               CheckedIntOp(op, lv.int64_unchecked(), rv.int64_unchecked()));
      return Value(v);
    }
    default:
      break;
  }
  return Status::Internal("unhandled binary op");
}

Result<Value> ApplyUnary(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kIsNull) return Value(v.is_null());
  if (v.is_null()) return Value::Null();
  if (op == UnaryOp::kNot) {
    BIGDAWG_ASSIGN_OR_RETURN(bool b, v.AsBool());
    return Value(!b);
  }
  if (v.type() == DataType::kInt64) {
    BIGDAWG_ASSIGN_OR_RETURN(int64_t n, CheckedNegate(v.int64_unchecked()));
    return Value(n);
  }
  BIGDAWG_ASSIGN_OR_RETURN(double d, v.ToNumeric());
  return Value(-d);
}

Result<Value> ApplyFunction(const std::string& fn, const std::vector<Value>& args) {
  if (fn == "coalesce") {
    return args[0].is_null() ? args[1] : args[0];
  }
  if (args[0].is_null()) return Value::Null();
  if (fn == "abs") {
    if (args[0].type() == DataType::kInt64) {
      int64_t v = args[0].int64_unchecked();
      if (v >= 0) return Value(v);
      BIGDAWG_ASSIGN_OR_RETURN(int64_t n, CheckedNegate(v));
      return Value(n);
    }
    BIGDAWG_ASSIGN_OR_RETURN(double d, args[0].ToNumeric());
    return Value(std::fabs(d));
  }
  if (fn == "sqrt" || fn == "round" || fn == "floor" || fn == "ceil") {
    BIGDAWG_ASSIGN_OR_RETURN(double d, args[0].ToNumeric());
    if (fn == "sqrt") {
      if (d < 0) return Status::InvalidArgument("sqrt of negative value");
      return Value(std::sqrt(d));
    }
    if (fn == "round") return Value(std::round(d));
    if (fn == "floor") return Value(std::floor(d));
    return Value(std::ceil(d));
  }
  if (fn == "length") {
    BIGDAWG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
    return Value(static_cast<int64_t>(s.size()));
  }
  if (fn == "lower" || fn == "upper") {
    BIGDAWG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
    return Value(fn == "lower" ? ToLower(s) : ToUpper(s));
  }
  if (fn == "contains") {
    if (args[1].is_null()) return Value::Null();
    BIGDAWG_ASSIGN_OR_RETURN(std::string s, args[0].AsString());
    BIGDAWG_ASSIGN_OR_RETURN(std::string sub, args[1].AsString());
    return Value(s.find(sub) != std::string::npos);
  }
  return Status::NotImplemented("unknown function: " + fn);
}

}  // namespace scalar

using scalar::ApplyBinary;
using scalar::ApplyFunction;
using scalar::ApplyUnary;
using scalar::IsComparison;

Status LiteralExpr::Bind(const Schema& schema) {
  (void)schema;
  return Status::OK();
}

Result<Value> LiteralExpr::Eval(const Row& row) const {
  (void)row;
  return value_;
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == DataType::kString) return "'" + value_.ToString() + "'";
  return value_.ToString();
}

Status ColumnExpr::Bind(const Schema& schema) {
  BIGDAWG_ASSIGN_OR_RETURN(index_, schema.Resolve(name_));
  type_ = schema.field(index_).type;
  return Status::OK();
}

Result<Value> ColumnExpr::Eval(const Row& row) const {
  if (index_ >= row.size()) {
    return Status::Internal("column index out of range (Bind not called?)");
  }
  return row[index_];
}

Status BinaryExpr::Bind(const Schema& schema) {
  BIGDAWG_RETURN_NOT_OK(left_->Bind(schema));
  BIGDAWG_RETURN_NOT_OK(right_->Bind(schema));
  const DataType lt = left_->output_type();
  const DataType rt = right_->output_type();
  if (IsComparison(op_) || op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr ||
      op_ == BinaryOp::kLike) {
    type_ = DataType::kBool;
  } else if (IsArithmetic(op_)) {
    // String + string is concatenation.
    if (op_ == BinaryOp::kAdd && lt == DataType::kString && rt == DataType::kString) {
      type_ = DataType::kString;
    } else if (lt == DataType::kDouble || rt == DataType::kDouble ||
               op_ == BinaryOp::kDiv) {
      type_ = DataType::kDouble;
    } else {
      type_ = DataType::kInt64;
    }
  }
  return Status::OK();
}

Result<Value> BinaryExpr::Eval(const Row& row) const {
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    BIGDAWG_ASSIGN_OR_RETURN(Value lv, left_->Eval(row));
    // Three-valued logic with shortcuts.
    if (!lv.is_null()) {
      BIGDAWG_ASSIGN_OR_RETURN(bool lb, lv.AsBool());
      if (op_ == BinaryOp::kAnd && !lb) return Value(false);
      if (op_ == BinaryOp::kOr && lb) return Value(true);
    }
    BIGDAWG_ASSIGN_OR_RETURN(Value rv, right_->Eval(row));
    if (rv.is_null() || lv.is_null()) {
      // AND: false already returned; remaining null combos are null unless
      // OR with true (already returned) -- but null AND false is false,
      // null OR true is true; handle those:
      if (!rv.is_null()) {
        BIGDAWG_ASSIGN_OR_RETURN(bool rb, rv.AsBool());
        if (op_ == BinaryOp::kAnd && !rb) return Value(false);
        if (op_ == BinaryOp::kOr && rb) return Value(true);
      }
      return Value::Null();
    }
    BIGDAWG_ASSIGN_OR_RETURN(bool lb, lv.AsBool());
    BIGDAWG_ASSIGN_OR_RETURN(bool rb, rv.AsBool());
    return Value(op_ == BinaryOp::kAnd ? (lb && rb) : (lb || rb));
  }

  BIGDAWG_ASSIGN_OR_RETURN(Value lv, left_->Eval(row));
  BIGDAWG_ASSIGN_OR_RETURN(Value rv, right_->Eval(row));
  return ApplyBinary(op_, lv, rv);
}

std::string BinaryExpr::ToString() const {
  std::ostringstream oss;
  oss << "(" << left_->ToString() << " " << BinaryOpToString(op_) << " "
      << right_->ToString() << ")";
  return oss.str();
}

Status UnaryExpr::Bind(const Schema& schema) {
  BIGDAWG_RETURN_NOT_OK(operand_->Bind(schema));
  type_ = (op_ == UnaryOp::kNeg) ? operand_->output_type() : DataType::kBool;
  return Status::OK();
}

Result<Value> UnaryExpr::Eval(const Row& row) const {
  BIGDAWG_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  return ApplyUnary(op_, v);
}

std::string UnaryExpr::ToString() const {
  if (op_ == UnaryOp::kIsNull) return "(" + operand_->ToString() + " IS NULL)";
  return std::string(op_ == UnaryOp::kNot ? "NOT " : "-") + operand_->ToString();
}

Status FunctionExpr::Bind(const Schema& schema) {
  for (auto& arg : args_) BIGDAWG_RETURN_NOT_OK(arg->Bind(schema));
  const std::string fn = ToLower(name_);
  auto expect_args = [&](size_t n) -> Status {
    if (args_.size() != n) {
      return Status::InvalidArgument(fn + " expects " + std::to_string(n) +
                                     " argument(s), got " +
                                     std::to_string(args_.size()));
    }
    return Status::OK();
  };
  if (fn == "abs" || fn == "round" || fn == "floor" || fn == "ceil" || fn == "sqrt") {
    BIGDAWG_RETURN_NOT_OK(expect_args(1));
    type_ = (fn == "abs" && args_[0]->output_type() == DataType::kInt64)
                ? DataType::kInt64
                : DataType::kDouble;
  } else if (fn == "length") {
    BIGDAWG_RETURN_NOT_OK(expect_args(1));
    type_ = DataType::kInt64;
  } else if (fn == "lower" || fn == "upper") {
    BIGDAWG_RETURN_NOT_OK(expect_args(1));
    type_ = DataType::kString;
  } else if (fn == "contains") {
    BIGDAWG_RETURN_NOT_OK(expect_args(2));
    type_ = DataType::kBool;
  } else if (fn == "coalesce") {
    BIGDAWG_RETURN_NOT_OK(expect_args(2));
    type_ = args_[0]->output_type();
  } else {
    return Status::NotImplemented("unknown function: " + name_);
  }
  return Status::OK();
}

Result<Value> FunctionExpr::Eval(const Row& row) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) {
    BIGDAWG_ASSIGN_OR_RETURN(Value v, a->Eval(row));
    args.push_back(std::move(v));
  }
  return ApplyFunction(ToLower(name_), args);
}

std::string FunctionExpr::ToString() const {
  std::ostringstream oss;
  oss << name_ << "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << args_[i]->ToString();
  }
  oss << ")";
  return oss.str();
}

ExprPtr FunctionExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_unique<FunctionExpr>(name_, std::move(args));
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match: '%' any run, '_' single char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  const auto* bin = dynamic_cast<const BinaryExpr*>(expr);
  if (bin != nullptr && bin->op() == BinaryOp::kAnd) {
    SplitConjuncts(&bin->left(), out);
    SplitConjuncts(&bin->right(), out);
  } else {
    out->push_back(expr);
  }
}

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Col(std::string name) { return std::make_unique<ColumnExpr>(std::move(name)); }
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}

}  // namespace bigdawg::relational
