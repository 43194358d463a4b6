#ifndef BIGDAWG_RELATIONAL_SCALAR_OPS_H_
#define BIGDAWG_RELATIONAL_SCALAR_OPS_H_

// The per-cell semantics of the scalar operators, shared by Expr::Eval
// (expression.cc) and the batch kernels (expression_batch.cc), so the
// two evaluate every operator identically.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "relational/expression.h"

namespace bigdawg::relational::scalar {

inline bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

inline bool CompareResult(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:
      return c >= 0;
  }
}

// The one int64 arithmetic helper, shared by Eval and the batch kernels:
// +, - and * report overflow instead of wrapping; x % -1 is 0 (the
// hardware traps on INT64_MIN % -1).
inline Result<int64_t> CheckedIntOp(BinaryOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  bool overflow = false;
  switch (op) {
    case BinaryOp::kAdd:
      overflow = __builtin_add_overflow(a, b, &r);
      break;
    case BinaryOp::kSub:
      overflow = __builtin_sub_overflow(a, b, &r);
      break;
    case BinaryOp::kMul:
      overflow = __builtin_mul_overflow(a, b, &r);
      break;
    case BinaryOp::kMod:
      if (b == 0) return Status::InvalidArgument("modulo by zero");
      return b == -1 ? 0 : a % b;
    default:
      return Status::Internal("not an integer operator");
  }
  if (overflow) {
    return Status::OutOfRange(std::string("integer overflow in ") + BinaryOpToString(op));
  }
  return r;
}

inline Result<int64_t> CheckedNegate(int64_t a) {
  if (a == std::numeric_limits<int64_t>::min()) {
    return Status::OutOfRange("integer overflow in unary -");
  }
  return -a;
}

/// A non-logical binary operator on one pair of cells.
Result<Value> ApplyBinary(BinaryOp op, const Value& lv, const Value& rv);

/// A unary operator on one cell.
Result<Value> ApplyUnary(UnaryOp op, const Value& v);

/// Function `fn` (lowercase) applied to evaluated arguments.
Result<Value> ApplyFunction(const std::string& fn, const std::vector<Value>& args);

}  // namespace bigdawg::relational::scalar

#endif  // BIGDAWG_RELATIONAL_SCALAR_OPS_H_
