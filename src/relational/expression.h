#ifndef BIGDAWG_RELATIONAL_EXPRESSION_H_
#define BIGDAWG_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"
#include "relational/batch.h"

namespace bigdawg::relational {

/// \brief Scalar expression operators.
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kLike,
};

enum class UnaryOp { kNot, kNeg, kIsNull };

const char* BinaryOpToString(BinaryOp op);

/// \brief A scalar expression tree, evaluated per row or per batch.
///
/// Usage: build the tree (parser or programmatic), Bind() it against the
/// input schema once (resolves column references), then Eval() per row
/// or EvalBatch() over a batch with that schema.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Resolves column references and checks types against `schema`.
  virtual Status Bind(const Schema& schema) = 0;

  /// Evaluates against a row that matches the bound schema. SQL NULL
  /// semantics: any NULL operand yields NULL (except AND/OR shortcuts).
  virtual Result<Value> Eval(const Row& row) const = 0;

  /// Evaluates at the positions `sel` of `batch` into `out` (one entry
  /// per position, or a scalar). Each entry is what Eval returns on that
  /// row; AND/OR evaluate their right side only where the left leaves the
  /// answer open, and `out->error` is the error Eval would raise first in
  /// position order. Comparisons, arithmetic, AND/OR/NOT and IS NULL run
  /// as typed kernels; LIKE, string + and functions apply per element.
  void EvalBatch(const Batch& batch, Selection sel, Vector* out) const;

  /// Static result type, valid after Bind().
  virtual DataType output_type() const = 0;

  virtual std::string ToString() const = 0;

  /// Deep copy (unbound state is preserved; Bind must be called again).
  virtual std::unique_ptr<Expr> Clone() const = 0;

  /// Appends the names of every column this expression references.
  virtual void CollectColumnRefs(std::vector<std::string>* out) const = 0;

 protected:
  /// EvalBatch over a non-empty selection; `out` starts empty.
  virtual void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// \brief A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  DataType output_type() const override { return value_.type(); }
  std::string ToString() const override;
  ExprPtr Clone() const override { return std::make_unique<LiteralExpr>(value_); }
  void CollectColumnRefs(std::vector<std::string>* out) const override { (void)out; }

  const Value& value() const { return value_; }

 protected:
  void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const override;

 private:
  Value value_;
};

/// \brief A reference to a named input column.
class ColumnExpr final : public Expr {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  DataType output_type() const override { return type_; }
  std::string ToString() const override { return name_; }
  ExprPtr Clone() const override { return std::make_unique<ColumnExpr>(name_); }
  void CollectColumnRefs(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }

  const std::string& name() const { return name_; }
  size_t index() const { return index_; }

 protected:
  void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const override;

 private:
  std::string name_;
  size_t index_ = 0;
  DataType type_ = DataType::kNull;
};

/// \brief A binary operation.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  DataType output_type() const override { return type_; }
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op_, left_->Clone(), right_->Clone());
  }
  void CollectColumnRefs(std::vector<std::string>* out) const override {
    left_->CollectColumnRefs(out);
    right_->CollectColumnRefs(out);
  }

  BinaryOp op() const { return op_; }
  const Expr& left() const { return *left_; }
  const Expr& right() const { return *right_; }

 protected:
  void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const override;

 private:
  void EvalLogical(const Batch& batch, Selection sel, Vector* out) const;
  bool EvalColumnVersusLiteral(const Batch& batch, Selection sel, Vector* out) const;

  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
  DataType type_ = DataType::kNull;
};

/// \brief NOT / unary minus / IS NULL.
class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand) : op_(op), operand_(std::move(operand)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  DataType output_type() const override { return type_; }
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op_, operand_->Clone());
  }
  void CollectColumnRefs(std::vector<std::string>* out) const override {
    operand_->CollectColumnRefs(out);
  }

 protected:
  void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
  DataType type_ = DataType::kNull;
};

/// \brief Scalar function call. Supported: abs, sqrt, round, floor, ceil,
/// length, lower, upper, contains(text, needle), coalesce(a, b).
class FunctionExpr final : public Expr {
 public:
  FunctionExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}

  Status Bind(const Schema& schema) override;
  Result<Value> Eval(const Row& row) const override;
  DataType output_type() const override { return type_; }
  std::string ToString() const override;
  ExprPtr Clone() const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override {
    for (const auto& arg : args_) arg->CollectColumnRefs(out);
  }

  const std::string& name() const { return name_; }

 protected:
  void DoEvalBatch(const Batch& batch, Selection sel, Vector* out) const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
  DataType type_ = DataType::kNull;
};

/// \brief SQL LIKE with '%' (any run) and '_' (single char).
bool LikeMatch(const std::string& text, const std::string& pattern);

/// \brief SQL predicate semantics: only a boolean TRUE passes; NULL and
/// FALSE (and non-boolean values) reject the row.
inline bool IsTrue(const Value& v) {
  return !v.is_null() && v.type() == DataType::kBool && v.bool_unchecked();
}

/// \brief IsTrue of entry k of a vector.
bool IsTrue(const Vector& v, size_t k);

/// \brief Appends the conjuncts of `expr`'s top-level AND tree to `out`
/// (borrowed pointers; a non-AND expression is its own single conjunct).
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out);

/// Convenience builders used by tests and programmatic plans.
ExprPtr Lit(Value v);
ExprPtr Col(std::string name);
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r);

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_EXPRESSION_H_
