#ifndef BIGDAWG_RELATIONAL_SQL_AST_H_
#define BIGDAWG_RELATIONAL_SQL_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/schema.h"
#include "relational/expression.h"

namespace bigdawg::relational {

/// \brief Aggregate functions allowed in a SELECT list.
enum class AggregateFunc : int { kNone, kCount, kSum, kAvg, kMin, kMax };

const char* AggregateFuncToString(AggregateFunc f);

/// \brief Inverse of AggregateFuncToString, case-insensitive; "" is kNone.
/// InvalidArgument for any other name.
Result<AggregateFunc> AggregateFuncFromString(const std::string& name);

/// \brief One item in a SELECT list. Exactly one of {star, aggregate,
/// scalar expr} applies.
struct SelectItem {
  bool is_star = false;
  AggregateFunc agg = AggregateFunc::kNone;
  bool count_star = false;   // COUNT(*)
  ExprPtr expr;              // scalar expr, or aggregate argument
  std::string alias;         // output column name ("" = derived)

  SelectItem() = default;
  SelectItem(SelectItem&&) = default;
  SelectItem& operator=(SelectItem&&) = default;

  SelectItem Clone() const;
};

struct TableRef {
  std::string name;
  std::string alias;  // "" = use name

  const std::string& effective_name() const { return alias.empty() ? name : alias; }
};

struct JoinClause {
  TableRef table;
  ExprPtr on;

  JoinClause() = default;
  JoinClause(JoinClause&&) = default;
  JoinClause& operator=(JoinClause&&) = default;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;

  OrderItem() = default;
  OrderItem(OrderItem&&) = default;
  OrderItem& operator=(OrderItem&&) = default;

  OrderItem Clone() const;
};

/// \brief Parsed SELECT ... FROM ... [JOIN]* [WHERE] [GROUP BY] [HAVING]
/// [ORDER BY] [LIMIT].
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;                       // may be null
  std::vector<std::string> group_by;   // column names
  ExprPtr having;                      // binds against the aggregate output
  std::vector<OrderItem> order_by;
  int64_t limit = -1;                  // -1 = no limit

  bool HasAggregates() const;
};

struct CreateTableStatement {
  std::string table;
  Schema schema;
};

struct InsertStatement {
  std::string table;
  std::vector<Row> rows;
};

struct DeleteStatement {
  std::string table;
  ExprPtr where;  // may be null (delete all)
};

struct DropTableStatement {
  std::string table;
};

/// \brief UPDATE <table> SET col = expr [, ...] [WHERE expr].
struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null (update all)

  UpdateStatement() = default;
  UpdateStatement(UpdateStatement&&) = default;
  UpdateStatement& operator=(UpdateStatement&&) = default;
};

/// \brief Any parsed SQL statement.
using Statement = std::variant<SelectStatement, CreateTableStatement,
                               InsertStatement, DeleteStatement,
                               DropTableStatement, UpdateStatement>;

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_SQL_AST_H_
