#include "relational/sql_parser.h"

#include <cstdlib>

#include "common/macros.h"
#include "common/string_util.h"

namespace bigdawg::relational {

const char* AggregateFuncToString(AggregateFunc f) {
  switch (f) {
    case AggregateFunc::kNone:
      return "none";
    case AggregateFunc::kCount:
      return "count";
    case AggregateFunc::kSum:
      return "sum";
    case AggregateFunc::kAvg:
      return "avg";
    case AggregateFunc::kMin:
      return "min";
    case AggregateFunc::kMax:
      return "max";
  }
  return "?";
}

Result<AggregateFunc> AggregateFuncFromString(const std::string& name) {
  if (name.empty()) return AggregateFunc::kNone;
  for (AggregateFunc f : {AggregateFunc::kCount, AggregateFunc::kSum, AggregateFunc::kAvg,
                          AggregateFunc::kMin, AggregateFunc::kMax}) {
    if (EqualsIgnoreCase(name, AggregateFuncToString(f))) return f;
  }
  return Status::InvalidArgument("unknown aggregate: " + name);
}

OrderItem OrderItem::Clone() const {
  OrderItem out;
  out.expr = expr->Clone();
  out.descending = descending;
  return out;
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  out.is_star = is_star;
  out.agg = agg;
  out.count_star = count_star;
  out.expr = expr ? expr->Clone() : nullptr;
  out.alias = alias;
  return out;
}

bool SelectStatement::HasAggregates() const {
  for (const SelectItem& item : items) {
    if (item.agg != AggregateFunc::kNone) return true;
  }
  return !group_by.empty();
}

namespace {

class Parser {
 public:
  explicit Parser(TokenCursor* cursor) : cur_(*cursor) {}

  Result<Statement> ParseStatement() {
    if (cur_.Peek().IsKeyword("SELECT")) {
      BIGDAWG_ASSIGN_OR_RETURN(SelectStatement s, ParseSelect());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    if (cur_.Peek().IsKeyword("CREATE")) {
      BIGDAWG_ASSIGN_OR_RETURN(CreateTableStatement s, ParseCreate());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    if (cur_.Peek().IsKeyword("INSERT")) {
      BIGDAWG_ASSIGN_OR_RETURN(InsertStatement s, ParseInsert());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    if (cur_.Peek().IsKeyword("DELETE")) {
      BIGDAWG_ASSIGN_OR_RETURN(DeleteStatement s, ParseDelete());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    if (cur_.Peek().IsKeyword("DROP")) {
      BIGDAWG_ASSIGN_OR_RETURN(DropTableStatement s, ParseDrop());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    if (cur_.Peek().IsKeyword("UPDATE")) {
      BIGDAWG_ASSIGN_OR_RETURN(UpdateStatement s, ParseUpdate());
      BIGDAWG_RETURN_NOT_OK(ExpectFinished());
      return Statement(std::move(s));
    }
    return Status::ParseError(
        "expected SELECT/CREATE/INSERT/UPDATE/DELETE/DROP, got '" +
        cur_.Peek().text + "'");
  }

  Result<SelectStatement> ParseSelect() {
    SelectStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("SELECT"));
    stmt.distinct = cur_.ConsumeKeyword("DISTINCT");

    // Select list.
    do {
      BIGDAWG_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      stmt.items.push_back(std::move(item));
    } while (cur_.ConsumeSymbol(","));

    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("FROM"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());

    while (cur_.Peek().IsKeyword("JOIN") || cur_.Peek().IsKeyword("INNER")) {
      cur_.ConsumeKeyword("INNER");
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("JOIN"));
      JoinClause join;
      BIGDAWG_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("ON"));
      BIGDAWG_ASSIGN_OR_RETURN(join.on, ParseExpr());
      stmt.joins.push_back(std::move(join));
    }

    if (cur_.ConsumeKeyword("WHERE")) {
      BIGDAWG_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (cur_.Peek().IsKeyword("GROUP")) {
      cur_.Next();
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("BY"));
      do {
        BIGDAWG_ASSIGN_OR_RETURN(std::string col, ParseQualifiedName());
        stmt.group_by.push_back(std::move(col));
      } while (cur_.ConsumeSymbol(","));
    }
    if (cur_.ConsumeKeyword("HAVING")) {
      BIGDAWG_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (cur_.Peek().IsKeyword("ORDER")) {
      cur_.Next();
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("BY"));
      do {
        OrderItem item;
        BIGDAWG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (cur_.ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          cur_.ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
      } while (cur_.ConsumeSymbol(","));
    }
    if (cur_.ConsumeKeyword("LIMIT")) {
      if (cur_.Peek().type != TokenType::kInteger) {
        return Status::ParseError("LIMIT expects an integer");
      }
      stmt.limit = std::strtoll(cur_.Next().text.c_str(), nullptr, 10);
    }
    return stmt;
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

 private:
  Status ExpectFinished() {
    cur_.ConsumeSymbol(";");
    if (!cur_.AtEnd()) {
      return Status::ParseError("unexpected trailing input: '" + cur_.Peek().text + "'");
    }
    return Status::OK();
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (cur_.Peek().IsSymbol("*")) {
      cur_.Next();
      item.is_star = true;
      return item;
    }
    // Aggregate?
    const Token& tok = cur_.Peek();
    if (tok.type == TokenType::kIdentifier && cur_.Peek(1).IsSymbol("(")) {
      AggregateFunc agg = AggregateFunc::kNone;
      if (EqualsIgnoreCase(tok.text, "COUNT")) agg = AggregateFunc::kCount;
      else if (EqualsIgnoreCase(tok.text, "SUM")) agg = AggregateFunc::kSum;
      else if (EqualsIgnoreCase(tok.text, "AVG")) agg = AggregateFunc::kAvg;
      else if (EqualsIgnoreCase(tok.text, "MIN")) agg = AggregateFunc::kMin;
      else if (EqualsIgnoreCase(tok.text, "MAX")) agg = AggregateFunc::kMax;
      if (agg != AggregateFunc::kNone) {
        cur_.Next();  // name
        cur_.Next();  // (
        item.agg = agg;
        if (agg == AggregateFunc::kCount && cur_.Peek().IsSymbol("*")) {
          cur_.Next();
          item.count_star = true;
        } else {
          BIGDAWG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        }
        BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol(")"));
        if (cur_.ConsumeKeyword("AS")) {
          BIGDAWG_ASSIGN_OR_RETURN(item.alias, cur_.ExpectIdentifier());
        }
        return item;
      }
    }
    BIGDAWG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (cur_.ConsumeKeyword("AS")) {
      BIGDAWG_ASSIGN_OR_RETURN(item.alias, cur_.ExpectIdentifier());
    }
    return item;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    BIGDAWG_ASSIGN_OR_RETURN(ref.name, ParseQualifiedName());
    // Optional alias: bare identifier that is not a clause keyword.
    const Token& tok = cur_.Peek();
    if (tok.type == TokenType::kIdentifier && !IsClauseKeyword(tok.text)) {
      ref.alias = cur_.Next().text;
    } else if (cur_.ConsumeKeyword("AS")) {
      BIGDAWG_ASSIGN_OR_RETURN(ref.alias, cur_.ExpectIdentifier());
    }
    return ref;
  }

  static bool IsClauseKeyword(const std::string& word) {
    static const char* kWords[] = {"JOIN",  "INNER", "WHERE", "GROUP", "HAVING",
                                   "ORDER", "LIMIT", "ON",    "AS",    "DESC",
                                   "ASC",   "BY"};
    for (const char* w : kWords) {
      if (EqualsIgnoreCase(word, w)) return true;
    }
    return false;
  }

  Result<std::string> ParseQualifiedName() {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, cur_.ExpectIdentifier());
    while (cur_.Peek().IsSymbol(".")) {
      cur_.Next();
      BIGDAWG_ASSIGN_OR_RETURN(std::string part, cur_.ExpectIdentifier());
      name += "." + part;
    }
    return name;
  }

  Result<ExprPtr> ParseOr() {
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (cur_.ConsumeKeyword("OR")) {
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Bin(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (cur_.ConsumeKeyword("AND")) {
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Bin(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (cur_.ConsumeKeyword("NOT")) {
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (cur_.ConsumeKeyword("IS")) {
      const bool negated = cur_.ConsumeKeyword("NOT");
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("NULL"));
      ExprPtr is_null = std::make_unique<UnaryExpr>(UnaryOp::kIsNull, std::move(left));
      if (!negated) return is_null;
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(is_null)));
    }
    const Token& tok = cur_.Peek();
    BinaryOp op;
    if (tok.IsSymbol("=")) op = BinaryOp::kEq;
    else if (tok.IsSymbol("<>")) op = BinaryOp::kNe;
    else if (tok.IsSymbol("<")) op = BinaryOp::kLt;
    else if (tok.IsSymbol("<=")) op = BinaryOp::kLe;
    else if (tok.IsSymbol(">")) op = BinaryOp::kGt;
    else if (tok.IsSymbol(">=")) op = BinaryOp::kGe;
    else if (tok.IsKeyword("LIKE")) op = BinaryOp::kLike;
    else return left;
    cur_.Next();
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return Bin(op, std::move(left), std::move(right));
  }

  Result<ExprPtr> ParseAdditive() {
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (cur_.Peek().IsSymbol("+") || cur_.Peek().IsSymbol("-")) {
      BinaryOp op = cur_.Next().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Bin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    BIGDAWG_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (cur_.Peek().IsSymbol("*") || cur_.Peek().IsSymbol("/") ||
           cur_.Peek().IsSymbol("%")) {
      const Token tok = cur_.Next();
      BinaryOp op = tok.text == "*"
                        ? BinaryOp::kMul
                        : (tok.text == "/" ? BinaryOp::kDiv : BinaryOp::kMod);
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = Bin(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (cur_.ConsumeSymbol("-")) {
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNeg, std::move(operand)));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token tok = cur_.Peek();
    switch (tok.type) {
      case TokenType::kInteger: {
        cur_.Next();
        return Lit(Value(static_cast<int64_t>(std::strtoll(tok.text.c_str(),
                                                           nullptr, 10))));
      }
      case TokenType::kFloat: {
        cur_.Next();
        return Lit(Value(std::strtod(tok.text.c_str(), nullptr)));
      }
      case TokenType::kString: {
        cur_.Next();
        return Lit(Value(tok.text));
      }
      case TokenType::kIdentifier: {
        if (tok.IsKeyword("TRUE")) {
          cur_.Next();
          return Lit(Value(true));
        }
        if (tok.IsKeyword("FALSE")) {
          cur_.Next();
          return Lit(Value(false));
        }
        if (tok.IsKeyword("NULL")) {
          cur_.Next();
          return Lit(Value::Null());
        }
        // Function call?
        if (cur_.Peek(1).IsSymbol("(")) {
          std::string name = cur_.Next().text;
          cur_.Next();  // (
          std::vector<ExprPtr> args;
          if (!cur_.Peek().IsSymbol(")")) {
            do {
              BIGDAWG_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
            } while (cur_.ConsumeSymbol(","));
          }
          BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol(")"));
          return ExprPtr(std::make_unique<FunctionExpr>(std::move(name), std::move(args)));
        }
        BIGDAWG_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
        return Col(std::move(name));
      }
      case TokenType::kSymbol: {
        if (tok.text == "(") {
          cur_.Next();
          BIGDAWG_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol(")"));
          return inner;
        }
        break;
      }
      default:
        break;
    }
    return Status::ParseError("unexpected token '" + tok.text + "' in expression");
  }

  Result<CreateTableStatement> ParseCreate() {
    CreateTableStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("CREATE"));
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("TABLE"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.table, cur_.ExpectIdentifier());
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol("("));
    do {
      BIGDAWG_ASSIGN_OR_RETURN(std::string col, cur_.ExpectIdentifier());
      BIGDAWG_ASSIGN_OR_RETURN(std::string type_name, cur_.ExpectIdentifier());
      BIGDAWG_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(ToLower(type_name)));
      BIGDAWG_RETURN_NOT_OK(stmt.schema.AddField(Field(col, type)));
    } while (cur_.ConsumeSymbol(","));
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol(")"));
    return stmt;
  }

  Result<InsertStatement> ParseInsert() {
    InsertStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("INSERT"));
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("INTO"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.table, cur_.ExpectIdentifier());
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("VALUES"));
    do {
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol("("));
      Row row;
      do {
        BIGDAWG_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        // Values must be literal expressions (possibly negated).
        Schema empty;
        BIGDAWG_RETURN_NOT_OK(e->Bind(empty));
        BIGDAWG_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}));
        row.push_back(std::move(v));
      } while (cur_.ConsumeSymbol(","));
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
    } while (cur_.ConsumeSymbol(","));
    return stmt;
  }

  Result<DeleteStatement> ParseDelete() {
    DeleteStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("DELETE"));
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("FROM"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.table, cur_.ExpectIdentifier());
    if (cur_.ConsumeKeyword("WHERE")) {
      BIGDAWG_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<UpdateStatement> ParseUpdate() {
    UpdateStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("UPDATE"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.table, cur_.ExpectIdentifier());
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("SET"));
    do {
      BIGDAWG_ASSIGN_OR_RETURN(std::string column, cur_.ExpectIdentifier());
      BIGDAWG_RETURN_NOT_OK(cur_.ExpectSymbol("="));
      BIGDAWG_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(column), std::move(value));
    } while (cur_.ConsumeSymbol(","));
    if (cur_.ConsumeKeyword("WHERE")) {
      BIGDAWG_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<DropTableStatement> ParseDrop() {
    DropTableStatement stmt;
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("DROP"));
    BIGDAWG_RETURN_NOT_OK(cur_.ExpectKeyword("TABLE"));
    BIGDAWG_ASSIGN_OR_RETURN(stmt.table, cur_.ExpectIdentifier());
    return stmt;
  }

  TokenCursor& cur_;
};

}  // namespace

Result<Statement> ParseSql(const std::string& sql) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  TokenCursor cursor(std::move(tokens));
  Parser parser(&cursor);
  return parser.ParseStatement();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  TokenCursor cursor(std::move(tokens));
  Parser parser(&cursor);
  BIGDAWG_ASSIGN_OR_RETURN(ExprPtr expr, parser.ParseExpr());
  if (!cursor.AtEnd()) {
    return Status::ParseError("unexpected trailing input in expression: '" +
                              cursor.Peek().text + "'");
  }
  return expr;
}

Result<ExprPtr> ParseExpressionFromCursor(TokenCursor* cursor) {
  Parser parser(cursor);
  return parser.ParseExpr();
}

}  // namespace bigdawg::relational
