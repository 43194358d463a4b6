#include "relational/database.h"

#include <mutex>

#include "common/macros.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace bigdawg::relational {

namespace {

Table RowsAffected(int64_t n) {
  Table t(Schema({Field("rows_affected", DataType::kInt64)}));
  t.AppendUnchecked({Value(n)});
  return t;
}

}  // namespace

Status Database::CreateTable(const std::string& name, Schema schema) {
  std::unique_lock lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_.emplace(name, Table(std::move(schema)));
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  std::unique_lock lock(mu_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("no table named " + name);
  }
  return Status::OK();
}

Status Database::Insert(const std::string& table, Row row) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table named " + table);
  return it->second.Append(std::move(row));
}

Status Database::InsertMany(const std::string& table, std::vector<Row> rows) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table named " + table);
  for (Row& row : rows) {
    BIGDAWG_RETURN_NOT_OK(it->second.Append(std::move(row)));
  }
  return Status::OK();
}

Status Database::PutTable(const std::string& name, Table table) {
  std::unique_lock lock(mu_);
  tables_.insert_or_assign(name, std::move(table));
  return Status::OK();
}

Result<int64_t> Database::Delete(const std::string& table, const Expr* where) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table named " + table);
  std::vector<Row>& rows = it->second.mutable_rows();
  if (where == nullptr) {
    int64_t n = static_cast<int64_t>(rows.size());
    rows.clear();
    return n;
  }
  ExprPtr pred = where->Clone();
  BIGDAWG_RETURN_NOT_OK(pred->Bind(it->second.schema()));
  std::vector<Row> kept;
  kept.reserve(rows.size());
  int64_t removed = 0;
  for (Row& row : rows) {
    BIGDAWG_ASSIGN_OR_RETURN(Value v, pred->Eval(row));
    if (IsTrue(v)) {
      ++removed;
    } else {
      kept.push_back(std::move(row));
    }
  }
  rows = std::move(kept);
  return removed;
}

Result<int64_t> Database::Update(
    const std::string& table,
    const std::vector<std::pair<std::string, ExprPtr>>& assignments,
    const Expr* where) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table named " + table);
  // Thaw before borrowing the schema reference: mutable_rows() may clone a
  // shared block, and a reference taken earlier would point into the old rep.
  std::vector<Row>& rows = it->second.mutable_rows();
  const Schema& schema = it->second.schema();

  struct BoundAssignment {
    size_t column;
    DataType type;
    ExprPtr value;
  };
  std::vector<BoundAssignment> bound;
  for (const auto& [column, value] : assignments) {
    BIGDAWG_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(column));
    BoundAssignment b{idx, schema.field(idx).type, value->Clone()};
    BIGDAWG_RETURN_NOT_OK(b.value->Bind(schema));
    bound.push_back(std::move(b));
  }
  ExprPtr pred;
  if (where != nullptr) {
    pred = where->Clone();
    BIGDAWG_RETURN_NOT_OK(pred->Bind(schema));
  }

  int64_t updated = 0;
  for (Row& row : rows) {
    if (pred != nullptr) {
      BIGDAWG_ASSIGN_OR_RETURN(Value match, pred->Eval(row));
      if (!IsTrue(match)) continue;
    }
    // Evaluate every assignment against the pre-update row (standard SQL
    // semantics: SET a = b, b = a swaps).
    std::vector<Value> new_values;
    new_values.reserve(bound.size());
    for (const BoundAssignment& b : bound) {
      BIGDAWG_ASSIGN_OR_RETURN(Value v, b.value->Eval(row));
      if (!v.is_null() && v.type() != b.type) {
        BIGDAWG_ASSIGN_OR_RETURN(v, v.CastTo(b.type));
      }
      new_values.push_back(std::move(v));
    }
    for (size_t i = 0; i < bound.size(); ++i) {
      row[bound[i].column] = std::move(new_values[i]);
    }
    ++updated;
  }
  return updated;
}

Result<Table> Database::ExecuteSql(const std::string& sql) {
  BIGDAWG_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (auto* select = std::get_if<SelectStatement>(&stmt)) {
    return ExecuteSelect(*select);
  }
  if (auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    BIGDAWG_RETURN_NOT_OK(CreateTable(create->table, create->schema));
    return RowsAffected(0);
  }
  if (auto* insert = std::get_if<InsertStatement>(&stmt)) {
    int64_t n = static_cast<int64_t>(insert->rows.size());
    BIGDAWG_RETURN_NOT_OK(InsertMany(insert->table, std::move(insert->rows)));
    return RowsAffected(n);
  }
  if (auto* del = std::get_if<DeleteStatement>(&stmt)) {
    BIGDAWG_ASSIGN_OR_RETURN(int64_t n, Delete(del->table, del->where.get()));
    return RowsAffected(n);
  }
  if (auto* drop = std::get_if<DropTableStatement>(&stmt)) {
    BIGDAWG_RETURN_NOT_OK(DropTable(drop->table));
    return RowsAffected(0);
  }
  if (auto* update = std::get_if<UpdateStatement>(&stmt)) {
    BIGDAWG_ASSIGN_OR_RETURN(
        int64_t n, Update(update->table, update->assignments, update->where.get()));
    return RowsAffected(n);
  }
  return Status::Internal("unhandled statement kind");
}

Result<Table> Database::ExecuteSelect(const SelectStatement& stmt) const {
  std::shared_lock lock(mu_);
  TableResolver resolver = [this](const std::string& name) -> Result<const Table*> {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table named " + name);
    return &it->second;
  };
  return relational::ExecuteSelect(stmt, resolver);
}

Result<Table> Database::GetTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second;
}

Result<Schema> Database::GetSchema(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.schema();
}

bool Database::HasTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::ListTables() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

Result<size_t> Database::TableRowCount(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.num_rows();
}

}  // namespace bigdawg::relational
