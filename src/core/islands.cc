#include "core/islands.h"

#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common/lexer.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/cast.h"
#include "myria/myria.h"
#include "relational/executor.h"
#include "relational/sql_parser.h"

namespace bigdawg::core {

namespace {

// Unqualified tail of a possibly-qualified column reference.
std::string UnqualifiedTail(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

// The single shard a point query can be pruned to, or -1 when the WHERE
// clause does not pin the placement's hash key to one literal. A
// `key = literal` conjunct means every qualifying row hashes to the
// literal's shard; the other shards cannot contribute to the aggregate.
int PrunedShard(const relational::SelectStatement& stmt,
                const ShardPlacement& placement) {
  if (placement.kind != PartitionKind::kHash || stmt.where == nullptr) {
    return -1;
  }
  std::vector<const relational::Expr*> conjuncts;
  relational::SplitConjuncts(stmt.where.get(), &conjuncts);
  for (const relational::Expr* conjunct : conjuncts) {
    const auto* bin = dynamic_cast<const relational::BinaryExpr*>(conjunct);
    if (bin == nullptr || bin->op() != relational::BinaryOp::kEq) continue;
    const auto* col = dynamic_cast<const relational::ColumnExpr*>(&bin->left());
    const auto* lit = dynamic_cast<const relational::LiteralExpr*>(&bin->right());
    if (col == nullptr || lit == nullptr) {
      col = dynamic_cast<const relational::ColumnExpr*>(&bin->right());
      lit = dynamic_cast<const relational::LiteralExpr*>(&bin->left());
    }
    if (col == nullptr || lit == nullptr) continue;
    if (UnqualifiedTail(col->name()) != placement.key) continue;
    return HashShardOf(lit->value(), placement.shard_count);
  }
  return -1;
}

relational::Table RowsAsStringTable(const std::vector<Row>& rows) {
  size_t width = 0;
  for (const Row& r : rows) width = std::max(width, r.size());
  std::vector<Field> fields;
  for (size_t i = 0; i < width; ++i) {
    fields.emplace_back("c" + std::to_string(i), DataType::kString);
  }
  relational::Table out{Schema(std::move(fields))};
  for (const Row& r : rows) {
    Row padded;
    padded.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      padded.push_back(i < r.size() ? Value(r[i].ToString()) : Value::Null());
    }
    out.AppendUnchecked(std::move(padded));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// RelationalIsland
// ---------------------------------------------------------------------------

Result<relational::Table> RelationalIsland::Execute(const std::string& query) {
  if (degenerate_) {
    return engines_.relational->ExecuteSql(query);
  }
  BIGDAWG_ASSIGN_OR_RETURN(relational::Statement stmt, relational::ParseSql(query));
  auto* select = std::get_if<relational::SelectStatement>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument(
        "the multi-engine relational island supports SELECT only (use the "
        "degenerate POSTGRES island for DDL/DML)");
  }
  // Distributive scalar aggregates over a sharded postgres table run as
  // per-shard partial queries instead of gathering the whole table; each
  // shard scans only its fragment (or a single shard, when the WHERE
  // clause pins the hash key). Any pushdown failure falls back to the
  // generic path, which retries across repartitions and applies replica
  // failover with typed errors.
  if (engines_.shards != nullptr && catalog_ != nullptr &&
      relational::IsDistributiveAggregate(*select)) {
    Result<ObjectSnapshot> snap = catalog_->Snapshot(select->from.name);
    if (snap.ok() && snap->placement.sharded() &&
        snap->location.engine == kEnginePostgres) {
      Result<relational::Table> pushed = ExecuteShardedAggregate(*select, *snap);
      if (pushed.ok()) return pushed;
    }
  }
  // Materialized shim tables must outlive execution.
  std::deque<relational::Table> arena;
  relational::TableResolver resolver =
      [this, &arena](const std::string& name) -> Result<const relational::Table*> {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, fetcher_(name));
    arena.push_back(std::move(t));
    return &arena.back();
  };
  return relational::ExecuteSelect(*select, resolver);
}

Result<relational::Table> RelationalIsland::ExecuteShardedAggregate(
    const relational::SelectStatement& stmt, const ObjectSnapshot& snap) {
  ShardRuntime& shards = *engines_.shards;
  const ShardPlacement& placement = snap.placement;
  // The per-shard statements are planned up front and owned by the task
  // lambda through a shared_ptr: a failed scatter returns before
  // abandoned tasks (and hedges) drain, so nothing they touch may live
  // on this stack frame.
  auto partial_stmts =
      std::make_shared<std::vector<relational::SelectStatement>>();
  partial_stmts->reserve(static_cast<size_t>(placement.shard_count));
  for (int s = 0; s < placement.shard_count; ++s) {
    BIGDAWG_ASSIGN_OR_RETURN(
        relational::SelectStatement partial,
        relational::BuildPartialAggregateSelect(
            stmt, ShardFragmentName(snap.location.native_name,
                                    placement.epoch, s)));
    partial_stmts->push_back(std::move(partial));
  }
  ShardRuntime* runtime = &shards;
  auto run_on = [runtime, partial_stmts](int shard) -> Result<relational::Table> {
    if (runtime->InstanceConsideredDown(kEnginePostgres, shard)) {
      return Status::Unavailable("shard instance " +
                                 ShardInstanceName(kEnginePostgres, shard) +
                                 " is down");
    }
    BIGDAWG_RETURN_NOT_OK(runtime->CheckInstance(kEnginePostgres, shard));
    return runtime->Relational(shard)->ExecuteSelect(
        (*partial_stmts)[static_cast<size_t>(shard)]);
  };

  std::vector<relational::Table> partials;
  const int pruned = PrunedShard(stmt, placement);
  if (pruned >= 0) {
    // Point query on the hash key: only the owning shard can hold
    // qualifying rows, so the scatter collapses to one call scanning
    // 1/N of the data.
    shards.stats().pruned.fetch_add(1, std::memory_order_relaxed);
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table p, run_on(pruned));
    partials.push_back(std::move(p));
  } else {
    BIGDAWG_ASSIGN_OR_RETURN(
        partials, shards.ScatterGather<relational::Table>(
                      placement.shard_count, run_on));
  }
  if (!catalog_->PlacementIsCurrent(stmt.from.name, snap)) {
    return Status::NotFound("placement of " + stmt.from.name +
                            " changed during aggregate pushdown");
  }
  return relational::CombinePartialAggregates(stmt, partials);
}

// ---------------------------------------------------------------------------
// ArrayIsland
// ---------------------------------------------------------------------------

Result<array::Array> ArrayIsland::ExecuteToArray(const std::string& query) {
  if (degenerate_) {
    return engines_.array->Query(query);
  }
  // Shim pass: stage every referenced object (catalog object or CAST
  // result) into a scratch array engine, casting non-array objects, then
  // run the AFL query there.
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  // Global `aggregate(NAME, FUNC, ATTR)` over a sharded scidb-homed array
  // runs as per-shard partials — each shard scans only its fragment — and
  // recombines exactly; any pushdown failure falls back to the shim path.
  if (engines_.shards != nullptr && catalog_ != nullptr &&
      tokens.size() >= 8 && tokens[0].type == TokenType::kIdentifier &&
      ToLower(tokens[0].text) == "aggregate" && tokens[1].IsSymbol("(") &&
      tokens[2].type == TokenType::kIdentifier && tokens[3].IsSymbol(",") &&
      tokens[4].type == TokenType::kIdentifier && tokens[5].IsSymbol(",") &&
      tokens[6].type == TokenType::kIdentifier && tokens[7].IsSymbol(")") &&
      (tokens.size() == 8 || tokens[8].type == TokenType::kEnd)) {
    Result<ObjectSnapshot> snap = catalog_->Snapshot(tokens[2].text);
    if (snap.ok() && snap->placement.sharded() &&
        snap->location.engine == kEngineSciDb) {
      Result<array::Array> pushed = ExecuteShardedAggregate(
          tokens[2].text, tokens[4].text, tokens[6].text, *snap);
      if (pushed.ok()) return pushed;
    }
  }
  array::ArrayEngine scratch;
  std::set<std::string> staged;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].type != TokenType::kIdentifier) continue;
    // Operator names are identifiers followed by '('.
    if (i + 1 < tokens.size() && tokens[i + 1].IsSymbol("(")) continue;
    const std::string& name = tokens[i].text;
    if (staged.count(name) > 0 ||
        !(catalog_->Contains(name) || is_cast_result_(name))) {
      continue;
    }
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a, fetcher_(name));
    BIGDAWG_RETURN_NOT_OK(scratch.PutArray(name, std::move(a)));
    staged.insert(name);
  }
  return scratch.Query(query);
}

Result<array::Array> ArrayIsland::ExecuteShardedAggregate(
    const std::string& object, const std::string& func_name,
    const std::string& attr, const ObjectSnapshot& snap) {
  BIGDAWG_ASSIGN_OR_RETURN(array::AggFunc func,
                           array::AggFuncFromString(ToLower(func_name)));
  ShardRuntime& shards = *engines_.shards;
  const ShardPlacement& placement = snap.placement;

  // One fragment's worth of the engine's aggregate accumulator. count,
  // sum and sumsq add across shards; min/max compare (cells are disjoint
  // under range partitioning), which makes every AggFunc — avg and stdev
  // included — recombine to the exact whole-array accumulator state.
  struct Partial {
    int64_t count = 0;
    double sum = 0;
    double sumsq = 0;
    double min = 0;
    double max = 0;
  };
  // By value (native/epoch/attr copies): a failed scatter returns before
  // abandoned tasks drain, so the lambda must own everything it touches.
  ShardRuntime* runtime = &shards;
  const std::string native = snap.location.native_name;
  const int64_t epoch = placement.epoch;
  auto run_on = [runtime, native, epoch, attr](int shard) -> Result<Partial> {
    if (runtime->InstanceConsideredDown(kEngineSciDb, shard)) {
      return Status::Unavailable("shard instance " +
                                 ShardInstanceName(kEngineSciDb, shard) +
                                 " is down");
    }
    BIGDAWG_RETURN_NOT_OK(runtime->CheckInstance(kEngineSciDb, shard));
    const std::string frag = ShardFragmentName(native, epoch, shard);
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a,
                             runtime->ArrayAt(shard)->GetArray(frag));
    BIGDAWG_ASSIGN_OR_RETURN(size_t attr_idx, a.AttrIndex(attr));
    Partial p;
    a.Scan([&](const array::Coordinates&, const std::vector<double>& values) {
      const double v = values[attr_idx];
      if (p.count == 0) {
        p.min = p.max = v;
      } else {
        p.min = std::min(p.min, v);
        p.max = std::max(p.max, v);
      }
      ++p.count;
      p.sum += v;
      p.sumsq += v * v;
      return true;
    });
    return p;
  };

  BIGDAWG_ASSIGN_OR_RETURN(
      std::vector<Partial> partials,
      shards.ScatterGather<Partial>(placement.shard_count, run_on));
  if (!catalog_->PlacementIsCurrent(object, snap)) {
    return Status::NotFound("placement of " + object +
                            " changed during aggregate pushdown");
  }

  Partial total;
  for (const Partial& p : partials) {
    if (p.count == 0) continue;
    if (total.count == 0) {
      total.min = p.min;
      total.max = p.max;
    } else {
      total.min = std::min(total.min, p.min);
      total.max = std::max(total.max, p.max);
    }
    total.count += p.count;
    total.sum += p.sum;
    total.sumsq += p.sumsq;
  }

  // Finalize with the engine's exact semantics (array.cc AggState).
  double v = 0;
  switch (func) {
    case array::AggFunc::kCount:
      v = static_cast<double>(total.count);
      break;
    case array::AggFunc::kSum:
      v = total.sum;
      break;
    case array::AggFunc::kAvg:
      if (total.count == 0) {
        return Status::FailedPrecondition("avg of empty array");
      }
      v = total.sum / static_cast<double>(total.count);
      break;
    case array::AggFunc::kMin:
      if (total.count == 0) {
        return Status::FailedPrecondition("min of empty array");
      }
      v = total.min;
      break;
    case array::AggFunc::kMax:
      if (total.count == 0) {
        return Status::FailedPrecondition("max of empty array");
      }
      v = total.max;
      break;
    case array::AggFunc::kStdev: {
      if (total.count == 0) {
        return Status::FailedPrecondition("stdev of empty array");
      }
      double mean = total.sum / static_cast<double>(total.count);
      double var = total.sumsq / static_cast<double>(total.count) - mean * mean;
      v = std::sqrt(std::max(0.0, var));
      break;
    }
  }
  BIGDAWG_ASSIGN_OR_RETURN(
      array::Array out,
      array::Array::Create({array::Dimension("i", 0, 1, 1)},
                           {std::string(array::AggFuncToString(func)) + "_" +
                            attr}));
  BIGDAWG_RETURN_NOT_OK(out.Set({0}, {v}));
  return out;
}

Result<relational::Table> ArrayIsland::Execute(const std::string& query) {
  BIGDAWG_ASSIGN_OR_RETURN(array::Array result, ExecuteToArray(query));
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, ArrayToTable(result));
  // Overall aggregates produce a synthetic one-cell array over the dummy
  // dimension "i"; present those as scalars (drop the placeholder column)
  // so they align with other islands' aggregate results.
  if (result.num_dims() == 1 && result.dims()[0].name == "i" &&
      result.dims()[0].length == 1 && table.num_rows() <= 1) {
    std::vector<Field> fields(table.schema().fields().begin() + 1,
                              table.schema().fields().end());
    std::vector<std::shared_ptr<const common::ColumnSlice>> slices;
    for (size_t c = 1; c < table.schema().num_fields(); ++c) {
      slices.push_back(table.ColumnAt(c).slice());
    }
    return relational::Table::FromColumns(Schema(std::move(fields)), std::move(slices));
  }
  return table;
}

// ---------------------------------------------------------------------------
// TextIsland
// ---------------------------------------------------------------------------

Result<relational::Table> TextIsland::Execute(const std::string& query) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  TokenCursor cur(std::move(tokens));
  BIGDAWG_ASSIGN_OR_RETURN(std::string command, cur.ExpectIdentifier());
  command = ToUpper(command);

  if (command == "SEARCH") {
    std::vector<std::string> terms;
    while (!cur.AtEnd()) {
      BIGDAWG_ASSIGN_OR_RETURN(std::string term, cur.ExpectIdentifier());
      terms.push_back(std::move(term));
    }
    if (terms.empty()) return Status::InvalidArgument("SEARCH needs >= 1 term");
    relational::Table out{Schema({Field("doc_id", DataType::kString),
                                  Field("owner", DataType::kString),
                                  Field("score", DataType::kInt64)})};
    for (const kvstore::DocMatch& m : engines_.text->SearchAllTerms(terms)) {
      out.AppendUnchecked({Value(m.doc_id), Value(m.owner), Value(m.score)});
    }
    return out;
  }

  if (command == "PHRASE" || command == "OWNERS_WITH_PHRASE") {
    if (cur.Peek().type != TokenType::kString) {
      return Status::InvalidArgument(command + " needs a quoted phrase");
    }
    std::string phrase = cur.Next().text;
    if (command == "PHRASE") {
      if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
      relational::Table out{Schema({Field("doc_id", DataType::kString),
                                    Field("owner", DataType::kString),
                                    Field("occurrences", DataType::kInt64)})};
      for (const kvstore::DocMatch& m : engines_.text->SearchPhrase(phrase)) {
        out.AppendUnchecked({Value(m.doc_id), Value(m.owner), Value(m.score)});
      }
      return out;
    }
    int64_t min_docs = 1;
    if (cur.Peek().type == TokenType::kInteger) {
      min_docs = std::strtoll(cur.Next().text.c_str(), nullptr, 10);
    }
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    relational::Table out{Schema({Field("owner", DataType::kString),
                                  Field("matching_docs", DataType::kInt64)})};
    for (const auto& [owner, count] :
         engines_.text->OwnersWithPhraseCount(phrase, min_docs)) {
      out.AppendUnchecked({Value(owner), Value(count)});
    }
    return out;
  }

  if (command == "GET") {
    BIGDAWG_ASSIGN_OR_RETURN(std::string doc_id, cur.ExpectIdentifier());
    BIGDAWG_ASSIGN_OR_RETURN(std::string text, engines_.text->GetText(doc_id));
    BIGDAWG_ASSIGN_OR_RETURN(std::string owner, engines_.text->GetOwner(doc_id));
    relational::Table out{Schema({Field("doc_id", DataType::kString),
                                  Field("owner", DataType::kString),
                                  Field("text", DataType::kString)})};
    out.AppendUnchecked({Value(doc_id), Value(owner), Value(text)});
    return out;
  }

  return Status::InvalidArgument("unknown TEXT island command: " + command);
}

// ---------------------------------------------------------------------------
// StreamIsland
// ---------------------------------------------------------------------------

Result<relational::Table> StreamIsland::Execute(const std::string& query) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  TokenCursor cur(std::move(tokens));
  BIGDAWG_ASSIGN_OR_RETURN(std::string command, cur.ExpectIdentifier());
  command = ToUpper(command);

  if (command == "ALERTS") {
    return RowsAsStringTable(engines_.stream->TakeAlerts());
  }

  if (command == "STREAMS") {
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    relational::Table out{Schema({Field("stream", DataType::kString),
                                  Field("retention", DataType::kInt64),
                                  Field("buffered", DataType::kInt64),
                                  Field("total_appended", DataType::kInt64),
                                  Field("trigger", DataType::kString),
                                  Field("windows", DataType::kInt64)})};
    for (const stream::StreamInfo& info : engines_.stream->ListStreams()) {
      out.AppendUnchecked({Value(info.name),
                           Value(static_cast<int64_t>(info.retention)),
                           Value(static_cast<int64_t>(info.buffered)),
                           Value(info.total_appended), Value(info.trigger),
                           Value(static_cast<int64_t>(info.windows.size()))});
    }
    return out;
  }

  BIGDAWG_ASSIGN_OR_RETURN(std::string name, cur.ExpectIdentifier());
  if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");

  if (command == "STREAM") {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, engines_.stream->StreamSchema(name));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows,
                             engines_.stream->StreamContents(name));
    return relational::Table(std::move(schema), std::move(rows));
  }
  if (command == "WINDOW") {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, engines_.stream->WindowSchema(name));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows,
                             engines_.stream->WindowContents(name));
    return relational::Table(std::move(schema), std::move(rows));
  }
  if (command == "TABLE") {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, engines_.stream->TableSchema(name));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows, engines_.stream->TableScan(name));
    return relational::Table(std::move(schema), std::move(rows));
  }
  if (command == "AGGREGATE") {
    // The window's incrementally maintained per-column aggregates —
    // answered from the aggregate bank in O(columns), never by
    // rescanning window rows.
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<stream::ColumnAggregate> aggs,
                             engines_.stream->WindowAggregates(name));
    relational::Table out{Schema({Field("column", DataType::kString),
                                  Field("count", DataType::kInt64),
                                  Field("sum", DataType::kDouble),
                                  Field("min", DataType::kDouble),
                                  Field("max", DataType::kDouble),
                                  Field("avg", DataType::kDouble)})};
    for (const stream::ColumnAggregate& a : aggs) {
      out.AppendUnchecked({Value(a.column), Value(a.agg.count), Value(a.agg.sum),
                           Value(a.agg.min), Value(a.agg.max), Value(a.agg.avg)});
    }
    return out;
  }
  return Status::InvalidArgument("unknown STREAM island command: " + command);
}

// ---------------------------------------------------------------------------
// D4mIsland
// ---------------------------------------------------------------------------

Result<relational::Table> D4mIsland::Execute(const std::string& query) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  TokenCursor cur(std::move(tokens));
  BIGDAWG_ASSIGN_OR_RETURN(std::string command, cur.ExpectIdentifier());
  command = ToUpper(command);

  auto fetch_next = [this, &cur]() -> Result<d4m::AssocArray> {
    BIGDAWG_ASSIGN_OR_RETURN(std::string object, cur.ExpectIdentifier());
    return fetcher_(object);
  };

  if (command == "TRIPLES" || command == "TRANSPOSE") {
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, fetch_next());
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    return AssocToTable(command == "TRIPLES" ? a : a.Transpose());
  }
  if (command == "ROWSUM") {
    BIGDAWG_ASSIGN_OR_RETURN(std::string object, cur.ExpectIdentifier());
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    // A sharded d4m-homed object sums per shard — row keys are disjoint
    // across the hash partition, so the merged sums are exact. Any
    // pushdown failure falls back to the whole-object gather below.
    if (engines_.shards != nullptr && catalog_ != nullptr) {
      Result<ObjectSnapshot> snap = catalog_->Snapshot(object);
      if (snap.ok() && snap->placement.sharded() &&
          snap->location.engine == kEngineD4m) {
        Result<relational::Table> pushed = ExecuteShardedRowSum(object, *snap);
        if (pushed.ok()) return pushed;
      }
    }
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, fetcher_(object));
    relational::Table out{Schema(
        {Field("row", DataType::kString), Field("sum", DataType::kDouble)})};
    for (const auto& [row, sum] : a.RowSums()) {
      out.AppendUnchecked({Value(row), Value(sum)});
    }
    return out;
  }
  if (command == "SUBROW") {
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, fetch_next());
    std::string prefix;
    if (cur.Peek().type == TokenType::kString ||
        cur.Peek().type == TokenType::kIdentifier) {
      prefix = cur.Next().text;
    } else {
      return Status::InvalidArgument("SUBROW needs a row-key prefix");
    }
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    return AssocToTable(a.SubRowPrefix(prefix));
  }
  if (command == "MATMUL" || command == "ADD" || command == "MULTIPLY") {
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, fetch_next());
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray b, fetch_next());
    if (!cur.AtEnd()) return Status::InvalidArgument("unexpected trailing input");
    if (command == "MATMUL") return AssocToTable(a.MatMul(b));
    if (command == "ADD") return AssocToTable(a.Add(b));
    return AssocToTable(a.Multiply(b));
  }
  return Status::InvalidArgument("unknown D4M island command: " + command);
}

Result<relational::Table> D4mIsland::ExecuteShardedRowSum(
    const std::string& object, const ObjectSnapshot& snap) {
  ShardRuntime& shards = *engines_.shards;
  const ShardPlacement& placement = snap.placement;
  using RowSumMap = std::map<std::string, double>;
  // By value: a failed scatter returns before abandoned tasks drain.
  ShardRuntime* runtime = &shards;
  const std::string native = snap.location.native_name;
  const int64_t epoch = placement.epoch;
  auto run_on = [runtime, native, epoch](int shard) -> Result<RowSumMap> {
    if (runtime->InstanceConsideredDown(kEngineD4m, shard)) {
      return Status::Unavailable("shard instance " +
                                 ShardInstanceName(kEngineD4m, shard) +
                                 " is down");
    }
    BIGDAWG_RETURN_NOT_OK(runtime->CheckInstance(kEngineD4m, shard));
    const std::string frag = ShardFragmentName(native, epoch, shard);
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a,
                             runtime->AssocAt(shard)->Get(frag));
    return a.RowSums();
  };
  BIGDAWG_ASSIGN_OR_RETURN(
      std::vector<RowSumMap> partials,
      shards.ScatterGather<RowSumMap>(placement.shard_count, run_on));
  if (!catalog_->PlacementIsCurrent(object, snap)) {
    return Status::NotFound("placement of " + object +
                            " changed during ROWSUM pushdown");
  }
  RowSumMap merged;
  for (RowSumMap& m : partials) merged.merge(m);
  relational::Table out{Schema(
      {Field("row", DataType::kString), Field("sum", DataType::kDouble)})};
  for (const auto& [row, sum] : merged) {
    out.AppendUnchecked({Value(row), Value(sum)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// MyriaIsland
// ---------------------------------------------------------------------------

Result<relational::Table> MyriaIsland::Execute(const std::string& query) {
  BIGDAWG_ASSIGN_OR_RETURN(relational::Statement stmt, relational::ParseSql(query));
  auto* select = std::get_if<relational::SelectStatement>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("MYRIA island supports SELECT queries");
  }
  BIGDAWG_ASSIGN_OR_RETURN(myria::PlanPtr plan, myria::LowerSelect(*select));

  // Stage every referenced base relation once; execution and the
  // optimizer's statistics both read from this materialization.
  std::map<std::string, relational::Table> staged;
  std::vector<std::string> relations = {select->from.name};
  for (const relational::JoinClause& join : select->joins) {
    relations.push_back(join.table.name);
  }
  for (const std::string& name : relations) {
    if (staged.count(name) > 0) continue;
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, fetcher_(name));
    staged.emplace(name, std::move(t));
  }

  myria::CatalogStats stats;
  stats.row_count = [&staged](const std::string& name) -> Result<size_t> {
    auto it = staged.find(name);
    if (it == staged.end()) return Status::NotFound("not staged: " + name);
    return it->second.num_rows();
  };
  stats.schema = [&staged](const std::string& name) -> Result<Schema> {
    auto it = staged.find(name);
    if (it == staged.end()) return Status::NotFound("not staged: " + name);
    return it->second.schema();
  };
  myria::PlanPtr optimized = myria::Optimize(plan, stats);

  myria::Resolver resolver =
      [&staged](const std::string& name) -> Result<relational::Table> {
    auto it = staged.find(name);
    if (it == staged.end()) return Status::NotFound("not staged: " + name);
    return it->second;
  };
  return myria::ExecutePlan(*optimized, resolver, nullptr);
}

}  // namespace bigdawg::core
