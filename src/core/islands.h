#ifndef BIGDAWG_CORE_ISLANDS_H_
#define BIGDAWG_CORE_ISLANDS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "array/array_engine.h"
#include "core/catalog.h"
#include "core/island.h"
#include "core/sharding.h"
#include "d4m/assoc_array.h"
#include "kvstore/text_store.h"
#include "relational/database.h"
#include "stream/stream_engine.h"
#include "tiledb/tiledb.h"

namespace bigdawg::core {

/// \brief Non-owning handles to every storage engine in the federation.
struct EngineSet {
  relational::Database* relational = nullptr;
  array::ArrayEngine* array = nullptr;
  kvstore::TextStore* text = nullptr;
  stream::StreamEngine* stream = nullptr;
  tiledb::TileDbEngine* tiledb = nullptr;
  /// Middleware-resident associative store (D4M materializations).
  std::map<std::string, d4m::AssocArray>* assoc = nullptr;
  /// Shard-instance pools + scatter machinery; islands consult it to push
  /// distributive work down to the shards of a partitioned object instead
  /// of gathering the whole object first. Null disables pushdown.
  ShardRuntime* shards = nullptr;
};

/// \brief Fetches any catalog object as a relational table (applying the
/// appropriate engine-specific conversion). Provided by BigDawg.
using ObjectFetcher =
    std::function<Result<relational::Table>(const std::string& object)>;

/// \brief Fetches any catalog object as an n-d array (casting relations
/// when needed).
using ArrayFetcher = std::function<Result<array::Array>(const std::string& object)>;

/// \brief Fetches any catalog object as a D4M associative array.
using AssocFetcher = std::function<Result<d4m::AssocArray>(const std::string& object)>;

/// \brief The relational island: SQL over every engine that can expose a
/// relation.
///
/// In multi-engine mode (the paper's intersection semantics) only reads
/// are allowed and table names resolve through the catalog, shimming
/// non-relational objects into relations. In degenerate mode it exposes
/// the full native functionality (DDL/DML included) of the relational
/// engine alone.
class RelationalIsland final : public Island {
 public:
  RelationalIsland(std::string name, EngineSet engines, Catalog* catalog,
                   ObjectFetcher fetcher, bool degenerate)
      : name_(std::move(name)),
        engines_(engines),
        catalog_(catalog),
        fetcher_(std::move(fetcher)),
        degenerate_(degenerate) {}

  std::string name() const override { return name_; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return degenerate_ ? "full SQL (single engine)" : "SQL subset (reads, shimmed)";
  }

 private:
  /// Scalar-aggregate pushdown for a sharded postgres-homed table: plans
  /// one partial query per shard (pruned to the owning shard for
  /// key-equality point queries), scatters them, and recombines the
  /// distributive partials into the exact whole-table answer. Any failure
  /// falls back to the caller's gather path.
  Result<relational::Table> ExecuteShardedAggregate(
      const relational::SelectStatement& stmt, const ObjectSnapshot& snap);

  std::string name_;
  EngineSet engines_;
  Catalog* catalog_;
  ObjectFetcher fetcher_;
  bool degenerate_;
};

/// \brief The array island: AFL-style functional queries; non-array
/// catalog objects are shimmed in by CAST-to-array. `is_cast_result`
/// names the running execution's CAST results, which it reads through
/// the fetcher like catalog objects.
class ArrayIsland final : public Island {
 public:
  ArrayIsland(std::string name, EngineSet engines, Catalog* catalog,
              ArrayFetcher fetcher,
              std::function<bool(const std::string&)> is_cast_result,
              bool degenerate)
      : name_(std::move(name)),
        engines_(engines),
        catalog_(catalog),
        fetcher_(std::move(fetcher)),
        is_cast_result_(std::move(is_cast_result)),
        degenerate_(degenerate) {}

  std::string name() const override { return name_; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return "AFL-style operators (subarray/filter/aggregate/window/matmul)";
  }

  /// Raw array result (used when a caller needs the array, not a table).
  Result<array::Array> ExecuteToArray(const std::string& query);

 private:
  /// Global-aggregate pushdown for a sharded scidb-homed array: each
  /// shard scans only its fragment into {count, sum, sumsq, min, max}
  /// partials, recombined into the engine's exact one-cell output. Any
  /// failure falls back to the caller's gather path.
  Result<array::Array> ExecuteShardedAggregate(const std::string& object,
                                               const std::string& func_name,
                                               const std::string& attr,
                                               const ObjectSnapshot& snap);

  std::string name_;
  EngineSet engines_;
  Catalog* catalog_;
  ArrayFetcher fetcher_;
  std::function<bool(const std::string&)> is_cast_result_;
  bool degenerate_;
};

/// \brief The text island over the key-value engine:
///   SEARCH term [term...]          -> (doc_id, owner, score)
///   PHRASE 'text'                  -> (doc_id, owner, occurrences)
///   OWNERS_WITH_PHRASE 'text' N    -> (owner, matching_docs)
///   GET doc_id                     -> (doc_id, owner, text)
class TextIsland final : public Island {
 public:
  TextIsland(EngineSet engines) : engines_(engines) {}

  std::string name() const override { return "TEXT"; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return "SEARCH / PHRASE / OWNERS_WITH_PHRASE / GET";
  }

 private:
  EngineSet engines_;
};

/// \brief The streaming island over the S-Store engine:
///   STREAM name      -> retained tuples
///   WINDOW name      -> current window contents
///   TABLE name       -> state-table scan
///   ALERTS           -> drains pending alerts
class StreamIsland final : public Island {
 public:
  explicit StreamIsland(EngineSet engines) : engines_(engines) {}

  std::string name() const override { return "STREAM"; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return "STREAM / WINDOW / AGGREGATE / TABLE / ALERTS / STREAMS";
  }

 private:
  EngineSet engines_;
};

/// \brief The D4M island: associative-array algebra over shimmed objects:
///   TRIPLES obj                -> (row, col, value)
///   ROWSUM obj                 -> (row, sum)
///   SUBROW obj prefix          -> triples with row-key prefix
///   TRANSPOSE obj              -> triples
///   MATMUL a b                 -> triples of the associative product
///   ADD a b / MULTIPLY a b     -> triples
class D4mIsland final : public Island {
 public:
  D4mIsland(EngineSet engines, Catalog* catalog, AssocFetcher fetcher)
      : engines_(engines), catalog_(catalog), fetcher_(std::move(fetcher)) {}

  std::string name() const override { return "D4M"; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return "TRIPLES / ROWSUM / SUBROW / TRANSPOSE / MATMUL / ADD / MULTIPLY";
  }

 private:
  /// ROWSUM pushdown for a sharded d4m-homed object: per-shard fragment
  /// row sums are disjoint under row-key hash partitioning, so their
  /// ordered merge is exactly the whole object's RowSums. Any failure
  /// falls back to the caller's gather path.
  Result<relational::Table> ExecuteShardedRowSum(const std::string& object,
                                                 const ObjectSnapshot& snap);

  EngineSet engines_;
  Catalog* catalog_;
  AssocFetcher fetcher_;
};

/// \brief The Myria island: SQL in the MYRIA dialect (myria::LowerSelect)
/// lowered into the shared relational plan algebra, run through Myria's
/// optimizer, and executed by the same operators as the RELATIONAL island
/// over shimmed engines. Iterative plans are available programmatically
/// via myria::Iterate and myria::ExecutePlan.
class MyriaIsland final : public Island {
 public:
  MyriaIsland(EngineSet engines, Catalog* catalog, ObjectFetcher fetcher)
      : engines_(engines), catalog_(catalog), fetcher_(std::move(fetcher)) {}

  std::string name() const override { return "MYRIA"; }
  Result<relational::Table> Execute(const std::string& query) override;
  std::string language_summary() const override {
    return "SQL -> optimized relational algebra (+ iteration via API)";
  }

 private:
  EngineSet engines_;
  Catalog* catalog_;
  ObjectFetcher fetcher_;
};

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_ISLANDS_H_
