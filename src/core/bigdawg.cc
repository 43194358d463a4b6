#include "core/bigdawg.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <type_traits>
#include <variant>

#include "common/lexer.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/stream_ageout.h"

namespace bigdawg::core {

namespace {

/// Wall-clock window before a silent shard gets a duplicate request.
double ShardHedgeMs() {
  static const double ms = [] {
    const char* env = std::getenv("BIGDAWG_SHARD_HEDGE_MS");
    if (env != nullptr) {
      char* end = nullptr;
      double v = std::strtod(env, &end);
      if (end != env && v >= 0) return v;
    }
    return 50.0;
  }();
  return ms;
}

/// Runs `fn(std::type_identity<T>{})` with T the model `engine` stores
/// natively — the model its sharded objects are partitioned, gathered and
/// merged in — or returns `otherwise` for an engine that stores none of
/// the three.
template <typename Fn>
auto WithHomeModel(const std::string& engine, Fn&& fn, Status otherwise)
    -> decltype(fn(std::type_identity<relational::Table>{})) {
  if (engine == kEnginePostgres) return fn(std::type_identity<relational::Table>{});
  if (engine == kEngineSciDb) return fn(std::type_identity<array::Array>{});
  if (engine == kEngineD4m) return fn(std::type_identity<d4m::AssocArray>{});
  return otherwise;
}

}  // namespace

ExecContext*& BigDawg::ActiveCtx() {
  static thread_local ExecContext* ctx = nullptr;
  return ctx;
}

const ModelValue* BigDawg::CastResult(const std::string& name) {
  ExecContext* ctx = ActiveCtx();
  if (ctx == nullptr) return nullptr;
  auto it = ctx->overlay.find(name);
  return it == ctx->overlay.end() ? nullptr : &it->second;
}

BigDawg::BigDawg() {
  EngineSet engines;
  engines.relational = &relational_;
  engines.array = &array_;
  engines.text = &text_;
  engines.stream = &stream_;
  engines.tiledb = &tiledb_;
  engines.assoc = &assoc_store_;
  engines.shards = &shard_runtime_;

  ObjectFetcher table_fetcher = [this](const std::string& object) {
    return FetchAsTable(object);
  };
  ArrayFetcher array_fetcher = [this](const std::string& object) {
    return FetchAsArray(object);
  };
  AssocFetcher assoc_fetcher = [this](const std::string& object) {
    return FetchAsAssoc(object);
  };

  // The paper's reference implementation exposes eight islands: the two
  // multi-system islands (Myria, D4M), the cross-engine relational and
  // array islands, text and streaming islands, and degenerate islands for
  // the production relational and array engines.
  auto add = [this](std::unique_ptr<Island> island) {
    std::string key = island->name();
    islands_.emplace(std::move(key), std::move(island));
  };
  add(std::make_unique<RelationalIsland>("RELATIONAL", engines, &catalog_,
                                         table_fetcher, /*degenerate=*/false));
  auto is_cast_result = [](const std::string& name) {
    return CastResult(name) != nullptr;
  };
  add(std::make_unique<ArrayIsland>("ARRAY", engines, &catalog_, array_fetcher,
                                    is_cast_result, /*degenerate=*/false));
  add(std::make_unique<TextIsland>(engines));
  add(std::make_unique<StreamIsland>(engines));
  add(std::make_unique<D4mIsland>(engines, &catalog_, assoc_fetcher));
  add(std::make_unique<MyriaIsland>(engines, &catalog_, table_fetcher));
  // Degenerate islands: full native functionality of a single engine.
  add(std::make_unique<RelationalIsland>("POSTGRES", engines, &catalog_,
                                         table_fetcher, /*degenerate=*/true));
  add(std::make_unique<ArrayIsland>("SCIDB", engines, &catalog_, array_fetcher,
                                    is_cast_result, /*degenerate=*/true));

  // The streaming island's ingest/advance paths go through the same fault
  // plane as every other engine shim, so injected S-Store outages surface
  // as typed ingest rejections and held batches (backpressure).
  stream_.SetEngineCheck([this] { return CheckEngine(kEngineSStore); });

  // Shard-instance calls flow through the same fault plane and routing
  // checks as whole engines, addressed by instance name ("scidb#1") so a
  // schedule or breaker on one shard leaves its siblings serving.
  shard_runtime_.SetInstanceCheck(
      [this](const std::string& instance) { return CheckEngine(instance); });
  shard_runtime_.SetInstanceDownCheck([this](const std::string& instance) {
    return EngineConsideredDown(instance);
  });
  // Scatters inherit the active execution's deadline, cancellation flag,
  // and clock; pool tasks cannot reach the thread-local context
  // themselves, so the policy is captured on the query thread per scatter.
  shard_runtime_.SetPolicyProvider([this] {
    ShardCallPolicy policy;
    if (ExecContext* ctx = ActiveCtx()) {
      policy.clock = ctx->clock;
      policy.has_deadline = ctx->has_deadline;
      policy.deadline = ctx->deadline;
      policy.cancelled = ctx->cancelled;
    }
    policy.hedge_after_ms = ShardHedgeMs();
    return policy;
  });
}

BigDawg::~BigDawg() {
  stream_.Stop();
  // A failed gather returns before its abandoned scatter tasks (and late
  // hedges) drain, and those tasks capture `this`. Join the shard pool
  // before any member they touch is destroyed.
  shard_runtime_.DrainPool();
}

Status BigDawg::RegisterObject(const std::string& object, const std::string& engine,
                               const std::string& native_name) {
  if (engine != kEnginePostgres && engine != kEngineSciDb &&
      engine != kEngineAccumulo && engine != kEngineSStore &&
      engine != kEngineTileDb && engine != kEngineD4m) {
    return Status::InvalidArgument("unknown engine: " + engine);
  }
  return catalog_.Register({object, engine, native_name});
}

std::vector<std::string> BigDawg::ListIslands() const {
  std::vector<std::string> out;
  out.reserve(islands_.size());
  for (const auto& [name, island] : islands_) out.push_back(name);
  return out;
}

Result<Island*> BigDawg::GetIsland(const std::string& name) {
  auto it = islands_.find(ToUpper(name));
  if (it == islands_.end()) return Status::NotFound("no island named " + name);
  return it->second.get();
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

Status BigDawg::CheckEngine(const std::string& engine) {
  // Fast path: the fault plane is a single relaxed load when disabled.
  if (!fault_.enabled()) return Status::OK();
  Status s = fault_.OnCall(engine);
  monitor_.RecordEngineCall(engine, s.ok());
  if (!s.ok() && ActiveCtx() != nullptr) {
    ActiveCtx()->unavailable_engine = engine;
    if (ActiveCtx()->trace != nullptr) {
      // Event span: marks exactly where the fault plane failed the call.
      obs::SpanGuard fault_span(ActiveCtx()->trace, "fault");
      fault_span.Tag("engine", engine);
    }
  }
  return s;
}

bool BigDawg::EngineConsideredDown(const std::string& engine) const {
  return fault_.IsDown(engine) || monitor_.EngineAdvisoryDown(engine);
}

// ---------------------------------------------------------------------------
// Per-model hooks: the one place the three data models differ
// ---------------------------------------------------------------------------

template <>
struct BigDawg::Model<relational::Table> {
  static constexpr const char* kHome = kEnginePostgres;
  static constexpr CastTarget kTarget = CastTarget::kTable;
  static constexpr const char* kShimSpan = "shim:table";
  static constexpr const char* kScatterSpan = "scatter:table";

  static Result<relational::Table> Get(BigDawg& d, const std::string& native) {
    return d.relational_.GetTable(native);
  }
  static Status Put(BigDawg& d, const std::string& native,
                    relational::Table table) {
    return d.relational_.PutTable(native, std::move(table));
  }
  static Result<relational::Table> GetShard(ShardRuntime& s, int shard,
                                            const std::string& frag) {
    return s.Relational(shard)->GetTable(frag);
  }
  static Status PutShard(ShardRuntime& s, int shard, const std::string& frag,
                         const relational::Table& table) {
    return s.Relational(shard)->PutTable(frag, table);
  }
  static void DropShard(ShardRuntime& s, int shard, const std::string& frag) {
    (void)s.Relational(shard)->DropTable(frag);
  }
  static Result<relational::Table> Merge(std::vector<relational::Table> frags) {
    return MergeTableFragments(std::move(frags));
  }
  /// Hash partition on `key` (default: the first column).
  static Result<std::vector<relational::Table>> Partition(
      const relational::Table& whole, const std::string& key,
      ShardPlacement* placement) {
    if (whole.schema().num_fields() == 0) {
      return Status::InvalidArgument("table has no columns to shard on");
    }
    placement->kind = PartitionKind::kHash;
    placement->key = key.empty() ? whole.schema().field(0).name : key;
    return PartitionTable(whole, *placement);
  }

  static Result<relational::Table> From(const relational::Table& t) { return t; }
  static Result<relational::Table> From(const array::Array& a) {
    return ArrayToTable(a);
  }
  static Result<relational::Table> From(const d4m::AssocArray& a) {
    return AssocToTable(a);
  }
  /// Every engine surfaces its objects as relations.
  static Result<relational::Table> Shim(BigDawg& d, const std::string& /*object*/,
                                        const ObjectLocation& loc) {
    return d.FetchTableFrom(loc.engine, loc.native_name);
  }
};

template <>
struct BigDawg::Model<d4m::AssocArray> {
  static constexpr const char* kHome = kEngineD4m;
  static constexpr CastTarget kTarget = CastTarget::kAssoc;
  static constexpr const char* kShimSpan = "shim:assoc";
  static constexpr const char* kScatterSpan = "scatter:assoc";

  static Result<d4m::AssocArray> Get(BigDawg& d, const std::string& native) {
    std::shared_lock lock(d.assoc_mu_);
    auto it = d.assoc_store_.find(native);
    if (it == d.assoc_store_.end()) {
      return Status::Internal("catalog points at missing assoc object: " + native);
    }
    return it->second;
  }
  static Status Put(BigDawg& d, const std::string& native,
                    d4m::AssocArray assoc) {
    std::unique_lock lock(d.assoc_mu_);
    d.assoc_store_[native] = std::move(assoc);
    return Status::OK();
  }
  static Result<d4m::AssocArray> GetShard(ShardRuntime& s, int shard,
                                          const std::string& frag) {
    return s.AssocAt(shard)->Get(frag);
  }
  static Status PutShard(ShardRuntime& s, int shard, const std::string& frag,
                         const d4m::AssocArray& assoc) {
    s.AssocAt(shard)->Put(frag, assoc);
    return Status::OK();
  }
  static void DropShard(ShardRuntime& s, int shard, const std::string& frag) {
    s.AssocAt(shard)->Erase(frag);
  }
  static Result<d4m::AssocArray> Merge(std::vector<d4m::AssocArray> frags) {
    return MergeAssocFragments(std::move(frags));
  }
  /// Hash partition on the row key, so rows are never split.
  static Result<std::vector<d4m::AssocArray>> Partition(
      const d4m::AssocArray& whole, const std::string& key,
      ShardPlacement* placement) {
    placement->kind = PartitionKind::kHash;
    placement->key = key.empty() ? "row" : key;
    return PartitionAssoc(whole, *placement);
  }

  static Result<d4m::AssocArray> From(const relational::Table& t) {
    return TableToAssoc(t);
  }
  static Result<d4m::AssocArray> From(const array::Array& a) {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, ArrayToTable(a));
    return TableToAssoc(t);
  }
  static Result<d4m::AssocArray> From(const d4m::AssocArray& a) { return a; }
  /// The D4M view of a text corpus is its term x document incidence (row
  /// = term, col = doc id, value = tf); other engines' relations are cast.
  static Result<d4m::AssocArray> Shim(BigDawg& d, const std::string& object,
                                      const ObjectLocation& loc) {
    if (loc.engine == kEngineAccumulo) {
      BIGDAWG_RETURN_NOT_OK(d.CheckEngine(kEngineAccumulo));
      d4m::AssocArray out;
      kvstore::ScanOptions options;
      options.family = "idx";
      d.text_.backing_store().Read().Range(
          options, [&out](const kvstore::Key& key, const std::string& value) {
            // Rows are "term:<t>".
            out.Set(key.row.substr(5), key.qualifier,
                    Value(std::strtod(value.c_str(), nullptr)));
            return true;
          });
      return out;
    }
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t,
                             d.Fetch<relational::Table>(object));
    return TableToAssoc(t);
  }
};

template <>
struct BigDawg::Model<array::Array> {
  static constexpr const char* kHome = kEngineSciDb;
  static constexpr CastTarget kTarget = CastTarget::kArray;
  static constexpr const char* kShimSpan = "shim:array";
  static constexpr const char* kScatterSpan = "scatter:array";

  static Result<array::Array> Get(BigDawg& d, const std::string& native) {
    return d.array_.GetArray(native);
  }
  static Status Put(BigDawg& d, const std::string& native, array::Array a) {
    return d.array_.PutArray(native, std::move(a));
  }
  static Result<array::Array> GetShard(ShardRuntime& s, int shard,
                                       const std::string& frag) {
    return s.ArrayAt(shard)->GetArray(frag);
  }
  static Status PutShard(ShardRuntime& s, int shard, const std::string& frag,
                         const array::Array& a) {
    return s.ArrayAt(shard)->PutArray(frag, a);
  }
  static void DropShard(ShardRuntime& s, int shard, const std::string& frag) {
    (void)s.ArrayAt(shard)->RemoveArray(frag);
  }
  static Result<array::Array> Merge(std::vector<array::Array> frags) {
    return MergeArrayFragments(std::move(frags));
  }
  /// Range partition on dimension `key` (default: the first), split into
  /// equal spans of its extent.
  static Result<std::vector<array::Array>> Partition(
      const array::Array& whole, const std::string& key,
      ShardPlacement* placement) {
    if (whole.num_dims() == 0) {
      return Status::InvalidArgument("array has no dimensions to shard on");
    }
    placement->kind = PartitionKind::kRange;
    placement->key = key.empty() ? whole.dims()[0].name : key;
    auto dim = std::find_if(
        whole.dims().begin(), whole.dims().end(),
        [&](const array::Dimension& d) { return d.name == placement->key; });
    if (dim == whole.dims().end()) {
      return Status::InvalidArgument("no dimension named " + placement->key);
    }
    for (int j = 0; j < placement->shard_count - 1; ++j) {
      placement->range_splits.push_back(
          dim->start + (dim->length * (j + 1)) / placement->shard_count);
    }
    return PartitionArray(whole, *placement);
  }

  static Result<array::Array> From(const relational::Table& t) {
    return TableToArray(t);
  }
  static Result<array::Array> From(const array::Array& a) { return a; }
  static Result<array::Array> From(const d4m::AssocArray& a) {
    return AssocToArray(a);
  }
  /// TileDB matrices and assoc arrays convert directly; other engines'
  /// relations are cast.
  static Result<array::Array> Shim(BigDawg& d, const std::string& object,
                                   const ObjectLocation& loc) {
    if (loc.engine == kEngineTileDb) {
      BIGDAWG_RETURN_NOT_OK(d.CheckEngine(kEngineTileDb));
      BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m,
                               d.tiledb_.GetArray(loc.native_name));
      return TileMatrixToArray(m);
    }
    if (loc.engine == kEngineD4m) {
      BIGDAWG_RETURN_NOT_OK(d.CheckEngine(kEngineD4m));
      BIGDAWG_ASSIGN_OR_RETURN(
          d4m::AssocArray a,
          BigDawg::Model<d4m::AssocArray>::Get(d, loc.native_name));
      return AssocToArray(a);
    }
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t,
                             d.Fetch<relational::Table>(object));
    return TableToArray(t);
  }
};

// ---------------------------------------------------------------------------
// Cross-model fetch (shims)
// ---------------------------------------------------------------------------

Result<relational::Table> BigDawg::FetchTableFrom(const std::string& engine,
                                                  const std::string& native) {
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  if (engine == kEngineAccumulo) {
    // The text corpus as a (doc_id, owner, text) relation.
    relational::Table out{Schema({Field("doc_id", DataType::kString),
                                  Field("owner", DataType::kString),
                                  Field("text", DataType::kString)})};
    for (const std::string& id : text_.ListDocumentIds()) {
      Result<std::string> doc_text = text_.GetText(id);
      Result<std::string> owner = text_.GetOwner(id);
      if (!doc_text.ok()) continue;
      out.AppendUnchecked({Value(id), Value(owner.ValueOr("")), Value(*doc_text)});
    }
    return out;
  }
  if (engine == kEngineSStore) {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, stream_.StreamSchema(native));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows, stream_.StreamContents(native));
    return relational::Table(std::move(schema), std::move(rows));
  }
  if (engine == kEngineTileDb) {
    BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m, tiledb_.GetArray(native));
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TileMatrixToArray(m));
    return ArrayToTable(a);
  }
  return WithHomeModel(
      engine,
      [&](auto home) -> Result<relational::Table> {
        using H = typename decltype(home)::type;
        BIGDAWG_ASSIGN_OR_RETURN(H value, Model<H>::Get(*this, native));
        return Model<relational::Table>::From(value);
      },
      Status::Internal("catalog entry has unknown engine: " + engine));
}

Result<relational::Table> BigDawg::FailoverFetch(const std::string& object,
                                                 const ObjectLocation& primary) {
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard failover_span(trace, "failover");
  if (trace != nullptr) failover_span.Tag("from", primary.engine);
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    // Stale replicas never serve failover reads: a degraded answer must
    // still be a correct one.
    if (!catalog_.ReplicaIsFresh(object, replica.engine)) continue;
    if (EngineConsideredDown(replica.engine)) continue;
    Result<relational::Table> served =
        FetchTableFrom(replica.engine, replica.native_name);
    if (!served.ok()) continue;
    if (trace != nullptr) failover_span.Tag("to", replica.engine);
    BIGDAWG_CLOG(Warn, "core") << "failover: serving " << object << " from "
                               << replica.engine << " (primary "
                               << primary.engine << " down)";
    monitor_.RecordFailover(primary.engine);
    if (ActiveCtx() != nullptr) ++ActiveCtx()->failovers;
    return served;
  }
  if (trace != nullptr) failover_span.Tag("error", "unavailable");
  BIGDAWG_CLOG(Warn, "core") << "failover failed: no fresh replica can serve "
                             << object << " (primary " << primary.engine
                             << " down)";
  if (ActiveCtx() != nullptr) ActiveCtx()->unavailable_engine = primary.engine;
  return Status::Unavailable("engine " + primary.engine +
                             " is down and no fresh replica can serve " + object);
}

Result<relational::Table> BigDawg::FetchAsTable(const std::string& object) {
  return Fetch<relational::Table>(object);
}

Result<array::Array> BigDawg::FetchAsArray(const std::string& object) {
  return Fetch<array::Array>(object);
}

Result<d4m::AssocArray> BigDawg::FetchAsAssoc(const std::string& object) {
  return Fetch<d4m::AssocArray>(object);
}

template <typename T>
Result<T> BigDawg::Fetch(const std::string& object) {
  // A CAST result of the running execution shadows the catalog. It is
  // already in memory, so no engine, shim or cache is involved.
  if (const ModelValue* cast = CastResult(object)) {
    return std::visit([](const auto& v) { return Model<T>::From(v); }, *cast);
  }
  // A repartition can retire the physical names between a snapshot and
  // the reads under it; a NotFound with a moved placement epoch means
  // exactly that race, and a fresh attempt sees the new layout.
  Result<ObjectSnapshot> before = catalog_.Snapshot(object);
  for (int attempt = 0;; ++attempt) {
    Result<T> r = FetchOnce<T>(object);
    if (r.ok() || r.status().code() != StatusCode::kNotFound ||
        attempt >= 4) {
      return r;
    }
    Result<ObjectSnapshot> now = catalog_.Snapshot(object);
    if (!before.ok() || !now.ok() ||
        now->placement.epoch == before->placement.epoch) {
      return r;
    }
    before = std::move(now);
  }
}

template <typename T>
Result<T> BigDawg::FetchOnce(const std::string& object) {
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard shim_span(trace, Model<T>::kShimSpan);
  if (trace != nullptr) shim_span.Tag("object", object);
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const ObjectLocation& loc = snap.location;
  if (trace != nullptr) shim_span.Tag("engine", loc.engine);
  if (snap.placement.sharded()) {
    if (trace != nullptr) shim_span.Tag("sharded", "true");
    // Gather in the home model, then convert — the same conversion the
    // unsharded shim applies.
    return WithHomeModel(
        loc.engine,
        [&](auto home) -> Result<T> {
          using H = typename decltype(home)::type;
          BIGDAWG_ASSIGN_OR_RETURN(H whole, Gather<H>(object, snap));
          return Model<T>::From(whole);
        },
        Status::Internal("sharded object on unshardable engine: " + loc.engine));
  }
  // A read in the engine's own model is not a cast: there is no
  // conversion to save, so the cache never interposes on it.
  if (!cast_cache_.enabled() || loc.engine == Model<T>::kHome) {
    return Route<T>(object, loc, &shim_span, trace);
  }
  CastCacheKey key{object, snap.instance_id, snap.version, Model<T>::kTarget, ""};
  CastCacheOutcome outcome = CastCacheOutcome::kMiss;
  int64_t bytes = 0;
  Result<T> cached = cast_cache_.GetOrCompute<T>(
      key, [&] { return Route<T>(object, loc, &shim_span, trace); },
      [&] { return catalog_.SnapshotIsCurrent(object, snap); }, ActiveCtx(),
      &outcome, &bytes);
  if (ActiveCtx() != nullptr) {
    ActiveCtx()->cast_cache_outcome = CastCacheOutcomeName(outcome);
    ActiveCtx()->cast_cache_bytes = cached.ok() ? bytes : -1;
  }
  if (trace != nullptr) shim_span.Tag("cache", CastCacheOutcomeName(outcome));
  return cached;
}

template <typename T>
Result<T> BigDawg::Route(const std::string& object, const ObjectLocation& loc,
                         obs::SpanGuard* shim_span, obs::Trace* trace) {
  using M = Model<T>;
  const bool down = EngineConsideredDown(loc.engine);
  // A fresh replica on the model's home engine serves the model natively:
  // it is the failover target of choice when the primary is down, and it
  // beats shimming the primary when it is up.
  if (loc.engine != M::kHome && catalog_.ReplicaIsFresh(object, M::kHome) &&
      !EngineConsideredDown(M::kHome)) {
    BIGDAWG_ASSIGN_OR_RETURN(ReplicaLocation replica,
                             catalog_.ReplicaOn(object, M::kHome));
    obs::SpanGuard failover_span(down ? trace : nullptr, "failover");
    if (down && trace != nullptr) {
      failover_span.Tag("from", loc.engine);
      failover_span.Tag("to", M::kHome);
    }
    BIGDAWG_RETURN_NOT_OK(CheckEngine(M::kHome));
    if (down) {
      monitor_.RecordFailover(loc.engine);
      if (ActiveCtx() != nullptr) ++ActiveCtx()->failovers;
    } else if (trace != nullptr) {
      shim_span->Tag("replica", M::kHome);
    }
    return M::Get(*this, replica.native_name);
  }
  // Otherwise any fresh replica serves its relation view through the shim.
  if (down) {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, FailoverFetch(object, loc));
    return M::From(t);
  }
  if (loc.engine == M::kHome) {
    BIGDAWG_RETURN_NOT_OK(CheckEngine(loc.engine));
    return M::Get(*this, loc.native_name);
  }
  return M::Shim(*this, object, loc);
}

// ---------------------------------------------------------------------------
// Persistent CAST
// ---------------------------------------------------------------------------

Status BigDawg::CastAndStore(const std::string& object, DataModel target,
                             const std::string& new_object) {
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  const char* engine = target == DataModel::kArray         ? kEngineSciDb
                       : target == DataModel::kAssociative ? kEngineD4m
                       : target == DataModel::kTileMatrix  ? kEngineTileDb
                                                           : kEnginePostgres;
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, engine, new_object));
  return catalog_.Register({new_object, engine, new_object});
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

Status BigDawg::StoreTableOnEngine(const relational::Table& table,
                                   const std::string& engine,
                                   const std::string& native) {
  // Writes never fail over — a down engine fails the store.
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  if (engine == kEngineTileDb) {
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TableToArray(table));
    BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m, ArrayToTileMatrix(a));
    return tiledb_.PutArray(native, std::move(m));
  }
  return WithHomeModel(
      engine,
      [&](auto home) -> Status {
        using H = typename decltype(home)::type;
        BIGDAWG_ASSIGN_OR_RETURN(H value, Model<H>::From(table));
        return Model<H>::Put(*this, native, std::move(value));
      },
      Status::InvalidArgument("unsupported storage engine: " + engine));
}

void BigDawg::DropPhysical(const std::string& engine, const std::string& native) {
  if (engine == kEnginePostgres) (void)relational_.DropTable(native);
  if (engine == kEngineSciDb) (void)array_.RemoveArray(native);
  if (engine == kEngineTileDb) (void)tiledb_.RemoveArray(native);
  if (engine == kEngineD4m) {
    std::unique_lock lock(assoc_mu_);
    assoc_store_.erase(native);
  }
}

Status BigDawg::MigrateObject(const std::string& object,
                              const std::string& target_engine) {
  // Serialized with ShardObject/UnshardObject: migration of a sharded
  // object collapses its placement, which is a repartition.
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const ObjectLocation& loc = snap.location;
  if (loc.engine == target_engine) return Status::OK();
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  // A replica already on the target becomes redundant after migration;
  // the catalog drops its entry and we drop its bytes.
  Result<ReplicaLocation> existing = catalog_.ReplicaOn(object, target_engine);
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, target_engine, object));
  if (snap.placement.sharded()) {
    BIGDAWG_RETURN_NOT_OK(catalog_.RemovePlacement(object));
    DropFragments(loc.engine, loc.native_name, snap.placement);
  } else {
    DropPhysical(loc.engine, loc.native_name);
  }
  if (existing.ok() && existing->native_name != object) {
    DropPhysical(target_engine, existing->native_name);
  }
  return catalog_.UpdateLocation(object, target_engine, object);
}

Status BigDawg::CopyObjectTo(const std::string& object,
                             const std::string& engine,
                             const std::string& copy_name) {
  if (catalog_.Contains(copy_name)) {
    return Status::AlreadyExists("object " + copy_name +
                                 " already exists in the catalog");
  }
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, engine, copy_name));
  return RegisterObject(copy_name, engine, copy_name);
}

Status BigDawg::DropObject(const std::string& object) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  if (snap.placement.sharded()) {
    return Status::FailedPrecondition(
        "object " + object + " is sharded; UnshardObject it first");
  }
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    DropPhysical(replica.engine, replica.native_name);
  }
  DropPhysical(snap.location.engine, snap.location.native_name);
  return catalog_.Remove(object);
}

Status BigDawg::ReplicateObject(const std::string& object,
                                const std::string& target_engine) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation loc, catalog_.Lookup(object));
  if (loc.engine == target_engine) {
    return Status::InvalidArgument("object already lives on " + target_engine);
  }
  const std::string native = object + "__replica_" + target_engine;
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, target_engine, native));
  BIGDAWG_RETURN_NOT_OK(catalog_.AddReplica(object, target_engine, native));
  return catalog_.MarkReplicaFresh(object, target_engine);
}

Status BigDawg::DropReplica(const std::string& object, const std::string& engine) {
  BIGDAWG_ASSIGN_OR_RETURN(ReplicaLocation replica, catalog_.ReplicaOn(object, engine));
  DropPhysical(engine, replica.native_name);
  return catalog_.RemoveReplica(object, engine);
}

Status BigDawg::MarkObjectWritten(const std::string& object) {
  return catalog_.MarkPrimaryWritten(object);
}

Result<int64_t> BigDawg::RefreshReplicas(const std::string& object) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation loc, catalog_.Lookup(object));
  (void)loc;
  int64_t refreshed = 0;
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    if (catalog_.ReplicaIsFresh(object, replica.engine)) continue;
    // Re-materialize from the primary (not from another replica).
    BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation primary, catalog_.Lookup(object));
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table table,
                             FetchTableFrom(primary.engine, primary.native_name));
    BIGDAWG_RETURN_NOT_OK(
        StoreTableOnEngine(table, replica.engine, replica.native_name));
    BIGDAWG_RETURN_NOT_OK(catalog_.MarkReplicaFresh(object, replica.engine));
    ++refreshed;
  }
  return refreshed;
}

// ---------------------------------------------------------------------------
// Sharded objects: scatter-gather reads
// ---------------------------------------------------------------------------

template <typename T>
Result<T> BigDawg::FetchFragment(const std::string& object,
                                 const ObjectSnapshot& snap, int shard) {
  const std::string instance = ShardInstanceName(snap.location.engine, shard);
  if (EngineConsideredDown(instance)) {
    return Status::Unavailable("shard instance " + instance + " is down");
  }
  BIGDAWG_RETURN_NOT_OK(CheckEngine(instance));
  const std::string frag =
      ShardFragmentName(snap.location.native_name, snap.placement.epoch, shard);
  auto read = [this, shard, &frag] {
    return Model<T>::GetShard(shard_runtime_, shard, frag);
  };
  if (!cast_cache_.enabled()) return read();
  // Fragment reads key the cache on THAT shard's write version (params
  // carry the shard/epoch so two shards of one object never collide):
  // writing or migrating shard 3 invalidates only shard 3's entry and
  // the other shards stay warm.
  CastCacheKey key{object, snap.instance_id,
                   snap.placement.shard_versions[static_cast<size_t>(shard)],
                   Model<T>::kTarget,
                   "s" + std::to_string(shard) + "@e" +
                       std::to_string(snap.placement.epoch)};
  CastCacheOutcome outcome = CastCacheOutcome::kMiss;
  return cast_cache_.GetOrCompute<T>(
      key, read,
      [&] { return catalog_.ShardStateIsCurrent(object, snap, shard); },
      // Fragment fetches run on pool threads where no ExecContext is
      // installed; single-flight waiting still coalesces by key.
      nullptr, &outcome);
}

template <typename T>
Result<T> BigDawg::Gather(const std::string& object, const ObjectSnapshot& snap) {
  // The trace lives on the gather thread only: obs::Trace is not
  // thread-safe, so pool tasks never touch it.
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard span(trace, Model<T>::kScatterSpan);
  if (trace != nullptr) {
    span.Tag("object", object);
    span.Tag("shards", std::to_string(snap.placement.shard_count));
    span.Tag("epoch", std::to_string(snap.placement.epoch));
  }
  int failed_shard = -1;
  Result<std::vector<T>> frags = shard_runtime_.ScatterGather<T>(
      snap.placement.shard_count,
      // By value: a failed gather returns before abandoned tasks
      // (and hedges) drain, so the lambda must own its state.
      [this, object, snap](int shard) {
        return FetchFragment<T>(object, snap, shard);
      },
      &failed_shard);
  if (frags.ok()) {
    if (!catalog_.PlacementIsCurrent(object, snap)) {
      // A repartition raced the scatter; surface NotFound so the fetch
      // wrapper re-snapshots and reads the new layout instead of serving
      // a torn mix of epochs.
      return Status::NotFound("placement of " + object +
                              " changed during gather");
    }
    return Model<T>::Merge(std::move(*frags));
  }
  if (trace != nullptr) span.Tag("error", frags.status().message());
  if (frags.status().code() != StatusCode::kUnavailable) return frags.status();
  // Partial results are never served. A replicated object can still
  // answer whole from a fresh replica; otherwise the failure is typed.
  Result<relational::Table> failover = FailoverFetch(object, snap.location);
  if (failover.ok()) return Model<T>::From(*failover);
  if (failed_shard >= 0 && ActiveCtx() != nullptr) {
    ActiveCtx()->unavailable_engine =
        ShardInstanceName(snap.location.engine, failed_shard);
  }
  return frags.status();
}

// ---------------------------------------------------------------------------
// Sharded objects: repartitioning
// ---------------------------------------------------------------------------

int BigDawg::DefaultShardCount() {
  const char* env = std::getenv("BIGDAWG_SHARDS");
  if (env != nullptr) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 64) {
      return static_cast<int>(v);
    }
  }
  return 4;
}

template <typename T>
Status BigDawg::StoreFragment(int shard, const std::string& native,
                              const T& fragment) {
  // Writes never fail over: a down shard instance fails the store.
  BIGDAWG_RETURN_NOT_OK(shard_runtime_.CheckInstance(Model<T>::kHome, shard));
  return Model<T>::PutShard(shard_runtime_, shard, native, fragment);
}

void BigDawg::DropFragments(const std::string& engine, const std::string& native,
                            const ShardPlacement& placement) {
  (void)WithHomeModel(
      engine,
      [&](auto home) -> Status {
        using H = typename decltype(home)::type;
        for (int i = 0; i < placement.shard_count; ++i) {
          Model<H>::DropShard(shard_runtime_, i,
                              ShardFragmentName(native, placement.epoch, i));
        }
        return Status::OK();
      },
      Status::OK());
}

Status BigDawg::ShardObject(const std::string& object) {
  return ShardObject(object, DefaultShardCount());
}

Status BigDawg::ShardObject(const std::string& object, int shard_count,
                            const std::string& key) {
  if (shard_count < 1 || shard_count > 64) {
    return Status::InvalidArgument("shard_count must be in [1, 64]");
  }
  // One repartition at a time, system-wide: the epoch sequence per object
  // stays strictly increasing and old-layout cleanup cannot interleave.
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const std::string& engine = snap.location.engine;

  ShardPlacement placement;
  placement.shard_count = shard_count;
  placement.epoch = snap.placement.epoch + 1;
  BIGDAWG_RETURN_NOT_OK(WithHomeModel(
      engine,
      [&](auto home) -> Status {
        using H = typename decltype(home)::type;
        // The whole object in its home model: gathered when already
        // sharded (a repartition), else one native read.
        Result<H> whole = snap.placement.sharded()
                              ? Gather<H>(object, snap)
                              : [&]() -> Result<H> {
          BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
          return Model<H>::Get(*this, snap.location.native_name);
        }();
        BIGDAWG_RETURN_NOT_OK(whole.status());
        BIGDAWG_ASSIGN_OR_RETURN(std::vector<H> frags,
                                 Model<H>::Partition(*whole, key, &placement));
        for (int i = 0; i < shard_count; ++i) {
          BIGDAWG_RETURN_NOT_OK(StoreFragment(
              i, ShardFragmentName(snap.location.native_name, placement.epoch, i),
              frags[static_cast<size_t>(i)]));
        }
        return Status::OK();
      },
      Status::InvalidArgument(
          "only postgres/scidb/d4m-homed objects can be sharded (object " +
          object + " lives on " + engine + ")")));

  // New-epoch fragments are fully written; the placement swap makes them
  // visible atomically, and only then is the old layout retired.
  BIGDAWG_RETURN_NOT_OK(catalog_.SetPlacement(object, placement));
  shard_runtime_.stats().repartitions.fetch_add(1, std::memory_order_relaxed);
  if (snap.placement.sharded()) {
    DropFragments(engine, snap.location.native_name, snap.placement);
  } else {
    DropPhysical(engine, snap.location.native_name);
  }
  return Status::OK();
}

Status BigDawg::UnshardObject(const std::string& object) {
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  if (!snap.placement.sharded()) return Status::OK();
  const std::string& engine = snap.location.engine;
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  BIGDAWG_RETURN_NOT_OK(WithHomeModel(
      engine,
      [&](auto home) -> Status {
        using H = typename decltype(home)::type;
        BIGDAWG_ASSIGN_OR_RETURN(H whole, Gather<H>(object, snap));
        return Model<H>::Put(*this, snap.location.native_name, std::move(whole));
      },
      Status::Internal("sharded object on unshardable engine: " + engine)));
  BIGDAWG_RETURN_NOT_OK(catalog_.RemovePlacement(object));
  shard_runtime_.stats().repartitions.fetch_add(1, std::memory_order_relaxed);
  DropFragments(engine, snap.location.native_name, snap.placement);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stream age-out
// ---------------------------------------------------------------------------

Status BigDawg::EnableStreamAgeOut() { return EnableStreamAgeOut({}); }

Status BigDawg::EnableStreamAgeOut(const StreamAgeOutConfig& config) {
  auto pipeline = std::make_unique<StreamAgeOut>(this, config);
  BIGDAWG_RETURN_NOT_OK(pipeline->Attach());
  stream_ageout_ = std::move(pipeline);
  return Status::OK();
}

Status BigDawg::StoreStreamHistory(const std::string& object,
                                   const relational::Table& table) {
  return StoreStreamHistory(object, table, std::numeric_limits<size_t>::max())
      .status();
}

Result<HistoryWrite> BigDawg::StoreStreamHistory(const std::string& object,
                                                 const relational::Table& rows,
                                                 size_t max_rows) {
  // Every store below works on snapshots (CoW handles) of the stored
  // arrays and replaces them only once the new cells are all written, so
  // a failed flush changes nothing and the pipeline keeps its rows
  // pending. (A sharded store can still fail between fragments; the
  // retry rewrites the same cells, since hist_seq fixes a row's cell.)
  Result<ObjectSnapshot> snap = catalog_.Snapshot(object);
  if (!snap.ok()) {
    if (!snap.status().IsNotFound()) return snap.status();
    // Writes never fail over: a down array engine fails the store.
    BIGDAWG_RETURN_NOT_OK(CheckEngine(kEngineSciDb));
    BIGDAWG_ASSIGN_OR_RETURN(array::Array built, BuildHistory({}, rows, max_rows));
    BIGDAWG_RETURN_NOT_OK(array_.PutArray(object, std::move(built)));
    BIGDAWG_RETURN_NOT_OK(catalog_.Register({object, kEngineSciDb, object}));
    return HistoryWrite::kCreated;
  }
  if (snap->location.engine != kEngineSciDb) {
    return Status::Internal("stream history must live on the array engine");
  }
  const std::string& native = snap->location.native_name;
  const ShardPlacement& placement = snap->placement;
  const int shards = placement.sharded() ? placement.shard_count : 1;
  // Probe every shard instance up front so a down shard fails the flush
  // before any fragment is replaced.
  for (int i = 0; placement.sharded() && i < shards; ++i) {
    if (shard_runtime_.InstanceConsideredDown(kEngineSciDb, i)) {
      return Status::Unavailable("shard instance " +
                                 ShardInstanceName(kEngineSciDb, i) +
                                 " is down; stream history flush deferred");
    }
  }
  // The stored history: one array, or one per shard. A sharded history's
  // fragments all carry the full dimensions (PartitionArray).
  std::vector<array::Array> parts;
  for (int i = 0; i < shards; ++i) {
    if (placement.sharded()) {
      BIGDAWG_RETURN_NOT_OK(shard_runtime_.CheckInstance(kEngineSciDb, i));
      BIGDAWG_ASSIGN_OR_RETURN(
          array::Array frag,
          Model<array::Array>::GetShard(
              shard_runtime_, i, ShardFragmentName(native, placement.epoch, i)));
      parts.push_back(std::move(frag));
    } else {
      BIGDAWG_RETURN_NOT_OK(CheckEngine(kEngineSciDb));
      BIGDAWG_ASSIGN_OR_RETURN(array::Array whole, array_.GetArray(native));
      parts.push_back(std::move(whole));
    }
  }

  // A sharded store that failed part-way can leave fragments on different
  // grids; they are rebuilt together rather than appended to.
  const bool same_grid =
      std::all_of(parts.begin(), parts.end(), [&](const array::Array& part) {
        return part.dims() == parts[0].dims();
      });
  std::optional<int64_t> length;
  if (same_grid) length = HistoryLengthAfterAppend(parts[0].dims(), rows, max_rows);
  HistoryWrite how = HistoryWrite::kAppended;
  if (length) {
    // Append: route each row to the part owning its coordinate, grow
    // hist_seq on every part (their dimensions stay identical), and write
    // only the new cells. Untouched chunks stay shared with the store.
    std::vector<relational::Table> routed(static_cast<size_t>(shards),
                                          relational::Table(rows.schema()));
    if (placement.sharded()) {
      BIGDAWG_ASSIGN_OR_RETURN(size_t key, rows.schema().Resolve(placement.key));
      if (rows.schema().field(key).type != DataType::kInt64) {
        return Status::Internal("history partition key " + placement.key +
                                " is not a dimension");
      }
      for (const Row& row : rows.rows()) {
        const int shard = std::min(
            RangeShardOf(row[key].int64_unchecked(), placement.range_splits),
            shards - 1);
        routed[static_cast<size_t>(shard)].AppendUnchecked(row);
      }
    } else {
      routed[0] = rows;
    }
    for (int i = 0; i < shards; ++i) {
      array::Array& part = parts[static_cast<size_t>(i)];
      BIGDAWG_RETURN_NOT_OK(part.GrowDim(0, *length));
      BIGDAWG_RETURN_NOT_OK(SetTableCells(routed[static_cast<size_t>(i)], &part));
    }
  } else {
    how = HistoryWrite::kRebuilt;
    BIGDAWG_ASSIGN_OR_RETURN(array::Array built, BuildHistory(parts, rows, max_rows));
    if (placement.sharded()) {
      BIGDAWG_ASSIGN_OR_RETURN(parts, PartitionArray(built, placement));
    } else {
      parts = {std::move(built)};
    }
  }

  for (int i = 0; i < shards; ++i) {
    array::Array& part = parts[static_cast<size_t>(i)];
    if (placement.sharded()) {
      BIGDAWG_RETURN_NOT_OK(
          StoreFragment(i, ShardFragmentName(native, placement.epoch, i), part));
    } else {
      BIGDAWG_RETURN_NOT_OK(array_.PutArray(native, std::move(part)));
    }
  }
  // Bump the version so the cast cache drops every pre-flush entry.
  BIGDAWG_RETURN_NOT_OK(catalog_.MarkPrimaryWritten(object));
  return how;
}

Result<int64_t> BigDawg::ApplyMigrations() {
  std::vector<MigrationSuggestion> suggestions = monitor_.SuggestMigrations(catalog_);
  int64_t migrated = 0;
  for (const MigrationSuggestion& s : suggestions) {
    BIGDAWG_RETURN_NOT_OK(MigrateObject(s.object, s.to_engine));
    ++migrated;
  }
  if (migrated > 0) monitor_.ResetAccessHistory();
  return migrated;
}

}  // namespace bigdawg::core
