#ifndef BIGDAWG_CORE_BIGDAWG_H_
#define BIGDAWG_CORE_BIGDAWG_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "array/array_engine.h"
#include "common/result.h"
#include "core/cast.h"
#include "core/cast_cache.h"
#include "core/catalog.h"
#include "core/exec_context.h"
#include "core/fault_injector.h"
#include "core/island.h"
#include "core/islands.h"
#include "core/monitor.h"
#include "core/sharding.h"
#include "d4m/assoc_array.h"
#include "kvstore/text_store.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "stream/stream_engine.h"
#include "tiledb/tiledb.h"

namespace bigdawg::core {

class StreamAgeOut;
struct StreamAgeOutConfig;
enum class HistoryWrite : int;

/// One CAST site a query would perform, discovered by PlanCasts without
/// executing anything. Steps appear in execution order: a CAST nested
/// inside a scoped-subquery argument precedes the CAST that consumes it.
struct CastPlanStep {
  std::string source;         ///< the CAST's first argument, verbatim
  std::string from_model;     ///< source data model ("?" when unresolvable)
  std::string to_model;       ///< target data model
  std::string source_engine;  ///< engine homing the source ("" for subqueries)
  bool subquery = false;      ///< source is itself an island-scoped query
};

/// \brief The BigDAWG polystore facade.
///
/// Owns the federation's storage engines, the catalog mapping logical
/// objects to engines (location transparency), the eight islands of
/// information, and the cross-system monitor. Queries enter through
/// Execute(), which implements the paper's SCOPE/CAST surface:
///
///   RELATIONAL(SELECT * FROM CAST(W, relation) WHERE v > 5)
///   ARRAY(aggregate(W, avg, hr, patient))
///   TEXT(OWNERS_WITH_PHRASE 'very sick' 3)
///   STREAM(WINDOW hr_window)
///   D4M(ROWSUM adjacency)
///   MYRIA(SELECT race, COUNT(*) FROM patients GROUP BY race)
///
/// SCOPE = the island name wrapping the query; a query with no SCOPE
/// defaults to the RELATIONAL island. CAST(obj, model) converts `obj`
/// into the target data model (relation | array | associative |
/// tilematrix) and hands it to the island by a name in the execution's
/// overlay (ExecContext::overlay), writing no engine or catalog entry;
/// the first argument may itself be a scoped subquery.
class BigDawg {
 public:
  BigDawg();
  ~BigDawg();

  BigDawg(const BigDawg&) = delete;
  BigDawg& operator=(const BigDawg&) = delete;

  // ---- Engines (for loading data and native access) ----
  relational::Database& postgres() { return relational_; }
  array::ArrayEngine& scidb() { return array_; }
  kvstore::TextStore& accumulo() { return text_; }
  stream::StreamEngine& sstore() { return stream_; }
  tiledb::TileDbEngine& tiledb() { return tiledb_; }
  /// Raw access to the middleware-resident associative store, for
  /// single-threaded data loading; concurrent executions go through the
  /// internally locked paths.
  std::map<std::string, d4m::AssocArray>& assoc_store() { return assoc_store_; }

  Catalog& catalog() { return catalog_; }
  Monitor& monitor() { return monitor_; }
  /// The per-engine fault plane. Disabled by default (zero overhead);
  /// chaos tests enable it and script fault schedules. Every engine shim
  /// consults it, so injected faults surface exactly where real engine
  /// outages would.
  FaultInjector& fault_injector() { return fault_; }
  /// The finished-trace sink. Disabled by default (one relaxed load per
  /// query); when enabled — Enable(), or BIGDAWG_TRACE=1 in the
  /// environment — every execution records a span tree here: scope
  /// routing, casts (with bytes moved), shim calls, failovers, and (for
  /// service-submitted queries) attempts, lock waits, backoffs, and
  /// breaker decisions.
  obs::Tracer& tracer() { return tracer_; }
  /// The shared cast-result cache. Cross-model fetches (FetchAsTable of
  /// an array, FetchAsArray of a relation, ...) consult it before any
  /// shim runs; native same-model reads and CAST results bypass it.
  /// Version bumps (MarkObjectWritten) make stale entries unreachable;
  /// they age out via LRU. BIGDAWG_CAST_CACHE=0 disables it at startup.
  CastCache& cast_cache() { return cast_cache_; }

  /// Registers a logical object living on an engine. The native object
  /// must already exist there.
  Status RegisterObject(const std::string& object, const std::string& engine,
                        const std::string& native_name);

  // ---- The query surface ----

  /// Executes a (possibly SCOPE-wrapped, CAST-containing) query with an
  /// anonymous per-call execution context.
  Result<relational::Table> Execute(const std::string& query);

  /// Executes a query under a caller-provided context. The context holds
  /// the execution's CAST results (so concurrent executions never see
  /// each other's), the cooperative cancellation flag, and the deadline;
  /// exec::QueryService threads one per submitted query.
  Result<relational::Table> Execute(const std::string& query, ExecContext* ctx);

  /// Dry-runs the CAST analysis of a query: parses out every CAST site
  /// (recursing into scoped-subquery sources) and reports what data would
  /// move where, touching only the catalog — no engine is contacted and
  /// nothing executes. EXPLAIN is built on this.
  Result<std::vector<CastPlanStep>> PlanCasts(const std::string& query);

  /// Islands registered in this polystore (the paper's eight).
  std::vector<std::string> ListIslands() const;
  Result<Island*> GetIsland(const std::string& name);

  // ---- Cross-model access (shims; also used by CAST) ----

  Result<relational::Table> FetchAsTable(const std::string& object);
  Result<array::Array> FetchAsArray(const std::string& object);
  Result<d4m::AssocArray> FetchAsAssoc(const std::string& object);

  /// CAST + store + register: materializes `object` in `target` model
  /// under logical name `new_object`.
  Status CastAndStore(const std::string& object, DataModel target,
                      const std::string& new_object);

  // ---- Monitoring / migration ----

  /// Moves an object to another engine (converting its representation)
  /// and updates the catalog; the old physical copy is dropped.
  Status MigrateObject(const std::string& object, const std::string& target_engine);

  /// Materializes a point-in-time copy of `object` on `engine` under the
  /// new logical name `copy_name` (registered in the catalog with its own
  /// instance id). The copy is independent of the original — writes to
  /// one never touch the other. The adaptive-placement shadow executor
  /// measures candidate placements on such copies; pair with DropObject.
  Status CopyObjectTo(const std::string& object, const std::string& engine,
                      const std::string& copy_name);

  /// Unregisters `object` and drops its physical bytes (primary and any
  /// replicas). FailedPrecondition for sharded objects — UnshardObject
  /// collapses a placement first.
  Status DropObject(const std::string& object);

  // ---- Replication (the paper's future-work extension) ----

  /// Materializes a read replica of `object` on `target_engine`.
  /// Model-matched fetches (FetchAsTable on a postgres replica,
  /// FetchAsArray on a scidb replica, FetchAsAssoc on a d4m replica) are
  /// served from fresh replicas, avoiding the cross-model shim. Replicas are read-only; after writing the primary,
  /// call MarkObjectWritten + RefreshReplicas.
  Status ReplicateObject(const std::string& object, const std::string& target_engine);
  Status DropReplica(const std::string& object, const std::string& engine);
  /// Records a primary write (staling every replica).
  Status MarkObjectWritten(const std::string& object);
  /// Re-materializes every stale replica from the primary; returns the
  /// number refreshed.
  Result<int64_t> RefreshReplicas(const std::string& object);

  /// Applies every suggestion the monitor currently makes; returns the
  /// number of objects migrated.
  Result<int64_t> ApplyMigrations();

  // ---- Sharding (partitioned objects across engine instances) ----

  /// The pool of numbered engine instances sharded objects live on, and
  /// the scatter-gather machinery the islands reuse.
  ShardRuntime& shards() { return shard_runtime_; }

  /// Partitions `object` across `shard_count` instances of its home
  /// engine. Tables hash on `key` (default: the first column), assoc
  /// arrays hash on the row key, arrays range-partition on `key`
  /// (default: the first dimension). The object's bytes move from the
  /// base engine into per-shard fragments; reads reassemble them
  /// transparently, and the relational/array/D4M islands push distributive
  /// aggregates down to the shards. Safe to call on an already-sharded
  /// object (repartition: readers mid-flight retry against the new
  /// layout). `shard_count == 1` is a real single-shard placement.
  Status ShardObject(const std::string& object, int shard_count,
                     const std::string& key = "");
  /// ShardObject with the BIGDAWG_SHARDS default shard count.
  Status ShardObject(const std::string& object);
  /// Gathers the fragments back into one object on the base engine and
  /// removes the placement.
  Status UnshardObject(const std::string& object);
  /// The BIGDAWG_SHARDS environment default (4 when unset/invalid).
  static int DefaultShardCount();

  // ---- Stream age-out (streaming island -> array engine) ----

  /// Installs the age-out pipeline: rows the stream engine's retention
  /// evicts are batched and CAST into the array engine as per-stream
  /// `<stream>__history` objects, each flush bumping the object's catalog
  /// version so cached cross-model reads can never serve stale bytes.
  /// Call after streams are defined and before sstore().Start().
  Status EnableStreamAgeOut();
  Status EnableStreamAgeOut(const StreamAgeOutConfig& config);
  /// The installed pipeline, or null when not enabled.
  StreamAgeOut* stream_ageout() { return stream_ageout_.get(); }

  /// Adds a relation in the history schema (`hist_seq` first, see
  /// stream_ageout.h) to the array-engine object `object`: the first call
  /// builds and registers it, later calls append onto a snapshot of the
  /// stored array and bump the catalog version. The age-out pipeline's
  /// store primitive; goes through the fault plane like every other
  /// engine write, and a failed call leaves the stored object unchanged.
  Status StoreStreamHistory(const std::string& object,
                            const relational::Table& table);
  /// As above, keeping only the last `max_rows` sequence numbers, and
  /// reporting whether the write created, appended to or rebuilt the
  /// history.
  Result<HistoryWrite> StoreStreamHistory(const std::string& object,
                                          const relational::Table& rows,
                                          size_t max_rows);

 private:
  /// Stores a relation on an engine (converting as needed) under `native`.
  Status StoreTableOnEngine(const relational::Table& table,
                            const std::string& engine, const std::string& native);
  /// Drops a physical object from an engine (best-effort).
  void DropPhysical(const std::string& engine, const std::string& native);
  /// One fault-plane check guarding an engine touch: applies the
  /// injector's schedule, records the call in the monitor's health view,
  /// and stamps the failing engine on the active execution context.
  Status CheckEngine(const std::string& engine);
  /// True when reads should route away from `engine`: it is inside an
  /// injected down window, or the query service's breaker for it is open.
  bool EngineConsideredDown(const std::string& engine) const;
  /// Serves a read of `object` from a fresh replica on a healthy engine
  /// when the primary is down; Unavailable when none can.
  Result<relational::Table> FailoverFetch(const std::string& object,
                                          const ObjectLocation& primary);
  /// Reads an object's bytes from a specific physical location.
  Result<relational::Table> FetchTableFrom(const std::string& engine,
                                           const std::string& native);

  // ---- The one cross-model fetch / gather / repartition path ----

  /// Per-data-model hooks behind the templates below: home engine, cache
  /// target, span names, native getters and putters on the base engine
  /// and on shard instance i, CAST converters into the model, the shim
  /// for a primary on another engine, and fragment partition/merge.
  /// Specialized in bigdawg.cc for relational::Table, array::Array and
  /// d4m::AssocArray, the only models the templates are instantiated for.
  template <typename T>
  struct Model;

  /// The public FetchAs* bodies: one attempt, retried (bounded) on a
  /// NotFound caused by a concurrent repartition retiring the physical
  /// names a snapshot pointed at.
  template <typename T>
  Result<T> Fetch(const std::string& object);
  /// One attempt: a sharded gather in the home model (converted after
  /// the merge, mirroring the unsharded path) or the cache-aware Route.
  template <typename T>
  Result<T> FetchOnce(const std::string& object);
  /// Routing behind the cache: down-check and failover (a fresh replica
  /// on the model's home engine natively, else any fresh replica's
  /// relation view), home-model replica preference, then the model's
  /// shim. `shim_span` is the caller's span (for replica tags); `trace`
  /// may be null.
  template <typename T>
  Result<T> Route(const std::string& object, const ObjectLocation& loc,
                  obs::SpanGuard* shim_span, obs::Trace* trace);
  /// Gathers a sharded object's fragments in its HOME model T, with
  /// per-shard failure handling and whole-object replica failover.
  template <typename T>
  Result<T> Gather(const std::string& object, const ObjectSnapshot& snap);
  /// One shard's fragment read, through the per-shard cast cache entry
  /// (params "s<i>@e<epoch>", version = that shard's write version).
  template <typename T>
  Result<T> FetchFragment(const std::string& object,
                          const ObjectSnapshot& snap, int shard);
  /// Writes fragment `shard` of a new layout onto that instance of T's
  /// home engine; OK only when the store took (fault plane consulted
  /// with the instance name).
  template <typename T>
  Status StoreFragment(int shard, const std::string& native, const T& fragment);
  /// Drops one epoch's fragments from the shard instances (best-effort).
  void DropFragments(const std::string& engine, const std::string& native,
                     const ShardPlacement& placement);

  // SCOPE/CAST machinery (implemented in scope.cc).
  Result<relational::Table> ExecuteScoped(const std::string& island_name,
                                          const std::string& inner_query,
                                          ExecContext* ctx);
  /// Runs every CAST in `query`, the body of an `island` scope, into the
  /// overlay; returns `query` with each CAST(...) replaced by its name.
  Result<std::string> RewriteCasts(const std::string& island,
                                   const std::string& query, ExecContext* ctx);
  /// Recursive worker behind PlanCasts; appends steps in execution order.
  Status PlanCastsInto(const std::string& query,
                       std::vector<CastPlanStep>* steps);

  relational::Database relational_;
  array::ArrayEngine array_;
  kvstore::TextStore text_;
  stream::StreamEngine stream_;
  tiledb::TileDbEngine tiledb_;
  std::map<std::string, d4m::AssocArray> assoc_store_;

  Catalog catalog_;
  Monitor monitor_;
  FaultInjector fault_;
  ShardRuntime shard_runtime_;
  CastCache cast_cache_;
  obs::Tracer tracer_;
  std::map<std::string, std::unique_ptr<Island>> islands_;
  /// The stream -> array-engine age-out pipeline (null until enabled).
  std::unique_ptr<StreamAgeOut> stream_ageout_;
  /// The context of the execution running on this thread, so engine
  /// shims reached through island fetcher lambdas (which carry no
  /// context) can stamp resilience bookkeeping onto it. Set by
  /// Execute(query, ctx), restored on exit (nested Execute calls share
  /// the outer context). A function-local thread_local behind an
  /// accessor rather than a static thread_local data member: GCC's
  /// extern-TLS wrapper for the data-member form trips a
  /// -fsanitize=null false positive ("store to null pointer") when the
  /// member is written from another translation unit.
  static ExecContext*& ActiveCtx();
  /// The running execution's CAST result named `name`, or null.
  static const ModelValue* CastResult(const std::string& name);
  /// Guards assoc_store_: unlike the engines, which synchronize
  /// internally, the middleware-resident associative store is a plain
  /// map. The accessor above is for single-threaded loading only.
  mutable std::shared_mutex assoc_mu_;
};

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_BIGDAWG_H_
