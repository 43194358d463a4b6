// Fetch-matrix oracle for the three cross-model fetch surfaces
// (FetchAsTable / FetchAsArray / FetchAsAssoc). Every case is one point
// of home engine x data model x {unsharded, 3 shards} x cast cache
// {off, on} x primary {up, down}, with one fresh replica always present.
// Each case must serve exactly the answer its route implies — derived
// from the cache-off, unsharded, unreplicated answer and the CAST
// operators, compared in canonical wire form — and leave the documented
// shim/scatter spans, engine/replica/cache tags, and failover accounting
// behind.

#include <algorithm>
#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/macros.h"
#include "core/bigdawg.h"
#include "core/wire_format.h"
#include "obs/trace.h"

namespace bigdawg::core {
namespace {

/// The three fetch models, in the order of Object's alternatives.
enum class Model { kTable = 0, kArray = 1, kAssoc = 2 };

using Object = std::variant<relational::Table, array::Array, d4m::AssocArray>;

const char* ModelName(Model model) {
  switch (model) {
    case Model::kTable:
      return "table";
    case Model::kArray:
      return "array";
    case Model::kAssoc:
      return "assoc";
  }
  return "?";
}

/// The engine that stores each model natively.
std::string HomeOf(Model model) {
  switch (model) {
    case Model::kTable:
      return kEnginePostgres;
    case Model::kArray:
      return kEngineSciDb;
    case Model::kAssoc:
      return kEngineD4m;
  }
  return "";
}

/// The model an engine stores natively; text and streams surface as
/// relations.
Model NativeModelOf(const std::string& engine) {
  if (engine == kEngineSciDb) return Model::kArray;
  if (engine == kEngineD4m) return Model::kAssoc;
  return Model::kTable;
}

const char* const kObject = "obj";

/// The one fresh replica each (home, model) case carries: on the model's
/// home engine whenever the object lives elsewhere (so model-matched
/// replica routing is exercised), otherwise on another engine. A d4m
/// object's relation view has string columns and cannot be stored on the
/// array engine, so its array case replicates to postgres.
std::string ReplicaEngineFor(const std::string& home, Model model) {
  const std::string model_home = HomeOf(model);
  if (home == model_home) {
    return home == kEnginePostgres ? kEngineSciDb : kEnginePostgres;
  }
  if (home == kEngineD4m && model == Model::kArray) return kEnginePostgres;
  return model_home;
}

relational::Table NumericTable() {
  relational::Table t{Schema(
      {Field("id", DataType::kInt64), Field("v", DataType::kDouble)})};
  for (int64_t i = 0; i < 12; ++i) {
    t.AppendUnchecked({Value(i), Value(1.5 * static_cast<double>(i) + 0.25)});
  }
  return t;
}

void LoadHome(BigDawg* dawg, const std::string& home) {
  if (home == kEnginePostgres) {
    BIGDAWG_CHECK_OK(dawg->postgres().PutTable(kObject, NumericTable()));
  } else if (home == kEngineSciDb) {
    BIGDAWG_CHECK_OK(dawg->scidb().PutArray(kObject, *TableToArray(NumericTable())));
  } else if (home == kEngineD4m) {
    d4m::AssocArray assoc;
    for (int i = 0; i < 12; ++i) {
      const std::string row = std::string(i < 10 ? "k0" : "k") + std::to_string(i);
      assoc.Set(row, "v", Value(1.5 * i));
      assoc.Set(row, "w", Value(static_cast<double>(1 + i % 4)));
    }
    dawg->assoc_store()[kObject] = std::move(assoc);
  } else if (home == kEngineAccumulo) {
    BIGDAWG_CHECK_OK(dawg->accumulo().AddDocument("n1", "0", "patient very sick"));
    BIGDAWG_CHECK_OK(dawg->accumulo().AddDocument("n2", "0", "still very sick"));
    BIGDAWG_CHECK_OK(dawg->accumulo().AddDocument("n3", "1", "recovering well"));
  } else if (home == kEngineTileDb) {
    array::Array m =
        *array::Array::FromMatrix({{1, 0, 2, 0}, {0, 3, 0, 4}, {5, 0, 6, 0}});
    BIGDAWG_CHECK_OK(dawg->tiledb().PutArray(kObject, *ArrayToTileMatrix(m, 2, 2)));
  } else if (home == kEngineSStore) {
    BIGDAWG_CHECK_OK(dawg->sstore().CreateStream(
        kObject,
        Schema({Field("id", DataType::kInt64), Field("v", DataType::kDouble)}),
        100));
    BIGDAWG_CHECK_OK(dawg->sstore().RegisterProcedure(
        "load", [](stream::ProcContext* ctx) {
          return ctx->AppendToStream(kObject, ctx->input());
        }));
    const relational::Table rows = NumericTable();
    for (const Row& row : rows.rows()) {
      BIGDAWG_CHECK_OK(dawg->sstore().ExecuteProcedure("load", row));
    }
  }
  BIGDAWG_CHECK_OK(dawg->RegisterObject(kObject, home, kObject));
}

/// Row order is not part of a relation's identity (a sharded gather
/// concatenates fragments in shard order), so tables compare row-sorted.
std::string CanonicalTable(const relational::Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return EncodeTable(relational::Table(t.schema(), std::move(rows)));
}

/// Canonical wire bytes of a served object, or the failure it carried.
Result<std::string> Canonical(const Result<Object>& object) {
  if (!object.ok()) return object.status();
  if (const auto* t = std::get_if<relational::Table>(&*object)) {
    return CanonicalTable(*t);
  }
  if (const auto* a = std::get_if<array::Array>(&*object)) {
    return EncodeArray(*a);
  }
  return EncodeAssoc(std::get<d4m::AssocArray>(*object));
}

/// One public fetch of the object.
Result<Object> Fetch(BigDawg* dawg, Model model) {
  switch (model) {
    case Model::kTable: {
      BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, dawg->FetchAsTable(kObject));
      return Object(std::move(t));
    }
    case Model::kArray: {
      BIGDAWG_ASSIGN_OR_RETURN(array::Array a, dawg->FetchAsArray(kObject));
      return Object(std::move(a));
    }
    case Model::kAssoc: {
      BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, dawg->FetchAsAssoc(kObject));
      return Object(std::move(a));
    }
  }
  return Status::Internal("unknown model");
}

/// CASTs `from` into `to` with the operators the fetch paths use (an
/// array reaches the associative model through its relation).
Result<Object> Convert(const Object& from, Model to) {
  if (from.index() == static_cast<size_t>(to)) return from;
  if (const auto* t = std::get_if<relational::Table>(&from)) {
    if (to == Model::kArray) {
      BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TableToArray(*t));
      return Object(std::move(a));
    }
    BIGDAWG_ASSIGN_OR_RETURN(d4m::AssocArray a, TableToAssoc(*t));
    return Object(std::move(a));
  }
  if (const auto* a = std::get_if<array::Array>(&from)) {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, ArrayToTable(*a));
    return Convert(Object(std::move(t)), to);
  }
  const auto& assoc = std::get<d4m::AssocArray>(from);
  if (to == Model::kTable) {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, AssocToTable(assoc));
    return Object(std::move(t));
  }
  BIGDAWG_ASSIGN_OR_RETURN(array::Array a, AssocToArray(assoc));
  return Object(std::move(a));
}

/// Convert applied along `path`, stopping at the first failure.
Result<Object> Through(const Object& start, std::initializer_list<Model> path) {
  Result<Object> current = start;
  for (Model step : path) {
    if (!current.ok()) break;
    current = Convert(*current, step);
  }
  return current;
}

void ExpectSameOutcome(const Result<std::string>& got,
                       const Result<std::string>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << (got.ok() ? "OK" : got.status().ToString()) << ", want "
      << (want.ok() ? "OK" : want.status().ToString());
  if (got.ok()) {
    EXPECT_TRUE(*got == *want) << "canonical bytes differ from the oracle";
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
  }
}

/// An island query whose only fetch is one FetchAs<model>(obj).
std::string IslandQueryFor(Model model) {
  switch (model) {
    case Model::kTable:
      return "RELATIONAL(SELECT * FROM obj)";
    case Model::kArray:
      return "ARRAY(obj)";
    case Model::kAssoc:
      return "D4M(TRIPLES obj)";
  }
  return "";
}

struct TracedRun {
  obs::TraceSpan root;
  int64_t failovers = 0;
};

/// Runs the model's island query under a traced execution context, so
/// the fetch shims stamp their spans and failover count onto it.
TracedRun RunTraced(BigDawg* dawg, Model model) {
  ExecContext ctx;
  obs::Trace trace(obs::Clock::System(), "query");
  ctx.trace = &trace;
  (void)dawg->Execute(IslandQueryFor(model), &ctx);
  return {std::move(trace).Finish(), ctx.failovers};
}

const obs::TraceSpan* FindSpan(const obs::TraceSpan& span,
                               const std::string& name) {
  if (span.name == name) return &span;
  for (const obs::TraceSpan& child : span.children) {
    if (const obs::TraceSpan* found = FindSpan(child, name)) return found;
  }
  return nullptr;
}

std::string TagOr(const obs::TraceSpan& span, const std::string& key) {
  const std::string* value = span.FindTag(key);
  return value != nullptr ? *value : "-";
}

struct Case {
  std::string home;
  Model model;
  bool sharded;
  bool cache;
  bool down;
};

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (Model model : {Model::kTable, Model::kArray, Model::kAssoc}) {
    for (const std::string home : {kEnginePostgres, kEngineSciDb, kEngineD4m,
                                   kEngineAccumulo, kEngineTileDb, kEngineSStore}) {
      // The text corpus has no numeric dimensions to become an array.
      if (model == Model::kArray && home == kEngineAccumulo) continue;
      const bool shardable = home == kEnginePostgres || home == kEngineSciDb ||
                             home == kEngineD4m;
      for (bool sharded : {false, true}) {
        if (sharded && !shardable) continue;
        for (bool cache : {false, true}) {
          for (bool down : {false, true}) {
            cases.push_back({home, model, sharded, cache, down});
          }
        }
      }
    }
  }
  return cases;
}

// gtest_discover_tests names each case after its printed parameter. A
// name generator would not help: the ctest name would keep gtest's raw
// byte dump of the struct, i.e. the address inside `home`, which changes
// on every build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.home << "_" << ModelName(c.model)
      << (c.sharded ? "_sharded3" : "_unsharded")
      << (c.cache ? "_cacheon" : "_cacheoff") << (c.down ? "_down" : "_up");
}

class FetchMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(FetchMatrixTest, ServesTheRouteItsPlacementImplies) {
  const Case& c = GetParam();
  const std::string model_home = HomeOf(c.model);
  const std::string replica = ReplicaEngineFor(c.home, c.model);
  const std::string shim_name = std::string("shim:") + ModelName(c.model);

  BigDawg dawg;
  LoadHome(&dawg, c.home);

  // The oracle's inputs: the cache-off, unsharded, unreplicated answer,
  // and the relation every replica is materialized from.
  dawg.cast_cache().SetEnabled(false);
  const Result<std::string> baseline = Canonical(Fetch(&dawg, c.model));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const Object relation = *Fetch(&dawg, Model::kTable);

  BIGDAWG_CHECK_OK(dawg.ReplicateObject(kObject, replica));
  if (c.sharded) BIGDAWG_CHECK_OK(dawg.ShardObject(kObject, 3));
  dawg.cast_cache().SetEnabled(c.cache);
  // The breaker's advisory mask reroutes reads exactly like an outage
  // (shard instances included) without failing the island's own scope.
  if (c.down) dawg.monitor().SetEngineAdvisoryDown(c.home, true);

  // The route this case implies. A sharded read always gathers, and on
  // failure fails over whole; an unsharded read of an object living off
  // the model's home engine is served natively by the replica there,
  // primary up or down.
  const bool replica_native =
      !c.sharded && c.home != model_home && replica == model_home;
  Result<std::string> expected = baseline;
  if (replica_native) {
    // The replica holds the relation CAST into the model.
    expected = Canonical(Convert(relation, c.model));
  } else if (c.down) {
    // The generic failover reads the replica's relation view; a sharded
    // gather CASTs it into the object's home model before the requested
    // one.
    const Model gathered = c.sharded ? NativeModelOf(c.home) : Model::kTable;
    expected = Canonical(Through(
        relation, {NativeModelOf(replica), Model::kTable, gathered, c.model}));
  }
  const bool cache_consulted = c.cache && !c.sharded && c.home != model_home;
  const bool cached = cache_consulted && expected.ok();

  // First traced read: a cache miss (when consulted) that runs the route.
  TracedRun first = RunTraced(&dawg, c.model);
  const obs::TraceSpan* shim = FindSpan(first.root, shim_name);
  ASSERT_NE(shim, nullptr) << DumpSpanTree(first.root);
  EXPECT_EQ(TagOr(*shim, "object"), kObject);
  EXPECT_EQ(TagOr(*shim, "engine"), c.home);
  EXPECT_EQ(TagOr(*shim, "sharded"), c.sharded ? "true" : "-");
  EXPECT_EQ(TagOr(*shim, "cache"), cache_consulted ? "miss" : "-");
  EXPECT_EQ(TagOr(*shim, "replica"),
            !c.down && replica_native ? replica : "-");
  if (c.sharded) {
    EXPECT_NE(FindSpan(*shim, std::string("scatter:") +
                                  ModelName(NativeModelOf(c.home))),
              nullptr)
        << DumpSpanTree(first.root);
  }
  const obs::TraceSpan* failover = FindSpan(*shim, "failover");
  if (c.down) {
    ASSERT_NE(failover, nullptr) << DumpSpanTree(first.root);
    EXPECT_EQ(TagOr(*failover, "from"), c.home);
    EXPECT_EQ(TagOr(*failover, "to"), replica);
  } else {
    EXPECT_EQ(failover, nullptr) << DumpSpanTree(first.root);
  }
  EXPECT_EQ(first.failovers, c.down ? 1 : 0);

  // The served object itself.
  ExpectSameOutcome(Canonical(Fetch(&dawg, c.model)), expected);

  // Second traced read: a cache hit touches no engine, so it neither
  // fails over nor tags a replica.
  TracedRun second = RunTraced(&dawg, c.model);
  shim = FindSpan(second.root, shim_name);
  ASSERT_NE(shim, nullptr) << DumpSpanTree(second.root);
  EXPECT_EQ(TagOr(*shim, "cache"),
            cached ? "hit" : (cache_consulted ? "miss" : "-"));
  EXPECT_EQ(second.failovers, c.down && !cached ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(Cases, FetchMatrixTest,
                         ::testing::ValuesIn(AllCases()));

}  // namespace
}  // namespace bigdawg::core
