// The synthesized tables shared by the SQL corpus tests: NULLs, int64
// and double columns, integral doubles that equal int64 values (3 ==
// 3.0), strings, and an empty table, all on postgres and registered with
// the polystore catalog. RebuildFromColumns re-creates them as blocks
// born from columns for the columnar runs of the same oracles.

#ifndef BIGDAWG_TESTS_RELATIONAL_CORPUS_TABLES_H_
#define BIGDAWG_TESTS_RELATIONAL_CORPUS_TABLES_H_

#include <initializer_list>
#include <memory>
#include <vector>

#include "common/columnar.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/bigdawg.h"

namespace bigdawg {

inline const char* const kWords[] = {"alpha", "beta", "gamma", "delta", "beta"};

inline void LoadTables(core::BigDawg* dawg) {
  relational::Database& pg = dawg->postgres();
  Rng rng(20161);
  auto maybe_null = [&rng](Value v, double p) {
    return rng.NextBool(p) ? Value::Null() : std::move(v);
  };
  BIGDAWG_CHECK_OK(pg.CreateTable(
      "pt", Schema({Field("id", DataType::kInt64), Field("grp", DataType::kInt64),
                    Field("a", DataType::kInt64), Field("b", DataType::kDouble),
                    Field("s", DataType::kString)})));
  for (int64_t id = 1; id <= 40; ++id) {
    // Half the b values are integral, so they equal some a (3 == 3.0).
    const double b = rng.NextBool(0.5)
                         ? static_cast<double>(rng.NextInt(0, 8))
                         : static_cast<double>(rng.NextInt(0, 80)) / 8.0 + 0.0625;
    BIGDAWG_CHECK_OK(pg.Insert(
        "pt", {Value(id), maybe_null(Value(rng.NextInt(0, 4)), 0.1),
               maybe_null(Value(rng.NextInt(-5, 20)), 0.15), maybe_null(Value(b), 0.15),
               maybe_null(Value(kWords[rng.NextBelow(5)]), 0.1)}));
  }
  BIGDAWG_CHECK_OK(pg.CreateTable(
      "rx", Schema({Field("rid", DataType::kInt64), Field("id", DataType::kInt64),
                    Field("x", DataType::kDouble), Field("y", DataType::kInt64),
                    Field("s", DataType::kString)})));
  for (int64_t rid = 1; rid <= 60; ++rid) {
    BIGDAWG_CHECK_OK(pg.Insert(
        "rx", {Value(rid), maybe_null(Value(rng.NextInt(1, 45)), 0.1),
               maybe_null(Value(static_cast<double>(rng.NextInt(0, 40)) / 4.0), 0.1),
               maybe_null(Value(rng.NextInt(0, 9)), 0.1),
               maybe_null(Value(kWords[rng.NextBelow(5)]), 0.1)}));
  }
  BIGDAWG_CHECK_OK(pg.CreateTable(
      "tiny", Schema({Field("k", DataType::kInt64), Field("v", DataType::kDouble)})));
  BIGDAWG_CHECK_OK(pg.InsertMany(
      "tiny", {{Value(1), Value(3.0)},
               {Value(2), Value(3.0)},
               {Value(3), Value(0.5)},
               {Value(3), Value(0.5)},
               {Value(4), Value::Null()},
               {Value(5), Value(7.0)}}));
  BIGDAWG_CHECK_OK(pg.CreateTable(
      "empty_t", Schema({Field("id", DataType::kInt64), Field("a", DataType::kInt64),
                         Field("b", DataType::kDouble)})));
  for (const char* t : {"pt", "rx", "tiny", "empty_t"}) {
    BIGDAWG_CHECK_OK(dawg->RegisterObject(t, core::kEnginePostgres, t));
  }
}

// Replaces each named postgres table with a copy born from columns over
// the original's own slices (typed, mixed and all-NULL columns alike), so
// the same queries run over blocks that have no row storage.
inline void RebuildFromColumns(core::BigDawg* dawg,
                               std::initializer_list<const char*> names) {
  relational::Database& pg = dawg->postgres();
  for (const char* name : names) {
    const relational::Table rows = *pg.GetTable(name);
    std::vector<std::shared_ptr<const common::ColumnSlice>> slices;
    for (size_t c = 0; c < rows.schema().num_fields(); ++c) {
      slices.push_back(rows.ColumnAt(c).slice());
    }
    relational::Table columns =
        relational::Table::FromColumns(rows.schema(), std::move(slices));
    BIGDAWG_CHECK(!columns.HasRowStorage());
    BIGDAWG_CHECK_OK(pg.PutTable(name, std::move(columns)));
  }
}

}  // namespace bigdawg

#endif  // BIGDAWG_TESTS_RELATIONAL_CORPUS_TABLES_H_
