#ifndef BIGDAWG_EXEC_QUERY_ANALYSIS_H_
#define BIGDAWG_EXEC_QUERY_ANALYSIS_H_

#include <cstdint>
#include <string>

#include "core/bigdawg.h"

namespace bigdawg::exec {

/// \brief What the admission layer learned about a query before running
/// it: the island that will interpret it and the engine lock sets it
/// needs.
struct QueryPlan {
  /// Resolved SCOPE island (RELATIONAL when the query is unscoped).
  std::string island = "RELATIONAL";
  bool is_write = false;
  /// Engines the query may read: the base engines of every island scope
  /// in it, nested ones included, plus the homes and replicas of every
  /// referenced catalog object. (CAST writes no engine.)
  uint32_t shared_engines = 0;
  /// Engines the query mutates (DDL/DML through a degenerate island).
  uint32_t exclusive_engines = 0;
};

/// Computes the lock sets for `query` against the polystore's current
/// catalog. Conservative by construction: analysis failures (e.g. a
/// query the lexer rejects) degrade to exclusive-on-everything, never to
/// under-locking.
QueryPlan AnalyzeQuery(core::BigDawg& dawg, const std::string& query);

}  // namespace bigdawg::exec

#endif  // BIGDAWG_EXEC_QUERY_ANALYSIS_H_
