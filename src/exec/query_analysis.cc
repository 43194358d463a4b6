#include "exec/query_analysis.h"

#include <algorithm>
#include <cctype>

#include "common/lexer.h"
#include "common/string_util.h"
#include "exec/engine_locks.h"

namespace bigdawg::exec {

namespace {

/// The engine an island's shims read even when no catalog object is
/// referenced by name (e.g. TEXT SEARCH scans the whole corpus).
uint32_t IslandBaseEngines(const std::string& island) {
  if (island == "RELATIONAL" || island == "POSTGRES" || island == "MYRIA") {
    return kLockPostgres;
  }
  if (island == "ARRAY" || island == "SCIDB") return kLockSciDb;
  if (island == "TEXT") return kLockAccumulo;
  if (island == "STREAM") return kLockSStore;
  if (island == "D4M") return kLockD4m | kLockAccumulo;
  return kLockAllEngines;
}

/// Statements that mutate engine state through the degenerate islands.
bool IsWriteKeyword(const Token& tok) {
  return tok.IsKeyword("INSERT") || tok.IsKeyword("UPDATE") ||
         tok.IsKeyword("DELETE") || tok.IsKeyword("CREATE") ||
         tok.IsKeyword("DROP") || tok.IsKeyword("ALTER");
}

/// Splits "ISLAND( body )" the same way the SCOPE dispatcher does, but
/// only needs the island name — body extent checks are the dispatcher's
/// job.
bool SplitIslandPrefix(const std::string& query,
                       const std::vector<std::string>& islands,
                       std::string* island_name) {
  std::string trimmed = Trim(query);
  size_t open = trimmed.find('(');
  if (open == std::string::npos || trimmed.empty() || trimmed.back() != ')') {
    return false;
  }
  std::string prefix = Trim(trimmed.substr(0, open));
  for (char c : prefix) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  std::string upper = ToUpper(prefix);
  for (const std::string& island : islands) {
    if (island == upper) {
      *island_name = upper;
      return true;
    }
  }
  return false;
}

}  // namespace

QueryPlan AnalyzeQuery(core::BigDawg& dawg, const std::string& query) {
  QueryPlan plan;
  const std::vector<std::string> islands = dawg.ListIslands();
  SplitIslandPrefix(query, islands, &plan.island);

  Result<std::vector<Token>> tokens = Tokenize(query);
  if (!tokens.ok()) {
    // Unlexable query: it will very likely fail anyway, but lock
    // everything so a surprising parse cannot under-lock.
    plan.exclusive_engines = kLockAllEngines;
    return plan;
  }

  uint32_t referenced = IslandBaseEngines(plan.island);
  const core::Catalog& catalog = dawg.catalog();
  for (size_t i = 0; i < tokens->size(); ++i) {
    const Token& tok = (*tokens)[i];
    if (IsWriteKeyword(tok)) plan.is_write = true;
    if (tok.type != TokenType::kIdentifier) continue;
    // Every island scope, nested ones included (a CAST source may be a
    // subquery on another island), reads that island's engines.
    if (i + 1 < tokens->size() && (*tokens)[i + 1].IsSymbol("(") &&
        std::find(islands.begin(), islands.end(), ToUpper(tok.text)) !=
            islands.end()) {
      referenced |= IslandBaseEngines(ToUpper(tok.text));
    }
    Result<core::ObjectLocation> loc = catalog.Lookup(tok.text);
    if (!loc.ok()) continue;
    referenced |= EngineLockBitFor(loc->engine);
    // Model-matched fetches may be served from any replica.
    for (const core::ReplicaLocation& replica : catalog.Replicas(tok.text)) {
      referenced |= EngineLockBitFor(replica.engine);
    }
  }

  if (plan.is_write) {
    // DDL/DML goes through a degenerate island straight into its engine.
    plan.exclusive_engines = referenced;
  } else {
    plan.shared_engines = referenced;
  }
  return plan;
}

}  // namespace bigdawg::exec
