#include <memory>
#include <set>
#include <cctype>
#include "common/lexer.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/bigdawg.h"
#include "core/cast.h"
#include "obs/trace.h"

namespace bigdawg::core {

namespace {

/// Splits "NAME( body )" when NAME is a known island; returns false when
/// the query has no island scope.
bool TrySplitScope(const std::string& query,
                   const std::map<std::string, std::unique_ptr<Island>>& islands,
                   std::string* island_name, std::string* inner) {
  std::string trimmed = Trim(query);
  size_t open = trimmed.find('(');
  if (open == std::string::npos) return false;
  std::string prefix = Trim(trimmed.substr(0, open));
  // Must be a single bare identifier.
  for (char c : prefix) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  std::string upper = ToUpper(prefix);
  if (islands.count(upper) == 0) return false;
  // The scope's '(' must match the final ')'. Parens inside single-quoted
  // string literals (with '' escapes) do not count.
  if (trimmed.empty() || trimmed.back() != ')') return false;
  int depth = 0;
  bool in_quote = false;
  for (size_t i = open; i < trimmed.size(); ++i) {
    char c = trimmed[i];
    if (c == '\'') {
      if (in_quote && i + 1 < trimmed.size() && trimmed[i + 1] == '\'') {
        ++i;  // escaped quote inside a literal
      } else {
        in_quote = !in_quote;
      }
      continue;
    }
    if (in_quote) continue;
    if (c == '(') ++depth;
    if (c == ')') {
      --depth;
      if (depth == 0 && i != trimmed.size() - 1) return false;  // closes early
    }
  }
  if (depth != 0 || in_quote) return false;
  *island_name = upper;
  *inner = trimmed.substr(open + 1, trimmed.size() - open - 2);
  return true;
}

/// Byte extent of the first CAST(...) in `text`, plus the extents of its
/// two top-level arguments. Returns false when no CAST call is present.
struct CastSite {
  size_t begin = 0;  // offset of 'C' in CAST
  size_t end = 0;    // one past the closing ')'
  std::string arg0;
  std::string arg1;
};

Result<bool> FindFirstCast(const std::string& text, CastSite* site) {
  BIGDAWG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!tokens[i].IsKeyword("CAST") || !tokens[i + 1].IsSymbol("(")) continue;
    // Walk tokens balancing parens; find the depth-1 comma and the close.
    int depth = 0;
    size_t comma_offset = std::string::npos;
    size_t close_offset = std::string::npos;
    for (size_t j = i + 1; j < tokens.size(); ++j) {
      if (tokens[j].IsSymbol("(")) ++depth;
      else if (tokens[j].IsSymbol(")")) {
        --depth;
        if (depth == 0) {
          close_offset = tokens[j].offset;
          break;
        }
      } else if (tokens[j].IsSymbol(",") && depth == 1) {
        if (comma_offset == std::string::npos) comma_offset = tokens[j].offset;
      }
    }
    if (close_offset == std::string::npos) {
      return Status::ParseError("unbalanced parentheses in CAST");
    }
    if (comma_offset == std::string::npos) {
      return Status::ParseError("CAST requires two arguments: CAST(obj, model)");
    }
    size_t open_offset = tokens[i + 1].offset;
    site->begin = tokens[i].offset;
    site->end = close_offset + 1;
    site->arg0 = Trim(text.substr(open_offset + 1, comma_offset - open_offset - 1));
    site->arg1 = Trim(text.substr(comma_offset + 1, close_offset - comma_offset - 1));
    return true;
  }
  return false;
}

/// The multi-engine island to CAST in instead of `island`, or null when
/// `island` reads CAST results. Single-engine islands read only their
/// own engine's objects.
const char* CastCapableIslandFor(const std::string& island) {
  if (island == "SCIDB") return "ARRAY";
  if (island == "POSTGRES" || island == "TEXT" || island == "STREAM") {
    return "RELATIONAL";
  }
  return nullptr;
}

}  // namespace

Result<std::string> BigDawg::RewriteCasts(const std::string& island,
                                          const std::string& query,
                                          ExecContext* ctx) {
  std::string text = query;
  while (true) {
    BIGDAWG_RETURN_NOT_OK(ctx->Check());
    CastSite site;
    BIGDAWG_ASSIGN_OR_RETURN(bool found, FindFirstCast(text, &site));
    if (!found) break;
    if (const char* use = CastCapableIslandFor(island)) {
      return Status::InvalidArgument(
          "CAST is not available inside " + island + "(...), which reads "
          "only its own engine's objects; scope the query to the "
          "multi-engine " + std::string(use) + " island instead");
    }

    obs::SpanGuard cast_span(ctx->trace, "cast");
    const bool traced = ctx->trace != nullptr;

    // Resolve the source: a nested island-scoped query, or a catalog object.
    // The cache-outcome slots must reflect the fetch below and nothing
    // else, so each path resets them (a subquery's nested fetches set
    // them too, but a subquery result itself is never cached).
    relational::Table source;
    std::string scope_island, scope_inner;
    if (TrySplitScope(site.arg0, islands_, &scope_island, &scope_inner)) {
      if (traced) {
        cast_span.Tag("source", "<subquery>");
        cast_span.Tag("from", "relation");
      }
      BIGDAWG_ASSIGN_OR_RETURN(source, Execute(site.arg0, ctx));
      ctx->cast_cache_outcome = nullptr;
      ctx->cast_cache_bytes = -1;
    } else {
      if (traced) {
        cast_span.Tag("source", site.arg0);
        Result<ObjectLocation> loc = catalog_.Lookup(site.arg0);
        cast_span.Tag("from",
                      loc.ok() ? DataModelNameForEngine(loc->engine) : "?");
      }
      ctx->cast_cache_outcome = nullptr;
      ctx->cast_cache_bytes = -1;
      BIGDAWG_ASSIGN_OR_RETURN(source, FetchAsTable(site.arg0));
    }
    BIGDAWG_ASSIGN_OR_RETURN(DataModel model, DataModelFromString(site.arg1));

    // Nothing leaves the overlay mid-execution, so its size numbers the
    // names uniquely.
    std::string name = "__overlay" + std::to_string(ctx->overlay.size());
    if (traced) {
      cast_span.Tag("to", DataModelToString(model));
      cast_span.Tag("rows", std::to_string(source.num_rows()));
      // A cache-served fetch already knows its size; otherwise the block
      // carries a memoized byte size, so tagging costs one scan at most
      // ever per block (and O(1) when the fetch path already froze it).
      cast_span.Tag("bytes",
                    std::to_string(ctx->cast_cache_bytes >= 0
                                       ? ctx->cast_cache_bytes
                                       : source.ByteSize()));
      cast_span.Tag("temp", name);
      if (ctx->cast_cache_outcome != nullptr) {
        cast_span.Tag("cache", ctx->cast_cache_outcome);
      }
    }
    BIGDAWG_ASSIGN_OR_RETURN(ModelValue value, CastTableTo(source, model));
    ctx->overlay.emplace(name, std::move(value));
    text = text.substr(0, site.begin) + name + text.substr(site.end);
  }
  return text;
}

Result<std::vector<CastPlanStep>> BigDawg::PlanCasts(const std::string& query) {
  std::vector<CastPlanStep> steps;
  BIGDAWG_RETURN_NOT_OK(PlanCastsInto(query, &steps));
  return steps;
}

Status BigDawg::PlanCastsInto(const std::string& query,
                              std::vector<CastPlanStep>* steps) {
  // Strip an island scope wrapper so we scan the body the island would see.
  std::string text = query;
  std::string island_name, inner;
  if (TrySplitScope(text, islands_, &island_name, &inner)) text = inner;

  int placeholder = 0;
  while (true) {
    CastSite site;
    BIGDAWG_ASSIGN_OR_RETURN(bool found, FindFirstCast(text, &site));
    if (!found) break;

    CastPlanStep step;
    step.source = site.arg0;
    BIGDAWG_ASSIGN_OR_RETURN(DataModel model, DataModelFromString(site.arg1));
    step.to_model = DataModelToString(model);

    std::string sub_island, sub_inner;
    if (TrySplitScope(site.arg0, islands_, &sub_island, &sub_inner)) {
      step.subquery = true;
      // A scoped subquery materializes as a relation before the cast.
      step.from_model = "relation";
      // Casts inside the subquery run before the cast that consumes it.
      BIGDAWG_RETURN_NOT_OK(PlanCastsInto(site.arg0, steps));
    } else {
      Result<ObjectLocation> loc = catalog_.Lookup(site.arg0);
      if (loc.ok()) {
        step.source_engine = loc->engine;
        step.from_model = DataModelNameForEngine(loc->engine);
      } else {
        step.from_model = "?";
      }
    }
    steps->push_back(std::move(step));

    // Splice the site out (as execution would with an overlay name) and
    // keep scanning for later CAST sites.
    text = text.substr(0, site.begin) + "__plan_" +
           std::to_string(placeholder++) + text.substr(site.end);
  }
  return Status::OK();
}

Result<relational::Table> BigDawg::ExecuteScoped(const std::string& island_name,
                                                 const std::string& inner_query,
                                                 ExecContext* ctx) {
  auto it = islands_.find(island_name);
  if (it == islands_.end()) {
    return Status::NotFound("no island named " + island_name);
  }

  obs::SpanGuard scope_span(ctx->trace, "scope");
  const bool traced = ctx->trace != nullptr;
  std::string engine;
  if (traced || fault_.enabled()) {
    engine = Monitor::PreferredEngineForIsland(island_name);
  }
  if (traced) {
    scope_span.Tag("island", island_name);
    if (!engine.empty()) scope_span.Tag("engine", engine);
  }

  BIGDAWG_ASSIGN_OR_RETURN(std::string rewritten,
                           RewriteCasts(island_name, inner_query, ctx));
  BIGDAWG_RETURN_NOT_OK(ctx->Check());

  // The island's own compute engine must be reachable: a down engine
  // fails the whole scoped query, while reads of objects homed on other
  // engines may still fail over to replicas inside the fetch shims.
  // (Gated on the fault plane so healthy runs pay nothing here.)
  if (fault_.enabled() && !engine.empty()) {
    BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
    // Injected latency may have consumed the remaining deadline budget.
    BIGDAWG_RETURN_NOT_OK(ctx->Check());
  }

  const obs::Clock::TimePoint exec_start = ctx->clock->Now();
  Result<relational::Table> result = [&]() -> Result<relational::Table> {
    obs::SpanGuard exec_span(ctx->trace, "exec");
    return it->second->Execute(rewritten);
  }();
  const double elapsed_ms = obs::Clock::ToMillis(ctx->clock->Now() - exec_start);
  if (!result.ok() && traced) {
    scope_span.Tag("error", StatusCodeToString(result.status().code()));
  }

  if (result.ok() && !ctx->shadow) {
    monitor_.RecordIslandExecution(island_name, elapsed_ms);
    // Monitoring: attribute this execution to every referenced object.
    Result<std::vector<Token>> tokens = Tokenize(rewritten);
    if (tokens.ok()) {
      std::set<std::string> seen;
      for (const Token& tok : *tokens) {
        if (tok.type != TokenType::kIdentifier) continue;
        if (!seen.insert(tok.text).second) continue;
        if (catalog_.Contains(tok.text)) {
          monitor_.RecordAccess(tok.text, island_name, elapsed_ms);
        }
      }
    }
  }
  return result;
}

Result<relational::Table> BigDawg::Execute(const std::string& query) {
  ExecContext ctx;
  return Execute(query, &ctx);
}

Result<relational::Table> BigDawg::Execute(const std::string& query,
                                           ExecContext* ctx) {
  // A direct Execute call (no query service above it) roots its own trace
  // when the tracer is on; service-submitted queries arrive with
  // ctx->trace already set and root at "query" instead.
  std::unique_ptr<obs::Trace> owned_trace;
  if (ctx->depth == 0 && ctx->trace == nullptr && !ctx->shadow &&
      tracer_.enabled()) {
    owned_trace = std::make_unique<obs::Trace>(ctx->clock, "execute");
    ctx->trace = owned_trace.get();
  }

  // The guard publishes this execution's context to the thread
  // (ActiveCtx()), so reads through context-free island fetchers find its
  // CAST results and stamp resilience bookkeeping onto it. The outermost
  // Execute empties the overlay on exit, so a reused context starts empty.
  struct DepthGuard {
    ExecContext* ctx;
    ExecContext* prev_active;
    explicit DepthGuard(ExecContext* c) : ctx(c), prev_active(ActiveCtx()) {
      ActiveCtx() = c;
      ++ctx->depth;
    }
    ~DepthGuard() {
      if (--ctx->depth == 0) ctx->overlay.clear();
      ActiveCtx() = prev_active;
    }
  } guard(ctx);

  Result<relational::Table> result = [&]() -> Result<relational::Table> {
    BIGDAWG_RETURN_NOT_OK(ctx->Check());
    std::string island_name, inner;
    if (TrySplitScope(query, islands_, &island_name, &inner)) {
      return ExecuteScoped(island_name, inner, ctx);
    }
    // No explicit SCOPE: default to the relational island.
    return ExecuteScoped("RELATIONAL", Trim(query), ctx);
  }();

  if (owned_trace != nullptr) {
    owned_trace->Tag(owned_trace->root(), "status",
                     StatusCodeToString(result.status().code()));
    tracer_.Record(std::move(*owned_trace).Finish());
    ctx->trace = nullptr;
  }
  return result;
}

}  // namespace bigdawg::core
