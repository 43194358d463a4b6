#ifndef BIGDAWG_RELATIONAL_EXECUTOR_H_
#define BIGDAWG_RELATIONAL_EXECUTOR_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "relational/plan.h"
#include "relational/sql_ast.h"
#include "relational/table.h"

namespace bigdawg::relational {

/// \brief Supplies base relations to the executor by name.
using TableResolver = std::function<Result<const Table*>(const std::string&)>;

/// \brief Lowers a SELECT into the shared plan algebra (see plan.h):
/// Scan -> Join (tables qualified by alias when joined) -> Select(WHERE)
/// -> Aggregate -> Select(HAVING) | Project -> Distinct -> Sort -> Limit.
/// ORDER BY keys sort the output when they all bind against it, else
/// the input before projection. `catalog` supplies schemas, which are
/// read only for SELECT *, joins, and ORDER BY placement.
Result<PlanPtr> LowerSelect(const SelectStatement& stmt, const CatalogStats& catalog);

/// \brief Executes a SELECT against tables provided by `resolver`,
/// materializing the result: LowerSelect, then ExecutePlan. Each table
/// is resolved once.
Result<Table> ExecuteSelect(const SelectStatement& stmt, const TableResolver& resolver);

/// \brief True when `stmt` is a scalar aggregate that distributes over a
/// row partition: every SELECT item is an aggregate, single FROM, and no
/// JOIN / GROUP BY / HAVING / DISTINCT / ORDER BY / LIMIT. WHERE is
/// allowed — filtering commutes with partitioning. AVG qualifies because
/// the partial query decomposes it into SUM + COUNT.
bool IsDistributiveAggregate(const SelectStatement& stmt);

/// \brief The per-shard partial query for a distributive aggregate: same
/// WHERE against fragment table `fragment_table`, each aggregate emitted
/// under a positional alias, AVG decomposed into SUM + COUNT partials.
/// InvalidArgument when `stmt` is not distributive.
Result<SelectStatement> BuildPartialAggregateSelect(
    const SelectStatement& stmt, const std::string& fragment_table);

/// \brief Recombines per-shard partial rows (each the one-row output of
/// BuildPartialAggregateSelect's query) into byte-for-byte the table
/// ExecuteSelect would produce over the union of the fragments, by
/// running an Aggregate over the partial rows: COUNTs and SUMs add (NULL
/// when every shard saw only NULLs), AVG divides the summed partials,
/// MIN/MAX compare across shards.
Result<Table> CombinePartialAggregates(const SelectStatement& stmt,
                                       const std::vector<Table>& partials);

}  // namespace bigdawg::relational

#endif  // BIGDAWG_RELATIONAL_EXECUTOR_H_
