#ifndef MIP_ENGINE_SQL_PARSER_H_
#define MIP_ENGINE_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "engine/sql_ast.h"

namespace mip::engine {

/// \brief Parses one SQL statement of the engine's dialect.
///
/// Supported grammar (case-insensitive keywords):
///
///   SELECT item[, ...] FROM source [WHERE expr] [GROUP BY expr[, ...]]
///     [HAVING expr] [ORDER BY col [ASC|DESC][, ...]] [LIMIT n]
///   source := name | name JOIN name ON a.x = b.y | func(lit, ...)
///   CREATE TABLE name (col type[, ...])
///   INSERT INTO name VALUES (lit, ...)[, (lit, ...)]
///   CREATE REMOTE TABLE name ON 'location' [AS remote_name]
///   CREATE MERGE TABLE name (part[, ...])
///   DROP TABLE name
///   EXPLAIN <select>   -- renders the optimized logical plan as text
///
/// Aggregates: count(*), count, sum, avg, min, max, var_samp/variance,
/// stddev_samp/stddev. Scalar built-ins per engine/expr.h plus registered
/// UDFs (resolved at bind time, not parse time).
Result<SqlStatement> ParseSql(const std::string& sql);

/// Leading-keyword sniff: true when `sql` starts with SELECT or EXPLAIN,
/// which never mutate the catalog, so a caller may run them under a shared
/// catalog lock. Everything else (DDL, INSERT, garbage) counts as a write.
bool IsReadOnlySql(const std::string& sql);

/// Parses a standalone scalar expression (used by tests and the UDF
/// generator's loopback predicates).
Result<ExprPtr> ParseExpression(const std::string& text);

}  // namespace mip::engine

#endif  // MIP_ENGINE_SQL_PARSER_H_
