#ifndef MIP_ENGINE_FUNCTION_REGISTRY_H_
#define MIP_ENGINE_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"
#include "engine/value.h"

namespace mip::engine {

/// \brief Per-database registry of user-defined functions.
///
/// The UDFGenerator (src/udf) registers generated functions here so that the
/// SQL layer can call them: scalar UDFs inside expressions, table UDFs in
/// FROM clauses — mirroring how MIP wraps procedural algorithm steps as SQL
/// UDFs inside MonetDB.
class FunctionRegistry {
 public:
  /// A scalar function: row of boxed arguments -> boxed value.
  struct ScalarFunction {
    std::string name;
    int arity = 1;  ///< -1 = variadic
    DataType result_type = DataType::kFloat64;
    std::function<Value(const std::vector<Value>&)> fn;
  };

  /// A table-producing function callable in a FROM clause. Receives the
  /// literal call arguments and a handle for loopback queries (see
  /// udf/udf_context.h; opaque here).
  struct TableFunction {
    std::string name;
    std::function<Result<Table>(const std::vector<Value>&)> fn;
  };

  Status RegisterScalar(ScalarFunction f);
  Status RegisterTable(TableFunction f);

  /// nullptr when unknown.
  const ScalarFunction* FindScalar(const std::string& name) const;
  const TableFunction* FindTable(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunction> scalars_;
  std::map<std::string, TableFunction> tables_;
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_FUNCTION_REGISTRY_H_
