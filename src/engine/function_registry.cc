#include "engine/function_registry.h"

#include "common/string_util.h"

namespace mip::engine {

Status FunctionRegistry::RegisterScalar(ScalarFunction f) {
  const std::string key = ToLower(f.name);
  if (scalars_.count(key) > 0) {
    return Status::AlreadyExists("scalar function '" + f.name +
                                 "' already registered");
  }
  scalars_.emplace(key, std::move(f));
  return Status::OK();
}

Status FunctionRegistry::RegisterTable(TableFunction f) {
  const std::string key = ToLower(f.name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table function '" + f.name +
                                 "' already registered");
  }
  tables_.emplace(key, std::move(f));
  return Status::OK();
}

const FunctionRegistry::ScalarFunction* FunctionRegistry::FindScalar(
    const std::string& name) const {
  auto it = scalars_.find(ToLower(name));
  return it == scalars_.end() ? nullptr : &it->second;
}

const FunctionRegistry::TableFunction* FunctionRegistry::FindTable(
    const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

}  // namespace mip::engine
