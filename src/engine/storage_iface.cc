#include "engine/storage_iface.h"

#include <utility>

namespace mip::engine {

Result<Table> SelectTableColumns(Table table,
                                 const std::vector<std::string>& columns) {
  Schema schema;
  std::vector<Column> cols;
  for (const std::string& name : columns) {
    const int idx = table.schema().FieldIndex(name);
    if (idx < 0) {
      return Status::Internal("pruned column '" + name +
                              "' missing from scanned table");
    }
    MIP_RETURN_NOT_OK(
        schema.AddField(table.schema().field(static_cast<size_t>(idx))));
    // AddField rejected a repeated name above, so no column moves twice.
    cols.push_back(std::move(table.mutable_column(static_cast<size_t>(idx))));
  }
  return Table::Make(std::move(schema), std::move(cols));
}

Result<Table> TableStorage::Scan(const std::string& name, const ScanSpec& spec,
                                 ScanStats* stats) const {
  MIP_ASSIGN_OR_RETURN(
      Table table, spec.use_index
                       ? IndexScanTable(name, spec.prune_filter, stats)
                       : ScanTable(name, spec.prune_filter, stats));
  if (spec.columns.empty()) return table;
  return SelectTableColumns(std::move(table), spec.columns);
}

}  // namespace mip::engine
