#ifndef MIP_ALGORITHMS_COMMON_H_
#define MIP_ALGORITHMS_COMMON_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/column.h"
#include "federation/master.h"
#include "federation/worker.h"
#include "stats/matrix.h"

namespace mip::algorithms {

/// Registers a local step if it is not registered yet (algorithms are
/// re-runnable; shipping the same code twice is a no-op).
Status EnsureLocal(federation::LocalFunctionRegistry* registry,
                   const std::string& name, federation::LocalFn fn);

/// \brief One hosted dataset's requested variables and its complete cases:
/// the rows, ascending, in which every requested variable is present.
///
/// A numeric variable is present in a row when its cell is valid and reads
/// as a number: a valid NaN in a DOUBLE column is missing, and a STRING
/// column used as a numeric variable is missing in every row. A categorical
/// variable is present when its cell is valid. The columns share the
/// table's buffers (no rows are copied).
struct DatasetCases {
  std::vector<engine::Column> numeric;      ///< one per numeric variable
  std::vector<engine::Column> categorical;  ///< one per categorical variable
  std::vector<size_t> rows;                 ///< complete-case row indices
};

/// Selects the complete cases of each dataset in `datasets`, in order.
/// Fails when a dataset or a variable does not exist.
Result<std::vector<DatasetCases>> SelectCompleteCases(
    federation::WorkerContext& ctx, const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars);

/// The `num_vars` numeric variables of `cases` stacked into one complete
/// cases x num_vars matrix: datasets in order, then rows in order. A bool
/// reads 0/1 and an int64 converts to double.
stats::Matrix NumericMatrix(const std::vector<DatasetCases>& cases,
                            size_t num_vars);

/// Text of the valid cell `row` of a categorical column: the string itself
/// for a STRING column, else exactly `Value::ToString` of the cell.
std::string CategoryText(const engine::Column& col, size_t row);

/// \brief A worker's view of the requested data: numeric design matrix plus
/// aligned categorical columns, gathered across the datasets the worker
/// hosts (restricted to `datasets` when non-empty).
struct LocalData {
  stats::Matrix numeric;                          ///< rows x numeric vars
  std::vector<std::vector<std::string>> categorical;  ///< [var][row]
  size_t num_rows = 0;
};

/// Gathers `numeric_vars` and `categorical_vars` from the worker's hosted
/// datasets. Rows with a missing value in ANY requested variable are
/// dropped (complete-case analysis, MIP's default); the kept rows keep
/// their order, datasets first. Runs on every call: local steps gather
/// afresh each iteration, nothing is cached.
Result<LocalData> GatherData(federation::WorkerContext& ctx,
                             const std::vector<std::string>& datasets,
                             const std::vector<std::string>& numeric_vars,
                             const std::vector<std::string>& categorical_vars);

/// Builds the standard args transfer: datasets filter + variable lists.
federation::TransferData MakeArgs(
    const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars = {});

/// Datasets a worker should scan: the args filter intersected with what the
/// worker hosts (all hosted datasets when the filter is empty).
std::vector<std::string> WorkerDatasets(
    federation::WorkerContext& ctx,
    const federation::TransferData& args);

}  // namespace mip::algorithms

#endif  // MIP_ALGORITHMS_COMMON_H_
