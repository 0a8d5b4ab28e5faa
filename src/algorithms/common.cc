#include "algorithms/common.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace mip::algorithms {

Status EnsureLocal(federation::LocalFunctionRegistry* registry,
                   const std::string& name, federation::LocalFn fn) {
  if (registry->Has(name)) return Status::OK();
  return registry->Register(name, std::move(fn));
}

std::vector<std::string> WorkerDatasets(
    federation::WorkerContext& ctx, const federation::TransferData& args) {
  const std::vector<std::string> filter =
      args.GetStringListOrEmpty("datasets");
  std::vector<std::string> out;
  for (const std::string& hosted : ctx.datasets()) {
    if (filter.empty()) {
      out.push_back(hosted);
      continue;
    }
    for (const std::string& f : filter) {
      if (f == hosted) {
        out.push_back(hosted);
        break;
      }
    }
  }
  return out;
}

namespace {

/// The rows, ascending, in which every column of `numeric` reads as a
/// number and every column of `categorical` is valid: one bit per row,
/// cleared word-wise from the validity bitmaps and per row for NaN.
std::vector<size_t> CompleteRows(
    size_t n, const std::vector<engine::Column>& numeric,
    const std::vector<engine::Column>& categorical) {
  std::vector<uint64_t> keep((n + 63) / 64, ~uint64_t{0});
  if (n % 64 != 0) keep.back() = (uint64_t{1} << (n % 64)) - 1;
  auto and_validity = [&keep](const engine::Column& col) {
    if (!col.has_validity()) return;
    const std::vector<uint64_t>& words = col.validity().words();
    for (size_t w = 0; w < keep.size(); ++w) keep[w] &= words[w];
  };
  for (const engine::Column& col : numeric) {
    if (col.type() == engine::DataType::kString) {
      std::fill(keep.begin(), keep.end(), 0);  // a string never reads as one
      continue;
    }
    and_validity(col);
    if (col.type() == engine::DataType::kFloat64) {
      const double* v = col.doubles().data();
      for (size_t i = 0; i < n; ++i) {
        keep[i >> 6] &=
            ~(static_cast<uint64_t>(std::isnan(v[i])) << (i & 63));
      }
    }
  }
  for (const engine::Column& col : categorical) and_validity(col);

  size_t count = 0;
  for (uint64_t word : keep) {
    count += static_cast<size_t>(__builtin_popcountll(word));
  }
  std::vector<size_t> rows(count);
  size_t k = 0;
  for (size_t w = 0; w < keep.size(); ++w) {
    for (uint64_t bits = keep[w]; bits != 0; bits &= bits - 1) {
      rows[k++] = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
    }
  }
  return rows;
}

/// Writes `col` at `rows` down column `j` of `out`, from row `first` on.
void FillColumn(const engine::Column& col, const std::vector<size_t>& rows,
                size_t first, size_t j, stats::Matrix* out) {
  if (rows.empty()) return;  // an empty matrix may have no storage at all
  const size_t stride = out->cols();
  double* dst = out->data() + first * stride + j;
  switch (col.type()) {
    case engine::DataType::kFloat64: {
      const double* src = col.doubles().data();
      for (size_t k = 0; k < rows.size(); ++k) dst[k * stride] = src[rows[k]];
      break;
    }
    case engine::DataType::kInt64: {
      const int64_t* src = col.ints().data();
      for (size_t k = 0; k < rows.size(); ++k) {
        dst[k * stride] = static_cast<double>(src[rows[k]]);
      }
      break;
    }
    case engine::DataType::kBool: {
      const uint8_t* src = col.bools().data();
      for (size_t k = 0; k < rows.size(); ++k) {
        dst[k * stride] = src[rows[k]] ? 1.0 : 0.0;
      }
      break;
    }
    case engine::DataType::kString:
      break;  // no row is complete (CompleteRows)
  }
}

}  // namespace

Result<std::vector<DatasetCases>> SelectCompleteCases(
    federation::WorkerContext& ctx, const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars) {
  std::vector<DatasetCases> out;
  out.reserve(datasets.size());
  for (const std::string& ds : datasets) {
    MIP_ASSIGN_OR_RETURN(engine::Table table, ctx.db().GetTable(ds));
    DatasetCases cases;
    for (const std::string& v : numeric_vars) {
      MIP_ASSIGN_OR_RETURN(const engine::Column* c, table.ColumnByName(v));
      cases.numeric.push_back(*c);
    }
    for (const std::string& v : categorical_vars) {
      MIP_ASSIGN_OR_RETURN(const engine::Column* c, table.ColumnByName(v));
      cases.categorical.push_back(*c);
    }
    cases.rows =
        CompleteRows(table.num_rows(), cases.numeric, cases.categorical);
    out.push_back(std::move(cases));
  }
  return out;
}

stats::Matrix NumericMatrix(const std::vector<DatasetCases>& cases,
                            size_t num_vars) {
  size_t total = 0;
  for (const DatasetCases& d : cases) total += d.rows.size();
  stats::Matrix out(total, num_vars);
  size_t first = 0;
  for (const DatasetCases& d : cases) {
    for (size_t j = 0; j < num_vars; ++j) {
      FillColumn(d.numeric[j], d.rows, first, j, &out);
    }
    first += d.rows.size();
  }
  return out;
}

std::string CategoryText(const engine::Column& col, size_t row) {
  if (col.type() == engine::DataType::kString) return col.StringAt(row);
  return col.ValueAt(row).ToString();
}

Result<LocalData> GatherData(
    federation::WorkerContext& ctx, const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars) {
  MIP_ASSIGN_OR_RETURN(
      std::vector<DatasetCases> cases,
      SelectCompleteCases(ctx, datasets, numeric_vars, categorical_vars));
  LocalData out;
  out.numeric = NumericMatrix(cases, numeric_vars.size());
  out.num_rows = out.numeric.rows();
  out.categorical.resize(categorical_vars.size());
  for (size_t j = 0; j < categorical_vars.size(); ++j) {
    std::vector<std::string>& texts = out.categorical[j];
    texts.reserve(out.num_rows);
    for (const DatasetCases& d : cases) {
      for (size_t r : d.rows) {
        texts.push_back(CategoryText(d.categorical[j], r));
      }
    }
  }
  return out;
}

federation::TransferData MakeArgs(
    const std::vector<std::string>& datasets,
    const std::vector<std::string>& numeric_vars,
    const std::vector<std::string>& categorical_vars) {
  federation::TransferData args;
  args.PutStringList("datasets", datasets);
  args.PutStringList("numeric_vars", numeric_vars);
  args.PutStringList("categorical_vars", categorical_vars);
  return args;
}

}  // namespace mip::algorithms
