#include "algorithms/descriptive.h"

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "algorithms/common.h"
#include "engine/exec_context.h"
#include "common/string_util.h"
#include "stats/summary.h"

namespace mip::algorithms {

namespace {

constexpr double kSentinel = 1e9;  // "no data" stand-in for secure min/max

Status RegisterSteps(federation::LocalFunctionRegistry* registry) {
  // Per-(dataset, variable) dashboard rows: dataset-local statistics,
  // computed next to the data; quartiles are exact.
  MIP_RETURN_NOT_OK(EnsureLocal(
      registry, "descriptive.rows",
      [](federation::WorkerContext& ctx,
         const federation::TransferData& args)
          -> Result<federation::TransferData> {
        MIP_ASSIGN_OR_RETURN(std::vector<std::string> variables,
                             args.GetStringList("numeric_vars"));
        federation::TransferData out;
        for (const std::string& ds : WorkerDatasets(ctx, args)) {
          MIP_ASSIGN_OR_RETURN(engine::Table table, ctx.db().GetTable(ds));
          for (const std::string& var : variables) {
            MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                 table.ColumnByName(var));
            // Morsel-parallel accumulation, merged in morsel order (the
            // same merge the federated path applies across workers).
            const engine::ExecContext& exec = ctx.exec();
            std::vector<stats::SummaryAccumulator> parts(
                exec.NumMorsels(col->length()));
            exec.ForEachMorsel(
                col->length(), [&](size_t m, size_t begin, size_t end) {
                  for (size_t r = begin; r < end; ++r) {
                    parts[m].Add(col->AsDoubleAt(r));
                  }
                });
            stats::SummaryAccumulator acc;
            for (const stats::SummaryAccumulator& part : parts) {
              acc.Merge(part);
            }
            std::vector<double> row = acc.ToVector();  // n,na,mean,m2,min,max
            for (double q : stats::Quantiles(col->NonNullDoubles(),
                                             {0.25, 0.50, 0.75})) {
              row.push_back(q);
            }
            out.PutVector("row/" + ds + "/" + var, std::move(row));
          }
        }
        return out;
      }));

  // Sum-able moments per variable across the worker's datasets:
  // [n, na, sum, sumsq] — exactly what SMPC sum aggregation supports.
  MIP_RETURN_NOT_OK(EnsureLocal(
      registry, "descriptive.moments",
      [](federation::WorkerContext& ctx,
         const federation::TransferData& args)
          -> Result<federation::TransferData> {
        MIP_ASSIGN_OR_RETURN(std::vector<std::string> variables,
                             args.GetStringList("numeric_vars"));
        federation::TransferData out;
        for (const std::string& var : variables) {
          double n = 0, na = 0, sum = 0, sumsq = 0;
          for (const std::string& ds : WorkerDatasets(ctx, args)) {
            MIP_ASSIGN_OR_RETURN(engine::Table table, ctx.db().GetTable(ds));
            MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                 table.ColumnByName(var));
            const engine::ExecContext& exec = ctx.exec();
            struct Partial {
              double n = 0, na = 0, sum = 0, sumsq = 0;
            };
            std::vector<Partial> parts(exec.NumMorsels(col->length()));
            exec.ForEachMorsel(
                col->length(), [&](size_t m, size_t begin, size_t end) {
                  Partial& p = parts[m];
                  for (size_t r = begin; r < end; ++r) {
                    const double v = col->AsDoubleAt(r);
                    if (std::isnan(v)) {
                      p.na += 1;
                    } else {
                      p.n += 1;
                      p.sum += v;
                      p.sumsq += v * v;
                    }
                  }
                });
            for (const Partial& p : parts) {
              n += p.n;
              na += p.na;
              sum += p.sum;
              sumsq += p.sumsq;
            }
          }
          out.PutVector("mom/" + var, {n, na, sum, sumsq});
        }
        return out;
      }));

  // Local extrema vector (one entry per variable), for secure min/max.
  MIP_RETURN_NOT_OK(EnsureLocal(
      registry, "descriptive.extrema",
      [](federation::WorkerContext& ctx,
         const federation::TransferData& args)
          -> Result<federation::TransferData> {
        MIP_ASSIGN_OR_RETURN(std::vector<std::string> variables,
                             args.GetStringList("numeric_vars"));
        const bool want_min = args.HasScalar("want_min");
        std::vector<double> vals;
        for (const std::string& var : variables) {
          double best = want_min ? kSentinel : -kSentinel;
          for (const std::string& ds : WorkerDatasets(ctx, args)) {
            MIP_ASSIGN_OR_RETURN(engine::Table table, ctx.db().GetTable(ds));
            MIP_ASSIGN_OR_RETURN(const engine::Column* col,
                                 table.ColumnByName(var));
            for (double v : col->NonNullDoubles()) {
              best = want_min ? std::min(best, v) : std::max(best, v);
            }
          }
          vals.push_back(best);
        }
        federation::TransferData out;
        out.PutVector("vals", std::move(vals));
        return out;
      }));
  return Status::OK();
}

stats::DescriptiveRow RowFromVector(const std::string& variable,
                                    const std::string& dataset,
                                    const std::vector<double>& v) {
  stats::DescriptiveRow row;
  row.variable = variable;
  row.dataset = dataset;
  stats::SummaryAccumulator acc = stats::SummaryAccumulator::FromVector(
      std::vector<double>(v.begin(), v.begin() + 6));
  row.datapoints = acc.count();
  row.na = acc.na_count();
  row.se = acc.standard_error();
  row.mean = acc.mean();
  row.min = acc.min();
  row.max = acc.max();
  if (v.size() >= 9) {
    row.q1 = v[6];
    row.q2 = v[7];
    row.q3 = v[8];
  } else {
    row.q1 = row.q2 = row.q3 = std::numeric_limits<double>::quiet_NaN();
  }
  return row;
}

}  // namespace

Result<DescriptiveResult> RunDescriptive(
    federation::FederationSession* session, const DescriptiveSpec& spec) {
  MIP_RETURN_NOT_OK(RegisterSteps(session->master().functions().get()));
  federation::TransferData args = MakeArgs(spec.datasets, spec.variables);

  DescriptiveResult result;

  // Per-dataset rows: computed where the dataset lives, shipped as the
  // published dashboard aggregates.
  MIP_ASSIGN_OR_RETURN(std::vector<federation::TransferData> row_parts,
                       session->LocalRun("descriptive.rows", args));
  // A dataset name may span several workers (a multi-centre study); moments
  // and extrema merge exactly, quartiles only survive when the dataset
  // lives on a single worker (they are dataset-local statistics).
  std::map<std::string, std::vector<std::vector<double>>> rows_by_key;
  for (const federation::TransferData& part : row_parts) {
    for (const auto& [key, vec] : part.vectors()) {
      if (!StartsWith(key, "row/")) continue;
      rows_by_key[key].push_back(vec);
    }
  }
  for (const auto& [key, vecs] : rows_by_key) {
    const std::vector<std::string> bits = Split(key, '/');
    if (bits.size() != 3) continue;
    if (vecs.size() == 1) {
      result.per_dataset.push_back(RowFromVector(bits[2], bits[1], vecs[0]));
      continue;
    }
    stats::SummaryAccumulator merged;
    for (const auto& vec : vecs) {
      merged.Merge(stats::SummaryAccumulator::FromVector(
          std::vector<double>(vec.begin(), vec.begin() + 6)));
    }
    result.per_dataset.push_back(
        RowFromVector(bits[2], bits[1], merged.ToVector()));
  }

  // Federated row per variable.
  if (spec.mode == federation::AggregationMode::kPlain) {
    MIP_ASSIGN_OR_RETURN(
        federation::TransferData merged,
        session->LocalRunAndAggregate("descriptive.moments", args,
                                      federation::AggregationMode::kPlain));
    for (const std::string& var : spec.variables) {
      MIP_ASSIGN_OR_RETURN(std::vector<double> mom,
                           merged.GetVector("mom/" + var));
      stats::DescriptiveRow row;
      row.variable = var;
      row.dataset = "(all)";
      const double n = mom[0];
      row.datapoints = static_cast<int64_t>(n);
      row.na = static_cast<int64_t>(mom[1]);
      row.mean = n > 0 ? mom[2] / n : std::numeric_limits<double>::quiet_NaN();
      const double var_hat =
          n > 1 ? (mom[3] - mom[2] * mom[2] / n) / (n - 1)
                : std::numeric_limits<double>::quiet_NaN();
      row.se = n > 1 ? std::sqrt(var_hat / n)
                     : std::numeric_limits<double>::quiet_NaN();
      row.q1 = row.q2 = row.q3 = std::numeric_limits<double>::quiet_NaN();
      // Plain-path extrema come from the per-dataset rows.
      row.min = std::numeric_limits<double>::infinity();
      row.max = -std::numeric_limits<double>::infinity();
      for (const stats::DescriptiveRow& r : result.per_dataset) {
        if (r.variable != var || r.datapoints == 0) continue;
        row.min = std::min(row.min, r.min);
        row.max = std::max(row.max, r.max);
      }
      result.federated.push_back(row);
    }
  } else {
    MIP_ASSIGN_OR_RETURN(
        federation::TransferData merged,
        session->LocalRunAndAggregate("descriptive.moments", args,
                                      federation::AggregationMode::kSecure));
    federation::TransferData min_args = args;
    min_args.PutScalar("want_min", 1.0);
    MIP_ASSIGN_OR_RETURN(
        std::vector<double> mins,
        session->LocalRunSecureOp("descriptive.extrema", min_args, "vals",
                                  smpc::SmpcOp::kMin));
    MIP_ASSIGN_OR_RETURN(
        std::vector<double> maxs,
        session->LocalRunSecureOp("descriptive.extrema", args, "vals",
                                  smpc::SmpcOp::kMax));
    for (size_t i = 0; i < spec.variables.size(); ++i) {
      const std::string& var = spec.variables[i];
      MIP_ASSIGN_OR_RETURN(std::vector<double> mom,
                           merged.GetVector("mom/" + var));
      stats::DescriptiveRow row;
      row.variable = var;
      row.dataset = "(all, secure)";
      // Fixed-point round-trip: counts come back as near-integers.
      const double n = std::round(mom[0]);
      row.datapoints = static_cast<int64_t>(n);
      row.na = static_cast<int64_t>(std::round(mom[1]));
      row.mean = n > 0 ? mom[2] / n : std::numeric_limits<double>::quiet_NaN();
      const double var_hat =
          n > 1 ? (mom[3] - mom[2] * mom[2] / n) / (n - 1)
                : std::numeric_limits<double>::quiet_NaN();
      row.se = n > 1 ? std::sqrt(var_hat / n)
                     : std::numeric_limits<double>::quiet_NaN();
      row.min = mins[i];
      row.max = maxs[i];
      row.q1 = row.q2 = row.q3 = std::numeric_limits<double>::quiet_NaN();
      result.federated.push_back(row);
    }
  }
  return result;
}

std::string DescriptiveResult::ToString() const {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  auto print_row = [&os](const stats::DescriptiveRow& r) {
    os << "  " << r.variable << " @ " << r.dataset << ": n=" << r.datapoints
       << " na=" << r.na << " mean=" << r.mean << " se=" << r.se
       << " min=" << r.min << " q1=" << r.q1 << " q2=" << r.q2
       << " q3=" << r.q3 << " max=" << r.max << "\n";
  };
  os << "Per-dataset descriptive statistics:\n";
  for (const auto& r : per_dataset) print_row(r);
  os << "Federated (all datasets):\n";
  for (const auto& r : federated) print_row(r);
  return os.str();
}

}  // namespace mip::algorithms
