#include "algorithms/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "algorithms/common.h"
#include "stats/distributions.h"
#include "stats/linalg.h"

namespace mip::algorithms {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

size_t FoldOfRow(const double* row, size_t width, int folds) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < width; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return static_cast<size_t>(h % static_cast<uint64_t>(folds));
}

struct GatheredXy {
  stats::Matrix x;  // design matrix incl. intercept column
  std::vector<double> y;
  stats::Matrix raw;  // raw numeric matrix used for fold hashing
};

Result<GatheredXy> GatherXy(federation::WorkerContext& ctx,
                            const federation::TransferData& args) {
  MIP_ASSIGN_OR_RETURN(std::vector<std::string> x_vars,
                       args.GetStringList("numeric_vars"));
  MIP_ASSIGN_OR_RETURN(std::string target, args.GetString("target"));
  const bool intercept = args.HasScalar("intercept");
  std::string positive_class;
  if (args.HasString("positive_class")) {
    MIP_ASSIGN_OR_RETURN(positive_class, args.GetString("positive_class"));
  }

  // `raw` holds the numeric variables the fold hash reads: the covariates,
  // and the target too when it is numeric.
  std::vector<std::string> raw_vars = x_vars;
  std::vector<std::string> cat_vars;
  if (positive_class.empty()) {
    raw_vars.push_back(target);
  } else {
    cat_vars.push_back(target);
  }
  MIP_ASSIGN_OR_RETURN(std::vector<DatasetCases> cases,
                       SelectCompleteCases(ctx, WorkerDatasets(ctx, args),
                                           raw_vars, cat_vars));
  stats::Matrix raw = NumericMatrix(cases, raw_vars.size());

  const size_t n = raw.rows();
  const size_t p_x = x_vars.size();
  const size_t k0 = intercept ? 1 : 0;
  GatheredXy out;
  out.x = stats::Matrix(n, p_x + k0);
  out.y.resize(n);
  for (size_t r = 0; r < n; ++r) {
    double* x = out.x.row(r);
    if (intercept) x[0] = 1.0;
    std::copy(raw.row(r), raw.row(r) + p_x, x + k0);
  }
  if (positive_class.empty()) {
    for (size_t r = 0; r < n; ++r) out.y[r] = raw(r, p_x) >= 0.5 ? 1.0 : 0.0;
  } else {
    // The target compared on its own column: no category text is built
    // for a string target.
    size_t r = 0;
    for (const DatasetCases& d : cases) {
      const engine::Column& col = d.categorical[0];
      const bool is_string = col.type() == engine::DataType::kString;
      for (size_t row : d.rows) {
        const bool hit = is_string ? col.StringAt(row) == positive_class
                                   : CategoryText(col, row) == positive_class;
        out.y[r++] = hit ? 1.0 : 0.0;
      }
    }
  }
  out.raw = std::move(raw);
  return out;
}

Status RegisterSteps(federation::LocalFunctionRegistry* registry) {
  // One Newton round: gradient, Hessian and log-likelihood at `beta`.
  MIP_RETURN_NOT_OK(EnsureLocal(
      registry, "logreg.step",
      [](federation::WorkerContext& ctx,
         const federation::TransferData& args)
          -> Result<federation::TransferData> {
        MIP_ASSIGN_OR_RETURN(GatheredXy data, GatherXy(ctx, args));
        MIP_ASSIGN_OR_RETURN(std::vector<double> beta,
                             args.GetVector("beta"));
        const int folds =
            args.HasScalar("folds")
                ? static_cast<int>(args.GetScalar("folds").ValueOrDie())
                : 0;
        const int holdout =
            args.HasScalar("holdout")
                ? static_cast<int>(args.GetScalar("holdout").ValueOrDie())
                : -1;
        const size_t p = data.x.cols();
        std::vector<double> grad(p, 0.0);
        stats::Matrix hess(p, p);
        double ll = 0.0;
        double n = 0.0;
        double correct = 0.0;
        for (size_t r = 0; r < data.x.rows(); ++r) {
          if (folds > 0 && static_cast<int>(FoldOfRow(
                               data.raw.row(r), data.raw.cols(), folds)) ==
                               holdout) {
            continue;
          }
          double z = 0.0;
          for (size_t j = 0; j < p; ++j) z += beta[j] * data.x(r, j);
          const double mu = Sigmoid(z);
          const double y = data.y[r];
          ll += y * std::log(std::max(mu, 1e-300)) +
                (1.0 - y) * std::log(std::max(1.0 - mu, 1e-300));
          const double w = mu * (1.0 - mu);
          for (size_t j = 0; j < p; ++j) {
            grad[j] += (y - mu) * data.x(r, j);
            for (size_t k = 0; k < p; ++k) {
              hess(j, k) += w * data.x(r, j) * data.x(r, k);
            }
          }
          if ((mu >= 0.5) == (y >= 0.5)) correct += 1.0;
          n += 1.0;
        }
        federation::TransferData out;
        out.PutVector("grad", std::move(grad));
        out.PutMatrix("hess", std::move(hess));
        out.PutScalar("ll", ll);
        out.PutScalar("n", n);
        out.PutScalar("y_sum", [&data, folds, holdout]() {
          double s = 0.0;
          for (size_t r = 0; r < data.x.rows(); ++r) {
            if (folds > 0 &&
                static_cast<int>(FoldOfRow(data.raw.row(r), data.raw.cols(),
                                           folds)) == holdout) {
              continue;
            }
            s += data.y[r];
          }
          return s;
        }());
        out.PutScalar("correct", correct);
        return out;
      }));

  // Held-out evaluation for CV: confusion-matrix counts on fold `holdout`.
  MIP_RETURN_NOT_OK(EnsureLocal(
      registry, "logreg.eval",
      [](federation::WorkerContext& ctx,
         const federation::TransferData& args)
          -> Result<federation::TransferData> {
        MIP_ASSIGN_OR_RETURN(GatheredXy data, GatherXy(ctx, args));
        MIP_ASSIGN_OR_RETURN(std::vector<double> beta,
                             args.GetVector("beta"));
        MIP_ASSIGN_OR_RETURN(double folds_d, args.GetScalar("folds"));
        MIP_ASSIGN_OR_RETURN(double holdout_d, args.GetScalar("holdout"));
        const int folds = static_cast<int>(folds_d);
        const int holdout = static_cast<int>(holdout_d);
        double tp = 0, tn = 0, fp = 0, fn = 0;
        for (size_t r = 0; r < data.x.rows(); ++r) {
          if (static_cast<int>(FoldOfRow(data.raw.row(r), data.raw.cols(),
                                         folds)) != holdout) {
            continue;
          }
          double z = 0.0;
          for (size_t j = 0; j < data.x.cols(); ++j) {
            z += beta[j] * data.x(r, j);
          }
          const bool pred = Sigmoid(z) >= 0.5;
          const bool truth = data.y[r] >= 0.5;
          if (pred && truth) tp += 1;
          if (pred && !truth) fp += 1;
          if (!pred && truth) fn += 1;
          if (!pred && !truth) tn += 1;
        }
        federation::TransferData out;
        out.PutScalar("tp", tp);
        out.PutScalar("tn", tn);
        out.PutScalar("fp", fp);
        out.PutScalar("fn", fn);
        return out;
      }));
  return Status::OK();
}

federation::TransferData BaseArgs(const LogisticRegressionSpec& spec) {
  federation::TransferData args = MakeArgs(spec.datasets, spec.covariates);
  args.PutString("target", spec.target);
  if (!spec.positive_class.empty()) {
    args.PutString("positive_class", spec.positive_class);
  }
  if (spec.intercept) args.PutScalar("intercept", 1.0);
  return args;
}

struct IrlsFit {
  std::vector<double> beta;
  stats::Matrix hess_inv;
  double ll = 0.0;
  double n = 0.0;
  double y_sum = 0.0;
  double correct = 0.0;
  int iterations = 0;
  bool converged = false;
};

Result<IrlsFit> RunIrls(federation::FederationSession* session,
                        const LogisticRegressionSpec& spec,
                        federation::TransferData args, size_t p) {
  IrlsFit fit;
  fit.beta.assign(p, 0.0);
  for (int iter = 0; iter < spec.max_iterations; ++iter) {
    args.PutVector("beta", fit.beta);
    MIP_ASSIGN_OR_RETURN(
        federation::TransferData agg,
        session->LocalRunAndAggregate("logreg.step", args, spec.mode));
    MIP_ASSIGN_OR_RETURN(std::vector<double> grad, agg.GetVector("grad"));
    MIP_ASSIGN_OR_RETURN(stats::Matrix hess, agg.GetMatrix("hess"));
    MIP_ASSIGN_OR_RETURN(fit.ll, agg.GetScalar("ll"));
    MIP_ASSIGN_OR_RETURN(fit.n, agg.GetScalar("n"));
    MIP_ASSIGN_OR_RETURN(fit.y_sum, agg.GetScalar("y_sum"));
    MIP_ASSIGN_OR_RETURN(fit.correct, agg.GetScalar("correct"));
    // Light ridge for numerical safety on near-separable data.
    for (size_t j = 0; j < p; ++j) hess(j, j) += 1e-9;
    MIP_ASSIGN_OR_RETURN(std::vector<double> step,
                         stats::SolveSpd(hess, grad));
    double step_norm = 0.0;
    for (size_t j = 0; j < p; ++j) {
      fit.beta[j] += step[j];
      step_norm += step[j] * step[j];
    }
    fit.iterations = iter + 1;
    MIP_ASSIGN_OR_RETURN(fit.hess_inv, stats::InverseSpd(hess));
    if (std::sqrt(step_norm) < spec.tolerance) {
      fit.converged = true;
      break;
    }
  }
  return fit;
}

}  // namespace

Result<LogisticRegressionResult> RunLogisticRegression(
    federation::FederationSession* session,
    const LogisticRegressionSpec& spec) {
  MIP_RETURN_NOT_OK(RegisterSteps(session->master().functions().get()));
  const size_t p = spec.covariates.size() + (spec.intercept ? 1 : 0);
  MIP_ASSIGN_OR_RETURN(IrlsFit fit,
                       RunIrls(session, spec, BaseArgs(spec), p));

  LogisticRegressionResult out;
  out.n = static_cast<int64_t>(std::llround(fit.n));
  out.iterations = fit.iterations;
  out.converged = fit.converged;
  out.log_likelihood = fit.ll;
  const double pbar = fit.y_sum / fit.n;
  out.null_log_likelihood =
      fit.n * (pbar * std::log(std::max(pbar, 1e-300)) +
               (1 - pbar) * std::log(std::max(1 - pbar, 1e-300)));
  out.pseudo_r_squared =
      out.null_log_likelihood != 0
          ? 1.0 - out.log_likelihood / out.null_log_likelihood
          : 0.0;
  out.accuracy = fit.correct / fit.n;

  std::vector<std::string> names;
  if (spec.intercept) names.push_back("(intercept)");
  for (const std::string& v : spec.covariates) names.push_back(v);
  for (size_t i = 0; i < p; ++i) {
    CoefficientStat c;
    c.name = names[i];
    c.estimate = fit.beta[i];
    c.std_error = std::sqrt(fit.hess_inv(i, i));
    c.t_value = c.estimate / c.std_error;  // Wald z
    c.p_value = 2.0 * (1.0 - stats::NormalCdf(std::fabs(c.t_value)));
    out.coefficients.push_back(c);
  }
  return out;
}

Result<LogisticRegressionCvResult> RunLogisticRegressionCv(
    federation::FederationSession* session,
    const LogisticRegressionSpec& spec, int folds) {
  if (folds < 2) return Status::InvalidArgument("need at least 2 folds");
  MIP_RETURN_NOT_OK(RegisterSteps(session->master().functions().get()));
  const size_t p = spec.covariates.size() + (spec.intercept ? 1 : 0);

  LogisticRegressionCvResult out;
  out.folds = folds;
  for (int fold = 0; fold < folds; ++fold) {
    federation::TransferData args = BaseArgs(spec);
    args.PutScalar("folds", folds);
    args.PutScalar("holdout", fold);
    MIP_ASSIGN_OR_RETURN(IrlsFit fit, RunIrls(session, spec, args, p));

    federation::TransferData eval_args = BaseArgs(spec);
    eval_args.PutScalar("folds", folds);
    eval_args.PutScalar("holdout", fold);
    eval_args.PutVector("beta", fit.beta);
    MIP_ASSIGN_OR_RETURN(
        federation::TransferData eval,
        session->LocalRunAndAggregate("logreg.eval", eval_args, spec.mode));
    MIP_ASSIGN_OR_RETURN(double tp, eval.GetScalar("tp"));
    MIP_ASSIGN_OR_RETURN(double tn, eval.GetScalar("tn"));
    MIP_ASSIGN_OR_RETURN(double fp, eval.GetScalar("fp"));
    MIP_ASSIGN_OR_RETURN(double fn, eval.GetScalar("fn"));
    const double total = tp + tn + fp + fn;
    if (total <= 0) continue;
    out.accuracy_per_fold.push_back((tp + tn) / total);
    out.true_positive += static_cast<int64_t>(std::llround(tp));
    out.true_negative += static_cast<int64_t>(std::llround(tn));
    out.false_positive += static_cast<int64_t>(std::llround(fp));
    out.false_negative += static_cast<int64_t>(std::llround(fn));
  }
  for (double a : out.accuracy_per_fold) out.mean_accuracy += a;
  if (!out.accuracy_per_fold.empty()) {
    out.mean_accuracy /= static_cast<double>(out.accuracy_per_fold.size());
  }
  return out;
}

std::string LogisticRegressionResult::ToString() const {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed;
  os << "Logistic regression (n=" << n << ", iterations=" << iterations
     << (converged ? ", converged" : ", NOT converged")
     << ", ll=" << log_likelihood << ", McFadden R^2=" << pseudo_r_squared
     << ", accuracy=" << accuracy << ")\n";
  for (const CoefficientStat& c : coefficients) {
    os << "  " << c.name << ": " << c.estimate << " (se=" << c.std_error
       << ", z=" << c.t_value << ", p=" << c.p_value << ")\n";
  }
  return os.str();
}

std::string LogisticRegressionCvResult::ToString() const {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed;
  os << "Logistic regression " << folds
     << "-fold CV: mean accuracy=" << mean_accuracy << " (tp=" << true_positive
     << " tn=" << true_negative << " fp=" << false_positive
     << " fn=" << false_negative << ")\n";
  return os.str();
}

}  // namespace mip::algorithms
