// Experiment E5 — the two data-aggregation paths of §2: the non-secure
// remote/merge-table transfer vs. the SMPC path, end to end, as the
// federation grows.
//
// The task is the canonical one: aggregate a per-worker statistics vector
// (moments of 8 variables) on the Master. The merge-table path pulls the
// local aggregates through REMOTE tables into a MERGE view; the SMPC path
// secret-shares them. The sweep runs out to 100 workers — the paper's
// ~100-hospital scale — where the naive pull plan moves rows x workers
// bytes while pushdown and SMPC stay constant-size per worker.

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "federation/master.h"

namespace {

using mip::engine::DataType;
using mip::engine::Schema;
using mip::engine::Table;
using mip::engine::Value;
using mip::federation::TransferData;
using mip::federation::WorkerContext;

constexpr int kRowsPerWorker = 5000;
constexpr int kVariables = 8;

void LoadWorkers(mip::federation::MasterNode* master, int workers) {
  mip::Rng rng(4242);
  for (int w = 0; w < workers; ++w) {
    const std::string id = "w" + std::to_string(w);
    (void)master->AddWorker(id);
    Schema schema;
    for (int v = 0; v < kVariables; ++v) {
      (void)schema.AddField({"v" + std::to_string(v), DataType::kFloat64});
    }
    Table t = Table::Empty(schema);
    for (int r = 0; r < kRowsPerWorker; ++r) {
      std::vector<Value> row;
      for (int v = 0; v < kVariables; ++v) {
        row.push_back(Value::Double(rng.NextGaussian()));
      }
      (void)t.AppendRow(row);
    }
    (void)master->LoadDataset(id, "d", std::move(t));
  }
  (void)master->functions()->Register(
      "moments",
      [](WorkerContext& ctx,
         const TransferData&) -> mip::Result<TransferData> {
        MIP_ASSIGN_OR_RETURN(Table t, ctx.db().GetTable("d"));
        std::vector<double> sums(2 * t.num_columns(), 0.0);
        for (size_t c = 0; c < t.num_columns(); ++c) {
          const auto& col = t.column(c);
          for (size_t r = 0; r < col.length(); ++r) {
            const double v = col.DoubleAt(r);
            sums[2 * c] += v;
            sums[2 * c + 1] += v * v;
          }
        }
        TransferData out;
        out.PutVector("m", std::move(sums));
        out.PutScalar("n", static_cast<double>(t.num_rows()));
        return out;
      });
}

}  // namespace

int main() {
  std::printf("=== E5: merge-table (non-secure) vs SMPC aggregation ===\n");
  std::printf("%d rows x %d variables per worker; aggregate = per-variable "
              "sums + sums of squares\n\n",
              kRowsPerWorker, kVariables);
  std::printf(
      "%8s | %12s %12s | %12s %12s | %12s %12s\n", "workers", "pull ms",
      "pull bytes", "pushdown ms", "push bytes", "SMPC ms", "SMPC bytes");
  for (int workers : {2, 8, 25, 50, 100}) {
    mip::federation::MasterNode master;
    LoadWorkers(&master, workers);
    auto view = master.CreateFederatedView("d");
    if (!view.ok()) return 1;
    std::string select = "SELECT count(*) AS n";
    for (int v = 0; v < kVariables; ++v) {
      select += ", sum(v" + std::to_string(v) + ") AS s" + std::to_string(v);
    }
    select += " FROM " + view.ValueOrDie();

    // Path 1a: merge-table with pushdown DISABLED — whole relations are
    // pulled over the bus (the naive remote-table plan).
    master.local_db().optimizer_options().merge_aggregate_pushdown = false;
    master.bus().ResetStats();
    mip::Stopwatch sw;
    auto pulled = master.local_db().ExecuteSql(select);
    const double pull_ms = sw.ElapsedMillis();
    const auto pull_bytes = master.bus().stats().bytes;
    if (!pulled.ok()) {
      std::fprintf(stderr, "%s\n", pulled.status().ToString().c_str());
      return 1;
    }

    // Path 1b: merge-table WITH aggregate pushdown — partial aggregates
    // computed next to the data (ablation of the same plan).
    master.local_db().optimizer_options().merge_aggregate_pushdown = true;
    master.bus().ResetStats();
    sw.Reset();
    auto pushed = master.local_db().ExecuteSql(select);
    const double push_ms = sw.ElapsedMillis();
    const auto push_bytes = master.bus().stats().bytes;
    if (!pushed.ok()) return 1;

    // Path 2: local partial aggregation + SMPC secure sum.
    master.bus().ResetStats();
    master.smpc().ResetStats();
    auto session = master.StartSession({"d"});
    sw.Reset();
    auto secure = session.ValueOrDie().LocalRunAndAggregate(
        "moments", TransferData(), mip::federation::AggregationMode::kSecure);
    const double smpc_ms = sw.ElapsedMillis();
    if (!secure.ok()) return 1;
    const auto smpc_bytes = master.bus().stats().bytes +
                            master.smpc().stats().bytes_transferred;

    std::printf("%8d | %12.2f %12llu | %12.2f %12llu | %12.2f %12llu\n",
                workers, pull_ms,
                static_cast<unsigned long long>(pull_bytes), push_ms,
                static_cast<unsigned long long>(push_bytes), smpc_ms,
                static_cast<unsigned long long>(smpc_bytes));
  }
  std::printf(
      "\nShape vs paper: pulling relations through remote tables moves "
      "bytes\nproportional to rows x workers; aggregate pushdown (MonetDB's "
      "actual merge-table\nplan) and the SMPC path both ship constant-size "
      "aggregates. SMPC adds encryption\non top for sensitive data — the "
      "privacy-compliant default.\n");
  return 0;
}
