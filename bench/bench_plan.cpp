// Experiment E15 — federated scan pushdown: bytes shipped and wall time for
// a selective filtered query over a federated merge table.
//
// Three workers each hold a 50k-row shard. The master runs
//   SELECT x, g FROM <view> WHERE k = 7
// (~1% selective) twice: with the plan optimizer off — every shard is
// fetched whole and filtered locally, the pre-plan-layer behavior — and
// with it on, where the planner lowers the filter and the pruned column
// list into the SQL each RemoteScan ships, so only matching rows of the
// referenced columns cross the bus. Results must be byte-identical;
// acceptance is >= 5x fewer wire bytes with pushdown on.
//
// Experiment E19 — cost-based distributed joins: three workers each hold a
// 50k-row visits shard (patient_id in [0, 4096)); the master holds a cohort
// whose size sweeps 16 -> 32768 rows. For every cohort size the join runs
// forced-broadcast and forced-collect with wire bytes metered, plus an
// EXPLAIN under the cost model to record which strategy it picks.
// Acceptance: both strategies byte-identical at every point; the model
// picks broadcast for the smallest cohort and collect for the largest,
// flipping at most once across the sweep (a single predicted crossover);
// and broadcast ships >= 5x fewer bytes than collect on the smallest
// cohort.
//
// Experiment E20 — federated-SELECT latency vs site count: 4, 16 and 64 bus
// workers, each behind a 10 ms injected delay on its master link, answer
//   SELECT g, count(*) AS n, sum(x) AS s FROM <view> GROUP BY g
// (a merge-aggregate: one partial-aggregate round trip per site) under
// ExecContext::Serial() and under the default context, whose pool runs the
// parts concurrently with at most pool size + 1 in flight. Acceptance:
// byte-identical answers and parallel <= 0.5x serial wall time at every
// site count.
//
// Results are printed and written to BENCH_plan.json for the CI smoke step.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/exec_context.h"
#include "engine/table.h"
#include "federation/fault.h"
#include "federation/master.h"

namespace {

using mip::BufferWriter;
using mip::Rng;
using mip::engine::DataType;
using mip::engine::Schema;
using mip::engine::Table;
using mip::engine::Value;

constexpr size_t kRowsPerWorker = 50000;
constexpr int kWorkers = 3;

std::vector<uint8_t> Bytes(const Table& t) {
  BufferWriter w;
  mip::engine::SerializeTable(t, &w);
  return w.TakeBytes();
}

struct RunMeasurement {
  uint64_t bytes_raw = 0;
  uint64_t bytes_wire = 0;
  double wall_ms = 0.0;
  std::vector<uint8_t> result;
  size_t rows = 0;
};

RunMeasurement RunOnce(mip::federation::MasterNode* master,
                       const std::string& sql, bool optimizer_on) {
  master->local_db().set_optimizer_enabled(optimizer_on);
  master->bus().ResetStats();
  mip::Stopwatch timer;
  auto out = master->local_db().ExecuteSql(sql);
  RunMeasurement m;
  m.wall_ms = timer.ElapsedMillis();
  if (!out.ok()) {
    std::printf("QUERY FAILED: %s\n", out.status().ToString().c_str());
    return m;
  }
  m.bytes_raw = master->bus().stats().bytes_raw;
  m.bytes_wire = master->bus().stats().bytes_wire;
  m.result = Bytes(*out);
  m.rows = out->num_rows();
  return m;
}

// --- E19: broadcast/collect crossover sweep --------------------------------

struct SweepPoint {
  size_t cohort_rows = 0;
  std::string chosen;  // what the cost model picked ("broadcast"/"collect")
  uint64_t bytes_broadcast = 0;
  uint64_t bytes_collect = 0;
  double wall_broadcast_ms = 0.0;
  double wall_collect_ms = 0.0;
  size_t rows = 0;
  bool identical = false;
};

struct E19Result {
  std::vector<SweepPoint> sweep;
  int flips = 0;
  double small_ratio = 0.0;  // collect/broadcast bytes at the smallest |R|
  bool pass = false;
};

uint64_t MeasureBytes(mip::federation::MasterNode* master,
                      const std::string& sql, int force, double* wall_ms,
                      std::vector<uint8_t>* result, size_t* rows) {
  master->local_db().optimizer_options().force_join_strategy = force;
  master->bus().ResetStats();
  mip::Stopwatch timer;
  auto out = master->local_db().ExecuteSql(sql);
  *wall_ms = timer.ElapsedMillis();
  master->local_db().optimizer_options().force_join_strategy = -1;
  if (!out.ok()) {
    std::printf("E19 QUERY FAILED: %s\n", out.status().ToString().c_str());
    result->clear();
    *rows = 0;
    return 0;
  }
  *result = Bytes(*out);
  *rows = out->num_rows();
  return master->bus().stats().bytes;
}

E19Result RunE19() {
  E19Result e19;
  constexpr int64_t kPatients = 4096;
  mip::federation::MasterNode master;
  Rng rng(0xE19);
  for (int w = 0; w < kWorkers; ++w) {
    const std::string id = "w" + std::to_string(w + 1);
    if (!master.AddWorker(id).ok()) return e19;
    Schema schema;
    (void)schema.AddField({"patient_id", DataType::kInt64});
    (void)schema.AddField({"dur", DataType::kFloat64});
    Table t = Table::Empty(schema);
    for (size_t i = 0; i < kRowsPerWorker; ++i) {
      (void)t.AppendRow(
          {Value::Int(static_cast<int64_t>(rng.NextBounded(kPatients))),
           Value::Double(rng.NextGaussian())});
    }
    if (!master.LoadDataset(id, "visits", std::move(t)).ok()) return e19;
  }
  auto view = master.CreateFederatedView("visits");
  if (!view.ok()) return e19;
  const std::string sql = "SELECT label, dur FROM " + *view +
                          " JOIN cohort ON " + *view +
                          ".patient_id = cohort.patient_id";

  std::printf("%-12s %-10s %14s %14s %10s %10s %9s\n", "cohort_rows",
              "chosen", "bytes_bcast", "bytes_collect", "ms_bcast",
              "ms_collect", "rows");
  bool all_identical = true;
  for (const size_t cohort_rows :
       {size_t{16}, size_t{128}, size_t{1024}, size_t{4096}, size_t{16384},
        size_t{32768}}) {
    // Rebuild the cohort at this size; the PutTable bumps the catalog
    // version, so cached plans and statistics cannot leak across points.
    Schema schema;
    (void)schema.AddField({"patient_id", DataType::kInt64});
    (void)schema.AddField({"label", DataType::kString});
    Table cohort = Table::Empty(schema);
    for (size_t i = 0; i < cohort_rows; ++i) {
      (void)cohort.AppendRow({Value::Int(static_cast<int64_t>(i)),
                              Value::String(i % 2 == 0 ? "case" : "ctl")});
    }
    if (!master.local_db().PutTable("cohort", std::move(cohort)).ok()) {
      return e19;
    }

    SweepPoint p;
    p.cohort_rows = cohort_rows;
    master.local_db().optimizer_options().force_join_strategy = -1;
    auto plan = master.local_db().ExecuteSql("EXPLAIN " + sql);
    if (plan.ok()) {
      std::string text;
      for (size_t r = 0; r < plan->num_rows(); ++r) {
        text += plan->At(r, 0).string_value();
      }
      p.chosen = text.find("strategy=broadcast") != std::string::npos
                     ? "broadcast"
                     : "collect";
    }
    std::vector<uint8_t> bcast_result, collect_result;
    size_t bcast_rows = 0;
    p.bytes_broadcast = MeasureBytes(&master, sql, /*force=*/1,
                                     &p.wall_broadcast_ms, &bcast_result,
                                     &bcast_rows);
    p.bytes_collect = MeasureBytes(&master, sql, /*force=*/0,
                                   &p.wall_collect_ms, &collect_result,
                                   &p.rows);
    p.identical = !bcast_result.empty() && bcast_result == collect_result;
    all_identical = all_identical && p.identical;
    std::printf("%-12zu %-10s %14llu %14llu %10.2f %10.2f %9zu%s\n",
                p.cohort_rows, p.chosen.c_str(),
                static_cast<unsigned long long>(p.bytes_broadcast),
                static_cast<unsigned long long>(p.bytes_collect),
                p.wall_broadcast_ms, p.wall_collect_ms, p.rows,
                p.identical ? "" : "  RESULTS DIVERGED");
    e19.sweep.push_back(p);
  }

  for (size_t i = 1; i < e19.sweep.size(); ++i) {
    if (e19.sweep[i].chosen != e19.sweep[i - 1].chosen) e19.flips += 1;
  }
  const SweepPoint& smallest = e19.sweep.front();
  e19.small_ratio =
      smallest.bytes_broadcast > 0
          ? static_cast<double>(smallest.bytes_collect) /
                static_cast<double>(smallest.bytes_broadcast)
          : 0.0;
  const bool crossover_ok = e19.sweep.front().chosen == "broadcast" &&
                            e19.sweep.back().chosen == "collect" &&
                            e19.flips <= 1;
  const bool ratio_ok = e19.small_ratio >= 5.0;
  e19.pass = all_identical && crossover_ok && ratio_ok;

  std::printf("\ncrossover: %s -> %s in %d flip(s) — %s\n",
              e19.sweep.front().chosen.c_str(),
              e19.sweep.back().chosen.c_str(), e19.flips,
              crossover_ok ? "PASS" : "FAIL");
  std::printf("smallest-cohort wire reduction: %.1fx (need >= 5.0x) — %s\n",
              e19.small_ratio, ratio_ok ? "PASS" : "FAIL");
  std::printf("byte-identical across strategies: %s\n",
              all_identical ? "PASS" : "FAIL");
  return e19;
}

// --- E20: federated-SELECT latency vs site count ---------------------------

struct SitePoint {
  int sites = 0;
  double serial_ms = 0.0;    // median of kE20Reps
  double parallel_ms = 0.0;  // median of kE20Reps
  bool identical = false;
};

struct E20Result {
  std::vector<SitePoint> points;
  int lanes = 1;  // parts in flight under the default context
  bool pass = false;
};

constexpr double kE20DelayMs = 10.0;
constexpr int kE20Reps = 3;

double MedianMs(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

E20Result RunE20() {
  E20Result e20;
  const mip::engine::ExecContext& parallel =
      mip::engine::ExecContext::Default();
  e20.lanes = parallel.pool != nullptr ? parallel.pool->size() + 1 : 1;
  std::printf("%-8s %12s %12s %8s %6s\n", "sites", "serial_ms", "parallel_ms",
              "ratio", "lanes");
  bool all_ok = true;
  for (const int sites : {4, 16, 64}) {
    mip::federation::MasterNode master;
    Rng rng(0xE20 + static_cast<uint64_t>(sites));
    const std::vector<std::string> groups = {"AD", "MCI", "control"};
    for (int w = 0; w < sites; ++w) {
      const std::string id = "h" + std::to_string(w + 1);
      if (!master.AddWorker(id).ok()) return e20;
      Schema schema;
      (void)schema.AddField({"x", DataType::kFloat64});
      (void)schema.AddField({"g", DataType::kString});
      Table t = Table::Empty(schema);
      for (int i = 0; i < 200; ++i) {
        (void)t.AppendRow(
            {Value::Double(rng.NextGaussian()),
             Value::String(groups[rng.NextBounded(groups.size())])});
      }
      if (!master.LoadDataset(id, "d", std::move(t)).ok()) return e20;
    }
    auto view = master.CreateFederatedView("d");
    if (!view.ok()) return e20;
    const std::string sql = "SELECT g, count(*) AS n, sum(x) AS s FROM " +
                            *view + " GROUP BY g";
    mip::engine::Database& db = master.local_db();
    // Warm the planner's schema/stats caches: timed runs only execute.
    if (!db.ExecuteSql(sql).ok()) return e20;

    mip::federation::FaultInjector injector(0xE20);
    mip::federation::FaultSpec delay;
    delay.delay_ms = kE20DelayMs;
    for (int w = 0; w < sites; ++w) {
      injector.SetLinkFault("master", "h" + std::to_string(w + 1), delay);
    }
    master.bus().set_fault_hook(&injector);
    SitePoint p;
    p.sites = sites;
    std::vector<uint8_t> answers[2];
    std::vector<double> times[2];
    const mip::engine::ExecContext* contexts[2] = {
        &mip::engine::ExecContext::Serial(), &parallel};
    for (int rep = 0; rep < kE20Reps; ++rep) {
      for (int mode = 0; mode < 2; ++mode) {
        db.set_exec_context(contexts[mode]);
        mip::Stopwatch timer;
        auto out = db.ExecuteSql(sql);
        times[mode].push_back(timer.ElapsedMillis());
        if (!out.ok()) {
          std::printf("E20 QUERY FAILED: %s\n",
                      out.status().ToString().c_str());
          master.bus().set_fault_hook(nullptr);
          return e20;
        }
        answers[mode] = Bytes(*out);
      }
    }
    master.bus().set_fault_hook(nullptr);
    db.set_exec_context(nullptr);
    p.serial_ms = MedianMs(times[0]);
    p.parallel_ms = MedianMs(times[1]);
    p.identical = !answers[0].empty() && answers[0] == answers[1];
    const bool fast = p.parallel_ms <= 0.5 * p.serial_ms;
    all_ok = all_ok && p.identical && fast;
    std::printf("%-8d %12.1f %12.1f %8.3f %6d%s%s\n", p.sites, p.serial_ms,
                p.parallel_ms, p.parallel_ms / p.serial_ms, e20.lanes,
                fast ? "" : "  SLOWER THAN 0.5x SERIAL",
                p.identical ? "" : "  RESULTS DIVERGED");
    e20.points.push_back(p);
  }
  e20.pass = all_ok;
  std::printf("\nparallel <= 0.5x serial at every site count, byte-identical "
              "answers: %s\n",
              all_ok ? "PASS" : "FAIL");
  return e20;
}

}  // namespace

int main() {
  std::printf("=== E15: federated scan pushdown — bytes shipped ===\n");
  std::printf("%d workers x %zu rows, ~1%% selective filter\n\n", kWorkers,
              kRowsPerWorker);

  mip::federation::MasterNode master;
  Rng rng(0xE15);
  const std::vector<std::string> groups = {"AD", "MCI", "control"};
  for (int w = 0; w < kWorkers; ++w) {
    const std::string id = "w" + std::to_string(w + 1);
    if (!master.AddWorker(id).ok()) return 1;
    Schema schema;
    (void)schema.AddField({"x", DataType::kFloat64});
    (void)schema.AddField({"k", DataType::kInt64});
    (void)schema.AddField({"g", DataType::kString});
    Table t = Table::Empty(schema);
    for (size_t i = 0; i < kRowsPerWorker; ++i) {
      (void)t.AppendRow(
          {Value::Double(rng.NextGaussian()),
           Value::Int(static_cast<int64_t>(rng.NextBounded(100))),
           Value::String(groups[rng.NextBounded(groups.size())])});
    }
    if (!master.LoadDataset(id, "d", std::move(t)).ok()) return 1;
  }
  auto view = master.CreateFederatedView("d");
  if (!view.ok()) return 1;
  const std::string sql = "SELECT x, g FROM " + *view + " WHERE k = 7";

  auto plan = master.local_db().ExecuteSql("EXPLAIN " + sql);
  if (plan.ok()) {
    std::printf("optimized plan:\n");
    for (size_t r = 0; r < plan->num_rows(); ++r) {
      std::printf("  %s\n", plan->At(r, 0).string_value().c_str());
    }
    std::printf("\n");
  }

  const RunMeasurement off = RunOnce(&master, sql, /*optimizer_on=*/false);
  const RunMeasurement on = RunOnce(&master, sql, /*optimizer_on=*/true);
  master.local_db().set_optimizer_enabled(true);

  std::printf("%-14s %10s %12s %12s %9s\n", "", "rows", "bytes_raw",
              "bytes_wire", "wall ms");
  std::printf("%-14s %10zu %12llu %12llu %9.2f\n", "pushdown off", off.rows,
              static_cast<unsigned long long>(off.bytes_raw),
              static_cast<unsigned long long>(off.bytes_wire), off.wall_ms);
  std::printf("%-14s %10zu %12llu %12llu %9.2f\n", "pushdown on", on.rows,
              static_cast<unsigned long long>(on.bytes_raw),
              static_cast<unsigned long long>(on.bytes_wire), on.wall_ms);

  const double wire_ratio =
      on.bytes_wire > 0 ? static_cast<double>(off.bytes_wire) /
                              static_cast<double>(on.bytes_wire)
                        : 0.0;
  const bool identical =
      !off.result.empty() && off.result == on.result && off.rows > 0;
  const bool wire_ok = wire_ratio >= 5.0;

  std::printf("\nwire reduction: %.1fx (need >= 5.0x) — %s\n", wire_ratio,
              wire_ok ? "PASS" : "FAIL");
  std::printf("byte-identical results: %s\n", identical ? "PASS" : "FAIL");

  std::printf("\n=== E19: cost-based join strategy — crossover sweep ===\n");
  std::printf("%d workers x %zu visit rows, cohort 16 -> 32768\n\n", kWorkers,
              kRowsPerWorker);
  const E19Result e19 = RunE19();

  std::printf("\n=== E20: federated-SELECT latency vs site count ===\n");
  std::printf("merge-aggregate over N bus sites, %.0f ms delay per link, "
              "median of %d\n\n",
              kE20DelayMs, kE20Reps);
  const E20Result e20 = RunE20();
  const bool pass = wire_ok && identical && e19.pass && e20.pass;

  std::string e19_sweep_json;
  for (size_t i = 0; i < e19.sweep.size(); ++i) {
    const SweepPoint& p = e19.sweep[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"cohort_rows\": %zu, \"chosen\": \"%s\", "
                  "\"bytes_broadcast\": %llu, \"bytes_collect\": %llu, "
                  "\"wall_broadcast_ms\": %.3f, \"wall_collect_ms\": %.3f, "
                  "\"rows\": %zu, \"identical\": %s}",
                  i == 0 ? "" : ",\n", p.cohort_rows, p.chosen.c_str(),
                  static_cast<unsigned long long>(p.bytes_broadcast),
                  static_cast<unsigned long long>(p.bytes_collect),
                  p.wall_broadcast_ms, p.wall_collect_ms, p.rows,
                  p.identical ? "true" : "false");
    e19_sweep_json += buf;
  }
  std::string e20_json;
  for (size_t i = 0; i < e20.points.size(); ++i) {
    const SitePoint& p = e20.points[i];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"sites\": %d, \"serial_ms\": %.3f, "
                  "\"parallel_ms\": %.3f, \"identical\": %s}",
                  i == 0 ? "" : ",\n", p.sites, p.serial_ms, p.parallel_ms,
                  p.identical ? "true" : "false");
    e20_json += buf;
  }

  if (std::FILE* f = std::fopen("BENCH_plan.json", "w")) {
    std::fprintf(
        f,
        "{\n"
        "  \"experiment\": \"E15\",\n"
        "  \"workers\": %d, \"rows_per_worker\": %zu,\n"
        "  \"query\": \"%s\",\n"
        "  \"pushdown_off\": {\"rows\": %zu, \"bytes_raw\": %llu, "
        "\"bytes_wire\": %llu, \"wall_ms\": %.3f},\n"
        "  \"pushdown_on\":  {\"rows\": %zu, \"bytes_raw\": %llu, "
        "\"bytes_wire\": %llu, \"wall_ms\": %.3f},\n"
        "  \"wire_ratio\": %.3f,\n"
        "  \"identical_results\": %s,\n"
        "  \"e19\": {\n"
        "  \"sweep\": [\n%s\n  ],\n"
        "  \"flips\": %d,\n"
        "  \"small_cohort_wire_ratio\": %.3f,\n"
        "  \"pass\": %s\n"
        "  },\n"
        "  \"e20\": {\n"
        "  \"delay_ms\": %.1f, \"reps\": %d, \"lanes\": %d,\n"
        "  \"points\": [\n%s\n  ],\n"
        "  \"pass\": %s\n"
        "  },\n"
        "  \"pass\": %s\n"
        "}\n",
        kWorkers, kRowsPerWorker, sql.c_str(), off.rows,
        static_cast<unsigned long long>(off.bytes_raw),
        static_cast<unsigned long long>(off.bytes_wire), off.wall_ms, on.rows,
        static_cast<unsigned long long>(on.bytes_raw),
        static_cast<unsigned long long>(on.bytes_wire), on.wall_ms,
        wire_ratio, identical ? "true" : "false", e19_sweep_json.c_str(),
        e19.flips, e19.small_ratio, e19.pass ? "true" : "false",
        kE20DelayMs, kE20Reps, e20.lanes, e20_json.c_str(),
        e20.pass ? "true" : "false", pass ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_plan.json\n");
  }

  return pass ? 0 : 1;
}
