// The three workloads: seeded data and operation lists, the closed-loop
// runner, answer checking, and the end-to-end and per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "data/synthetic.h"

namespace perfbench {

namespace {

using mip::Rng;
using mip::engine::Column;
using mip::engine::DataType;
using mip::engine::Schema;
using mip::federation::AggregationMode;
using mip::platform::ExperimentSpec;

// --- Data ------------------------------------------------------------------

const char* const kDiag[] = {"CN", "SCD", "MCI", "AD"};
const char* const kVolumes[] = {"hippo_l", "hippo_r", "entorhinal",
                                "ventricles"};

Table MakeTable(const std::vector<mip::engine::Field>& fields,
                std::vector<Column> columns) {
  Schema schema;
  for (const auto& f : fields) (void)schema.AddField(f);
  return Table::Make(std::move(schema), std::move(columns)).ValueOrDie();
}

/// One site's `visits`: ~4 visits per patient, patient ids disjoint by site.
Table VisitsTable(uint64_t seed, int site, const Scale& scale) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(site) * 104729 + 1);
  const int64_t n = scale.visits_per_site;
  std::vector<int64_t> pid(n), age(n), year(n);
  std::vector<std::string> sex(n), diag(n);
  std::vector<double> mmse(n), vol[4];
  for (auto& v : vol) v.resize(n);
  const int64_t base = site * scale.patients_per_site;
  for (int64_t i = 0; i < n; ++i) {
    pid[i] = base + static_cast<int64_t>(rng.NextBounded(scale.patients_per_site));
    age[i] = 18 + static_cast<int64_t>(rng.NextBounded(73));
    year[i] = 2000 + static_cast<int64_t>(rng.NextBounded(24));
    sex[i] = rng.NextBounded(2) == 0 ? "F" : "M";
    const int d = static_cast<int>(rng.NextBounded(4));
    diag[i] = kDiag[d];
    mmse[i] = std::round(std::clamp(29.0 - 3.0 * d + rng.NextGaussian(0, 2), 0.0, 30.0));
    vol[0][i] = 3.6 - 0.25 * d + rng.NextGaussian(0, 0.3);
    vol[1][i] = 3.7 - 0.25 * d + rng.NextGaussian(0, 0.3);
    vol[2][i] = 1.9 - 0.15 * d + rng.NextGaussian(0, 0.2);
    vol[3][i] = 30.0 + 6.0 * d + rng.NextGaussian(0, 5.0);
  }
  return MakeTable(
      {{"patient_id", DataType::kInt64}, {"age", DataType::kInt64},
       {"sex", DataType::kString}, {"diag", DataType::kString},
       {"mmse", DataType::kFloat64}, {"hippo_l", DataType::kFloat64},
       {"hippo_r", DataType::kFloat64}, {"entorhinal", DataType::kFloat64},
       {"ventricles", DataType::kFloat64}, {"year", DataType::kInt64}},
      {Column::FromInts(std::move(pid)), Column::FromInts(std::move(age)),
       Column::FromStrings(std::move(sex)), Column::FromStrings(std::move(diag)),
       Column::FromDoubles(std::move(mmse)), Column::FromDoubles(std::move(vol[0])),
       Column::FromDoubles(std::move(vol[1])), Column::FromDoubles(std::move(vol[2])),
       Column::FromDoubles(std::move(vol[3])), Column::FromInts(std::move(year))});
}

/// A researcher's cohort list: `size` distinct patient ids.
Table CohortTable(uint64_t seed, int64_t size, const Scale& scale) {
  Rng rng(seed * 31 + static_cast<uint64_t>(size));
  const int64_t domain = kSites * scale.patients_per_site;
  std::set<int64_t> ids;
  while (static_cast<int64_t>(ids.size()) < std::min(size, domain)) {
    ids.insert(static_cast<int64_t>(rng.NextBounded(domain)));
  }
  std::vector<int64_t> cid(ids.begin(), ids.end());
  std::vector<std::string> arm(cid.size());
  for (size_t i = 0; i < cid.size(); ++i) arm[i] = i % 2 == 0 ? "case" : "control";
  return MakeTable({{"cid", DataType::kInt64}, {"arm", DataType::kString}},
                   {Column::FromInts(std::move(cid)),
                    Column::FromStrings(std::move(arm))});
}

constexpr int64_t kSiteIdStride = 100000000;

int64_t ScatteredKey(int64_t id) {
  return static_cast<int64_t>((static_cast<uint64_t>(id) * 2654435761ull) &
                              0xFFFFFFFFull);
}

/// Rows [first_id, first_id + rows) of one site's `records`; every cell is a
/// function of (seed, row id), so the oracle regenerates appended batches.
Table RecordsBatch(uint64_t seed, int site, int64_t first_id, int64_t rows) {
  std::vector<int64_t> id1(rows), id2(rows), skey(rows);
  std::vector<std::string> s1(rows), s2(rows);
  std::vector<double> d[5];
  for (auto& v : d) v.resize(rows);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t id = site * kSiteIdStride + first_id + i;
    Rng rng(seed * 1000003 + static_cast<uint64_t>(id));
    id1[i] = id;
    id2[i] = id / 8;
    skey[i] = ScatteredKey(id);
    s1[i] = "ward_" + std::to_string(rng.NextBounded(8));
    s2[i] = "code_" + std::to_string(rng.NextBounded(16));
    for (int k = 0; k < 5; ++k) d[k][i] = rng.NextGaussian(10.0 * k, 1.0 + k);
  }
  return MakeTable(
      {{"id1", DataType::kInt64}, {"id2", DataType::kInt64},
       {"skey", DataType::kInt64}, {"s1", DataType::kString},
       {"s2", DataType::kString}, {"d1", DataType::kFloat64},
       {"d2", DataType::kFloat64}, {"d3", DataType::kFloat64},
       {"d4", DataType::kFloat64}, {"d5", DataType::kFloat64}},
      {Column::FromInts(std::move(id1)), Column::FromInts(std::move(id2)),
       Column::FromInts(std::move(skey)), Column::FromStrings(std::move(s1)),
       Column::FromStrings(std::move(s2)), Column::FromDoubles(std::move(d[0])),
       Column::FromDoubles(std::move(d[1])), Column::FromDoubles(std::move(d[2])),
       Column::FromDoubles(std::move(d[3])), Column::FromDoubles(std::move(d[4]))});
}

std::vector<Table> RecordsIngest(uint64_t seed, int site, const Scale& scale) {
  std::vector<Table> batches;
  for (int64_t first = 0; first < scale.records_per_site;
       first += scale.ingest_batch_rows) {
    batches.push_back(RecordsBatch(
        seed, site, first,
        std::min(scale.ingest_batch_rows, scale.records_per_site - first)));
  }
  return batches;
}

Result<Table> DementiaSite(uint64_t seed, int site, const Scale& scale) {
  mip::data::DementiaCohortConfig config;
  config.num_patients = scale.study_patients_per_site;
  config.seed = seed * 97 + static_cast<uint64_t>(site);
  config.site_volume_bias = 0.05 * site;
  return mip::data::GenerateDementiaCohort(config);
}

// --- Operation lists ---------------------------------------------------------

/// Exact class counts for `n` operations, largest remainders first.
std::vector<int> ClassCounts(int n, const std::vector<double>& shares) {
  std::vector<int> counts(shares.size());
  std::vector<std::pair<double, size_t>> rem;
  int used = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    const double exact = shares[i] * n;
    counts[i] = static_cast<int>(exact);
    used += counts[i];
    if (shares[i] > 0) rem.push_back({exact - counts[i], i});
  }
  std::sort(rem.rbegin(), rem.rend());
  for (size_t i = 0; used < n; ++i, ++used) counts[rem[i % rem.size()].second] += 1;
  return counts;
}

/// `counts[i]` copies of class i, shuffled.
std::vector<int> ShuffledClasses(Rng* rng, const std::vector<int>& counts) {
  std::vector<int> classes;
  for (size_t i = 0; i < counts.size(); ++i) {
    classes.insert(classes.end(), counts[i], static_cast<int>(i));
  }
  const std::vector<size_t> perm = rng->Permutation(classes.size());
  std::vector<int> out(classes.size());
  for (size_t i = 0; i < perm.size(); ++i) out[i] = classes[perm[i]];
  return out;
}

/// Draws from `make` until it yields SQL not seen before.
std::string Fresh(std::set<std::string>* seen,
                  const std::function<std::string()>& make) {
  for (;;) {
    std::string sql = make();
    if (seen->insert(sql).second) return sql;
  }
}

// Nominal throughput of each workload on a 4-core x86 box: the timed list
// holds rate x --seconds operations, and never fewer than kMinOps, so p90
// always has more than ten samples beyond it. disk_mixed, whose operations
// are mostly 0.4 s scans, keeps to 100 so p90 still has ten.
constexpr double kFedSqlRate = 32.0;
constexpr double kDiskRate = 4.0;
constexpr double kStudyRate = 13.0;
constexpr int kMinOps = 120;
constexpr int kMinDiskOps = 100;

// Threads of the answer check, which runs after timing.
constexpr int kOracleThreads = 3;

// The order of operation classes is the same for every seed (the seed
// draws data, literals and parameters): seed-to-seed differences then come
// from the inputs, not from which classes happen to run back to back.
constexpr uint64_t kOrderSeed = 0x5EEDC1A55ull;

int OpCount(double rate, int seconds, int multiple, int min_ops = kMinOps) {
  const double n = std::max<double>(rate * seconds, min_ops);
  return static_cast<int>(std::ceil(n / multiple)) * multiple;
}

/// fed_sql: per client, 50% panels, 15% fetches, 20% cohort joins and 15%
/// repeats of the client's own recent queries (result-cache hits). Literal
/// parities differ per client, so no query is shared between clients.
void FedSqlOps(const RunConfig& config, OpPlan* plan) {
  plan->clients = 2;
  const std::vector<int64_t>& cohorts = config.scale.cohort_sizes;
  const int64_t domain = kSites * config.scale.patients_per_site;
  // A traced run makes two passes (the untraced reference and the traced
  // one), so it times half the list to stay well inside the run-time limit.
  const double rate = config.trace ? kFedSqlRate / 2 : kFedSqlRate;
  const int per_client = OpCount(rate, config.seconds, 40) / 2;
  for (int c = 0; c < plan->clients; ++c) {
    Rng rng(config.seed * 1315423911ull + static_cast<uint64_t>(c) + 17);
    Rng order_rng(kOrderSeed + static_cast<uint64_t>(c));
    std::set<std::string> seen;
    auto pick = [&](int64_t lo, int64_t hi) {  // in [lo, hi], parity c
      int64_t v = lo + static_cast<int64_t>(rng.NextBounded(hi - lo + 1));
      if (((v % 2) + 2) % 2 != c) v = v + 1 <= hi ? v + 1 : v - 1;
      return v;
    };
    // Fixed-width windows keep every query's selectivity the same across
    // seeds; only where the windows sit changes.
    auto panel = [&] {
      const int a = static_cast<int>(rng.NextBounded(4));
      const int b = (a + 1 + static_cast<int>(rng.NextBounded(3))) % 4;
      const int64_t age = pick(18, 66);
      const int64_t year = 2000 + static_cast<int64_t>(rng.NextBounded(13));
      return std::string("SELECT diag, COUNT(*) AS n, AVG(mmse) AS mmse_avg, AVG(") +
             kVolumes[a] + ") AS v1, SUM(" + kVolumes[b] +
             ") AS v2, MIN(age) AS age_min, MAX(age) AS age_max FROM "
             "visits_federated WHERE age BETWEEN " + std::to_string(age) +
             " AND " + std::to_string(age + 24) + " AND year BETWEEN " +
             std::to_string(year) + " AND " + std::to_string(year + 11) +
             " GROUP BY diag";
    };
    auto fetch = [&] {
      const int64_t lo = pick(0, domain - 4);
      return "SELECT patient_id, age, mmse FROM visits_federated WHERE "
             "patient_id BETWEEN " + std::to_string(lo) + " AND " +
             std::to_string(lo + 3);
    };
    auto join = [&](int64_t size) {
      const int64_t age = pick(18, 61);
      const int64_t year = 2000 + static_cast<int64_t>(rng.NextBounded(13));
      return "SELECT diag, COUNT(*) AS n, AVG(mmse) AS mmse_avg FROM "
             "visits_federated JOIN cohort_" + std::to_string(size) +
             " ON patient_id = cid WHERE age BETWEEN " + std::to_string(age) +
             " AND " + std::to_string(age + 29) + " AND year BETWEEN " +
             std::to_string(year) + " AND " + std::to_string(year + 11) +
             " GROUP BY diag";
    };
    // Classes: 0 panel, 1 fetch, 2.. joins per cohort size, last = repeat.
    const double join_share = 0.20 / static_cast<double>(cohorts.size());
    std::vector<double> shares = {0.50, 0.15};
    for (size_t k = 0; k < cohorts.size(); ++k) shares.push_back(join_share);
    shares.push_back(0.15);
    const int repeat_class = static_cast<int>(shares.size()) - 1;
    auto generate = [&](int n, bool repeats, std::vector<Op>* out) {
      std::vector<double> s = shares;
      if (!repeats) s.back() = 0.0;
      std::vector<int> order = ShuffledClasses(&order_rng, ClassCounts(n, s));
      std::vector<std::string> recent;  // this client's fresh queries
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] == repeat_class && recent.empty()) {
          // A hit needs an earlier query: swap with the next fresh one.
          size_t j = i + 1;
          while (j + 1 < order.size() && order[j] == repeat_class) ++j;
          std::swap(order[i], order[j]);
        }
        Op op;
        op.client = c;
        const int k = order[i];
        if (k == 0) {
          op.cls = "panel";
          op.sql = Fresh(&seen, panel);
        } else if (k == 1) {
          op.cls = "fetch";
          op.sql = Fresh(&seen, fetch);
        } else if (k == repeat_class) {
          // Recent enough that the 128-entry LRU cannot have evicted it.
          const size_t window = std::min<size_t>(recent.size(), 8);
          op.cls = "hit";
          op.sql = recent[recent.size() - 1 - rng.NextBounded(window)];
        } else {
          const int64_t size = cohorts[static_cast<size_t>(k - 2)];
          op.cls = "join" + std::to_string(size);
          op.sql = Fresh(&seen, [&] { return join(size); });
        }
        if (k != repeat_class) recent.push_back(op.sql);
        out->push_back(std::move(op));
      }
    };
    generate(12, /*repeats=*/false, &plan->warmup);
    generate(per_client, /*repeats=*/true, &plan->timed);
  }
}

/// disk_mixed: one client; 20% point lookups, 10% narrow id ranges, 25%
/// two-column aggregates, 35% GROUP BY on a string column, 10% appends.
/// By latency the classes run appends < ranges ~ lookups (40% together) <
/// aggregates (to 65%) < GROUP BY, so p50 falls mid-aggregates and p90 in
/// the GROUP BYs. p50 stays out of the ~25 ms lookups and ranges: a burst of
/// load on a shared host stretches a short operation far more than a 0.4 s one.
/// No read repeats: appends do not invalidate the gateway's cache.
void DiskOps(const RunConfig& config, OpPlan* plan) {
  plan->clients = 1;
  const Scale& scale = config.scale;
  Rng rng(config.seed * 2654435761ull + 99);
  Rng order_rng(kOrderSeed);
  std::set<std::string> seen;
  const char* const kNumeric[] = {"id2", "skey", "d1", "d2", "d3", "d4", "d5"};
  const char* const kAgg[] = {"SUM", "AVG", "MIN", "MAX"};
  auto site_row = [&] {
    return static_cast<int64_t>(rng.NextBounded(kSites)) * kSiteIdStride +
           static_cast<int64_t>(rng.NextBounded(scale.records_per_site));
  };
  auto lookup = [&] {
    return "SELECT id1, s1, d1, d2 FROM records_federated WHERE skey = " +
           std::to_string(ScatteredKey(site_row()));
  };
  auto range = [&] {
    const int64_t lo = site_row();
    const int64_t hi = std::min(lo + 499, (lo / kSiteIdStride) * kSiteIdStride +
                                              scale.records_per_site - 1);
    return "SELECT id1, id2, d3 FROM records_federated WHERE id1 BETWEEN " +
           std::to_string(lo) + " AND " + std::to_string(hi);
  };
  auto aggregate = [&] {
    const size_t a = rng.NextBounded(7);
    const size_t b = (a + 1 + rng.NextBounded(6)) % 7;
    return std::string("SELECT ") + kAgg[rng.NextBounded(4)] + "(" +
           kNumeric[a] + ") AS a, " + kAgg[rng.NextBounded(4)] + "(" +
           kNumeric[b] + ") AS b FROM records_federated";
  };
  auto group_by = [&] {
    // d5 ~ N(40, 5): the cut keeps ~98% of the rows and makes each query new.
    char cut[32];
    std::snprintf(cut, sizeof(cut), "%.3f", 50.0 + 5.0 * rng.NextDouble());
    const std::string key = rng.NextBounded(2) == 0 ? "s1" : "s2";
    return "SELECT " + key + ", COUNT(*) AS n, " + kAgg[rng.NextBounded(4)] +
           "(" + kNumeric[2 + rng.NextBounded(5)] +
           ") AS m FROM records_federated WHERE d5 < " + cut + " GROUP BY " + key;
  };
  std::vector<int64_t> next_id(kSites, scale.records_per_site);
  auto generate = [&](int n, bool writes, std::vector<Op>* out) {
    const std::vector<int> order = ShuffledClasses(
        &order_rng, ClassCounts(n, {0.20, 0.10, 0.25, 0.35, writes ? 0.10 : 0.0}));
    for (int k : order) {
      Op op;
      switch (k) {
        case 0: op.cls = "lookup"; op.sql = Fresh(&seen, lookup); break;
        case 1: op.cls = "range"; op.sql = Fresh(&seen, range); break;
        case 2: op.cls = "aggregate"; op.sql = Fresh(&seen, aggregate); break;
        case 3: op.cls = "group_by"; op.sql = Fresh(&seen, group_by); break;
        default:
          op.cls = "write";
          op.site = static_cast<int>(rng.NextBounded(kSites));
          op.first_id = next_id[op.site];
          next_id[op.site] += scale.write_rows;
      }
      out->push_back(std::move(op));
    }
  };
  generate(12, /*writes=*/false, &plan->warmup);
  generate(OpCount(kDiskRate, config.seconds, 20, kMinDiskOps), /*writes=*/true,
           &plan->timed);
}

/// study: one experiment per algorithm, as the dashboard submits them,
/// half of all runs with kPlain and half with kSecure. The
/// parameters are fixed so iteration counts (k-means, Newton steps) stay
/// comparable across seeds; the seed draws the cohorts.
void StudyOps(const RunConfig& config, OpPlan* plan) {
  plan->clients = 1;
  auto spec = [](const std::string& algorithm) {
    ExperimentSpec e;
    e.algorithm = algorithm;
    e.datasets = {"dementia"};
    return e;
  };
  ExperimentSpec e = spec("descriptive");
  e.list_params["variables"] = {"age", "mmse", "left_hippocampus", "p_tau"};
  plan->specs.push_back(e);
  e = spec("pearson_correlation");
  e.list_params["variables"] = {"abeta42", "p_tau", "left_entorhinal_area", "mmse"};
  plan->specs.push_back(e);
  e = spec("ttest_independent");
  e.params = {{"variable", "left_hippocampus"}, {"group_variable", "diagnosis"},
              {"group_a", "AD"}, {"group_b", "CN"}};
  plan->specs.push_back(e);
  e = spec("anova_oneway");
  e.params = {{"outcome", "mmse"}, {"factor", "diagnosis"}};
  e.list_params["levels"] = {"CN", "MCI", "AD"};
  plan->specs.push_back(e);
  e = spec("linear_regression");
  e.list_params["covariates"] = {"age", "abeta42", "p_tau"};
  e.params = {{"target", "left_hippocampus"}};
  plan->specs.push_back(e);
  e = spec("logistic_regression");
  e.list_params["covariates"] = {"age", "left_hippocampus", "abeta42", "p_tau"};
  e.params = {{"target", "diagnosis"}, {"positive_class", "AD"}};
  plan->specs.push_back(e);
  e = spec("kmeans");
  e.list_params["variables"] = {"abeta42", "p_tau", "left_entorhinal_area"};
  e.params = {{"k", "3"}, {"iterations_max_number", "12"}, {"standardize", "true"},
              {"seed", "11"}};
  plan->specs.push_back(e);

  // Warm-up: every spec once per mode (the kPlain runs are the answer key).
  for (int secure = 0; secure < 2; ++secure) {
    for (size_t s = 0; s < plan->specs.size(); ++s) {
      Op op;
      op.spec = static_cast<int>(s);
      op.secure = secure == 1;
      plan->warmup.push_back(op);
    }
  }
  // Class weights in 2% units, {kPlain, kSecure}; half the operations are
  // secure. With classes ordered by latency — fast tests (32%), descriptive
  // plain (8%) and secure (20%), k-means (22%), logistic regression (18%) —
  // p50 and p90 sit at least 8 points inside a class. Logistic regression
  // runs kPlain only: under fixed point its Newton steps meet the plain
  // convergence test on some cohorts and run to the 25-iteration cap on
  // others, which moved the workload's cost by a third between seeds.
  const std::map<std::string, std::pair<int, int>> weight = {
      {"descriptive", {4, 10}},        {"pearson_correlation", {2, 2}},
      {"ttest_independent", {2, 2}},   {"anova_oneway", {2, 2}},
      {"linear_regression", {2, 2}},   {"logistic_regression", {9, 0}},
      {"kmeans", {4, 7}}};
  const int units = OpCount(kStudyRate, config.seconds, 50) / 50;
  std::vector<int> counts;
  for (const ExperimentSpec& s : plan->specs) {
    counts.push_back(weight.at(s.algorithm).first * units);
    counts.push_back(weight.at(s.algorithm).second * units);
  }
  Rng order_rng(kOrderSeed);
  for (int k : ShuffledClasses(&order_rng, counts)) {
    Op op;
    op.spec = k / 2;
    op.secure = k % 2 == 1;
    op.cls = plan->specs[op.spec].algorithm + (op.secure ? "/secure" : "/plain");
    plan->timed.push_back(std::move(op));
  }
}

// --- Running -----------------------------------------------------------------

/// Phase timestamps on stderr (stdout carries the result).
void Log(const std::string& what) {
  std::fprintf(stderr, "[perfbench %8.2f s] %s\n", NowMs() / 1e3, what.c_str());
}

void LogSetups(const std::vector<double>& setup_s) {
  std::string line = "set-ups (s):";
  for (double s : setup_s) line += " " + std::to_string(s);
  Log(line);
}

struct OpRecord {
  double start_ms = 0.0;
  double end_ms = 0.0;
  Status status;
  Table table;  ///< SQL reply
  std::string text;  ///< experiment result
  std::vector<mip::federation::WorkerRunReport> reports;  ///< study
  double latency() const { return end_ms - start_ms; }
};

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  double rss_mb = 0.0;
  uint64_t wire_bytes = 0;
  std::vector<OpRecord> records;  ///< parallel to OpPlan::timed
  std::vector<Span> spans;
  std::vector<std::string> failures;
  // Counter deltas over the timed phase (traced pass reads them).
  mip::federation::Gateway::Stats gateway;
  mip::federation::ResultCache::Stats cache;
  mip::net::NetworkStats link;
  mip::engine::StorageCounters storage;
  uint64_t joins_broadcast = 0;
  uint64_t joins_collect = 0;
  mip::smpc::SmpcCostStats smpc;
  uint64_t disk_bytes = 0;
  uint64_t user_bytes = 0;
  std::vector<double> plan_ms;
};

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Runs the operations of every client in closed loops (one thread per
/// client) and fills `records` at the operations' indices.
void ClosedLoop(int clients, const std::vector<Op>& ops,
                const std::function<void(size_t, OpRecord*)>& execute,
                std::vector<OpRecord>* records) {
  records->assign(ops.size(), OpRecord());
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].client != c) continue;
        OpRecord& rec = (*records)[i];
        rec.start_ms = NowMs();
        execute(i, &rec);
        rec.end_ms = NowMs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

ExperimentSpec WithMode(ExperimentSpec spec, bool secure) {
  spec.mode = secure ? AggregationMode::kSecure : AggregationMode::kPlain;
  return spec;
}

/// One set-up + warm-up + timed pass of a SQL workload. `setups` > 1 times
/// additional set-ups (torn down again) for the setup_s median.
Result<PassResult> RunSqlPass(const RunConfig& config, const OpPlan& plan,
                              Tracer* tracer, int setups) {
  PassResult pass;
  const bool disk = config.workload == "disk_mixed";
  SqlFederation::Options options;
  options.dataset = disk ? "records" : "visits";
  options.on_disk = disk;
  options.data_root = config.work_dir;
  options.tracer = tracer;
  std::unique_ptr<SqlFederation> fed;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    fed.reset();
    const double t0 = NowMs();
    std::vector<std::vector<Table>> sites(kSites);
    std::vector<std::pair<std::string, Table>> gateway_tables;
    std::vector<std::thread> generators;
    for (int s = 0; s < kSites; ++s) {
      generators.emplace_back([&, s] {
        if (disk) {
          sites[s] = RecordsIngest(config.seed, s, config.scale);
        } else {
          sites[s].push_back(VisitsTable(config.seed, s, config.scale));
        }
      });
    }
    for (std::thread& t : generators) t.join();
    if (!disk) {
      for (int64_t size : config.scale.cohort_sizes) {
        gateway_tables.push_back({"cohort_" + std::to_string(size),
                                  CohortTable(config.seed, size, config.scale)});
      }
    }
    if (disk) {
      pass.user_bytes = 0;
      for (const std::vector<Table>& site : sites) {
        for (const Table& b : site) pass.user_bytes += mip::engine::RawTableWireBytes(b);
      }
    }
    MIP_ASSIGN_OR_RETURN(fed, SqlFederation::Start(options, std::move(sites),
                                                   std::move(gateway_tables)));
    setup_s.push_back((NowMs() - t0) / 1e3);
  }
  pass.setup_s = Median(setup_s);
  LogSetups(setup_s);

  // Write batches are generated before timing; the oracle regenerates them.
  std::map<size_t, Table> batches;
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    const Op& op = plan.timed[i];
    if (op.site >= 0) {
      batches[i] = RecordsBatch(config.seed, op.site, op.first_id,
                                config.scale.write_rows);
      pass.user_bytes += mip::engine::RawTableWireBytes(batches[i]);
    }
  }
  auto execute = [&](const std::vector<Op>& ops, size_t i, OpRecord* rec) {
    const Op& op = ops[i];
    ScopedOp scope(i + 1);
    if (op.site >= 0) {
      rec->status = fed->Append(op.site, batches.at(i));
      return;
    }
    Result<Table> reply = fed->Query("client" + std::to_string(op.client), op.sql);
    rec->status = reply.status();
    if (reply.ok()) rec->table = std::move(reply).MoveValueUnsafe();
  };

  std::vector<OpRecord> warm;
  ClosedLoop(plan.clients, plan.warmup,
             [&](size_t i, OpRecord* r) { execute(plan.warmup, i, r); }, &warm);
  for (size_t i = 0; i < warm.size(); ++i) {
    if (!warm[i].status.ok()) {
      return Status::ExecutionError("warm-up query failed: " + plan.warmup[i].sql +
                                    ": " + warm[i].status.ToString());
    }
  }
  if (disk) fed->WaitForCompactionIdle();
  if (tracer != nullptr) tracer->Take();  // warm-up spans are not measured
  Log("warm-up done");

  const auto gw0 = fed->GatewayStats();
  const auto cache0 = fed->CacheStats();
  const auto link0 = fed->MasterLinkTotals();
  const auto storage0 = fed->StorageTotals();
  const mip::engine::JoinCounters* joins = fed->gateway_db().join_counters();
  const uint64_t broadcast0 = joins->broadcast_chosen.load();
  const uint64_t collect0 = joins->collect_chosen.load();
  const uint64_t wire0 = fed->WireBytes();
  const double cpu0 = CpuMs();
  const double t0 = NowMs();
  ClosedLoop(plan.clients, plan.timed,
             [&](size_t i, OpRecord* r) { execute(plan.timed, i, r); },
             &pass.records);
  pass.wall_s = (NowMs() - t0) / 1e3;
  pass.cpu_ms = CpuMs() - cpu0;
  pass.rss_mb = PeakRssMb();
  pass.wire_bytes = fed->WireBytes() - wire0;
  Log("timed phase done");
  const auto gw1 = fed->GatewayStats();
  const auto cache1 = fed->CacheStats();
  const auto link1 = fed->MasterLinkTotals();
  const auto storage1 = fed->StorageTotals();
  pass.gateway.shed_capacity = gw1.shed_capacity - gw0.shed_capacity;
  pass.gateway.shed_quota = gw1.shed_quota - gw0.shed_quota;
  pass.gateway.admitted = gw1.admitted - gw0.admitted;
  pass.cache.hits = cache1.hits - cache0.hits;
  pass.link.bytes = link1.bytes - link0.bytes;
  pass.link.bytes_raw = link1.bytes_raw - link0.bytes_raw;
  pass.link.bytes_wire = link1.bytes_wire - link0.bytes_wire;
  pass.storage.flushes = storage1.flushes - storage0.flushes;
  pass.storage.compactions = storage1.compactions - storage0.compactions;
  pass.joins_broadcast = joins->broadcast_chosen.load() - broadcast0;
  pass.joins_collect = joins->collect_chosen.load() - collect0;
  if (tracer != nullptr) {
    pass.spans = tracer->Take();
    // Quiescent planning pass: no traffic is in flight, so planning (which
    // fills the gateway's schema cache) cannot race a request.
    std::set<std::string> distinct;
    for (const Op& op : plan.timed) {
      if (op.site < 0 && distinct.insert(op.sql).second) {
        const double p0 = NowMs();
        MIP_RETURN_NOT_OK(fed->PlanOnly(op.sql));
        pass.plan_ms.push_back(NowMs() - p0);
      }
    }
    if (disk) pass.disk_bytes = fed->DiskBytes();
  }
  fed.reset();
  // A traced pass is compared byte for byte with the untraced pass, whose
  // answers the oracle checks.
  if (tracer != nullptr) return pass;

  // Answer key, computed after tear-down from regenerated inputs.
  SqlOracle oracle;
  const std::string view = disk ? "records_federated" : "visits_federated";
  {
    std::vector<Table> all;
    for (int s = 0; s < kSites; ++s) {
      if (disk) {
        for (Table& b : RecordsIngest(config.seed, s, config.scale)) all.push_back(std::move(b));
      } else {
        all.push_back(VisitsTable(config.seed, s, config.scale));
      }
    }
    MIP_ASSIGN_OR_RETURN(Table merged, Table::Concat(all));
    MIP_RETURN_NOT_OK(oracle.Put(view, std::move(merged)));
    if (!disk) {
      for (int64_t size : config.scale.cohort_sizes) {
        MIP_RETURN_NOT_OK(oracle.Put("cohort_" + std::to_string(size),
                                     CohortTable(config.seed, size, config.scale)));
      }
    }
  }
  // The reads between two writes see the same rows, so the oracle answers
  // them together, a few at a time.
  std::map<std::string, Table> expected;  // reads between writes are unique
  for (size_t begin = 0; begin < plan.timed.size();) {
    size_t end = begin;
    std::vector<std::string> fresh;
    for (; end < plan.timed.size() && plan.timed[end].site < 0; ++end) {
      const std::string& sql = plan.timed[end].sql;
      if (expected.count(sql) == 0 &&
          std::find(fresh.begin(), fresh.end(), sql) == fresh.end()) {
        fresh.push_back(sql);
      }
    }
    std::vector<Result<Table>> answers = oracle.RunMany(fresh, kOracleThreads);
    for (size_t k = 0; k < fresh.size(); ++k) {
      MIP_RETURN_NOT_OK(answers[k].status());
      expected.emplace(fresh[k], std::move(answers[k]).MoveValueUnsafe());
    }
    for (size_t i = begin; i < end; ++i) {
      const OpRecord& rec = pass.records[i];
      if (!rec.status.ok()) {
        pass.failures.push_back(plan.timed[i].sql + ": " + rec.status.ToString());
        continue;
      }
      const std::string diff = CompareTables(expected.at(plan.timed[i].sql), rec.table);
      if (!diff.empty()) pass.failures.push_back(plan.timed[i].sql + ": " + diff);
    }
    if (end < plan.timed.size()) {  // a write
      MIP_RETURN_NOT_OK(oracle.Append(view, batches.at(end)));
      const Status& st = pass.records[end].status;
      if (!st.ok()) pass.failures.push_back("write: " + st.ToString());
      ++end;
    }
    begin = end;
  }
  Log("answers checked");
  return pass;
}

/// A rendered result without what legitimately differs between modes: the
/// "secure" label, and the iteration count and convergence flag (fixed-point
/// rounding keeps secure Newton steps from meeting the plain tolerance).
std::string ModeFreeText(const std::string& text) {
  static const std::regex kSecureLabel(", secure\\)");
  static const std::regex kIterations("iterations=[0-9]+, (NOT )?converged");
  std::string out = std::regex_replace(text, kSecureLabel, ")");
  return std::regex_replace(out, kIterations, "iterations=*");
}

/// The study pass: warm-up runs every spec in both modes (the kPlain
/// results are the answer key); timed experiments compare against them.
Result<PassResult> RunStudyPass(const RunConfig& config, const OpPlan& plan,
                                Tracer* tracer, int setups) {
  PassResult pass;
  std::unique_ptr<StudyFederation> fed;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    fed.reset();
    const double t0 = NowMs();
    // Sites generate their cohorts in parallel, as the SQL set-ups do.
    std::vector<Result<Table>> generated(kSites, Status::Internal("not generated"));
    std::vector<std::thread> generators;
    for (int s = 0; s < kSites; ++s) {
      generators.emplace_back(
          [&, s] { generated[s] = DementiaSite(config.seed, s, config.scale); });
    }
    for (std::thread& t : generators) t.join();
    std::vector<Table> tables;
    for (Result<Table>& t : generated) {
      MIP_RETURN_NOT_OK(t.status());
      tables.push_back(std::move(t).MoveValueUnsafe());
    }
    MIP_ASSIGN_OR_RETURN(fed, StudyFederation::Start("dementia", std::move(tables), tracer));
    setup_s.push_back((NowMs() - t0) / 1e3);
  }
  pass.setup_s = Median(setup_s);
  LogSetups(setup_s);

  std::vector<std::string> reference(plan.specs.size());
  for (const Op& op : plan.warmup) {
    MIP_ASSIGN_OR_RETURN(auto record,
                         fed->Run(WithMode(plan.specs[op.spec], op.secure)));
    if (record.status != mip::platform::ExperimentStatus::kCompleted) {
      return Status::ExecutionError("warm-up experiment " +
                                    plan.specs[op.spec].algorithm +
                                    " failed: " + record.error);
    }
    if (!op.secure) reference[op.spec] = record.result;
  }
  if (tracer != nullptr) tracer->Take();
  fed->smpc().ResetStats();

  const mip::net::NetworkStats bus0 = fed->BusStats();
  const double cpu0 = CpuMs();
  const double t0 = NowMs();
  ClosedLoop(1, plan.timed, [&](size_t i, OpRecord* rec) {
    const Op& op = plan.timed[i];
    if (tracer != nullptr) tracer->set_fallback_op(i + 1);
    Result<mip::platform::ExperimentRecord> record =
        fed->Run(WithMode(plan.specs[op.spec], op.secure));
    if (!record.ok()) {
      rec->status = record.status();
    } else if (record->status != mip::platform::ExperimentStatus::kCompleted) {
      rec->status = Status::ExecutionError(record->error);
    } else {
      rec->text = record->result;
      rec->reports = record->worker_reports;
    }
  }, &pass.records);
  pass.wall_s = (NowMs() - t0) / 1e3;
  pass.cpu_ms = CpuMs() - cpu0;
  pass.rss_mb = PeakRssMb();
  const mip::net::NetworkStats bus1 = fed->BusStats();
  pass.wire_bytes = bus1.bytes - bus0.bytes;
  pass.link.bytes = pass.wire_bytes;
  pass.link.bytes_raw = bus1.bytes_raw - bus0.bytes_raw;
  pass.link.bytes_wire = bus1.bytes_wire - bus0.bytes_wire;
  pass.smpc = fed->smpc().stats();
  if (tracer != nullptr) {
    tracer->set_fallback_op(0);
    pass.spans = tracer->Take();
  }
  fed.reset();

  // Fixed-point secure aggregation agrees with the plain path to ~1e-6;
  // rendered results round to a few decimals.
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    const Op& op = plan.timed[i];
    const OpRecord& rec = pass.records[i];
    if (!rec.status.ok()) {
      pass.failures.push_back(op.cls + ": " + rec.status.ToString());
      continue;
    }
    const std::string diff = CompareResultText(
        ModeFreeText(reference[op.spec]), ModeFreeText(rec.text), 1e-3);
    if (!diff.empty()) pass.failures.push_back(op.cls + ": " + diff);
  }
  return pass;
}

Result<PassResult> RunPass(const RunConfig& config, const OpPlan& plan,
                           Tracer* tracer, int setups) {
  if (config.workload == "study") return RunStudyPass(config, plan, tracer, setups);
  return RunSqlPass(config, plan, tracer, setups);
}

// --- Metrics -----------------------------------------------------------------

void Add(Metrics* m, const std::string& name, double value, const char* unit) {
  m->push_back({name, {value, unit}});
}

std::vector<double> Latencies(const PassResult& pass) {
  std::vector<double> out;
  for (const OpRecord& r : pass.records) out.push_back(r.latency());
  return out;
}

Metrics EndToEnd(const PassResult& pass, size_t ops) {
  const double n = static_cast<double>(ops);
  const std::vector<double> lat = Latencies(pass);
  Metrics m;
  Add(&m, "setup_s", pass.setup_s, "s");
  Add(&m, "throughput_ops_s", n / pass.wall_s, "ops/s");
  Add(&m, "p50_ms", Quantile(lat, 0.5), "ms");
  Add(&m, "p90_ms", Quantile(lat, 0.9), "ms");
  Add(&m, "cpu_ms_per_op", pass.cpu_ms / n, "ms");
  Add(&m, "rss_mb", pass.rss_mb, "MiB");
  Add(&m, "wire_kb_per_op", static_cast<double>(pass.wire_bytes) / 1024.0 / n, "KiB");
  Add(&m, "answered_frac", 1.0 - static_cast<double>(pass.failures.size()) / n, "ratio");
  return m;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double CoveredMs(std::vector<std::pair<double, double>> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [s, e] : spans) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

Metrics PerLayer(const RunConfig& config, const OpPlan& plan,
                 const PassResult& pass, double untraced_throughput) {
  const double n = static_cast<double>(plan.timed.size());
  std::map<std::string, std::vector<double>> dur;  // span name -> durations
  std::map<uint64_t, std::vector<const Span*>> by_op;
  std::map<uint64_t, std::vector<const Span*>> worker_by_key;
  for (const Span& s : pass.spans) {
    dur[s.name].push_back(s.duration_ms());
    by_op[s.op].push_back(&s);
    if (s.name.rfind("worker.", 0) == 0) worker_by_key[s.key].push_back(&s);
  }
  auto p50 = [&](const std::string& name) { return Median(dur[name]); };
  auto count = [&](const std::string& name) {
    return static_cast<double>(dur[name].size());
  };
  auto is_remote = [](const Span* s) { return s->name.rfind("remote.", 0) == 0; };

  // Gateway, master self time and remote share, per operation.
  std::vector<double> wait, self, share;
  double gateway_ops = 0;
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    if (plan.timed[i].site >= 0 || plan.timed[i].spec >= 0) continue;
    gateway_ops += 1;
    auto it = by_op.find(i + 1);
    if (it == by_op.end()) continue;
    const Span* handle = nullptr;
    std::vector<std::pair<double, double>> remote;
    double remote_sum = 0.0;
    for (const Span* s : it->second) {
      if (s->name == "gateway.handle") handle = s;
      if (is_remote(s)) {
        remote.push_back({s->start_ms, s->end_ms});
        remote_sum += s->duration_ms();
      }
    }
    if (handle == nullptr) continue;
    wait.push_back(pass.records[i].latency() - handle->duration_ms());
    self.push_back(handle->duration_ms() -
                   CoveredMs(remote, handle->start_ms, handle->end_ms));
    if (!remote.empty()) share.push_back(remote_sum / handle->duration_ms());
  }

  // Network transit: remote span minus the worker span that served it.
  std::vector<double> transit;
  for (const Span& s : pass.spans) {
    if (s.name.rfind("remote.", 0) != 0) continue;
    auto it = worker_by_key.find(s.key);
    if (it == worker_by_key.end()) continue;
    for (const Span* w : it->second) {
      if (w->start_ms >= s.start_ms && w->end_ms <= s.end_ms) {
        transit.push_back(s.duration_ms() - w->duration_ms());
        break;
      }
    }
  }

  // Storage.
  double scans = 0, scanned = 0, pruned = 0, total = 0, rows_out = 0;
  for (const Span& s : pass.spans) {
    if (s.name != "storage.scan" && s.name != "storage.index_scan") continue;
    scans += 1;
    scanned += static_cast<double>(s.scan.scanned);
    pruned += static_cast<double>(s.scan.pruned);
    total += static_cast<double>(s.scan.total);
    rows_out += static_cast<double>(s.rows_out);
  }

  // Fan-out steps: per operation, local-run sends that overlap in time.
  std::vector<double> step_ms, slowest_ratio, master_ms;
  double steps = 0, sends_ok = 0, attempts = 0;
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    if (plan.timed[i].spec < 0) continue;
    for (const auto& r : pass.records[i].reports) attempts += r.attempts;
    auto it = by_op.find(i + 1);
    std::vector<const Span*> sends;
    if (it != by_op.end()) {
      for (const Span* s : it->second) {
        if (s->name == "remote.local_run" || s->name == "remote.local_run_secure") {
          sends.push_back(s);
          if (s->ok) sends_ok += 1;
        }
      }
    }
    std::sort(sends.begin(), sends.end(),
              [](const Span* a, const Span* b) { return a->start_ms < b->start_ms; });
    std::vector<std::pair<double, double>> covered;
    for (size_t a = 0; a < sends.size();) {
      double end = sends[a]->end_ms;
      size_t b = a;
      std::vector<double> d;
      while (b < sends.size() && sends[b]->start_ms < end) {
        end = std::max(end, sends[b]->end_ms);
        d.push_back(sends[b]->duration_ms());
        ++b;
      }
      steps += 1;
      step_ms.push_back(end - sends[a]->start_ms);
      slowest_ratio.push_back(*std::max_element(d.begin(), d.end()) /
                              std::max(Median(d), 1e-6));
      covered.push_back({sends[a]->start_ms, end});
      a = b;
    }
    const OpRecord& rec = pass.records[i];
    master_ms.push_back(rec.latency() - CoveredMs(covered, rec.start_ms, rec.end_ms));
  }
  const double study_ops = config.workload == "study" ? n : 0.0;
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double traced_throughput = n / pass.wall_s;
  // Local steps: worker handler spans over TCP; on the in-process bus the
  // handler runs inline in the sender, so the send span is the step.
  const std::string side = count("worker.local_run") +
                                       count("worker.local_run_secure") > 0
                               ? "worker."
                               : "remote.";
  std::vector<double> local_run = dur[side + "local_run"];
  local_run.insert(local_run.end(), dur[side + "local_run_secure"].begin(),
                   dur[side + "local_run_secure"].end());

  Metrics m;
  Add(&m, "gateway.handle_ms.p50", p50("gateway.handle"), "ms");
  Add(&m, "gateway.wait_ms.p50", Median(wait), "ms");
  Add(&m, "gateway.cache_hit_ratio",
      gateway_ops > 0 ? static_cast<double>(pass.cache.hits) / gateway_ops : 0.0, "ratio");
  Add(&m, "gateway.shed",
      static_cast<double>(pass.gateway.shed_capacity + pass.gateway.shed_quota), "count");
  Add(&m, "plan.ms.p50", Median(pass.plan_ms), "ms");
  Add(&m, "plan.remote_probes", count("remote.get_schema") + count("remote.get_stats"), "count");
  Add(&m, "plan.joins_broadcast", static_cast<double>(pass.joins_broadcast), "count");
  Add(&m, "plan.joins_collect", static_cast<double>(pass.joins_collect), "count");
  Add(&m, "master.exec_ms.p50", Median(self), "ms");
  Add(&m, "remote.run_sql.ms.p50", p50("remote.run_sql"), "ms");
  Add(&m, "remote.run_sql.calls_per_op", count("remote.run_sql") / n, "calls");
  Add(&m, "remote.run_sql_bound.ms.p50", p50("remote.run_sql_bound"), "ms");
  Add(&m, "remote.run_sql_bound.calls_per_op", count("remote.run_sql_bound") / n, "calls");
  Add(&m, "remote.sum_over_handle", Median(share), "ratio");
  Add(&m, "net.transit_ms.p50", Median(transit), "ms");
  Add(&m, "net.bytes_per_op", static_cast<double>(pass.link.bytes) / n, "bytes");
  Add(&m, "net.compression_ratio",
      pass.link.bytes_wire > 0 ? static_cast<double>(pass.link.bytes_raw) /
                                     static_cast<double>(pass.link.bytes_wire)
                               : 1.0,
      "ratio");
  Add(&m, "worker.run_sql.ms.p50", p50("worker.run_sql"), "ms");
  Add(&m, "worker.run_sql_bound.ms.p50", p50("worker.run_sql_bound"), "ms");
  Add(&m, "worker.local_run.ms.p50", Median(local_run), "ms");
  Add(&m, "storage.scan_ms.p50", p50("storage.scan"), "ms");
  Add(&m, "storage.index_scan_ms.p50", p50("storage.index_scan"), "ms");
  Add(&m, "storage.segments_scanned_per_scan", scans > 0 ? scanned / scans : 0.0, "segments");
  Add(&m, "storage.pruned_ratio", total > 0 ? pruned / total : 0.0, "ratio");
  Add(&m, "storage.rows_out_per_scan", scans > 0 ? rows_out / scans : 0.0, "rows");
  Add(&m, "storage.append_ms.p50", p50("storage.append"), "ms");
  Add(&m, "storage.flushes", static_cast<double>(pass.storage.flushes), "count");
  Add(&m, "storage.compactions", static_cast<double>(pass.storage.compactions), "count");
  Add(&m, "storage.disk_bytes_per_user_byte",
      pass.user_bytes > 0 ? static_cast<double>(pass.disk_bytes) /
                                static_cast<double>(pass.user_bytes)
                          : 0.0,
      "ratio");
  Add(&m, "smpc.share_ms.p50", pass.smpc.share_ms.Quantile(0.5), "ms");
  Add(&m, "smpc.online_ms.p50", pass.smpc.online_ms.Quantile(0.5), "ms");
  Add(&m, "smpc.triple_ms.p50", pass.smpc.triple_ms.Quantile(0.5), "ms");
  Add(&m, "smpc.reconstruct_ms.p50", pass.smpc.reconstruct_ms.Quantile(0.5), "ms");
  Add(&m, "smpc.bytes_per_op", static_cast<double>(pass.smpc.bytes_transferred) / n, "bytes");
  Add(&m, "fanout.steps_per_op", study_ops > 0 ? steps / study_ops : 0.0, "steps");
  Add(&m, "fanout.step_ms.p50", Median(step_ms), "ms");
  Add(&m, "fanout.slowest_over_median", Median(slowest_ratio), "ratio");
  Add(&m, "fanout.retries", std::max(0.0, attempts - sends_ok), "count");
  Add(&m, "algo.master_ms_per_op", mean(master_ms), "ms");
  Add(&m, "trace.throughput_ratio", traced_throughput / untraced_throughput, "ratio");
  return m;
}

std::vector<std::string> ClassBreakdown(const OpPlan& plan, const PassResult& pass) {
  std::map<std::string, std::vector<double>> by_class;
  for (size_t i = 0; i < plan.timed.size(); ++i) {
    by_class[plan.timed[i].cls].push_back(pass.records[i].latency());  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [cls, lat] : by_class) {
    char line[160];
    std::snprintf(line, sizeof(line), "class %-28s n=%-5zu share=%5.1f%% p50=%9.3f ms p90=%9.3f ms",
                  cls.c_str(), lat.size(),
                  100.0 * static_cast<double>(lat.size()) / static_cast<double>(plan.timed.size()),
                  Quantile(lat, 0.5), Quantile(lat, 0.9));
    rows.push_back({Quantile(lat, 0.5), line});
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  for (auto& r : rows) out.push_back(std::move(r.second));
  return out;
}

/// What a traced pass must reproduce byte for byte.
std::vector<uint8_t> AnswerBytes(const OpRecord& rec) {
  if (!rec.status.ok()) {
    const std::string s = rec.status.ToString();
    return std::vector<uint8_t>(s.begin(), s.end());
  }
  if (!rec.text.empty() || rec.table.num_columns() == 0) {
    return std::vector<uint8_t>(rec.text.begin(), rec.text.end());
  }
  mip::BufferWriter w;
  mip::engine::SerializeTable(rec.table, &w);
  return w.TakeBytes();
}

/// The untraced pass as the traced run compares against it.
struct PassSummary {
  double wall_s = 0.0;
  uint64_t wire_bytes = 0;
  std::vector<std::string> failures;
  std::vector<std::vector<uint8_t>> answers;
};

/// Runs one untraced pass in a forked child (before this process starts
/// any thread) and reads its summary back from a file.
Result<PassSummary> RunUntracedInChild(const RunConfig& config, const OpPlan& plan) {
  std::filesystem::create_directories(config.work_dir);
  const std::string path = config.work_dir + "/untraced.summary";
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    int code = 1;
    Result<PassResult> pass = RunPass(config, plan, nullptr, 1);
    if (pass.ok()) {
      mip::BufferWriter w;
      w.WriteDouble(pass->wall_s);
      w.WriteU64(pass->wire_bytes);
      w.WriteU32(static_cast<uint32_t>(pass->failures.size()));
      for (const std::string& f : pass->failures) w.WriteString(f);
      w.WriteU32(static_cast<uint32_t>(pass->records.size()));
      for (const OpRecord& r : pass->records) w.WriteBytes(AnswerBytes(r));
      const std::vector<uint8_t> bytes = w.TakeBytes();
      std::ofstream file(path, std::ios::binary);
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
      code = file.good() ? 0 : 1;
    } else {
      std::fprintf(stderr, "untraced pass: %s\n", pass.status().ToString().c_str());
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::ExecutionError("untraced reference pass failed");
  }
  std::ifstream file(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                   std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  mip::BufferReader r(bytes);
  PassSummary summary;
  MIP_ASSIGN_OR_RETURN(summary.wall_s, r.ReadDouble());
  MIP_ASSIGN_OR_RETURN(summary.wire_bytes, r.ReadU64());
  MIP_ASSIGN_OR_RETURN(uint32_t failures, r.ReadU32());
  for (uint32_t i = 0; i < failures; ++i) {
    MIP_ASSIGN_OR_RETURN(std::string f, r.ReadString());
    summary.failures.push_back("untraced: " + f);
  }
  MIP_ASSIGN_OR_RETURN(uint32_t answers, r.ReadU32());
  for (uint32_t i = 0; i < answers; ++i) {
    MIP_ASSIGN_OR_RETURN(std::vector<uint8_t> a, r.ReadBytes());
    summary.answers.push_back(std::move(a));
  }
  if (summary.answers.size() != plan.timed.size()) {
    return Status::ExecutionError("untraced summary is incomplete");
  }
  return summary;
}

}  // namespace

Result<OpPlan> MakeOpPlan(const RunConfig& config) {
  OpPlan plan;
  if (config.workload == "fed_sql") {
    FedSqlOps(config, &plan);
  } else if (config.workload == "disk_mixed") {
    DiskOps(config, &plan);
  } else if (config.workload == "study") {
    StudyOps(config, &plan);
  } else {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "' (fed_sql, disk_mixed, study)");
  }
  return plan;
}

Result<RunOutcome> RunWorkload(const RunConfig& config) {
  MIP_ASSIGN_OR_RETURN(OpPlan plan, MakeOpPlan(config));
  const double n = static_cast<double>(plan.timed.size());
  RunOutcome out;
  out.attempted = static_cast<int64_t>(plan.timed.size());
  PassResult pass;
  std::vector<std::string> failures;
  double untraced_wall_s = 0.0;
  if (config.trace) {
    // The untraced reference pass runs first, in a child process, so both
    // passes start from the same process-wide state (the engine numbers its
    // broadcast temp tables process-wide, and those names cross the wire).
    MIP_ASSIGN_OR_RETURN(PassSummary plain, RunUntracedInChild(config, plan));
    Tracer tracer;
    MIP_ASSIGN_OR_RETURN(pass, RunPass(config, plan, &tracer, 1));
    failures = plain.failures;
    if (pass.wire_bytes != plain.wire_bytes) {
      failures.push_back("traced run moved " + std::to_string(pass.wire_bytes) +
                         " wire bytes, untraced " + std::to_string(plain.wire_bytes));
    }
    for (size_t i = 0; i < plan.timed.size(); ++i) {
      if (AnswerBytes(pass.records[i]) != plain.answers.at(i)) {
        failures.push_back("traced answer differs from untraced: op " +
                           std::to_string(i + 1) + " (" + plan.timed[i].cls + ")");
      }
    }
    untraced_wall_s = plain.wall_s;
  } else {
    MIP_ASSIGN_OR_RETURN(pass, RunPass(config, plan, nullptr, config.setups));
  }
  failures.insert(failures.end(), pass.failures.begin(), pass.failures.end());
  out.metrics = config.trace ? PerLayer(config, plan, pass, n / untraced_wall_s)
                             : EndToEnd(pass, plan.timed.size());
  for (const OpRecord& r : pass.records) out.failed += r.status.ok() ? 0 : 1;
  out.failed = std::max<int64_t>(out.failed, static_cast<int64_t>(pass.failures.size()));
  out.correct = failures.empty();
  out.notes = ClassBreakdown(plan, pass);
  char line[200];
  std::snprintf(line, sizeof(line),
                "samples=%zu clients=%d wall_s=%.3f wire_kb_per_op=%.4f%s",
                plan.timed.size(), plan.clients, pass.wall_s,
                static_cast<double>(pass.wire_bytes) / 1024.0 / n,
                config.trace ? " (traced)" : "");
  out.notes.push_back(line);
  if (config.trace) {
    std::snprintf(line, sizeof(line),
                  "tracing overhead: traced %.2f ops/s vs untraced %.2f ops/s",
                  n / pass.wall_s, n / untraced_wall_s);
    out.notes.push_back(line);
  }
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    out.notes.push_back("FAILED: " + failures[i]);
  }
  return out;
}

}  // namespace perfbench
