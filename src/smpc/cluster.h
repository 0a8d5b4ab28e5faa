#ifndef MIP_SMPC_CLUSTER_H_
#define MIP_SMPC_CLUSTER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "smpc/fixed_point.h"
#include "smpc/noise.h"
#include "smpc/shamir.h"
#include "smpc/spdz.h"

namespace mip::smpc {

/// Which secret-sharing scheme the cluster runs — the paper's two security
/// modes: full threshold (active security with abort, slow) and Shamir
/// (honest-but-curious, fast). Data owners pick per the
/// security-efficiency trade-off.
enum class SmpcScheme { kFullThreshold, kShamir };

/// Aggregations the SMPC engine supports (paper: "sum, multiplication,
/// min/max operation and disjoint union").
enum class SmpcOp { kSum, kProduct, kMin, kMax, kUnion };

/// One cluster's protocol settings (its thread pool is installed with
/// SmpcCluster::set_pool).
struct SmpcConfig {
  SmpcScheme scheme = SmpcScheme::kFullThreshold;
  int num_nodes = 3;
  /// Shamir threshold t (ignored for full threshold). Default n/3.
  int threshold = 1;
  int frac_bits = 20;
  uint64_t seed = 0x51B2C3D4E5F60718ull;
  /// Simulated network model for reported latency: per-round RTT and
  /// throughput on each link.
  double round_latency_ms = 2.0;
  double bandwidth_mbps = 100.0;
};

/// Communication/computation accounting for one cluster (reset-able). The
/// FT-vs-Shamir benchmark (experiment E4) reads these. Byte counts on the
/// share-distribution path are measured from the columnar wire encoding
/// (smpc/wire.h), not estimated.
struct SmpcCostStats {
  uint64_t bytes_transferred = 0;
  uint64_t rounds = 0;
  uint64_t field_mults = 0;
  uint64_t triples_consumed = 0;
  uint64_t wire_blocks = 0;      ///< columnar blocks shipped
  double online_seconds = 0.0;   ///< measured wall time of online phase
  double offline_seconds = 0.0;  ///< measured wall time of preprocessing

  /// Per-op wall-time distributions (milliseconds, log-linear buckets) —
  /// rendered in the gateway /metrics text.
  LatencyHistogram share_ms;        ///< secure import (share + distribute)
  LatencyHistogram triple_ms;       ///< Beaver triple generation batches
  LatencyHistogram online_ms;       ///< Compute() calls end-to-end
  LatencyHistogram reconstruct_ms;  ///< final open / reconstruction

  /// Latency the simulated network model assigns to the traffic so far.
  double SimulatedNetworkSeconds(const SmpcConfig& config) const;
};

/// \brief The SMPC cluster: a set of computing nodes, decoupled from the
/// data-owning Workers, that aggregate secret-shared vectors.
///
/// Usage mirrors the paper's flow: a computation gets a globally unique job
/// id; Workers secure-import their local vectors under that id
/// (ImportShares — each entry is secret-shared and each node receives only
/// its share); the Master signals Compute; the result is retrieved
/// asynchronously by job id (GetResult).
///
/// The nodes are simulated in-process but the protocol structure is real:
/// per-node share storage, explicit openings, MAC checks (FT), resharing
/// rounds (Shamir), and byte/round accounting on every exchange. Share
/// storage is SoA (SpdzMatrix / per-node limb vectors) and every operation
/// runs one whole vector at a time through the field_vec kernels; the scalar
/// SPDZ/Shamir primitives are the reference the property tests hold those
/// kernels to, and a plaintext oracle pins the cluster's opened results.
class SmpcCluster {
 public:
  explicit SmpcCluster(SmpcConfig config);

  const SmpcConfig& config() const { return config_; }

  /// Installs (or clears) the thread pool the kernels split large vectors
  /// over. Not owned; null runs single-threaded. Safe to call between
  /// operations; chunking is deterministic, so it never changes results.
  void set_pool(ThreadPool* pool) {
    std::lock_guard<std::mutex> lock(mu_);
    pool_ = pool;
  }

  /// Runs the offline phase: pre-generates Beaver triples (full threshold
  /// only; Shamir needs none). Time lands in stats().offline_seconds.
  void PrecomputeTriples(size_t count);

  /// Secure importation of one Worker's vector under `job_id`. May be
  /// called once per contributing Worker; contributions are aggregated by
  /// Compute. Values are fixed-point encoded and secret-shared; node k only
  /// ever stores its own share. The share matrix ships as columnar wire
  /// blocks (smpc/wire.h) whose measured sizes land in the cost stats.
  Status ImportShares(const std::string& job_id,
                      const std::vector<double>& values);

  /// Runs `op` over all contributions of `job_id` (elementwise across
  /// contributions for sum/product/min/max; concatenation for union),
  /// optionally injecting DP noise inside the protocol, and stores the
  /// opened result for asynchronous retrieval. Contributions of unequal
  /// length are an InvalidArgument for every op but union.
  Status Compute(const std::string& job_id, SmpcOp op,
                 const NoiseSpec& noise = NoiseSpec());

  /// Retrieves the result of a finished computation.
  Result<std::vector<double>> GetResult(const std::string& job_id) const;

  /// Number of contributions imported under a job id.
  size_t NumContributions(const std::string& job_id) const;

  /// Security-experiment hook: additively corrupts node `node`'s share of
  /// element `index` in contribution `contribution` of `job_id`. Full
  /// threshold detects this at opening (Compute returns SecurityError);
  /// Shamir silently produces a wrong result — demonstrating the threat
  /// model gap the paper describes.
  Status TamperWithShare(int node, const std::string& job_id,
                         size_t contribution, size_t index, uint64_t delta);

  SmpcCostStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = SmpcCostStats();
  }

  /// Prometheus-style text block for the gateway /metrics endpoint:
  /// counters plus the per-op latency histogram summaries.
  std::string MetricsText() const;

 private:
  struct FtJob {
    // contributions[c] is a party-major SoA share matrix.
    std::vector<SpdzMatrix> contributions;
  };
  struct ShamirJob {
    std::vector<std::vector<std::vector<uint64_t>>> contributions;
  };

  VecExec Exec() const { return {pool_, 16384}; }

  /// Element count of each contribution imported under `job_id`.
  std::vector<size_t> ContributionLengths(const std::string& job_id) const;

  Status ComputeFt(const std::string& job_id, SmpcOp op,
                   const NoiseSpec& noise);
  Status ComputeShamir(const std::string& job_id, SmpcOp op,
                       const NoiseSpec& noise);

  // Secure elementwise min/max over two FT sharings via the blinded-sign
  // comparison protocol (leaks only the comparison outcome): all elements'
  // blinded differences open together, one comparison round per
  // contribution.
  Result<SpdzMatrix> MinMaxFtVec(const SpdzMatrix& x, const SpdzMatrix& y,
                                 bool want_min);

  /// Measured wire bytes for distributing one party-major share matrix
  /// (values + MACs per node), accumulating stats_.wire_blocks.
  uint64_t MeasureFtWire(const SpdzMatrix& m);
  uint64_t MeasureShamirWire(const std::vector<std::vector<uint64_t>>& m);

  void AccountTransfer(uint64_t bytes, uint64_t rounds);

  /// Serializes all cluster state. Workers import shares concurrently
  /// during the Master's fan-out, so every public entry point locks; the
  /// aggregation ops in use on that path (elementwise modular sums) are
  /// order-independent, which keeps concurrent results byte-identical to
  /// sequential ones.
  mutable std::mutex mu_;
  SmpcConfig config_;
  ThreadPool* pool_ = nullptr;
  Rng rng_;
  FixedPointCodec codec_;
  SpdzDealer dealer_;
  ShamirScheme shamir_;
  std::map<std::string, FtJob> ft_jobs_;
  std::map<std::string, ShamirJob> shamir_jobs_;
  std::map<std::string, std::vector<double>> results_;
  SmpcCostStats stats_;
};

}  // namespace mip::smpc

#endif  // MIP_SMPC_CLUSTER_H_
