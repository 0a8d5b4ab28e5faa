#ifndef MIP_FEDERATION_MASTER_H_
#define MIP_FEDERATION_MASTER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "engine/database.h"
#include "federation/bus.h"
#include "federation/worker.h"
#include "smpc/cluster.h"

namespace mip::federation {

/// How local results are combined on (or on behalf of) the Master.
enum class AggregationMode {
  /// Remote/merge-table style transfer: local aggregates travel to the
  /// Master in the clear. For non-sensitive data.
  kPlain,
  /// SMPC secure aggregation: workers import secret shares; only the
  /// aggregate (optionally noised) is ever opened.
  kSecure,
};

/// \brief How a session dispatches local-run steps across its workers and
/// what happens when a site is slow or down — the paper's 40+-hospital
/// deployments make stragglers and outages the norm, not the exception.
struct FanoutPolicy {
  /// Workers contacted concurrently per step. 0 = all at once;
  /// 1 = strictly sequential in worker order on the caller's thread (the
  /// determinism baseline for tests).
  int max_concurrency = 0;
  /// Total delivery attempts per worker per step (>= 1). Only transient
  /// failures (Unavailable / IOError) are retried; algorithm errors are
  /// not.
  int max_attempts = 3;
  /// Sleep before retry k is `retry_backoff_ms * 2^(k-1)`.
  double retry_backoff_ms = 1.0;
  /// Each attempt's socket deadline on TCP; a round trip that exceeds it
  /// anyway (the in-process bus cannot preempt a running handler) is
  /// classified Unavailable for the step. 0 disables the deadline. Cleared
  /// on the secure path, where a late reply means shares were already
  /// imported.
  double worker_timeout_ms = 0.0;
  /// Quorum. 0 = strict: every worker must succeed or the step fails
  /// (legacy behavior). N > 0 = degraded mode: the step succeeds if at
  /// least N workers answer; persistent failers are excluded from the rest
  /// of the session and reported.
  size_t min_workers = 0;
};

/// \brief Outcome of one worker's participation in a fan-out step (or,
/// accumulated, in a whole session).
struct WorkerRunReport {
  std::string worker_id;
  Status status;        ///< final status after retries
  int attempts = 0;     ///< deliveries attempted
  double elapsed_ms = 0.0;  ///< wall time across all attempts
};

struct MasterConfig {
  smpc::SmpcConfig smpc;
  uint64_t seed = 0xFEDE7A7E5EEDull;
};

/// \brief Master-side record of a worker living in another OS process: the
/// node id the transport routes by, plus the datasets the site advertises
/// (fed into the Master's availability catalog). The address itself lives
/// in the transport's peer table (net::TcpTransport::AddPeer).
struct RemoteEndpoint {
  std::string worker_id;
  std::vector<std::string> datasets;
};

class MasterNode;

/// \brief One algorithm execution against a set of datasets: a globally
/// unique job id, the participating workers, and the local-run /
/// aggregate primitives of the paper's Figure 2.
class FederationSession {
 public:
  const std::string& job_id() const { return job_id_; }
  const std::vector<std::string>& worker_ids() const { return worker_ids_; }
  size_t num_workers() const { return worker_ids_.size(); }
  MasterNode& master() { return *master_; }

  /// The dataset filter this session was opened with (workers' local steps
  /// read it from the args transfer under key "datasets" if needed).
  const std::vector<std::string>& datasets() const { return datasets_; }

  /// Dispatch/failure policy for this session (FanoutPolicy defaults;
  /// override before running steps).
  const FanoutPolicy& fanout_policy() const { return fanout_; }
  void set_fanout_policy(FanoutPolicy policy) { fanout_ = policy; }

  /// Workers still participating: the original cohort minus the workers a
  /// quorum policy excluded after persistent failures.
  const std::vector<std::string>& active_workers() const {
    return active_worker_ids_;
  }
  /// Workers excluded so far (quorum mode only), in exclusion order.
  const std::vector<std::string>& excluded_workers() const {
    return excluded_workers_;
  }
  /// Session datasets that lost a replica to an exclusion — the
  /// "which hospitals' data is missing from this result" report.
  std::vector<std::string> ExcludedDatasets() const;

  /// Per-worker outcome of the most recent fan-out step, in the step's
  /// worker order.
  const std::vector<WorkerRunReport>& last_reports() const {
    return last_reports_;
  }
  /// Per-worker totals accumulated over every step of this session
  /// (attempts and wall time summed, status = latest), in original worker
  /// order.
  std::vector<WorkerRunReport> CumulativeReports() const;

  /// Runs the named local step on every participating worker, returning
  /// each worker's transfer (plain path).
  Result<std::vector<TransferData>> LocalRun(const std::string& func,
                                             const TransferData& args);

  /// Runs the named local step on every worker and aggregates the
  /// transfers: kPlain sums on the Master; kSecure routes the values
  /// through the SMPC cluster (only shares cross the network) with optional
  /// in-protocol DP noise.
  Result<TransferData> LocalRunAndAggregate(
      const std::string& func, const TransferData& args, AggregationMode mode,
      const smpc::NoiseSpec& noise = smpc::NoiseSpec());

  /// Secure aggregation with a non-sum SMPC op (min/max/product/union) over
  /// a single named vector produced by the local step.
  Result<std::vector<double>> LocalRunSecureOp(const std::string& func,
                                               const TransferData& args,
                                               const std::string& vector_key,
                                               smpc::SmpcOp op);

 private:
  friend class MasterNode;
  FederationSession(MasterNode* master, std::string job_id,
                    std::vector<std::string> worker_ids,
                    std::vector<std::string> datasets)
      : master_(master),
        job_id_(std::move(job_id)),
        worker_ids_(std::move(worker_ids)),
        datasets_(std::move(datasets)),
        active_worker_ids_(worker_ids_) {}

  std::string NextSmpcJobId() {
    return job_id_ + "/step" + std::to_string(step_counter_++);
  }

  /// Dispatches one local-run step (`msg_type` is "local_run" or
  /// "local_run_secure") to every active worker according to `policy`:
  /// OrderedFanOut over the Master's thread pool, one MasterNode::SendToSite
  /// per worker (retries, backoff, deadline), then quorum evaluation.
  /// Returns the surviving workers' transfers in worker order; updates
  /// last_reports()/excluded_workers()/active_workers().
  Result<std::vector<TransferData>> FanOutLocalRun(const char* msg_type,
                                                   const std::string& func,
                                                   const std::string& smpc_job,
                                                   const TransferData& args,
                                                   const FanoutPolicy& policy);

  MasterNode* master_;
  std::string job_id_;
  std::vector<std::string> worker_ids_;
  std::vector<std::string> datasets_;
  FanoutPolicy fanout_;
  std::vector<std::string> active_worker_ids_;
  std::vector<std::string> excluded_workers_;
  std::vector<WorkerRunReport> last_reports_;
  std::map<std::string, WorkerRunReport> cumulative_;
  int step_counter_ = 0;
};

/// \brief The Master node: governs worker communication, tracks dataset
/// availability for algorithm shipping, orchestrates algorithm flows, and
/// merges aggregates. Also hosts a local engine instance (the paper:
/// "it is also possible to perform computations locally as well"), whose
/// REMOTE tables it serves as the engine's RemoteSite.
class MasterNode : public engine::RemoteSite {
 public:
  explicit MasterNode(MasterConfig config = MasterConfig());

  /// The local engine's one remote call path: encodes `request` as the
  /// envelope RemoteKindName(kind) names and sends it to `location` through
  /// SendToSite with one attempt and no deadline, then decodes the reply
  /// table.
  Result<engine::Table> Call(const std::string& location,
                             const engine::RemoteRequest& request) override;

  MessageBus& bus() { return bus_; }
  /// Transport carrying session fan-outs and remote-table traffic. Defaults
  /// to the in-process bus; point it at a net::TcpTransport (with a peer per
  /// remote worker) to run the federation across OS processes. Swap only
  /// while no traffic is in flight.
  net::Transport& transport() { return *transport_; }
  void set_transport(net::Transport* transport) {
    transport_ = transport != nullptr ? transport : &bus_;
  }
  smpc::SmpcCluster& smpc() { return smpc_; }
  /// Shared worker pool for session fan-outs; created on first use, sized
  /// for latency-bound dispatch (requests mostly wait on simulated links).
  ThreadPool& pool();
  engine::Database& local_db() { return local_db_; }
  const MasterConfig& config() const { return config_; }
  std::shared_ptr<LocalFunctionRegistry> functions() { return functions_; }

  /// Creates a worker, attaches it to the bus and the SMPC cluster.
  Result<WorkerNode*> AddWorker(const std::string& worker_id);

  /// Declares a worker that runs in another process (an `mip_worker`
  /// daemon). Its datasets enter the availability catalog so sessions can
  /// route to it; the transport must know the peer's address. Remote
  /// workers support the plain aggregation paths — the secure path needs
  /// the in-process SMPC cluster and reports its error if attempted.
  Status AddRemoteWorker(const std::string& worker_id,
                         const std::vector<std::string>& datasets);
  const std::map<std::string, RemoteEndpoint>& remote_workers() const {
    return remote_workers_;
  }

  WorkerNode* GetWorker(const std::string& worker_id);
  size_t num_workers() const {
    return workers_.size() + remote_workers_.size();
  }

  /// Loads a dataset onto a worker and records availability in the catalog.
  Status LoadDataset(const std::string& worker_id,
                     const std::string& dataset_name, engine::Table data);

  /// Workers holding (any of) the requested datasets — the Master's
  /// dataset-availability tracking for efficient algorithm shipping.
  std::vector<std::string> WorkersWithDatasets(
      const std::vector<std::string>& datasets) const;

  /// Opens a session over the workers that hold the requested datasets
  /// (all workers when `datasets` is empty). Generates the globally unique
  /// job id used to index local state and SMPC shares.
  Result<FederationSession> StartSession(
      const std::vector<std::string>& datasets = {});

  /// Builds, on the Master's local engine, a REMOTE table per participating
  /// worker plus a MERGE table over them — the non-secure data-aggregation
  /// machinery. Returns the merge-table name.
  Result<std::string> CreateFederatedView(const std::string& dataset_name);

 private:
  friend class FederationSession;

  /// Decodes an accepted reply and returns its fixed-width size.
  using ReplyDecoder =
      std::function<Result<uint64_t>(const std::vector<uint8_t>&)>;

  /// The Master's one send loop to a site: sends `payload` as a `type`
  /// envelope to `to` under `policy` (transient-only retries with backoff,
  /// worker_timeout_ms as socket deadline and post-hoc check), decodes the
  /// accepted reply once, then meters both directions in the codec ledger
  /// (the request only if `raw_request_bytes` > 0). `*attempts`, if given,
  /// gets the deliveries tried.
  Status SendToSite(const std::string& to, const std::string& type,
                    const std::string& job_id, std::vector<uint8_t> payload,
                    uint64_t raw_request_bytes, const FanoutPolicy& policy,
                    const ReplyDecoder& decode, int* attempts);

  MasterConfig config_;
  MessageBus bus_;
  net::Transport* transport_ = &bus_;
  smpc::SmpcCluster smpc_;
  engine::Database local_db_;
  std::shared_ptr<LocalFunctionRegistry> functions_;
  std::vector<std::unique_ptr<WorkerNode>> workers_;
  std::map<std::string, RemoteEndpoint> remote_workers_;
  std::map<std::string, std::vector<std::string>> catalog_;  // dataset->workers
  Rng rng_;
  int64_t job_counter_ = 0;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mip::federation

#endif  // MIP_FEDERATION_MASTER_H_
