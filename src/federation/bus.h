#ifndef MIP_FEDERATION_BUS_H_
#define MIP_FEDERATION_BUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/transport.h"

namespace mip::federation {

class FaultInjector;

/// The federation layer's message and accounting types are the transport
/// layer's: the same Envelope rides the in-process bus and the TCP
/// transport (src/net).
using Envelope = net::Envelope;
using NetworkStats = net::NetworkStats;

/// \brief In-process implementation of net::Transport connecting the Master,
/// the Workers and the SMPC cluster front end (the Celery/RabbitMQ
/// stand-in, and the determinism baseline the TCP transport is checked
/// against).
///
/// Every payload that crosses a node boundary goes through Send() as
/// serialized bytes — there is no back door — so the byte counts are honest
/// and "only aggregated, encrypted data leaves the hospital" is checkable
/// in tests by inspecting the traffic log.
///
/// Send() is safe to call from many threads at once (the Master fans
/// local-run requests out concurrently); handlers for distinct endpoints
/// run in parallel, outside the bus lock. RegisterEndpoint() is also
/// locked, but topology is expected to be set up before traffic starts.
class MessageBus : public net::Transport {
 public:
  using Handler = net::Transport::Handler;

  /// Registers an endpoint (node id must be unique).
  Status RegisterEndpoint(const std::string& node_id,
                          Handler handler) override;

  /// Sends a request and returns the reply payload. Both directions are
  /// metered; a request lost to fault injection meters the request bytes
  /// only (they did leave the sender). Envelope::deadline_ms is ignored:
  /// the in-process bus cannot preempt a running handler, so deadlines
  /// stay cooperative (enforced by the session after the reply).
  Result<std::vector<uint8_t>> Send(Envelope envelope) override;

  /// Totals across all links (copied under the bus lock).
  NetworkStats stats() const override;
  /// Per-link accounting keyed "from->to". The sum over links equals
  /// stats() — the invariant the concurrency property test checks.
  std::map<std::string, NetworkStats> link_stats() const override;
  void ResetStats() override;

  /// Optional fault-injection hook consulted before every delivery. Not
  /// owned; pass nullptr to detach. Set while no traffic is in flight.
  void set_fault_hook(net::FaultHook* hook) override { injector_ = hook; }
  /// Legacy spelling kept for the fault-injection suites.
  void set_fault_injector(FaultInjector* injector);

  void MeterCodec(const std::string& from, const std::string& to,
                  uint64_t raw_bytes, uint64_t wire_bytes) override;

  /// Log of (from, to, type, sizes) for traffic-audit tests. Only metadata
  /// and byte counts are retained — never payload bytes — so the log stays
  /// O(#messages) even for large-cohort transfers.
  struct LogEntry {
    std::string from;
    std::string to;
    std::string type;
    uint64_t request_bytes;
    uint64_t reply_bytes;
  };
  /// Snapshot of the traffic log. Entries are appended in delivery-
  /// completion order under concurrency.
  std::vector<LogEntry> log() const;
  void ClearLog();
  /// When false (default) the log is not kept (hot paths stay cheap).
  void set_keep_log(bool keep);

 private:
  mutable std::mutex mu_;
  std::map<std::string, Handler> endpoints_;
  NetworkStats stats_;
  std::map<std::string, NetworkStats> link_stats_;
  std::vector<LogEntry> log_;
  bool keep_log_ = false;
  net::FaultHook* injector_ = nullptr;
};

}  // namespace mip::federation

#endif  // MIP_FEDERATION_BUS_H_
