#ifndef MIP_NET_TRANSPORT_H_
#define MIP_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"

namespace mip::net {

/// \brief One request crossing a node boundary (Master <-> Worker <-> SMPC
/// front end). The same envelope rides the in-process MessageBus and the
/// TCP transport; only the delivery mechanism differs.
struct Envelope {
  std::string from;
  std::string to;
  std::string type;  ///< message kind (e.g. "local_run", "run_sql")
  std::string job_id;
  std::vector<uint8_t> payload;
  /// Round-trip deadline for this request in milliseconds; 0 uses the
  /// transport's default. Local delivery metadata — never serialized.
  double deadline_ms = 0.0;
};

/// \brief Shared link cost model: per-message latency plus bytes over
/// bandwidth. The single home of the formula previously duplicated between
/// the federation bus and the SMPC cluster report.
double SimulatedLinkSeconds(uint64_t messages, uint64_t bytes,
                            double latency_ms_per_message,
                            double bandwidth_mbps);

/// \brief Per-link traffic accounting. `messages`/`bytes` feed the simulated
/// latency model; `round_trips`/`wall_ms` are measured wall-clock figures
/// (real time spent waiting on the link), so experiments can report the
/// modelled and the observed cost side by side.
struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Completed request/reply pairs charged to this link.
  uint64_t round_trips = 0;
  /// Measured wall-clock across those round trips (TCP: socket round trip;
  /// in-process bus: handler round trip).
  double wall_ms = 0.0;
  /// Codec ledger, fed by Transport::MeterCodec for payloads that went
  /// through the columnar wire codecs: what the fixed-width layout
  /// would have cost vs what actually crossed the link. bytes_wire <=
  /// bytes_raw always (the encoder falls back to raw when compression
  /// would not pay).
  uint64_t bytes_raw = 0;
  uint64_t bytes_wire = 0;

  /// latency-per-message + bytes/bandwidth (the simulated model).
  double SimulatedSeconds(double latency_ms_per_message,
                          double bandwidth_mbps) const {
    return SimulatedLinkSeconds(messages, bytes, latency_ms_per_message,
                                bandwidth_mbps);
  }
  /// raw/wire over the codec-metered traffic; 1.0 when nothing was metered.
  double CompressionRatio() const {
    return bytes_wire > 0
               ? static_cast<double>(bytes_raw) /
                     static_cast<double>(bytes_wire)
               : 1.0;
  }
  /// Measured mean round-trip time, 0 when nothing completed yet.
  double MeanRoundTripMs() const {
    return round_trips > 0 ? wall_ms / static_cast<double>(round_trips) : 0.0;
  }
};

/// \brief Fault-injection hook consulted by every transport before a request
/// leaves the sender. Implementations may sleep (simulated transit delay)
/// and return non-OK to drop the delivery. Keying decisions off the
/// envelope's from/to keeps seeded fault sequences identical across
/// transports.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  virtual Status BeforeDeliver(const Envelope& envelope) = 0;
};

/// \brief Abstract request/reply transport between federation nodes.
///
/// Two implementations exist: the in-process MessageBus (every node in one
/// address space — the test and simulation default) and TcpTransport
/// (length-prefixed binary frames over real sockets, one process per node).
/// Both meter every payload that crosses a node boundary, honor the same
/// FaultHook, and surface delivery failures as retryable Status codes
/// (Unavailable / IOError) so the federation fan-out policy treats them
/// uniformly.
class Transport {
 public:
  /// A handler consumes an envelope and produces a serialized reply payload.
  using Handler = std::function<Result<std::vector<uint8_t>>(const Envelope&)>;

  virtual ~Transport() = default;

  /// Registers a local endpoint (node id must be unique on this transport).
  virtual Status RegisterEndpoint(const std::string& node_id,
                                  Handler handler) = 0;

  /// Sends a request and returns the reply payload. Both directions are
  /// metered; a request lost to fault injection or the wire meters the
  /// request bytes only (they did leave the sender).
  virtual Result<std::vector<uint8_t>> Send(Envelope envelope) = 0;

  /// Totals across all links.
  virtual NetworkStats stats() const = 0;
  /// Per-link accounting keyed "from->to". The messages/bytes sums over
  /// links equal stats() — the invariant the concurrency tests check.
  virtual std::map<std::string, NetworkStats> link_stats() const = 0;
  virtual void ResetStats() = 0;

  /// Measured round-trip latency distributions per link (milliseconds),
  /// keyed like link_stats() by the requesting side "from->to". Feeds the
  /// gateway's /metrics p50/p99/p999 per link. Default: not tracked.
  virtual std::map<std::string, LatencyHistogram> link_histograms() const {
    return {};
  }

  /// Optional fault-injection hook consulted before every delivery. Not
  /// owned; pass nullptr to detach. Set while no traffic is in flight.
  virtual void set_fault_hook(FaultHook* hook) = 0;

  /// Always true: every node speaks frame version 2 and decodes the
  /// columnar wire codecs. Nothing in the library asks any more; the
  /// virtual is kept only so existing transport decorators that forward it
  /// still compile.
  virtual bool SupportsCodecs(const std::string& peer_id) {
    (void)peer_id;
    return true;
  }

  /// Records one codec-encoded payload on the from->to link: `raw_bytes` is
  /// the fixed-width size the payload would have had, `wire_bytes` what
  /// actually crossed. Callers that decode a payload know both sides; the
  /// transport only keeps the ledger. Default: no accounting.
  virtual void MeterCodec(const std::string& from, const std::string& to,
                          uint64_t raw_bytes, uint64_t wire_bytes) {
    (void)from;
    (void)to;
    (void)raw_bytes;
    (void)wire_bytes;
  }
};

}  // namespace mip::net

#endif  // MIP_NET_TRANSPORT_H_
