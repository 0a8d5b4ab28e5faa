#ifndef MIP_NET_TCP_TRANSPORT_H_
#define MIP_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"

namespace mip::net {

struct TcpTransportOptions {
  /// Interface the server side binds to. Loopback by default: the
  /// reproduction federates processes, not machines.
  std::string bind_host = "127.0.0.1";
  /// Dial deadline for new peer connections.
  double connect_timeout_ms = 2000.0;
  /// Default round-trip deadline per request (Envelope::deadline_ms
  /// overrides it per call; the federation fan-out sets it from
  /// FanoutPolicy::worker_timeout_ms).
  double io_timeout_ms = 10000.0;
  /// Idle connections kept per peer; extras are closed on check-in.
  size_t max_idle_per_peer = 4;
  /// Frame payload ceiling for both directions.
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Handler threads of the server side (see EpollServerOptions); requests
  /// from different connections execute concurrently up to this bound.
  int serve_threads = 4;
  /// Server-side eviction budget for connections stuck mid-frame
  /// (EpollServerOptions::read_deadline_ms); 0 disables.
  double read_deadline_ms = 0.0;
  /// Server-side connection ceiling (EpollServerOptions::max_connections).
  size_t max_connections = 4096;
};

/// \brief Real socket implementation of Transport: length-prefixed binary
/// frames (magic + version + CRC32) over TCP, per-peer connection pooling,
/// and connect/send/receive deadlines.
///
/// One TcpTransport can act as client (AddPeer + Send), server (Listen +
/// RegisterEndpoint) or both — a worker daemon listens for the Master while
/// the Master only dials. The server side is an EpollServer: one event-loop
/// thread multiplexes every connection and a bounded pool runs the handlers,
/// so connection count no longer dictates thread count. Requests are
/// synchronous: a pooled connection is checked out for the full round trip,
/// so concurrent Send()s to one peer use distinct connections (up to pool +
/// dial capacity).
///
/// Failure mapping mirrors the in-process bus: deadline expiry and refused
/// connections surface as Unavailable, mid-stream resets as IOError — both
/// retryable by FanoutPolicy — while remote handler errors come back with
/// their original status code and are not retried. The FaultHook runs on
/// the sender before any bytes leave, exactly like the bus, so seeded fault
/// sequences are identical on both transports.
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = TcpTransportOptions());
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Starts the server side on `port` (0 picks an ephemeral port): the
  /// epoll loop thread plus the handler pool. Required only for transports
  /// that host endpoints.
  Status Listen(int port);
  /// Bound port after a successful Listen().
  int port() const { return server_.port(); }
  /// Server-side connection/frame counters (accepted, evicted, ...).
  EpollServer::Stats server_stats() const { return server_.stats(); }

  /// Declares where a remote node lives. Send() routes by Envelope::to.
  void AddPeer(const std::string& node_id, const std::string& host, int port);
  bool HasPeer(const std::string& node_id) const;

  /// Stops the server loop, drains in-flight handlers, closes every socket.
  /// Idempotent; called by the destructor.
  void Shutdown();

  // Transport:
  Status RegisterEndpoint(const std::string& node_id,
                          Handler handler) override;
  Result<std::vector<uint8_t>> Send(Envelope envelope) override;
  NetworkStats stats() const override;
  std::map<std::string, NetworkStats> link_stats() const override;
  std::map<std::string, LatencyHistogram> link_histograms() const override;
  void ResetStats() override;
  void set_fault_hook(FaultHook* hook) override { hook_ = hook; }
  void MeterCodec(const std::string& from, const std::string& to,
                  uint64_t raw_bytes, uint64_t wire_bytes) override;

 private:
  struct Peer {
    std::string host;
    int port = 0;
    std::vector<Socket> idle;
  };

  /// One request/reply over one connection. Fills *reply_wire_bytes with
  /// the framed reply size on success.
  Status RoundTrip(Socket* sock, const std::vector<uint8_t>& frame,
                   double timeout_ms, std::vector<uint8_t>* reply_payload,
                   uint64_t* reply_wire_bytes);
  void MeterRequestOnly(const Envelope& envelope, uint64_t wire_bytes);

  TcpTransportOptions options_;
  std::atomic<bool> stopping_{false};

  /// The server side: endpoint registration and Listen() delegate here.
  EpollServer server_;

  mutable std::mutex peers_mu_;
  std::map<std::string, Peer> peers_;

  mutable std::mutex stats_mu_;
  NetworkStats stats_;
  std::map<std::string, NetworkStats> link_stats_;
  /// Measured round-trip wall time per "from->to" link, milliseconds.
  std::map<std::string, LatencyHistogram> link_hist_;

  std::atomic<FaultHook*> hook_{nullptr};
};

}  // namespace mip::net

#endif  // MIP_NET_TCP_TRANSPORT_H_
