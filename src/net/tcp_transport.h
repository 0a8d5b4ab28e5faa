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
  /// The server side: bind host (loopback by default: the reproduction
  /// federates processes, not machines), handler threads, read deadline and
  /// connection ceiling. Its max_frame_payload bounds both directions.
  EpollServerOptions server;
  /// Dial deadline for new peer connections.
  double connect_timeout_ms = 2000.0;
  /// Default round-trip deadline per request (Envelope::deadline_ms
  /// overrides it per call; the federation fan-out sets it from
  /// FanoutPolicy::worker_timeout_ms).
  double io_timeout_ms = 10000.0;
  /// Idle connections kept per peer; extras are closed on check-in.
  size_t max_idle_per_peer = 4;
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
/// sequences are identical on both transports. Send() reports frame sizes
/// (header included) to the Transport ledger; a remote error reply is a
/// completed round trip.
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
  void set_fault_hook(FaultHook* hook) override { hook_ = hook; }

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

  TcpTransportOptions options_;
  std::atomic<bool> stopping_{false};

  /// The server side: endpoint registration and Listen() delegate here.
  EpollServer server_;

  mutable std::mutex peers_mu_;
  std::map<std::string, Peer> peers_;

  std::atomic<FaultHook*> hook_{nullptr};
};

}  // namespace mip::net

#endif  // MIP_NET_TCP_TRANSPORT_H_
