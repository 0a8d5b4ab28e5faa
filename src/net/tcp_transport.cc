#include "net/tcp_transport.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace mip::net {

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)), server_(options_.server) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Listen(int port) { return server_.Listen(port); }

void TcpTransport::AddPeer(const std::string& node_id,
                           const std::string& host, int port) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  Peer& peer = peers_[node_id];
  peer.host = host;
  peer.port = port;
  peer.idle.clear();  // stale connections to an old address are useless
}

bool TcpTransport::HasPeer(const std::string& node_id) const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peers_.count(node_id) > 0;
}

Status TcpTransport::RegisterEndpoint(const std::string& node_id,
                                      Handler handler) {
  // Endpoint serving lives entirely in the epoll server: frame decode,
  // handler dispatch, reply framing.
  return server_.RegisterEndpoint(node_id, std::move(handler));
}

Status TcpTransport::RoundTrip(Socket* sock,
                               const std::vector<uint8_t>& frame,
                               double timeout_ms,
                               std::vector<uint8_t>* reply_payload,
                               uint64_t* reply_wire_bytes) {
  Stopwatch sw;
  MIP_RETURN_NOT_OK(sock->SendAll(frame.data(), frame.size(), timeout_ms));
  FrameDecoder decoder(options_.server.max_frame_payload);
  uint8_t chunk[16384];
  for (;;) {
    double remaining = 0.0;
    if (timeout_ms > 0) {
      remaining = timeout_ms - sw.ElapsedMillis();
      if (remaining <= 0) {
        return Status::Unavailable("request deadline of " +
                                   std::to_string(timeout_ms) +
                                   " ms expired");
      }
    }
    MIP_ASSIGN_OR_RETURN(size_t got,
                         sock->RecvSome(chunk, sizeof(chunk), remaining));
    decoder.Feed(chunk, got);
    MIP_ASSIGN_OR_RETURN(bool done, decoder.Next(reply_payload));
    if (done) {
      if (decoder.buffered() != 0) {
        return Status::IOError("unexpected bytes after the reply frame");
      }
      *reply_wire_bytes = kFrameHeaderBytes + reply_payload->size();
      return Status::OK();
    }
  }
}

Result<std::vector<uint8_t>> TcpTransport::Send(Envelope envelope) {
  BufferWriter w;
  EncodeFrame(EncodeEnvelopePayload(envelope), &w);
  const std::vector<uint8_t> frame = w.TakeBytes();

  // Fault injection simulates the wire on the sender, before any bytes
  // leave — identical placement (and therefore identical seeded decision
  // sequences) to the in-process bus.
  if (FaultHook* hook = hook_.load()) {
    Status fault = hook->BeforeDeliver(envelope);
    if (!fault.ok()) {
      MeterRequest(envelope.from, envelope.to, frame.size());
      return fault;
    }
  }

  std::string host;
  int peer_port = 0;
  Socket conn;
  bool pooled = false;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    auto it = peers_.find(envelope.to);
    if (it == peers_.end()) {
      return Status::NotFound("no peer '" + envelope.to +
                              "' registered on the transport");
    }
    host = it->second.host;
    peer_port = it->second.port;
    if (!it->second.idle.empty()) {
      conn = std::move(it->second.idle.back());
      it->second.idle.pop_back();
      pooled = true;
    }
  }

  const double timeout = envelope.deadline_ms > 0 ? envelope.deadline_ms
                                                  : options_.io_timeout_ms;
  Stopwatch rtt;
  if (!conn.valid()) {
    Result<Socket> dialed =
        Socket::ConnectTcp(host, peer_port, options_.connect_timeout_ms);
    if (!dialed.ok()) {
      MeterRequest(envelope.from, envelope.to, frame.size());
      return dialed.status();
    }
    conn = std::move(dialed).MoveValueUnsafe();
  }

  std::vector<uint8_t> reply_payload;
  uint64_t reply_wire_bytes = 0;
  Status rt = RoundTrip(&conn, frame, timeout, &reply_payload,
                        &reply_wire_bytes);
  if (!rt.ok() && pooled) {
    // A pooled connection may have been closed by the peer while idle;
    // retry exactly once on a fresh dial before reporting failure.
    conn.Close();
    Result<Socket> dialed =
        Socket::ConnectTcp(host, peer_port, options_.connect_timeout_ms);
    if (dialed.ok()) {
      conn = std::move(dialed).MoveValueUnsafe();
      reply_payload.clear();
      rt = RoundTrip(&conn, frame, timeout, &reply_payload,
                     &reply_wire_bytes);
    }
  }
  if (!rt.ok()) {
    // The connection state is unknown (a late reply may still arrive);
    // never return it to the pool.
    conn.Close();
    MeterRequest(envelope.from, envelope.to, frame.size());
    return rt;
  }

  MeterRoundTrip(envelope.from, envelope.to, frame.size(), reply_wire_bytes,
                 rtt.ElapsedMillis());

  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    auto it = peers_.find(envelope.to);
    if (it != peers_.end() &&
        it->second.idle.size() < options_.max_idle_per_peer &&
        !stopping_.load()) {
      it->second.idle.push_back(std::move(conn));
    }
  }

  return DecodeReplyPayload(reply_payload);
}

void TcpTransport::Shutdown() {
  if (stopping_.exchange(true)) return;
  server_.Shutdown();
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& [id, peer] : peers_) peer.idle.clear();
}

}  // namespace mip::net
