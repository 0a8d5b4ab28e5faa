#include "net/tcp_transport.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace mip::net {

namespace {
EpollServerOptions ServerOptions(const TcpTransportOptions& options) {
  EpollServerOptions server;
  server.bind_host = options.bind_host;
  server.max_frame_payload = options.max_frame_payload;
  server.serve_threads = options.serve_threads;
  server.read_deadline_ms = options.read_deadline_ms;
  server.max_connections = options.max_connections;
  return server;
}
}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)), server_(ServerOptions(options_)) {}

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
  FrameDecoder decoder(options_.max_frame_payload);
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

void TcpTransport::MeterRequestOnly(const Envelope& envelope,
                                    uint64_t wire_bytes) {
  const std::string link = envelope.from + "->" + envelope.to;
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.messages += 1;
  stats_.bytes += wire_bytes;
  link_stats_[link].messages += 1;
  link_stats_[link].bytes += wire_bytes;
}

void TcpTransport::MeterCodec(const std::string& from, const std::string& to,
                              uint64_t raw_bytes, uint64_t wire_bytes) {
  const std::string link = from + "->" + to;
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.bytes_raw += raw_bytes;
  stats_.bytes_wire += wire_bytes;
  link_stats_[link].bytes_raw += raw_bytes;
  link_stats_[link].bytes_wire += wire_bytes;
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
      MeterRequestOnly(envelope, frame.size());
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
      MeterRequestOnly(envelope, frame.size());
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
    MeterRequestOnly(envelope, frame.size());
    return rt;
  }

  const double wall = rtt.ElapsedMillis();
  {
    const std::string link = envelope.from + "->" + envelope.to;
    const std::string reverse = envelope.to + "->" + envelope.from;
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.messages += 2;
    stats_.bytes += frame.size() + reply_wire_bytes;
    stats_.round_trips += 1;
    stats_.wall_ms += wall;
    NetworkStats& fwd = link_stats_[link];
    fwd.messages += 1;
    fwd.bytes += frame.size();
    fwd.round_trips += 1;
    fwd.wall_ms += wall;
    NetworkStats& rev = link_stats_[reverse];
    rev.messages += 1;
    rev.bytes += reply_wire_bytes;
    link_hist_[link].Record(wall);
  }

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

NetworkStats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::map<std::string, NetworkStats> TcpTransport::link_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return link_stats_;
}

std::map<std::string, LatencyHistogram> TcpTransport::link_histograms() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return link_hist_;
}

void TcpTransport::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = NetworkStats();
  link_stats_.clear();
  link_hist_.clear();
}

void TcpTransport::Shutdown() {
  if (stopping_.exchange(true)) return;
  server_.Shutdown();
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& [id, peer] : peers_) peer.idle.clear();
}

}  // namespace mip::net
