#include "net/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mip::net {

namespace {
/// Complete frames queued behind an in-flight handler, per connection
/// (requests pipeline; replies stay in request order). Beyond this the
/// connection is dropped as abusive.
constexpr size_t kMaxPipeline = 128;
constexpr int kListenBacklog = 256;
}  // namespace

EpollServer::EpollServer(EpollServerOptions options)
    : options_(std::move(options)) {}

EpollServer::~EpollServer() { Shutdown(); }

Status EpollServer::RegisterEndpoint(const std::string& node_id,
                                     Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  if (handlers_.count(node_id) > 0) {
    return Status::AlreadyExists("endpoint '" + node_id +
                                 "' already registered");
  }
  handlers_.emplace(node_id, std::move(handler));
  return Status::OK();
}

Status EpollServer::Listen(int port) {
  if (listening_) {
    return Status::AlreadyExists("server is already listening on port " +
                                 std::to_string(port_));
  }
  MIP_ASSIGN_OR_RETURN(listener_, Socket::ListenTcp(options_.bind_host, port,
                                                    kListenBacklog));
  MIP_ASSIGN_OR_RETURN(port_, listener_.BoundPort());
  if (options_.serve_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.serve_threads);
  }
  MIP_RETURN_NOT_OK(loop_.Init());
  MIP_RETURN_NOT_OK(
      loop_.Add(listener_.fd(), EPOLLIN, [this](uint32_t) { OnAcceptable(); }));
  // Housekeeping tick: the read deadline wants ~4 checks per budget; with no
  // deadline a coarse tick still re-arms accept after fd-exhaustion backoff.
  double tick = 100.0;
  if (options_.read_deadline_ms > 0) {
    tick = std::max(1.0, std::min(100.0, options_.read_deadline_ms / 4.0));
  }
  MIP_RETURN_NOT_OK(loop_.Start(tick, [this] { EvictStalled(); }));
  listening_ = true;
  return Status::OK();
}

void EpollServer::OnAcceptable() {
  for (;;) {
    Result<Socket> accepted = listener_.TryAccept();
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kUnavailable) {
        return;  // backlog drained (or a queued connection aborted)
      }
      // Listener-level failure (EMFILE/ENFILE/ENOBUFS). Level-triggered
      // epoll would re-report the pending connection immediately and spin,
      // so mute the listener and let the housekeeping tick re-arm it — a
      // bounded backoff that keeps serving established connections.
      MIP_LOG(Warning) << "accept failed, backing off: "
                       << accepted.status().ToString();
      (void)loop_.Modify(listener_.fd(), 0);
      accept_paused_ = true;
      return;
    }
    Socket sock = std::move(accepted).MoveValueUnsafe();
    if (conns_.size() >= options_.max_connections) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.rejected_overload += 1;
      continue;  // closed on scope exit; keep draining the backlog
    }
    const int fd = sock.fd();
    auto conn =
        std::make_shared<Conn>(std::move(sock), options_.max_frame_payload);
    conns_[fd] = conn;
    // If this fd number was closed and reused within the current epoll
    // batch, one stale readiness event may dispatch against the new
    // connection — harmless, the non-blocking read just reports EAGAIN.
    Status added = loop_.Add(
        fd, EPOLLIN, [this, fd](uint32_t events) { OnConnEvent(fd, events); });
    if (!added.ok()) {
      conns_.erase(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.accepted += 1;
    stats_.active = conns_.size();
  }
}

void EpollServer::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  std::shared_ptr<Conn> conn = it->second;
  if (events & EPOLLIN) ReadConn(conn);
  if (conn->dead) return;
  if (events & EPOLLOUT) FlushConn(conn);
  if (conn->dead) return;
  if ((events & (EPOLLHUP | EPOLLERR)) && !(events & EPOLLIN)) {
    CloseConn(conn);
  }
}

void EpollServer::ReadConn(const std::shared_ptr<Conn>& conn) {
  uint8_t chunk[16384];
  // Bounded reads per readiness event so one fast sender cannot starve the
  // other connections; level-triggered epoll re-reports leftover bytes.
  for (int i = 0; i < 4; ++i) {
    Result<size_t> got = conn->sock.TryRecv(chunk, sizeof(chunk));
    if (!got.ok()) {
      if (got.status().code() != StatusCode::kUnavailable) {
        CloseConn(conn);  // EOF or a socket error
      }
      break;
    }
    conn->decoder.Feed(chunk, got.ValueOrDie());
    if (got.ValueOrDie() < sizeof(chunk)) break;
  }
  if (!conn->dead) Pump(conn);
}

void EpollServer::Pump(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    std::vector<uint8_t> payload;
    Result<bool> next = conn->decoder.Next(&payload);
    if (!next.ok()) {
      // Corrupt stream (bad magic/version/length/CRC): nothing after it can
      // be trusted; drop only this connection.
      MIP_LOG(Warning) << "dropping connection: " << next.status().ToString();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.dropped_corrupt += 1;
      }
      CloseConn(conn);
      return;
    }
    if (!next.ValueOrDie()) break;
    conn->inbox.push_back(std::move(payload));
  }
  if (conn->inbox.size() > kMaxPipeline) {
    MIP_LOG(Warning) << "dropping connection: pipeline depth "
                     << conn->inbox.size() << " exceeds cap "
                     << kMaxPipeline;
    CloseConn(conn);
    return;
  }
  // The stall clock runs only while a partial frame sits in the decoder and
  // starts when the partial appears — a byte-at-a-time trickle cannot keep
  // resetting it, which is exactly the slow-loris case the deadline evicts.
  if (conn->decoder.buffered() > 0) {
    if (!conn->stalled) {
      conn->stalled = true;
      conn->stall.Reset();
    }
  } else {
    conn->stalled = false;
  }
  DispatchNext(conn);
}

void EpollServer::DispatchNext(const std::shared_ptr<Conn>& conn) {
  if (conn->busy || conn->dead || conn->inbox.empty()) return;
  std::vector<uint8_t> payload = std::move(conn->inbox.front());
  conn->inbox.pop_front();
  conn->busy = true;
  // Only a weak reference crosses the handler boundary: when the client
  // disconnects mid-request the connection is torn down immediately and the
  // late reply is dropped here instead of being written to a reused fd.
  std::weak_ptr<Conn> weak = conn;
  auto work = [this, weak, payload = std::move(payload)]() {
    std::vector<uint8_t> frame = HandleFrame(payload);
    loop_.RunInLoop([this, weak, frame = std::move(frame)]() mutable {
      std::shared_ptr<Conn> live = weak.lock();
      if (!live || live->dead) return;
      live->busy = false;
      FinishFrame(live, std::move(frame));
    });
  };
  if (pool_) {
    pool_->Submit(std::move(work));
  } else {
    work();  // inline mode: runs on the loop thread
  }
}

std::vector<uint8_t> EpollServer::HandleFrame(
    const std::vector<uint8_t>& payload) {
  Status status;
  std::vector<uint8_t> reply;
  Result<Envelope> envelope = DecodeEnvelopePayload(payload);
  if (!envelope.ok()) {
    status = envelope.status();
  } else {
    const Envelope& env = envelope.ValueOrDie();
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(handlers_mu_);
      auto it = handlers_.find(env.to);
      if (it != handlers_.end()) handler = it->second;
    }
    if (!handler) {
      status = Status::NotFound("no endpoint '" + env.to +
                                "' on this transport");
    } else {
      Result<std::vector<uint8_t>> r = handler(env);
      if (r.ok()) {
        reply = std::move(r).MoveValueUnsafe();
      } else {
        status = r.status();
      }
    }
  }
  BufferWriter w;
  EncodeFrame(EncodeReplyPayload(status, reply), &w);
  return w.TakeBytes();
}

void EpollServer::FinishFrame(const std::shared_ptr<Conn>& conn,
                              std::vector<uint8_t> reply_frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.frames_served += 1;
  }
  conn->outbox.insert(conn->outbox.end(), reply_frame.begin(),
                      reply_frame.end());
  FlushConn(conn);
  if (!conn->dead) DispatchNext(conn);  // next pipelined request, in order
}

void EpollServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  while (conn->out_pos < conn->outbox.size()) {
    Result<size_t> sent = conn->sock.TrySend(
        conn->outbox.data() + conn->out_pos,
        conn->outbox.size() - conn->out_pos);
    if (!sent.ok()) {
      if (sent.status().code() == StatusCode::kUnavailable) {
        // Kernel send buffer full: finish when EPOLLOUT fires.
        if (!conn->want_write) {
          conn->want_write = true;
          (void)loop_.Modify(conn->sock.fd(), EPOLLIN | EPOLLOUT);
        }
        return;
      }
      CloseConn(conn);
      return;
    }
    conn->out_pos += sent.ValueOrDie();
  }
  conn->outbox.clear();
  conn->out_pos = 0;
  if (conn->want_write) {
    conn->want_write = false;
    (void)loop_.Modify(conn->sock.fd(), EPOLLIN);
  }
}

void EpollServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  loop_.Remove(conn->sock.fd());
  conns_.erase(conn->sock.fd());
  conn->sock.Close();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.active = conns_.size();
}

void EpollServer::EvictStalled() {
  if (accept_paused_) {
    accept_paused_ = false;
    (void)loop_.Modify(listener_.fd(), EPOLLIN);
  }
  if (options_.read_deadline_ms <= 0) return;
  std::vector<std::shared_ptr<Conn>> stalled;
  for (const auto& [fd, conn] : conns_) {
    if (conn->stalled &&
        conn->stall.ElapsedMillis() >= options_.read_deadline_ms) {
      stalled.push_back(conn);
    }
  }
  for (const auto& conn : stalled) {
    MIP_LOG(Warning) << "evicting stalled connection: partial frame older "
                     << "than " << options_.read_deadline_ms << " ms";
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.evicted_deadline += 1;
    }
    CloseConn(conn);
  }
}

void EpollServer::Shutdown() {
  if (shutdown_.exchange(true)) return;
  loop_.Stop();
  // Drains in-flight handlers; their completions are dropped by RunInLoop
  // (the loop is already stopped), never written to dead sockets.
  pool_.reset();
  conns_.clear();
  listener_.Close();
}

EpollServer::Stats EpollServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace mip::net
