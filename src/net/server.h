#ifndef MIP_NET_SERVER_H_
#define MIP_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"

namespace mip::net {

struct EpollServerOptions {
  std::string bind_host = "127.0.0.1";
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Handler threads. Frames decoded on the loop thread are dispatched to
  /// this pool so a slow handler (remote SQL, big aggregation) never stalls
  /// other connections; 0 runs handlers inline on the loop thread.
  int serve_threads = 4;
  /// A connection that has buffered part of a frame but not completed it
  /// within this budget is evicted (slow-loris defense and stuck-client
  /// reaper). 0 disables. Healthy idle connections — no partial frame —
  /// are never evicted.
  double read_deadline_ms = 0.0;
  /// Accepted-connection ceiling; beyond it new connections are closed
  /// immediately (counted in Stats::rejected_overload).
  size_t max_connections = 4096;
  /// Complete frames queued behind an in-flight handler, per connection
  /// (requests pipeline; replies stay in request order). Beyond this the
  /// connection is dropped as abusive.
  size_t max_pipeline = 128;
  int listen_backlog = 256;
};

/// \brief Epoll event-loop frame server: multiplexes many client
/// connections on one loop thread with per-connection incremental
/// FrameDecoder state, replacing the thread-per-connection serve path.
///
/// Responsibilities: accept (with transient-error retry/backoff), framed
/// request decode, handler dispatch on a bounded pool with in-order replies
/// per connection, buffered non-blocking writes, and deadline eviction of
/// stalled readers. Corrupt streams (bad magic/version/CRC, oversized
/// length) drop only the offending connection.
///
/// Endpoint semantics match the transports: a handler consumes an Envelope
/// and returns reply bytes.
class EpollServer {
 public:
  using Handler = Transport::Handler;

  struct Stats {
    uint64_t accepted = 0;
    uint64_t active = 0;            ///< currently open connections
    uint64_t frames_served = 0;     ///< requests answered (incl. errors)
    uint64_t evicted_deadline = 0;  ///< closed by the read deadline
    uint64_t dropped_corrupt = 0;   ///< closed on a corrupt/oversized frame
    uint64_t rejected_overload = 0; ///< closed at accept (connection cap)
  };

  explicit EpollServer(EpollServerOptions options = EpollServerOptions());
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Registers an endpoint by node id (routing key of Envelope::to).
  /// Allowed before or after Listen.
  Status RegisterEndpoint(const std::string& node_id, Handler handler);

  /// Binds, listens (port 0 = ephemeral) and starts the loop thread.
  Status Listen(int port);
  int port() const { return port_; }

  /// Stops the loop, drains in-flight handlers, closes every connection.
  /// Idempotent; called by the destructor.
  void Shutdown();

  Stats stats() const;

 private:
  struct Conn {
    Socket sock;
    FrameDecoder decoder;
    /// Complete frame payloads awaiting dispatch.
    std::deque<std::vector<uint8_t>> inbox;
    bool busy = false;      ///< a handler for this connection is in flight
    bool dead = false;      ///< closed; late handler completions drop out
    bool want_write = false;
    std::vector<uint8_t> outbox;
    size_t out_pos = 0;
    /// Running while a partial frame is buffered (read-deadline basis).
    Stopwatch stall;
    bool stalled = false;

    explicit Conn(Socket s, size_t max_payload)
        : sock(std::move(s)), decoder(max_payload) {}
  };

  void OnAcceptable();
  void OnConnEvent(int fd, uint32_t events);
  void ReadConn(const std::shared_ptr<Conn>& conn);
  void Pump(const std::shared_ptr<Conn>& conn);
  void DispatchNext(const std::shared_ptr<Conn>& conn);
  void FinishFrame(const std::shared_ptr<Conn>& conn,
                   std::vector<uint8_t> reply_frame);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void EvictStalled();
  /// Full request processing for one frame: envelope decode, handler
  /// dispatch, reply framing. Runs on a pool thread (or inline) — touches
  /// no connection state.
  std::vector<uint8_t> HandleFrame(const std::vector<uint8_t>& payload);

  EpollServerOptions options_;
  EventLoop loop_;
  Socket listener_;
  int port_ = 0;
  bool listening_ = false;
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<ThreadPool> pool_;

  /// Loop-thread state: open connections by fd, and whether the listener is
  /// muted after an fd-exhaustion accept failure (the tick re-arms it).
  std::map<int, std::shared_ptr<Conn>> conns_;
  bool accept_paused_ = false;

  std::mutex handlers_mu_;
  std::map<std::string, Handler> handlers_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace mip::net

#endif  // MIP_NET_SERVER_H_
