#ifndef MIP_NET_SOCKET_H_
#define MIP_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace mip::net {

/// \brief Move-only RAII wrapper over a POSIX TCP socket with deadline-aware
/// I/O (non-blocking fd + poll), the primitive under TcpTransport.
///
/// Error mapping feeds the federation retry machinery: deadline expiry
/// returns Unavailable (the peer may still be alive — retryable), while
/// connection resets / EOF / refused connections return IOError or
/// Unavailable depending on whether the peer was ever reached. All timeouts
/// are milliseconds; <= 0 blocks indefinitely.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept
      : fd_(other.fd_), peer_closed_(other.peer_closed_) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      peer_closed_ = other.peer_closed_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// Dials host:port (numeric IPv4 or "localhost") within the deadline.
  /// The returned socket is connected, non-blocking, with TCP_NODELAY set.
  static Result<Socket> ConnectTcp(const std::string& host, int port,
                                   double timeout_ms);

  /// Binds and listens on host:port (port 0 picks an ephemeral port; read it
  /// back with BoundPort).
  static Result<Socket> ListenTcp(const std::string& host, int port,
                                  int backlog = 64);

  /// Accepts one connection, waiting at most `timeout_ms`. Unavailable on
  /// timeout (callers poll in a loop so listeners can shut down cleanly).
  /// Transient per-connection failures (EINTR, a connection aborted while
  /// queued in the backlog) are also Unavailable — only listener-level
  /// failures (fd exhaustion and the like) surface as IOError.
  Result<Socket> Accept(double timeout_ms);

  /// Non-blocking accept for event loops: Unavailable when the backlog is
  /// drained (or a queued connection aborted), IOError on listener-level
  /// failures. Never waits.
  Result<Socket> TryAccept();

  /// Port this socket is bound to (listener side).
  Result<int> BoundPort() const;

  /// Writes exactly `n` bytes within the deadline.
  Status SendAll(const uint8_t* data, size_t n, double timeout_ms);

  /// Reads 1..n bytes within the deadline. IOError("peer closed") on EOF.
  Result<size_t> RecvSome(uint8_t* out, size_t n, double timeout_ms);

  /// Non-blocking read for event loops: 1..n bytes, Unavailable when the
  /// socket has nothing buffered, IOError("peer closed ...") on EOF.
  Result<size_t> TryRecv(uint8_t* out, size_t n);

  /// Non-blocking write for event loops: returns bytes written (possibly
  /// short), Unavailable when the kernel send buffer is full.
  Result<size_t> TrySend(const uint8_t* data, size_t n);

  void Close();
  bool valid() const { return fd_ >= 0; }
  /// True once a read met EOF or a read or write failed with ECONNRESET or
  /// EPIPE: the peer closed this connection.
  bool peer_closed() const { return peer_closed_; }
  int fd() const { return fd_; }

 private:
  /// Records a failed send()/recv() errno and returns it as IOError.
  Status Failed(const char* op);

  int fd_ = -1;
  bool peer_closed_ = false;
};

}  // namespace mip::net

#endif  // MIP_NET_SOCKET_H_
