#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/stopwatch.h"

namespace mip::net {

namespace {

Status Errno(const std::string& op) {
  return Status::IOError(op + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Result<sockaddr_in> ResolveV4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host + "'");
  }
  return addr;
}

/// Waits for `events` on fd. Returns OK when ready, Unavailable on deadline.
Status PollFor(int fd, short events, double timeout_ms, const char* what) {
  pollfd p{fd, events, 0};
  const int t = timeout_ms <= 0
                    ? -1
                    : static_cast<int>(timeout_ms < 1.0 ? 1 : timeout_ms);
  for (;;) {
    const int rc = poll(&p, 1, t);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::Unavailable(std::string(what) + " deadline expired");
    }
    if (errno != EINTR) return Errno("poll");
  }
}

/// Remaining budget given a started stopwatch; <=0 total means "no deadline".
double Remaining(double timeout_ms, const Stopwatch& sw) {
  if (timeout_ms <= 0) return 0.0;
  const double left = timeout_ms - sw.ElapsedMillis();
  // Clamp to a floor of 1ms so we always make one poll attempt; the
  // deadline check below catches true expiry.
  return left < 1.0 ? 1.0 : left;
}

bool Expired(double timeout_ms, const Stopwatch& sw) {
  return timeout_ms > 0 && sw.ElapsedMillis() >= timeout_ms;
}

}  // namespace

Result<Socket> Socket::ConnectTcp(const std::string& host, int port,
                                  double timeout_ms) {
  MIP_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  MIP_RETURN_NOT_OK(SetNonBlocking(fd));
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(errno));
    }
    MIP_RETURN_NOT_OK(PollFor(fd, POLLOUT, timeout_ms, "connect"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return Errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(err));
    }
  }
  return sock;
}

Result<Socket> Socket::ListenTcp(const std::string& host, int port,
                                 int backlog) {
  MIP_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind to port " + std::to_string(port));
  }
  if (listen(fd, backlog) < 0) return Errno("listen");
  MIP_RETURN_NOT_OK(SetNonBlocking(fd));
  return sock;
}

Result<Socket> Socket::Accept(double timeout_ms) {
  MIP_RETURN_NOT_OK(PollFor(fd_, POLLIN, timeout_ms, "accept"));
  return TryAccept();
}

Result<Socket> Socket::TryAccept() {
  int conn;
  do {
    conn = accept(fd_, nullptr, nullptr);
  } while (conn < 0 && errno == EINTR);
  if (conn < 0) {
    // EAGAIN: another accepter won the race / queue drained. ECONNABORTED
    // (and EPROTO on some kernels): the connection died in the backlog.
    // Both are per-connection events, not listener failures — report them
    // retryable so accept loops keep serving instead of exiting.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("accept raced: no pending connection");
    }
    if (errno == ECONNABORTED || errno == EPROTO) {
      return Status::Unavailable("accepted connection aborted in the backlog");
    }
    return Errno("accept");
  }
  Socket sock(conn);
  MIP_RETURN_NOT_OK(SetNonBlocking(conn));
  const int one = 1;
  (void)setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<size_t> Socket::TryRecv(uint8_t* out, size_t n) {
  for (;;) {
    const ssize_t rc = recv(fd_, out, n, 0);
    if (rc > 0) return static_cast<size_t>(rc);
    if (rc == 0) {
      peer_closed_ = true;
      return Status::IOError("peer closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no bytes available");
    }
    if (errno != EINTR) return Failed("recv");
  }
}

Result<size_t> Socket::TrySend(const uint8_t* data, size_t n) {
  for (;;) {
    const ssize_t rc = send(fd_, data, n, MSG_NOSIGNAL);
    if (rc >= 0) return static_cast<size_t>(rc);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("kernel send buffer full");
    }
    if (errno != EINTR) return Failed("send");
  }
}

Result<int> Socket::BoundPort() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Status Socket::SendAll(const uint8_t* data, size_t n, double timeout_ms) {
  Stopwatch sw;
  size_t sent = 0;
  while (sent < n) {
    if (Expired(timeout_ms, sw)) {
      return Status::Unavailable("send deadline expired");
    }
    const ssize_t rc = send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      MIP_RETURN_NOT_OK(
          PollFor(fd_, POLLOUT, Remaining(timeout_ms, sw), "send"));
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return Failed("send");
  }
  return Status::OK();
}

Result<size_t> Socket::RecvSome(uint8_t* out, size_t n, double timeout_ms) {
  Stopwatch sw;
  for (;;) {
    if (Expired(timeout_ms, sw)) {
      return Status::Unavailable("receive deadline expired");
    }
    const ssize_t rc = recv(fd_, out, n, 0);
    if (rc > 0) return static_cast<size_t>(rc);
    if (rc == 0) {
      peer_closed_ = true;
      return Status::IOError("peer closed the connection");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      MIP_RETURN_NOT_OK(
          PollFor(fd_, POLLIN, Remaining(timeout_ms, sw), "receive"));
      continue;
    }
    if (errno == EINTR) continue;
    return Failed("recv");
  }
}

Status Socket::Failed(const char* op) {
  if (errno == ECONNRESET || errno == EPIPE) peer_closed_ = true;
  return Errno(op);
}

void Socket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace mip::net
