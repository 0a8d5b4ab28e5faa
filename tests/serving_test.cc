// Concurrency battery for the epoll serving path (net/server.h behind
// TcpTransport): many clients hammering one server must produce replies
// byte-identical to a serial run, and adversarial byte streams — partial
// frames, mid-request disconnects, corrupt CRCs, oversized lengths,
// connection floods — must never wedge the loop or leak connections.

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_transport.h"

namespace mip {
namespace {

using net::Envelope;
using net::FrameDecoder;
using net::Socket;
using net::TcpTransport;
using net::TcpTransportOptions;

/// The deterministic service under test: reply = payload reversed. Any
/// cross-talk between connections or frames produces a mismatch.
std::vector<uint8_t> Reversed(const std::vector<uint8_t>& in) {
  return std::vector<uint8_t>(in.rbegin(), in.rend());
}

Status RegisterReverser(TcpTransport* server) {
  return server->RegisterEndpoint(
      "svc", [](const Envelope& envelope) -> Result<std::vector<uint8_t>> {
        return Reversed(envelope.payload);
      });
}

std::vector<uint8_t> Payload(int i, size_t pad = 0) {
  const std::string text = "request_" + std::to_string(i);
  std::vector<uint8_t> out(text.begin(), text.end());
  out.resize(out.size() + pad, static_cast<uint8_t>(i & 0xFF));
  return out;
}

/// A framed request as raw wire bytes, for byte-level client control.
std::vector<uint8_t> RequestFrame(const std::vector<uint8_t>& payload,
                                  const std::string& to = "svc",
                                  const std::string& type = "echo") {
  Envelope envelope{"raw_client", to, type, "", payload};
  BufferWriter writer;
  net::EncodeFrame(net::EncodeEnvelopePayload(envelope), &writer);
  return writer.TakeBytes();
}

/// Reads one framed reply off `sock` and unwraps the embedded status.
Result<std::vector<uint8_t>> ReadReply(Socket* sock, FrameDecoder* decoder,
                                       double timeout_ms = 5000.0) {
  std::vector<uint8_t> payload;
  for (;;) {
    MIP_ASSIGN_OR_RETURN(bool got, decoder->Next(&payload));
    if (got) return net::DecodeReplyPayload(payload);
    uint8_t buf[4096];
    MIP_ASSIGN_OR_RETURN(size_t n, sock->RecvSome(buf, sizeof(buf),
                                                  timeout_ms));
    decoder->Feed(buf, n);
  }
}

Result<Socket> Dial(int port) {
  return Socket::ConnectTcp("127.0.0.1", port, 2000.0);
}

TEST(ServingTest, ConcurrentRepliesByteIdenticalToSerial) {
  TcpTransport server;
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  constexpr int kRequests = 40;
  // Serial baseline through a normal client transport.
  std::vector<std::vector<uint8_t>> expected(kRequests);
  {
    TcpTransport client;
    client.AddPeer("svc", "127.0.0.1", server.port());
    for (int i = 0; i < kRequests; ++i) {
      auto reply = client.Send(
          Envelope{"serial", "svc", "echo", "", Payload(i, /*pad=*/64)});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      expected[i] = reply.ValueOrDie();
      ASSERT_EQ(expected[i], Reversed(Payload(i, 64)));
    }
    client.Shutdown();
  }

  // Concurrent: 8 threads x 40 requests through one shared client transport
  // (each in-flight Send uses its own pooled connection).
  constexpr int kThreads = 8;
  TcpTransport client;
  client.AddPeer("svc", "127.0.0.1", server.port());
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        auto reply = client.Send(Envelope{"tenant_" + std::to_string(t),
                                          "svc", "echo", "",
                                          Payload(i, /*pad=*/64)});
        if (!reply.ok()) {
          failures.fetch_add(1);
        } else if (reply.ValueOrDie() != expected[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = server.server_stats();
  EXPECT_GE(stats.frames_served,
            static_cast<uint64_t>(kRequests * (kThreads + 1)));
  EXPECT_EQ(stats.dropped_corrupt, 0u);
  EXPECT_EQ(stats.evicted_deadline, 0u);
  client.Shutdown();
  server.Shutdown();
}

TEST(ServingTest, PipelinedRequestsAnswerInOrder) {
  TcpTransport server;
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  auto sock = Dial(server.port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  Socket conn = sock.MoveValueUnsafe();

  // Fire 16 requests back-to-back in a single write, then read the replies:
  // they must come back complete and in request order.
  constexpr int kPipelined = 16;
  BufferWriter burst;
  for (int i = 0; i < kPipelined; ++i) {
    const auto frame = RequestFrame(Payload(i));
    burst.AppendRaw(frame.data(), frame.size());
  }
  const std::vector<uint8_t> bytes = burst.TakeBytes();
  ASSERT_TRUE(conn.SendAll(bytes.data(), bytes.size(), 2000.0).ok());

  FrameDecoder decoder;
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = ReadReply(&conn, &decoder);
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply.ValueOrDie(), Reversed(Payload(i))) << "reply " << i;
  }
  server.Shutdown();
}

TEST(ServingTest, InterleavedPartialFramesAcrossConnections) {
  TcpTransport server;
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  // Two connections drip their frames in alternating small chunks; each
  // decoder state must stay per-connection.
  auto a = Dial(server.port());
  auto b = Dial(server.port());
  ASSERT_TRUE(a.ok() && b.ok());
  Socket conn_a = a.MoveValueUnsafe();
  Socket conn_b = b.MoveValueUnsafe();

  const std::vector<uint8_t> frame_a = RequestFrame(Payload(1, 200));
  const std::vector<uint8_t> frame_b = RequestFrame(Payload(2, 200));
  size_t pos_a = 0, pos_b = 0;
  constexpr size_t kChunk = 7;
  while (pos_a < frame_a.size() || pos_b < frame_b.size()) {
    if (pos_a < frame_a.size()) {
      const size_t n = std::min(kChunk, frame_a.size() - pos_a);
      ASSERT_TRUE(conn_a.SendAll(frame_a.data() + pos_a, n, 2000.0).ok());
      pos_a += n;
    }
    if (pos_b < frame_b.size()) {
      const size_t n = std::min(kChunk, frame_b.size() - pos_b);
      ASSERT_TRUE(conn_b.SendAll(frame_b.data() + pos_b, n, 2000.0).ok());
      pos_b += n;
    }
  }

  FrameDecoder dec_a, dec_b;
  auto reply_a = ReadReply(&conn_a, &dec_a);
  auto reply_b = ReadReply(&conn_b, &dec_b);
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();
  EXPECT_EQ(reply_a.ValueOrDie(), Reversed(Payload(1, 200)));
  EXPECT_EQ(reply_b.ValueOrDie(), Reversed(Payload(2, 200)));
  server.Shutdown();
}

TEST(ServingTest, MidRequestDisconnectLeavesServerHealthy) {
  TcpTransport server;
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  // A dozen clients die mid-frame: header only, half the payload, or a
  // single byte. None of this may wedge the loop or leak a connection.
  for (int round = 0; round < 12; ++round) {
    auto sock = Dial(server.port());
    ASSERT_TRUE(sock.ok());
    Socket conn = sock.MoveValueUnsafe();
    const std::vector<uint8_t> frame = RequestFrame(Payload(round, 500));
    const size_t cut = 1 + (frame.size() * (round % 3 + 1)) / 5;
    ASSERT_TRUE(conn.SendAll(frame.data(), std::min(cut, frame.size() - 1),
                             2000.0)
                    .ok());
    conn.Close();  // abrupt disconnect with a frame in flight
  }

  // The server still answers a healthy request...
  auto sock = Dial(server.port());
  ASSERT_TRUE(sock.ok());
  Socket conn = sock.MoveValueUnsafe();
  const std::vector<uint8_t> frame = RequestFrame(Payload(99));
  ASSERT_TRUE(conn.SendAll(frame.data(), frame.size(), 2000.0).ok());
  FrameDecoder decoder;
  auto reply = ReadReply(&conn, &decoder);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie(), Reversed(Payload(99)));
  conn.Close();

  // ... and the dead connections drain: active drops back to zero once the
  // loop has processed the hangups.
  for (int i = 0; i < 100 && server.server_stats().active > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.server_stats().active, 0u);
  server.Shutdown();
}

TEST(ServingTest, CorruptCrcDropsConnectionNotServer) {
  TcpTransport server;
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());
  const uint64_t corrupt_before = server.server_stats().dropped_corrupt;

  auto sock = Dial(server.port());
  ASSERT_TRUE(sock.ok());
  Socket conn = sock.MoveValueUnsafe();
  std::vector<uint8_t> frame = RequestFrame(Payload(7, 100));
  frame[net::kFrameHeaderBytes - 1] ^= 0xFF;  // flip a CRC byte
  ASSERT_TRUE(conn.SendAll(frame.data(), frame.size(), 2000.0).ok());

  // The stream is unusable: the server must close it (we read EOF, not junk).
  uint8_t buf[64];
  auto n = conn.RecvSome(buf, sizeof(buf), 5000.0);
  EXPECT_FALSE(n.ok());
  conn.Close();

  // Exactly a connection died — the server keeps serving.
  for (int i = 0; i < 100 &&
                  server.server_stats().dropped_corrupt == corrupt_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server.server_stats().dropped_corrupt, corrupt_before);

  auto again = Dial(server.port());
  ASSERT_TRUE(again.ok());
  Socket healthy = again.MoveValueUnsafe();
  const std::vector<uint8_t> ok_frame = RequestFrame(Payload(8));
  ASSERT_TRUE(healthy.SendAll(ok_frame.data(), ok_frame.size(), 2000.0).ok());
  FrameDecoder decoder;
  auto reply = ReadReply(&healthy, &decoder);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie(), Reversed(Payload(8)));
  server.Shutdown();
}

TEST(ServingTest, OversizedFrameIsRejectedCleanly) {
  TcpTransportOptions options;
  options.max_frame_payload = 1024;  // tiny ceiling for the test
  TcpTransport server(options);
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  auto sock = Dial(server.port());
  ASSERT_TRUE(sock.ok());
  Socket conn = sock.MoveValueUnsafe();
  // Hand-craft a header whose length field far exceeds the ceiling; the
  // server must drop the connection on the header alone, before any
  // allocation of the advertised size.
  BufferWriter writer;
  writer.WriteU32(net::kFrameMagic);
  writer.WriteU8(net::kFrameVersion);
  writer.WriteU32(64u << 20);  // claims 64 MiB
  writer.WriteU32(0);          // CRC irrelevant: length check fires first
  const std::vector<uint8_t> header = writer.TakeBytes();
  ASSERT_TRUE(conn.SendAll(header.data(), header.size(), 2000.0).ok());
  uint8_t buf[64];
  EXPECT_FALSE(conn.RecvSome(buf, sizeof(buf), 5000.0).ok());  // EOF
  conn.Close();

  // Within-limit requests still served.
  auto again = Dial(server.port());
  ASSERT_TRUE(again.ok());
  Socket healthy = again.MoveValueUnsafe();
  const std::vector<uint8_t> ok_frame = RequestFrame(Payload(3));
  ASSERT_TRUE(healthy.SendAll(ok_frame.data(), ok_frame.size(), 2000.0).ok());
  FrameDecoder decoder;
  auto reply = ReadReply(&healthy, &decoder);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GT(server.server_stats().dropped_corrupt, 0u);
  server.Shutdown();
}

TEST(ServingTest, ConnectionFloodBeyondCapIsShedNotServed) {
  TcpTransportOptions options;
  options.max_connections = 2;
  TcpTransport server(options);
  ASSERT_TRUE(RegisterReverser(&server).ok());
  ASSERT_TRUE(server.Listen(0).ok());

  auto a = Dial(server.port());
  auto b = Dial(server.port());
  ASSERT_TRUE(a.ok() && b.ok());
  Socket conn_a = a.MoveValueUnsafe();
  Socket conn_b = b.MoveValueUnsafe();
  // Make sure both are registered with the loop before flooding.
  const std::vector<uint8_t> frame = RequestFrame(Payload(0));
  ASSERT_TRUE(conn_a.SendAll(frame.data(), frame.size(), 2000.0).ok());
  FrameDecoder dec_a;
  ASSERT_TRUE(ReadReply(&conn_a, &dec_a).ok());

  // The third connection is accepted then immediately shed: the client
  // observes EOF, the server counts the rejection, and the two admitted
  // connections keep working.
  auto c = Dial(server.port());
  ASSERT_TRUE(c.ok());
  Socket conn_c = c.MoveValueUnsafe();
  uint8_t buf[16];
  EXPECT_FALSE(conn_c.RecvSome(buf, sizeof(buf), 5000.0).ok());
  EXPECT_GT(server.server_stats().rejected_overload, 0u);

  ASSERT_TRUE(conn_b.SendAll(frame.data(), frame.size(), 2000.0).ok());
  FrameDecoder dec_b;
  auto reply = ReadReply(&conn_b, &dec_b);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie(), Reversed(Payload(0)));
  server.Shutdown();
}

}  // namespace
}  // namespace mip
