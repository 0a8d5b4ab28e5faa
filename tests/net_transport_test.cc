// Tests for the src/net transport layer: frame codec correctness, the TCP
// transport (echo round trips, concurrency, deadlines, peer death), fault
// injection parity with the in-process bus, and a deterministic mutation
// fuzz over every deserializer that consumes bytes from the network.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "engine/table.h"
#include "federation/fault.h"
#include "federation/bus.h"
#include "federation/transfer.h"
#include "net/frame.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace mip {
namespace {

using engine::DataType;
using engine::Schema;
using engine::Table;
using engine::Value;
using federation::FaultInjector;
using federation::FaultSpec;
using federation::MessageBus;
using federation::TransferData;
using net::Envelope;
using net::FrameDecoder;
using net::TcpTransport;
using net::TcpTransportOptions;

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameTest, Crc32KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(net::Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                       check.size()),
            0xCBF43926u);
  EXPECT_EQ(net::Crc32(nullptr, 0), 0u);
}

TEST(FrameTest, RoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 255, 0, 42};
  BufferWriter w;
  net::EncodeFrame(payload, &w);
  ASSERT_EQ(w.size(), net::kFrameHeaderBytes + payload.size());

  FrameDecoder dec;
  dec.Feed(w.bytes().data(), w.size());
  std::vector<uint8_t> out;
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(dec.buffered(), 0u);

  // Nothing further buffered -> need more bytes, not an error.
  auto r2 = dec.Next(&out);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.ValueOrDie());
}

TEST(FrameTest, IncrementalByteByByteDecode) {
  const std::vector<uint8_t> payload(300, 0xAB);
  BufferWriter w;
  net::EncodeFrame(payload, &w);
  net::EncodeFrame(payload, &w);  // two frames back to back

  FrameDecoder dec;
  std::vector<uint8_t> out;
  int frames = 0;
  for (uint8_t b : w.bytes()) {
    dec.Feed(&b, 1);
    auto r = dec.Next(&out);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r.ValueOrDie()) {
      EXPECT_EQ(out, payload);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 2);
}

TEST(FrameTest, EmptyPayloadFrame) {
  BufferWriter w;
  net::EncodeFrame(nullptr, 0, &w);
  FrameDecoder dec;
  dec.Feed(w.bytes().data(), w.size());
  std::vector<uint8_t> out = {9};
  auto r = dec.Next(&out);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie());
  EXPECT_TRUE(out.empty());
}

TEST(FrameTest, CorruptStreamsReportParseError) {
  const std::vector<uint8_t> payload = {10, 20, 30};
  BufferWriter w;
  net::EncodeFrame(payload, &w);
  const std::vector<uint8_t> good = w.bytes();

  auto decode = [](std::vector<uint8_t> bytes) {
    FrameDecoder dec;
    dec.Feed(bytes.data(), bytes.size());
    std::vector<uint8_t> out;
    return dec.Next(&out);
  };

  {  // bad magic
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xFF;
    auto r = decode(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // unknown version
    std::vector<uint8_t> bad = good;
    bad[4] = 99;
    auto r = decode(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // retired version 1 (pre-codec framing)
    std::vector<uint8_t> bad = good;
    bad[4] = 1;
    auto r = decode(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // corrupt payload byte -> CRC mismatch
    std::vector<uint8_t> bad = good;
    bad[net::kFrameHeaderBytes] ^= 0x01;
    auto r = decode(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // oversized length field
    std::vector<uint8_t> bad = good;
    const uint32_t huge = 1u << 30;
    std::memcpy(bad.data() + 5, &huge, sizeof(huge));
    auto r = decode(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
  {  // truncated: every proper prefix just needs more bytes
    for (size_t cut = 0; cut < good.size(); ++cut) {
      std::vector<uint8_t> prefix(good.begin(), good.begin() + cut);
      auto r = decode(prefix);
      ASSERT_TRUE(r.ok()) << "cut=" << cut << ": " << r.status().ToString();
      EXPECT_FALSE(r.ValueOrDie());
    }
  }
}

TEST(FrameTest, EnvelopeCodecRoundTrip) {
  Envelope e;
  e.from = "master";
  e.to = "hospital_3";
  e.type = "local_run";
  e.job_id = "job/42";
  e.payload = {0, 1, 2, 3, 255};
  e.deadline_ms = 1234.0;  // local metadata: must NOT cross the wire

  const std::vector<uint8_t> wire = net::EncodeEnvelopePayload(e);
  auto decoded = net::DecodeEnvelopePayload(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Envelope& d = decoded.ValueOrDie();
  EXPECT_EQ(d.from, e.from);
  EXPECT_EQ(d.to, e.to);
  EXPECT_EQ(d.type, e.type);
  EXPECT_EQ(d.job_id, e.job_id);
  EXPECT_EQ(d.payload, e.payload);
  EXPECT_EQ(d.deadline_ms, 0.0);
}

TEST(FrameTest, ReplyCodecPropagatesStatusCode) {
  {  // OK reply carries the payload
    const std::vector<uint8_t> reply = {7, 8, 9};
    const auto wire = net::EncodeReplyPayload(Status::OK(), reply);
    auto r = net::DecodeReplyPayload(wire);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie(), reply);
  }
  {  // handler errors come back with their original code
    const auto wire = net::EncodeReplyPayload(
        Status::InvalidArgument("bad weights"), {});
    auto r = net::DecodeReplyPayload(wire);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("bad weights"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// TCP transport

Envelope MakeEnvelope(const std::string& to, std::vector<uint8_t> payload,
                      double deadline_ms = 0.0) {
  Envelope e;
  e.from = "master";
  e.to = to;
  e.type = "test";
  e.job_id = "job0";
  e.payload = std::move(payload);
  e.deadline_ms = deadline_ms;
  return e;
}

TEST(TcpTransportTest, EchoRoundTripAndStats) {
  TcpTransport server;
  ASSERT_TRUE(server
                  .RegisterEndpoint(
                      "echo",
                      [](const Envelope& e) -> Result<std::vector<uint8_t>> {
                        return e.payload;
                      })
                  .ok());
  ASSERT_TRUE(server.Listen(0).ok());
  ASSERT_GT(server.port(), 0);

  TcpTransport client;
  client.AddPeer("echo", "127.0.0.1", server.port());

  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto reply = client.Send(MakeEnvelope("echo", payload));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie(), payload);

  // Measured accounting: one round trip, bytes in both directions.
  const net::NetworkStats stats = client.stats();
  EXPECT_EQ(stats.round_trips, 1u);
  EXPECT_EQ(stats.messages, 2u);  // request + reply
  EXPECT_GT(stats.bytes, payload.size());
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.MeanRoundTripMs(), 0.0);

  const auto links = client.link_stats();
  ASSERT_TRUE(links.count("master->echo"));
  EXPECT_EQ(links.at("master->echo").round_trips, 1u);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, MissingEndpointIsNotFoundNotRetryable) {
  TcpTransport server;
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client;
  client.AddPeer("ghost", "127.0.0.1", server.port());
  auto r = client.Send(MakeEnvelope("ghost", {1}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, UnknownPeerFailsFast) {
  TcpTransport client;
  auto r = client.Send(MakeEnvelope("nowhere", {1}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TcpTransportTest, ConcurrentSendersLinkSumsEqualTotals) {
  TcpTransport server;
  std::atomic<int> handled{0};
  for (const char* id : {"w0", "w1", "w2"}) {
    ASSERT_TRUE(server
                    .RegisterEndpoint(
                        id,
                        [&handled](const Envelope& e)
                            -> Result<std::vector<uint8_t>> {
                          handled.fetch_add(1);
                          return e.payload;
                        })
                    .ok());
  }
  ASSERT_TRUE(server.Listen(0).ok());

  TcpTransport client;
  for (const char* id : {"w0", "w1", "w2"}) {
    client.AddPeer(id, "127.0.0.1", server.port());
  }

  constexpr int kThreads = 8;
  constexpr int kSendsPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client, &failures, t] {
      for (int i = 0; i < kSendsPerThread; ++i) {
        const std::string to = "w" + std::to_string((t + i) % 3);
        std::vector<uint8_t> payload(1 + (i % 32), static_cast<uint8_t>(i));
        Envelope e = MakeEnvelope(to, payload);
        e.from = "sender" + std::to_string(t);
        auto r = client.Send(std::move(e));
        if (!r.ok() || r.ValueOrDie() != payload) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handled.load(), kThreads * kSendsPerThread);

  // The per-link ledgers must sum exactly to the totals.
  const net::NetworkStats total = client.stats();
  uint64_t messages = 0, bytes = 0, round_trips = 0;
  for (const auto& [link, s] : client.link_stats()) {
    messages += s.messages;
    bytes += s.bytes;
    round_trips += s.round_trips;
  }
  EXPECT_EQ(messages, total.messages);
  EXPECT_EQ(bytes, total.bytes);
  EXPECT_EQ(round_trips, total.round_trips);
  EXPECT_EQ(round_trips,
            static_cast<uint64_t>(kThreads) * kSendsPerThread);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, DeadlineExpiryIsUnavailable) {
  TcpTransport server;
  ASSERT_TRUE(server
                  .RegisterEndpoint(
                      "slow",
                      [](const Envelope& e) -> Result<std::vector<uint8_t>> {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(300));
                        return e.payload;
                      })
                  .ok());
  ASSERT_TRUE(server.Listen(0).ok());

  TcpTransport client;
  client.AddPeer("slow", "127.0.0.1", server.port());

  // Tight deadline: the reply cannot arrive in time.
  auto r = client.Send(MakeEnvelope("slow", {1}, /*deadline_ms=*/50.0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // Generous deadline: same endpoint succeeds.
  auto ok = client.Send(MakeEnvelope("slow", {2}, /*deadline_ms=*/5000.0));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransportTest, ConnectRefusedIsRetryableError) {
  // Grab a port that nothing listens on by binding and immediately closing.
  int dead_port = 0;
  {
    TcpTransport probe;
    ASSERT_TRUE(probe.Listen(0).ok());
    dead_port = probe.port();
    probe.Shutdown();
  }
  TcpTransportOptions opts;
  opts.connect_timeout_ms = 500.0;
  TcpTransport client(opts);
  client.AddPeer("gone", "127.0.0.1", dead_port);
  auto r = client.Send(MakeEnvelope("gone", {1}));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable ||
              r.status().code() == StatusCode::kIOError)
      << r.status().ToString();
  client.Shutdown();
}

TEST(TcpTransportTest, PeerDeathMidRequestIsRetryableError) {
  // A "peer" that accepts the connection, reads part of the request, then
  // closes the socket without replying — the deterministic equivalent of a
  // worker process dying mid-request.
  auto listener = net::Socket::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto port = listener.ValueOrDie().BoundPort();
  ASSERT_TRUE(port.ok());

  std::thread dying_peer([&listener] {
    auto conn = listener.ValueOrDie().Accept(/*timeout_ms=*/5000.0);
    if (!conn.ok()) return;
    uint8_t buf[8];
    (void)conn.ValueOrDie().RecvSome(buf, sizeof(buf), /*timeout_ms=*/5000.0);
    // Socket destructor closes the connection: peer death mid-request.
  });

  TcpTransport client;
  client.AddPeer("dying", "127.0.0.1", port.ValueOrDie());
  auto r = client.Send(MakeEnvelope("dying", {1}, /*deadline_ms=*/5000.0));
  dying_peer.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable ||
              r.status().code() == StatusCode::kIOError)
      << r.status().ToString();
  client.Shutdown();
}

// ---------------------------------------------------------------------------
// Fault-injection parity: the same seeded injector must produce the same
// delivery outcome sequence whether the transport is the in-process bus or
// real sockets.

std::vector<bool> RunFaultSequence(net::Transport* transport,
                                   FaultInjector* injector, int sends) {
  transport->set_fault_hook(injector);
  std::vector<bool> outcomes;
  for (int i = 0; i < sends; ++i) {
    Envelope e = MakeEnvelope("worker", {static_cast<uint8_t>(i)});
    outcomes.push_back(transport->Send(std::move(e)).ok());
  }
  transport->set_fault_hook(nullptr);
  return outcomes;
}

TEST(FaultParityTest, SeededOutcomesIdenticalOnBusAndTcp) {
  constexpr int kSends = 40;
  constexpr uint64_t kSeed = 0xF417;
  FaultSpec flaky;
  flaky.drop_rate = 0.4;
  flaky.fail_first_n = 2;

  // In-process bus.
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint(
                     "worker",
                     [](const Envelope& e) -> Result<std::vector<uint8_t>> {
                       return e.payload;
                     })
                  .ok());
  FaultInjector bus_injector(kSeed);
  bus_injector.SetLinkFault("master", "worker", flaky);
  const std::vector<bool> bus_outcomes =
      RunFaultSequence(&bus, &bus_injector, kSends);

  // TCP loopback.
  TcpTransport server;
  ASSERT_TRUE(server
                  .RegisterEndpoint(
                      "worker",
                      [](const Envelope& e) -> Result<std::vector<uint8_t>> {
                        return e.payload;
                      })
                  .ok());
  ASSERT_TRUE(server.Listen(0).ok());
  TcpTransport client;
  client.AddPeer("worker", "127.0.0.1", server.port());
  FaultInjector tcp_injector(kSeed);
  tcp_injector.SetLinkFault("master", "worker", flaky);
  const std::vector<bool> tcp_outcomes =
      RunFaultSequence(&client, &tcp_injector, kSends);

  EXPECT_EQ(bus_outcomes, tcp_outcomes);
  // Sanity: the fault model actually fired (first 2 forced failures).
  ASSERT_GE(bus_outcomes.size(), 2u);
  EXPECT_FALSE(bus_outcomes[0]);
  EXPECT_FALSE(bus_outcomes[1]);

  client.Shutdown();
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzz: every deserializer that parses bytes off the
// network must survive arbitrary truncation and corruption with a clean
// Status — no crash, no over-read (run under ASan in CI).

TransferData MakeRichTransfer() {
  TransferData t;
  t.PutString("algo", "linreg");
  t.PutStringList("datasets", {"cohort_a", "cohort_b"});
  t.PutScalar("n", 128.0);
  t.PutVector("weights", {0.5, -1.25, 3.0});
  auto m = stats::Matrix::FromFlat(2, 2, {1.0, 2.0, 3.0, 4.0});
  t.PutMatrix("xtx", m.ValueOrDie());

  Schema schema;
  (void)schema.AddField({"flag", DataType::kBool});
  (void)schema.AddField({"count", DataType::kInt64});
  (void)schema.AddField({"value", DataType::kFloat64});
  (void)schema.AddField({"site", DataType::kString});
  Table table = Table::Empty(schema);
  (void)table.AppendRow({Value::Bool(true), Value::Int(7),
                         Value::Double(3.25), Value::String("athens")});
  (void)table.AppendRow(
      {Value::Null(), Value::Int(-1), Value::Null(), Value::String("paris")});
  t.PutTable("sample", std::move(table));
  return t;
}

void FuzzTransferBytes(const std::vector<uint8_t>& good) {
  // Every truncation point must fail cleanly (a strict prefix can at best
  // decode to a shorter valid value, never crash).
  for (size_t cut = 0; cut < good.size(); ++cut) {
    BufferReader r(good.data(), cut);
    auto st = TransferData::Deserialize(&r);
    (void)st;  // ok() or clean error; surviving is the assertion
  }
  // Deterministic single-byte corruptions.
  Rng rng(0xF022);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
    bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    BufferReader r(bad.data(), bad.size());
    auto st = TransferData::Deserialize(&r);
    (void)st;
  }
  // Multi-byte corruption bursts.
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> bad = good;
    for (int k = 0; k < 8; ++k) {
      const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
      bad[pos] = static_cast<uint8_t>(rng.NextBounded(256));
    }
    BufferReader r(bad.data(), bad.size());
    auto st = TransferData::Deserialize(&r);
    (void)st;
  }
}

TEST(MutationFuzzTest, TransferDataDeserializeNeverCrashes) {
  BufferWriter w;
  MakeRichTransfer().Serialize(&w);
  ASSERT_GT(w.size(), 0u);

  // The untouched round trip must still work.
  BufferReader r(w.bytes().data(), w.size());
  auto ok = TransferData::Deserialize(&r);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  FuzzTransferBytes(w.bytes());
}

TEST(MutationFuzzTest, DeserializeTableNeverCrashes) {
  BufferWriter w;
  Schema schema;
  (void)schema.AddField({"flag", DataType::kBool});
  (void)schema.AddField({"count", DataType::kInt64});
  (void)schema.AddField({"value", DataType::kFloat64});
  (void)schema.AddField({"site", DataType::kString});
  Table table = Table::Empty(schema);
  (void)table.AppendRow({Value::Bool(false), Value::Int(1),
                         Value::Double(-2.5), Value::String("madrid")});
  (void)table.AppendRow(
      {Value::Bool(true), Value::Null(), Value::Double(0.0), Value::Null()});
  engine::SerializeTable(table, &w);
  const std::vector<uint8_t>& good = w.bytes();

  for (size_t cut = 0; cut < good.size(); ++cut) {
    BufferReader r(good.data(), cut);
    auto st = engine::DeserializeTable(&r);
    (void)st;
  }
  Rng rng(0x7AB1E);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
    bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    BufferReader r(bad.data(), bad.size());
    auto st = engine::DeserializeTable(&r);
    (void)st;
  }
}

TEST(MutationFuzzTest, FrameDecoderNeverCrashes) {
  Envelope e = MakeEnvelope("worker", {1, 2, 3, 4, 5, 6, 7, 8});
  BufferWriter w;
  net::EncodeFrame(net::EncodeEnvelopePayload(e), &w);
  const std::vector<uint8_t>& good = w.bytes();

  Rng rng(0xF8A3E);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t pos = static_cast<size_t>(rng.NextBounded(bad.size()));
    bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    // Random truncation too, in the same trial.
    const size_t cut = 1 + static_cast<size_t>(rng.NextBounded(bad.size()));
    FrameDecoder dec;
    dec.Feed(bad.data(), cut);
    std::vector<uint8_t> payload;
    // Drain until need-more or error; a decoded frame must also survive
    // envelope decoding.
    while (true) {
      auto r = dec.Next(&payload);
      if (!r.ok() || !r.ValueOrDie()) break;
      auto env = net::DecodeEnvelopePayload(payload);
      (void)env;
    }
  }
}

}  // namespace
}  // namespace mip
