// End-to-end tests for the checkpoint store service over a real
// Unix-domain socket: StoreServer + StoreClient round-trips, typed
// error mapping across the wire, malformed-frame handling, shutdown
// semantics, and a small multi-client concurrency smoke (the full-size
// version lives in `wckpt soak --server`).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include "ckpt/codec.hpp"
#include "core/synthetic.hpp"
#include "io/io_backend.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("wck_srv_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Service + server wired into a TempDir, with the socket inside it.
struct Harness {
  explicit Harness(server::CheckpointService::Options opts = {},
                   server::StoreServer::Options server_opts = {},
                   IoBackend* io = nullptr)
      : options([&] {
          opts.root = dir.path() / "store";
          opts.retry.sleep_between_attempts = false;
          return opts;
        }()),
        service(codec, options, io),
        server(service, (dir.path() / "store.sock").string(), server_opts) {}

  TempDir dir;
  NullCodec codec;
  server::CheckpointService::Options options;
  server::CheckpointService service;
  server::StoreServer server;
};

NdArray<double> field_for(std::uint64_t seed) {
  return make_smooth_field(Shape{10, 14}, seed);
}

TEST(StoreServer, PingPutGetStatRoundTrip) {
  Harness h;
  StoreClient client = StoreClient::connect(h.server.socket_path());
  client.ping();

  const NdArray<double> state = field_for(7);
  const net::PutOkResponse ok = client.put("alpha", 7, state);
  EXPECT_EQ(ok.step, 7u);
  EXPECT_EQ(ok.generations, 1u);
  EXPECT_GT(ok.stored_bytes, 0u);

  const StoreClient::GetResult got = client.get("alpha");
  EXPECT_EQ(got.step, 7u);
  EXPECT_EQ(got.source, RestoreSource::kPrimary);
  ASSERT_EQ(got.array.shape(), state.shape());
  // NullCodec end to end: the restore is bit-exact.
  EXPECT_TRUE(std::equal(got.array.values().begin(), got.array.values().end(),
                         state.values().begin()));

  const net::StatOkResponse stat = client.stat();
  ASSERT_EQ(stat.stats.size(), 1u);
  EXPECT_EQ(stat.stats[0].name, "alpha");
  EXPECT_EQ(stat.stats[0].generations, 1u);
  EXPECT_EQ(stat.stats[0].newest_step, 7u);
}

TEST(StoreServer, TypedErrorsCrossTheWire) {
  server::CheckpointService::Options opts;
  opts.keep_generations = 2;
  Harness h(opts);
  StoreClient client = StoreClient::connect(h.server.socket_path());

  EXPECT_THROW((void)client.get("nosuch"), NotFoundError);
  EXPECT_THROW((void)client.stat("nosuch"), NotFoundError);
  EXPECT_THROW((void)client.put("Bad Tenant!", 1, field_for(1)), InvalidArgumentError);
  // The connection survives every typed rejection.
  client.ping();
}

TEST(StoreServer, QuotaExceededArrivesTyped) {
  // Probe one generation's size, then allot exactly that much.
  std::uint64_t gen = 0;
  {
    Harness probe;
    StoreClient client = StoreClient::connect(probe.server.socket_path());
    gen = client.put("t", 1, field_for(1)).stored_bytes;
  }

  server::CheckpointService::Options opts;
  opts.keep_generations = 2;
  opts.tenant_quota_bytes = gen;
  Harness h(opts);
  StoreClient client = StoreClient::connect(h.server.socket_path());

  (void)client.put("t", 1, field_for(1));
  EXPECT_THROW((void)client.put("t", 2, field_for(2)), QuotaExceededError);
  // The store is intact, not corrupted: step 1 still restores.
  EXPECT_EQ(client.get("t").step, 1u);
}

TEST(StoreServer, MalformedBodyKeepsStreamMalformedFrameEndsIt) {
  Harness h;
  net::UnixStream stream = net::UnixStream::connect_to(h.server.socket_path());
  net::FrameDecoder decoder;
  const auto read_reply = [&]() -> net::AnyMessage {
    for (;;) {
      if (std::optional<net::Frame> f = decoder.next()) return net::decode_message(*f);
      Bytes chunk;
      if (stream.recv_some(chunk, 4096) == 0) throw IoError("eof");
      decoder.feed(chunk);
    }
  };

  // A well-framed request with an unassigned type byte: typed
  // BadRequest reply, stream stays usable.
  stream.send_all(net::encode_frame(0x30, Bytes{}));
  {
    const net::AnyMessage reply = read_reply();
    const auto* err = std::get_if<net::ErrorResponse>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, net::ErrorCode::kBadRequest);
  }
  stream.send_all(net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPing),
                                    net::encode(net::PingRequest{})));
  EXPECT_TRUE(std::holds_alternative<net::PongResponse>(read_reply()));

  // A frame with a corrupted header has no resynchronization point: the
  // server answers BadRequest once, then hangs up.
  Bytes bad = net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPing), Bytes{});
  bad[0] = std::byte{0x00};
  stream.send_all(bad);
  {
    const net::AnyMessage reply = read_reply();
    const auto* err = std::get_if<net::ErrorResponse>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, net::ErrorCode::kBadRequest);
  }
  Bytes rest;
  EXPECT_EQ(stream.recv_some(rest, 4096), 0u) << "server kept a poisoned stream open";
}

TEST(StoreServer, ClientShutdownStopsTheServer) {
  Harness h;
  {
    StoreClient client = StoreClient::connect(h.server.socket_path());
    (void)client.put("t", 1, field_for(1));
    client.shutdown_server();  // acknowledged before the server acts
  }
  h.server.wait_for_shutdown();
  h.server.stop();
  EXPECT_THROW((void)StoreClient::connect(h.server.socket_path()), IoError);
  // The data the server accepted is durable past its lifetime.
  EXPECT_TRUE(std::filesystem::exists(h.options.root / "t" / "ckpt.1.wck"));
}

TEST(StoreServer, ConcurrentClientsSmoke) {
  Harness h;
  constexpr int kClients = 4;
  constexpr std::uint64_t kCycles = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StoreClient client = StoreClient::connect(h.server.socket_path());
      const std::string tenant = "rank-" + std::to_string(c);
      for (std::uint64_t step = 1; step <= kCycles; ++step) {
        const std::uint64_t seed = static_cast<std::uint64_t>(c) * 1000 + step;
        (void)client.put(tenant, step, field_for(seed));
        const StoreClient::GetResult got = client.get(tenant);
        const NdArray<double> expect =
            field_for(static_cast<std::uint64_t>(c) * 1000 + got.step);
        if (!std::equal(got.array.values().begin(), got.array.values().end(),
                        expect.values().begin())) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(h.server.connections_accepted(), static_cast<std::uint64_t>(kClients));

  StoreClient client = StoreClient::connect(h.server.socket_path());
  EXPECT_EQ(client.stat().stats.size(), static_cast<std::size_t>(kClients));
}

// ----------------------------------------- deadlines, drain, retries

TEST(StoreServer, IdleConnectionReapedWhileOthersProgress) {
  server::StoreServer::Options so;
  so.idle_timeout_ms = 150;  // aggressive, so the test is quick
  Harness h({}, so);

  // A connection that never sends a byte: the hung peer.
  net::UnixStream hung = net::UnixStream::connect_to(h.server.socket_path());

  // Another client keeps making progress the whole time. It gets the
  // same aggressive reaping as the hung peer, so it needs the retry
  // layer to reconnect when its own idle connection is collected.
  StoreClient::Options copts;
  copts.retry.max_attempts = 3;
  copts.retry.sleep_between_attempts = false;
  StoreClient client = StoreClient::connect(h.server.socket_path(), copts);
  (void)client.put("live", 1, field_for(1));

  // The hung peer is reaped within its deadline: EOF, not a hang. The
  // 5s recv bound is the test's own safety net, not the expectation.
  Bytes chunk;
  EXPECT_EQ(hung.recv_some(chunk, 4096, 5000), 0u);
  EXPECT_GE(h.server.connections_idle_reaped(), 1u);

  // Reaping one connection cost the others nothing.
  (void)client.put("live", 2, field_for(2));
  EXPECT_EQ(client.get("live").step, 2u);
}

TEST(StoreServer, MidFrameStallGetsTypedTimeoutThenHangup) {
  server::StoreServer::Options so;
  so.read_timeout_ms = 150;
  Harness h({}, so);

  net::UnixStream stream = net::UnixStream::connect_to(h.server.socket_path());
  net::FrameDecoder decoder;
  const auto read_reply = [&]() -> net::AnyMessage {
    for (;;) {
      if (std::optional<net::Frame> f = decoder.next()) return net::decode_message(*f);
      Bytes chunk;
      if (stream.recv_some(chunk, 4096) == 0) throw IoError("eof");
      decoder.feed(chunk);
    }
  };

  // A frame that starts arriving and then stalls: a slow-loris sender.
  const Bytes frame = net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPing),
                                        net::encode(net::PingRequest{}));
  ASSERT_GT(frame.size(), 1u);
  stream.send_all(std::span<const std::byte>(frame).first(frame.size() - 1));

  // The server names the problem (typed kTimeout), then hangs up — a
  // half-delivered frame has no resynchronization point.
  const net::AnyMessage reply = read_reply();
  const auto* err = std::get_if<net::ErrorResponse>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, net::ErrorCode::kTimeout);
  Bytes rest;
  EXPECT_EQ(stream.recv_some(rest, 4096, 5000), 0u);
}

TEST(StoreServer, SilentServerSurfacesTypedTimeout) {
  // A listener that accepts and reads but never replies — the pure
  // "silent server". The client's reply deadline must turn this into a
  // typed TimeoutError, never a hang, even with retry disabled.
  TempDir dir;
  const std::string path = (dir.path() / "dead.sock").string();
  net::UnixListener listener = net::UnixListener::bind_and_listen(path);
  std::thread sink([&] {
    try {
      net::UnixStream peer = listener.accept_next();
      Bytes chunk;
      while (peer.recv_some(chunk, 4096) != 0) {
      }
    } catch (const Error&) {
    }
  });

  StoreClient::Options opts;
  opts.timeout_ms = 150;
  ASSERT_EQ(opts.retry.max_attempts, 1);  // the default: no retry
  {
    StoreClient client = StoreClient::connect(path, opts);
    EXPECT_THROW(client.ping(), TimeoutError);
  }
  listener.close();
  sink.join();
}

TEST(StoreServer, ClientDeathMidPutLeavesStoreConsistent) {
  Harness h;
  StoreClient client = StoreClient::connect(h.server.socket_path());
  (void)client.put("t", 1, field_for(1));

  {
    // A client that dies halfway through sending a put: the server must
    // treat the torn frame as a dead peer, not as data.
    net::UnixStream dying = net::UnixStream::connect_to(h.server.socket_path());
    net::PutRequest req;
    req.tenant = "t";
    req.step = 2;
    req.request_id = 99;
    const NdArray<double> field = field_for(2);
    req.shape = field.shape();
    req.values.assign(field.values().begin(), field.values().end());
    const Bytes frame =
        net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPut), net::encode(req));
    dying.send_all(std::span<const std::byte>(frame).first(frame.size() / 2));
    dying.close();
  }

  // Nothing was committed, nothing was corrupted: step 1 still serves,
  // and the tenant accepts new work.
  EXPECT_EQ(client.get("t").step, 1u);
  (void)client.put("t", 2, field_for(2));
  EXPECT_EQ(client.get("t").step, 2u);
}

TEST(StoreServer, ClientRetryReconnectsAcrossServerRestart) {
  TempDir dir;
  NullCodec codec;
  server::CheckpointService::Options opts;
  opts.root = dir.path() / "store";
  opts.retry.sleep_between_attempts = false;
  server::CheckpointService service(codec, opts);
  const std::string path = (dir.path() / "store.sock").string();

  auto server = std::make_unique<server::StoreServer>(service, path);
  StoreClient::Options copts;
  copts.retry.max_attempts = 5;
  copts.retry.sleep_between_attempts = false;
  StoreClient client = StoreClient::connect(path, copts);
  (void)client.put("t", 1, field_for(1));

  // The server dies and comes back (same service, same disk). The
  // client's next request rides its dead stream into an IoError, and
  // the retry layer reconnects and resends without the caller noticing.
  server.reset();
  server = std::make_unique<server::StoreServer>(service, path);

  const net::PutOkResponse ok = client.put("t", 2, field_for(2));
  EXPECT_FALSE(ok.deduplicated);  // the first send never committed
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(client.get("t").step, 2u);
}

TEST(StoreServer, DuplicatePutByteStreamCommitsOnce) {
  Harness h;
  net::UnixStream stream = net::UnixStream::connect_to(h.server.socket_path());
  net::FrameDecoder decoder;
  const auto read_reply = [&]() -> net::AnyMessage {
    for (;;) {
      if (std::optional<net::Frame> f = decoder.next()) return net::decode_message(*f);
      Bytes chunk;
      if (stream.recv_some(chunk, 4096) == 0) throw IoError("eof");
      decoder.feed(chunk);
    }
  };

  net::PutRequest req;
  req.tenant = "dup";
  req.step = 3;
  req.request_id = 77;
  const NdArray<double> field = field_for(3);
  req.shape = field.shape();
  req.values.assign(field.values().begin(), field.values().end());
  const Bytes frame =
      net::encode_frame(static_cast<std::uint8_t>(net::MessageType::kPut), net::encode(req));

  // The exact byte stream a retrying client produces when the first
  // response is lost: the same put frame, twice, on one connection.
  stream.send_all(frame);
  const net::AnyMessage first = read_reply();
  const auto* ok1 = std::get_if<net::PutOkResponse>(&first);
  ASSERT_NE(ok1, nullptr);
  EXPECT_FALSE(ok1->deduplicated);
  EXPECT_EQ(ok1->request_id, 77u);

  stream.send_all(frame);
  const net::AnyMessage second = read_reply();
  const auto* ok2 = std::get_if<net::PutOkResponse>(&second);
  ASSERT_NE(ok2, nullptr);
  EXPECT_TRUE(ok2->deduplicated);
  EXPECT_EQ(ok2->request_id, 77u);
  EXPECT_EQ(ok2->step, ok1->step);
  EXPECT_EQ(ok2->generations, ok1->generations);
  EXPECT_EQ(ok2->stored_bytes, ok1->stored_bytes);
  EXPECT_EQ(ok2->total_bytes, ok1->total_bytes);

  // Exactly one commit reached the store.
  StoreClient client = StoreClient::connect(h.server.socket_path());
  const net::StatOkResponse stat = client.stat("dup");
  ASSERT_EQ(stat.stats.size(), 1u);
  EXPECT_EQ(stat.stats[0].generations, 1u);
  EXPECT_EQ(stat.stats[0].stored_bytes, ok1->stored_bytes);
}

/// Delegates to the POSIX backend, but blocks the first write_file
/// until release() — a deterministic way to hold a put in flight while
/// the server is told to stop.
class BlockingBackend final : public IoBackend {
 public:
  void wait_for_write() {
    std::unique_lock<std::mutex> lk(mu_);
    entered_cv_.wait(lk, [&] { return entered_; });
  }
  void release() {
    const std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

  Bytes read_file(const std::filesystem::path& path) override {
    return posix_backend().read_file(path);
  }
  void write_file(const std::filesystem::path& path,
                  std::span<const std::byte> data) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!entered_) {
        entered_ = true;
        entered_cv_.notify_all();
        release_cv_.wait(lk, [&] { return released_; });
      }
    }
    posix_backend().write_file(path, data);
  }
  void fsync_file(const std::filesystem::path& path) override {
    posix_backend().fsync_file(path);
  }
  void fsync_dir(const std::filesystem::path& dir) override {
    posix_backend().fsync_dir(dir);
  }
  void rename_file(const std::filesystem::path& from,
                   const std::filesystem::path& to) override {
    posix_backend().rename_file(from, to);
  }
  bool remove_file(const std::filesystem::path& path) override {
    return posix_backend().remove_file(path);
  }
  bool exists(const std::filesystem::path& path) override {
    return posix_backend().exists(path);
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(StoreServer, StopDrainsInFlightRequestToCompletion) {
  BlockingBackend io;
  Harness h({}, {}, &io);  // default drain budget: 5s, plenty
  StoreClient client = StoreClient::connect(h.server.socket_path());

  std::atomic<bool> put_ok{false};
  std::thread putter([&] {
    const net::PutOkResponse ok = client.put("t", 1, field_for(1));
    put_ok = ok.step == 1;
  });
  io.wait_for_write();  // the put is now in flight inside the service

  std::thread stopper([&] { h.server.stop(); });
  // stop() has half-closed the connection; the in-flight put must still
  // run to completion and its reply must still depart.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  io.release();
  stopper.join();
  putter.join();
  EXPECT_TRUE(put_ok.load());

  // The commit the drain protected is durable.
  EXPECT_TRUE(std::filesystem::exists(h.options.root / "t" / "ckpt.1.wck"));
}

TEST(StoreServer, ForcedDrainSurfacesTypedErrorToClient) {
  BlockingBackend io;
  server::StoreServer::Options so;
  so.drain_timeout_ms = 100;  // a budget the gated put will overrun
  Harness h({}, so, &io);
  StoreClient client = StoreClient::connect(h.server.socket_path());

  std::atomic<bool> typed{false};
  std::thread putter([&] {
    try {
      (void)client.put("t", 1, field_for(1));
    } catch (const IoError&) {
      typed = true;  // includes TimeoutError — the acceptable outcomes
    }
  });
  io.wait_for_write();

  std::thread stopper([&] { h.server.stop(); });
  // stop() closes the listener first (unlinking the socket path), then
  // waits out the drain budget. Wait for that marker, then outwait the
  // budget so the force has happened before the write is released.
  while (std::filesystem::exists(h.server.socket_path())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  io.release();
  stopper.join();
  putter.join();

  // The abandoned client saw a typed transport error, never a hang or
  // a garbled reply.
  EXPECT_TRUE(typed.load());
}

TEST(StoreServer, ServerSpanContinuesClientTraceContext) {
  telemetry::set_enabled(true);
  telemetry::Tracer::global().clear();
  Harness h;
  StoreClient client = StoreClient::connect(h.server.socket_path());
  (void)client.put("alpha", 1, field_for(1));

  // In-process server: client and server spans land in the same global
  // Tracer, exactly like `wckpt soak --server`'s single trace file.
  const std::vector<telemetry::SpanRecord> spans = telemetry::Tracer::global().snapshot();
  const telemetry::SpanRecord* client_span = nullptr;
  const telemetry::SpanRecord* server_span = nullptr;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.name == "client.rpc.put") client_span = &s;
    if (s.name == "server.rpc.put") server_span = &s;
  }
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(server_span, nullptr);
  // The wire propagated the client's trace: same trace_id, and the
  // server span is a child of the client span, with its own span id.
  EXPECT_NE(client_span->trace_id, 0u);
  EXPECT_EQ(server_span->trace_id, client_span->trace_id);
  EXPECT_EQ(server_span->parent_span_id, client_span->span_id);
  EXPECT_NE(server_span->span_id, 0u);
  EXPECT_NE(server_span->span_id, client_span->span_id);
}

TEST(StoreServer, SlowRequestLogRecordsStructuredDetail) {
  telemetry::set_enabled(true);
  server::StoreServer::Options so;
  so.slow_request_ms = 0;  // log every RPC
  Harness h({}, so);
  StoreClientOptions co;
  co.slow_request_ms = 0;
  StoreClient client = StoreClient::connect(h.server.socket_path(), co);
  (void)client.put("slowtenant", 3, field_for(3));

  bool server_logged = false;
  bool client_logged = false;
  for (const telemetry::Event& e : telemetry::EventLog::global().snapshot()) {
    if (e.kind == telemetry::EventKind::kServerSlowRequest &&
        e.detail.find("\"tenant\":\"slowtenant\"") != std::string::npos) {
      server_logged = true;
      EXPECT_EQ(e.step, 3u);
      EXPECT_NE(e.detail.find("\"type\":\"put\""), std::string::npos);
      EXPECT_NE(e.detail.find("\"trace_id\":\""), std::string::npos);
      EXPECT_NE(e.detail.find("\"error\":false"), std::string::npos);
    }
    if (e.kind == telemetry::EventKind::kClientSlowRequest &&
        e.detail.find("\"tenant\":\"slowtenant\"") != std::string::npos) {
      client_logged = true;
      EXPECT_NE(e.detail.find("\"retries\":0"), std::string::npos);
    }
  }
  EXPECT_TRUE(server_logged);
  EXPECT_TRUE(client_logged);
}

TEST(StoreServer, ClientSlowRequestDetailEscapesTheTenant) {
  telemetry::set_enabled(true);
  Harness h;
  StoreClientOptions co;
  co.slow_request_ms = 0;
  StoreClient client = StoreClient::connect(h.server.socket_path(), co);
  // The server refuses the name; the client logs the failed RPC under
  // the name its caller passed.
  EXPECT_THROW((void)client.put("a\"b", 1, field_for(1)), InvalidArgumentError);

  bool logged = false;
  for (const telemetry::Event& e : telemetry::EventLog::global().snapshot()) {
    if (e.kind != telemetry::EventKind::kClientSlowRequest) continue;
    const telemetry::Json detail = telemetry::Json::parse(e.detail);
    if (detail.at("tenant").as_string() != "a\"b") continue;
    logged = true;
    EXPECT_EQ(detail.at("type").as_string(), "put");
    EXPECT_TRUE(detail.at("error").as_bool());
    EXPECT_EQ(detail.at("retries").as_number(), 0.0);
  }
  EXPECT_TRUE(logged);
}

TEST(StoreServer, GracefulDrainWritesFinalSnapshot) {
  telemetry::set_enabled(true);
  TempDir snap_dir;
  const std::filesystem::path snap = snap_dir.path() / "exposed";
  server::StoreServer::Options so;
  so.slow_request_ms = 0;
  so.drain_snapshot_dir = snap;
  Harness h({}, so);
  {
    StoreClientOptions co;
    co.slow_request_ms = 0;
    StoreClient client = StoreClient::connect(h.server.socket_path(), co);
    (void)client.put("draintenant", 1, field_for(1));
  }
  ASSERT_FALSE(std::filesystem::exists(snap / "metrics.prom"));
  h.server.stop();

  // The drain wrote all three exposition files, and they describe this
  // server's RPCs: the metrics snapshot carries the per-RPC histogram
  // with its percentile companions, the slow-request log is valid
  // JSONL filtered to *.slow_request events.
  ASSERT_TRUE(std::filesystem::exists(snap / "metrics.prom"));
  ASSERT_TRUE(std::filesystem::exists(snap / "events.jsonl"));
  ASSERT_TRUE(std::filesystem::exists(snap / "slow-requests.jsonl"));

  std::ifstream prom(snap / "metrics.prom");
  const std::string prom_text((std::istreambuf_iterator<char>(prom)),
                              std::istreambuf_iterator<char>());
  EXPECT_NE(prom_text.find("wck_server_rpc_put_seconds"), std::string::npos);
  EXPECT_NE(prom_text.find("wck_server_rpc_put_seconds_p95"), std::string::npos);
  EXPECT_NE(prom_text.find("wck_server_tenant_draintenant_puts"), std::string::npos);

  std::ifstream slow(snap / "slow-requests.jsonl");
  std::string line;
  bool found = false;
  while (std::getline(slow, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("slow_request") != std::string::npos &&
        line.find("draintenant") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace wck
