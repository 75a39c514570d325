#include "server/client.hpp"

#include <chrono>
#include <utility>

#include "server/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

/// Maps a wire ErrorResponse back onto the typed error hierarchy.
[[noreturn]] void rethrow(const net::ErrorResponse& err) {
  const std::string what = std::string("store server: ") + err.message;
  switch (err.code) {
    case net::ErrorCode::kQuotaExceeded: throw QuotaExceededError(what);
    case net::ErrorCode::kBusy: throw BusyError(what);
    case net::ErrorCode::kNotFound: throw NotFoundError(what);
    case net::ErrorCode::kBadRequest: throw InvalidArgumentError(what);
    case net::ErrorCode::kCorrupt: throw CorruptDataError(what);
    case net::ErrorCode::kIo: throw IoError(what);
    case net::ErrorCode::kTimeout: throw TimeoutError(what);
    case net::ErrorCode::kInternal: break;
  }
  throw Error(what);
}

}  // namespace

StoreClient::StoreClient(std::string socket_path, Options options)
    : socket_path_(std::move(socket_path)),
      options_(options),
      id_rng_(options.seed),
      trace_rng_(options.seed ^ 0x7E4AD1C9F3B2605Bull),
      jitter_seed_(options.seed) {
  if (options_.seed == 0) {
    // No seed given: derive one that differs between clients even when
    // they start in the same instant (the address breaks the tie), so
    // two processes retrying the same (tenant, step) cannot generate
    // colliding request ids and false-deduplicate each other.
    const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    SplitMix64 mix(static_cast<std::uint64_t>(now) ^ static_cast<std::uint64_t>(self));
    jitter_seed_ = mix.next();
    id_rng_ = SplitMix64(mix.next());
    trace_rng_ = SplitMix64(mix.next());
  }
}

StoreClient StoreClient::connect(const std::string& socket_path, Options options) {
  StoreClient client(socket_path, options);
  Backoff backoff(client.options_.retry, client.jitter_seed_);
  for (;;) {
    try {
      client.ensure_connected();
      return client;
    } catch (const IoError& e) {
      if (!backoff.try_again()) {
        WCK_COUNTER_ADD("client.retry.giveups", 1);
        throw;
      }
      ++client.retries_;
      WCK_COUNTER_ADD("client.retry.connects", 1);
      WCK_EVENT(kClientRetry, 0, std::string("connect: ") + e.what());
    }
  }
}

void StoreClient::ensure_connected() {
  if (stream_.valid()) return;
  stream_ = net::UnixStream::connect_to(socket_path_, options_.timeout_ms);
  // A fresh byte stream must never inherit buffered bytes or poisoning
  // from the previous connection's decoder.
  decoder_ = net::FrameDecoder();
}

net::AnyMessage StoreClient::round_trip_once(const Bytes& frame) {
  stream_.send_all(frame, options_.timeout_ms);
  for (;;) {
    if (std::optional<net::Frame> reply = decoder_.next()) {
      last_reply_bytes_ = reply->payload.size() + net::kFrameHeaderBytes;
      return net::decode_message(*reply);
    }
    Bytes chunk;
    if (stream_.recv_some(chunk, 64 * 1024, options_.timeout_ms) == 0) {
      throw IoError("store server: connection closed mid-reply");
    }
    decoder_.feed(chunk);
  }
}

net::AnyMessage StoreClient::round_trip(net::MessageType type, const Bytes& body,
                                        bool retriable) {
  const Bytes frame = net::encode_frame(static_cast<std::uint8_t>(type), body);
  Backoff backoff(options_.retry, jitter_seed_);
  for (;;) {
    net::AnyMessage reply;
    try {
      ensure_connected();
      reply = round_trip_once(frame);
    } catch (const IoError& e) {
      // Transport failure (includes TimeoutError): the connection's
      // state is unknown — drop it and, budget permitting, reconnect
      // and resend. Put resends are safe: the request_id makes a
      // second commit a dedup replay.
      stream_.close();
      if (!retriable || !backoff.try_again()) {
        WCK_COUNTER_ADD("client.retry.giveups", 1);
        throw;
      }
      ++retries_;
      WCK_COUNTER_ADD("client.retry.requests", 1);
      WCK_EVENT(kClientRetry, 0, std::string("request: ") + e.what());
      continue;
    }
    // The server answered. Its decision — including an error — is
    // final; only the transport is ever retried.
    if (const auto* err = std::get_if<net::ErrorResponse>(&reply)) rethrow(*err);
    return reply;
  }
}

telemetry::TraceContext StoreClient::make_trace_context() {
  if (!telemetry::enabled()) return {};
  telemetry::TraceContext ctx;
  // 0 is the "no trace" sentinel on the wire; skip it in both streams.
  do {
    ctx.trace_id = trace_rng_.next();
  } while (ctx.trace_id == 0);
  do {
    ctx.span_id = trace_rng_.next();
  } while (ctx.span_id == 0);
  return ctx;  // parent_span_id = 0: the client RPC span is the root
}

net::AnyMessage StoreClient::traced_round_trip(net::MessageType type, const char* span_name,
                                               const char* type_name,
                                               const std::string& tenant, std::uint64_t step,
                                               const telemetry::TraceContext& ctx,
                                               const Bytes& body, bool retriable) {
  if (!telemetry::enabled()) return round_trip(type, body, retriable);
  const std::uint64_t retries_before = retries_;
  const double start_us = telemetry::Tracer::global().now_us();
  const std::size_t request_bytes = body.size() + net::kFrameHeaderBytes;
  telemetry::TraceSpan span(span_name, ctx);
  try {
    net::AnyMessage reply = round_trip(type, body, retriable);
    note_slow_rpc(type_name, tenant, step, ctx, start_us, request_bytes, last_reply_bytes_,
                  retries_before, /*error=*/false);
    return reply;
  } catch (...) {
    note_slow_rpc(type_name, tenant, step, ctx, start_us, request_bytes, 0, retries_before,
                  /*error=*/true);
    throw;
  }
}

void StoreClient::note_slow_rpc(const char* type_name, const std::string& tenant,
                                std::uint64_t step, const telemetry::TraceContext& ctx,
                                double start_us, std::size_t request_bytes,
                                std::size_t reply_bytes, std::uint64_t retries_before,
                                bool error) noexcept {
  if (!telemetry::enabled() || options_.slow_request_ms < 0) return;
  const double ms = (telemetry::Tracer::global().now_us() - start_us) / 1e3;
  if (ms < static_cast<double>(options_.slow_request_ms)) return;
  try {
    WCK_EVENT(kClientSlowRequest, step,
              server::slow_request_detail(tenant, type_name, ctx.trace_id, ms, request_bytes,
                                          reply_bytes, error, retries_ - retries_before));
  } catch (...) {
    // Slow-request logging is best-effort; never mask the RPC outcome.
  }
}

void StoreClient::ping() {
  net::PingRequest req;
  req.trace = make_trace_context();
  const net::AnyMessage reply = traced_round_trip(
      net::MessageType::kPing, "client.rpc.ping", "ping", {}, 0, req.trace, net::encode(req));
  if (!std::holds_alternative<net::PongResponse>(reply)) {
    throw FormatError("store server: unexpected reply to ping");
  }
}

net::PutOkResponse StoreClient::put(const std::string& tenant, std::uint64_t step,
                                    const NdArray<double>& array) {
  net::PutRequest req;
  req.tenant = tenant;
  req.step = step;
  // 0 is the "no token" sentinel on the wire; skip it.
  do {
    req.request_id = id_rng_.next();
  } while (req.request_id == 0);
  req.shape = array.shape();
  req.values.assign(array.values().begin(), array.values().end());
  req.trace = make_trace_context();
  net::AnyMessage reply =
      traced_round_trip(net::MessageType::kPut, "client.rpc.put", "put", tenant, step,
                        req.trace, net::encode(req));
  auto* ok = std::get_if<net::PutOkResponse>(&reply);
  if (ok == nullptr) throw FormatError("store server: unexpected reply to put");
  if (ok->request_id != 0 && ok->request_id != req.request_id) {
    throw FormatError("store server: put-ok echoes request id " +
                      std::to_string(ok->request_id) + ", sent " +
                      std::to_string(req.request_id));
  }
  if (ok->deduplicated) WCK_COUNTER_ADD("client.retry.deduplicated_puts", 1);
  return *ok;
}

StoreClient::GetResult StoreClient::get(const std::string& tenant) {
  net::GetRequest req;
  req.tenant = tenant;
  req.trace = make_trace_context();
  net::AnyMessage reply = traced_round_trip(net::MessageType::kGet, "client.rpc.get", "get",
                                            tenant, 0, req.trace, net::encode(req));
  auto* ok = std::get_if<net::GetOkResponse>(&reply);
  if (ok == nullptr) throw FormatError("store server: unexpected reply to get");
  if (ok->source > static_cast<std::uint8_t>(RestoreSource::kParity)) {
    throw FormatError("store server: unknown restore source " + std::to_string(ok->source));
  }
  GetResult result;
  result.step = ok->step;
  result.source = static_cast<RestoreSource>(ok->source);
  result.array = NdArray<double>(ok->shape, std::move(ok->values));
  return result;
}

net::StatOkResponse StoreClient::stat(const std::string& tenant) {
  net::StatRequest req;
  req.tenant = tenant;
  req.trace = make_trace_context();
  net::AnyMessage reply = traced_round_trip(net::MessageType::kStat, "client.rpc.stat",
                                            "stat", tenant, 0, req.trace, net::encode(req));
  if (auto* ok = std::get_if<net::StatOkResponse>(&reply)) return std::move(*ok);
  throw FormatError("store server: unexpected reply to stat");
}

void StoreClient::shutdown_server() {
  net::ShutdownRequest req;
  req.trace = make_trace_context();
  const net::AnyMessage reply =
      traced_round_trip(net::MessageType::kShutdown, "client.rpc.shutdown", "shutdown", {}, 0,
                        req.trace, net::encode(req), /*retriable=*/false);
  if (!std::holds_alternative<net::ShutdownOkResponse>(reply)) {
    throw FormatError("store server: unexpected reply to shutdown");
  }
}

}  // namespace wck
