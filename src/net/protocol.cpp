#include "net/protocol.hpp"

#include "util/error.hpp"

namespace wck::net {
namespace {

void put_shape(ByteWriter& w, const Shape& shape) {
  w.u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t a = 0; a < shape.rank(); ++a) w.varint(shape[a]);
}

[[nodiscard]] Shape get_shape(ByteReader& r) { return read_shape(r, "net message: shape"); }

void put_values(ByteWriter& w, const Shape& shape, const std::vector<double>& values) {
  if (values.size() != shape.size()) {
    throw InvalidArgumentError("net message: " + std::to_string(values.size()) +
                               " values for shape " + shape.to_string());
  }
  w.varint(values.size());
  w.f64_array(values);
}

/// Reads the value block for `shape`, cross-checking the declared count
/// against both the shape and the bytes actually present *before*
/// allocating — a mutated count cannot allocation-bomb the decoder.
[[nodiscard]] std::vector<double> get_values(ByteReader& r, const Shape& shape) {
  const std::uint64_t count = r.varint();
  if (count != shape.size()) {
    throw FormatError("net message: value count " + std::to_string(count) +
                      " does not match shape " + shape.to_string());
  }
  return r.f64_vector(count);
}

void expect_exhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) {
    throw FormatError(std::string("net message: trailing bytes after ") + what);
  }
}

/// Appends the request's trace context as a 24-byte suffix — or nothing
/// when the context is all-zero, keeping the encoding byte-identical to
/// the pre-trace wire format (what an old or telemetry-off peer sends).
void put_trace(ByteWriter& w, const TraceContext& trace) {
  if (trace.zero()) return;
  w.u64(trace.trace_id);
  w.u64(trace.span_id);
  w.u64(trace.parent_span_id);
}

constexpr std::size_t kTraceSuffixBytes = 3 * sizeof(std::uint64_t);

/// Reads the optional trailing trace context: absent (reader exhausted)
/// decodes as the zero context; anything between 1 and 23 bytes is a
/// truncated suffix and rejected, as are bytes *after* a full suffix.
[[nodiscard]] TraceContext get_trace(ByteReader& r, const char* what) {
  if (r.exhausted()) return TraceContext{};
  if (r.remaining() < kTraceSuffixBytes) {
    throw FormatError(std::string("net message: truncated trace context after ") + what);
  }
  TraceContext trace;
  trace.trace_id = r.u64();
  trace.span_id = r.u64();
  trace.parent_span_id = r.u64();
  expect_exhausted(r, what);
  return trace;
}

[[nodiscard]] Bytes empty_body() { return Bytes{}; }

/// A request whose only payload is its optional trace suffix.
[[nodiscard]] Bytes trace_only_body(const TraceContext& trace) {
  if (trace.zero()) return empty_body();
  ByteWriter w;
  put_trace(w, trace);
  return w.take();
}

}  // namespace

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kQuotaExceeded: return "quota-exceeded";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kTimeout: return "timeout";
  }
  return "unknown";
}

Bytes encode(const PingRequest& m) { return trace_only_body(m.trace); }
Bytes encode(const ShutdownRequest& m) { return trace_only_body(m.trace); }
Bytes encode(const PongResponse&) { return empty_body(); }
Bytes encode(const ShutdownOkResponse&) { return empty_body(); }

Bytes encode(const PutRequest& m) {
  ByteWriter w;
  w.str(m.tenant);
  w.u64(m.step);
  w.u64(m.request_id);
  put_shape(w, m.shape);
  put_values(w, m.shape, m.values);
  put_trace(w, m.trace);
  return w.take();
}

Bytes encode(const GetRequest& m) {
  ByteWriter w;
  w.str(m.tenant);
  put_trace(w, m.trace);
  return w.take();
}

Bytes encode(const StatRequest& m) {
  ByteWriter w;
  w.str(m.tenant);
  put_trace(w, m.trace);
  return w.take();
}

Bytes encode(const PutOkResponse& m) {
  ByteWriter w;
  w.u64(m.step);
  w.u64(m.stored_bytes);
  w.u64(m.total_bytes);
  w.u32(m.generations);
  w.u64(m.request_id);
  w.u8(m.deduplicated ? 1 : 0);
  return w.take();
}

Bytes encode(const GetOkResponse& m) {
  ByteWriter w;
  w.u64(m.step);
  w.u8(m.source);
  put_shape(w, m.shape);
  put_values(w, m.shape, m.values);
  return w.take();
}

Bytes encode(const StatOkResponse& m) {
  ByteWriter w;
  w.u64(m.tenants);
  w.varint(m.stats.size());
  for (const TenantStat& s : m.stats) {
    w.str(s.name);
    w.u64(s.generations);
    w.u64(s.stored_bytes);
    w.u64(s.quota_bytes);
    w.u64(s.newest_step);
  }
  // Health block: one record per entry, *after* all base entries, so a
  // pre-health client's decoder fails loudly (trailing bytes) instead of
  // misparsing, and a pre-health server's reply (no block) decodes here
  // with default health.
  for (const TenantStat& s : m.stats) {
    w.u64(s.quarantined);
    w.u64(s.scrub_age_ms);
    w.str(s.last_error);
  }
  return w.take();
}

Bytes encode(const ErrorResponse& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.code));
  w.str(m.message);
  return w.take();
}

AnyMessage decode_message(const Frame& frame) {
  ByteReader r{std::span<const std::byte>(frame.payload)};
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kPing: {
      PingRequest m;
      m.trace = get_trace(r, "ping");
      return m;
    }
    case MessageType::kShutdown: {
      ShutdownRequest m;
      m.trace = get_trace(r, "shutdown");
      return m;
    }
    case MessageType::kPong: {
      expect_exhausted(r, "pong");
      return PongResponse{};
    }
    case MessageType::kShutdownOk: {
      expect_exhausted(r, "shutdown-ok");
      return ShutdownOkResponse{};
    }
    case MessageType::kPut: {
      PutRequest m;
      m.tenant = r.str();
      m.step = r.u64();
      m.request_id = r.u64();
      m.shape = get_shape(r);
      m.values = get_values(r, m.shape);
      m.trace = get_trace(r, "put");
      return m;
    }
    case MessageType::kGet: {
      GetRequest m;
      m.tenant = r.str();
      m.trace = get_trace(r, "get");
      return m;
    }
    case MessageType::kStat: {
      StatRequest m;
      m.tenant = r.str();
      m.trace = get_trace(r, "stat");
      return m;
    }
    case MessageType::kPutOk: {
      PutOkResponse m;
      m.step = r.u64();
      m.stored_bytes = r.u64();
      m.total_bytes = r.u64();
      m.generations = r.u32();
      m.request_id = r.u64();
      const std::uint8_t dedup = r.u8();
      if (dedup > 1) {
        throw FormatError("net message: put-ok dedup flag " + std::to_string(dedup));
      }
      m.deduplicated = dedup == 1;
      expect_exhausted(r, "put-ok");
      return m;
    }
    case MessageType::kGetOk: {
      GetOkResponse m;
      m.step = r.u64();
      m.source = r.u8();
      m.shape = get_shape(r);
      m.values = get_values(r, m.shape);
      expect_exhausted(r, "get-ok");
      return m;
    }
    case MessageType::kStatOk: {
      StatOkResponse m;
      m.tenants = r.u64();
      const std::uint64_t n = r.varint();
      // Each entry needs at least its four u64 fields plus a length
      // byte; bound the reserve by what the payload could actually hold.
      if (n > r.remaining() / 33) {
        throw FormatError("net message: stat entry count exceeds payload");
      }
      m.stats.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        TenantStat s;
        s.name = r.str();
        s.generations = r.u64();
        s.stored_bytes = r.u64();
        s.quota_bytes = r.u64();
        s.newest_step = r.u64();
        m.stats.push_back(std::move(s));
      }
      // Optional trailing health block (absent in pre-health replies:
      // the entries above decode with TenantStat's defaults).
      if (!r.exhausted()) {
        for (TenantStat& s : m.stats) {
          s.quarantined = r.u64();
          s.scrub_age_ms = r.u64();
          s.last_error = r.str();
        }
      }
      expect_exhausted(r, "stat-ok");
      return m;
    }
    case MessageType::kError: {
      ErrorResponse m;
      const std::uint8_t code = r.u8();
      if (code < 1 || code > static_cast<std::uint8_t>(ErrorCode::kTimeout)) {
        throw FormatError("net message: unknown error code " + std::to_string(code));
      }
      m.code = static_cast<ErrorCode>(code);
      m.message = r.str();
      expect_exhausted(r, "error");
      return m;
    }
  }
  throw FormatError("net message: unknown frame type " + std::to_string(frame.type));
}

}  // namespace wck::net
