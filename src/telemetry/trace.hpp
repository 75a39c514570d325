// Scoped-span tracing: WCK_TRACE_SPAN("wavelet") records the enclosing
// scope's wall time into a per-thread span stream. Streams are owned by
// the process-wide Tracer and can be exported as Chrome trace-event
// JSON (load the file at chrome://tracing or https://ui.perfetto.dev).
//
// Concurrency model: each thread appends only to its own stream under
// that stream's mutex (uncontended in steady state); snapshot/export
// locks each stream briefly. Nesting depth is tracked per thread, so
// spans opened inside other spans carry their depth for flame-style
// rendering.
//
// A tracer holds at most `capacity` spans (2^22, ~350 MB of records,
// for the global one). Past that, spans are counted in dropped() and
// in the trace.spans.dropped counter instead of stored, so a
// long-running server with telemetry on stops growing; clear() empties
// the streams and restores the capacity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"  // enabled()
#include "util/thread_annotations.hpp"

namespace wck::telemetry {

/// Cross-process trace identity, carried over the wire by the store
/// protocol (net::protocol). 0 is the "no context" sentinel everywhere:
/// a zero trace_id means the span belongs to no distributed trace, and
/// a fully-zero context encodes as *absent* on the wire, so old peers
/// and telemetry-off processes interoperate unchanged.
struct TraceContext {
  std::uint64_t trace_id = 0;         ///< one RPC tree, all processes
  std::uint64_t span_id = 0;          ///< this span within the trace
  std::uint64_t parent_span_id = 0;   ///< 0 = root span of the trace
  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
  [[nodiscard]] bool zero() const noexcept {
    return trace_id == 0 && span_id == 0 && parent_span_id == 0;
  }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Process-unique nonzero span/trace id: an atomic counter mixed over a
/// per-process base (clock ⊕ ASLR'd address), so two processes that
/// trace the same RPC tree almost surely draw from disjoint id streams.
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// The calling thread's ambient trace context (set by an RPC-boundary
/// TraceSpan for its lifetime); zero outside any traced RPC.
[[nodiscard]] TraceContext current_trace_context() noexcept;

/// 16-digit lowercase hex rendering of a trace/span id, the stable
/// textual form used in chrome-trace args and slow-request log lines.
[[nodiscard]] std::string trace_id_hex(std::uint64_t id);

/// One completed span.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< microseconds since process trace epoch
  double dur_us = 0.0;
  std::uint32_t depth = 0;  ///< 0 = outermost span on that thread
  std::uint32_t tid = 0;    ///< dense per-process thread index
  /// Distributed-trace identity; all zero for spans recorded outside a
  /// traced RPC. Interior spans carry the ambient trace_id (and the
  /// enclosing RPC span as parent) so a merged timeline can attribute
  /// them without each one drawing its own id.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 22;

  explicit Tracer(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since this tracer's epoch (steady clock).
  [[nodiscard]] double now_us() const noexcept;

  /// Appends a completed span to the calling thread's stream, or
  /// counts it as dropped when the tracer already holds `capacity`.
  void record(std::string name, double start_us, double dur_us, std::uint32_t depth);

  /// Same, with an explicit distributed-trace identity on the span.
  void record(std::string name, double start_us, double dur_us, std::uint32_t depth,
              const TraceContext& ctx);

  /// Enters/leaves a nesting level on the calling thread; returns the
  /// depth the span runs at.
  std::uint32_t enter();
  void leave();

  /// All spans from all threads, ordered by (tid, start).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Spans held now (at most capacity()).
  [[nodiscard]] std::size_t span_count() const noexcept {
    return held_.load(std::memory_order_relaxed);
  }

  /// Spans refused since the last clear() because the tracer was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops all recorded spans and the dropped count (streams stay
  /// registered).
  void clear();

  /// Chrome trace-event JSON ("X" complete events, one row per thread).
  [[nodiscard]] std::string chrome_trace_json() const;

  static Tracer& global();

 private:
  struct ThreadStream;
  ThreadStream& stream_for_this_thread();

  /// Claims one of the capacity_ slots; false when the tracer is full.
  bool reserve_slot() noexcept;

  mutable Mutex mu_;
  std::vector<std::shared_ptr<ThreadStream>> streams_ WCK_GUARDED_BY(mu_);
  const std::size_t capacity_;
  std::atomic<std::size_t> held_{0};
  std::atomic<std::uint64_t> dropped_{0};
  // Set once at construction, immutable after — needs no guard.
  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span: measures construction-to-destruction and records it into
/// Tracer::global(). Inactive (and allocation-free) when telemetry is
/// disabled at construction time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);

  /// RPC-boundary span: records `ctx` on the span and installs it as
  /// the thread's ambient context for the span's lifetime, so nested
  /// WCK_TRACE_SPANs inherit the trace_id. The previous ambient
  /// context is restored on destruction.
  TraceSpan(const char* name, const TraceContext& ctx);

  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  double start_us_ = 0.0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
  bool scoped_ = false;     ///< true when this span swapped the ambient ctx
  TraceContext ctx_;        ///< identity recorded on this span
  TraceContext prev_;       ///< ambient context to restore
};

}  // namespace wck::telemetry

#define WCK_TRACE_CONCAT_IMPL(a, b) a##b
#define WCK_TRACE_CONCAT(a, b) WCK_TRACE_CONCAT_IMPL(a, b)
/// Records the enclosing scope as a named span on the current thread.
#define WCK_TRACE_SPAN(name) \
  ::wck::telemetry::TraceSpan WCK_TRACE_CONCAT(wck_trace_span_, __LINE__)(name)
