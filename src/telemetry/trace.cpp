#include "telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "telemetry/json.hpp"

namespace wck::telemetry {

namespace {

// The thread's ambient distributed-trace context. Installed by an
// RPC-boundary TraceSpan for its lifetime; plain value swap, so setting
// and restoring it is allocation-free and noexcept.
thread_local TraceContext t_ambient_ctx;

TraceContext exchange_ambient(const TraceContext& ctx) noexcept {
  const TraceContext prev = t_ambient_ctx;
  t_ambient_ctx = ctx;
  return prev;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext current_trace_context() noexcept { return t_ambient_ctx; }

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  // Clock ⊕ the counter's (ASLR-randomised) address gives a base that
  // differs across processes even when they start in the same tick.
  static const std::uint64_t base =
      static_cast<std::uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count()) ^
      reinterpret_cast<std::uintptr_t>(&counter);
  std::uint64_t id;
  do {
    id = splitmix64(base + counter.fetch_add(1, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

std::string trace_id_hex(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return std::string(buf, 16);
}

struct Tracer::ThreadStream {
  mutable Mutex mu;
  std::vector<SpanRecord> spans WCK_GUARDED_BY(mu);
  // Written once (under the Tracer's mu_) before the stream is ever
  // shared; read-only afterwards, so it needs no guard.
  std::uint32_t tid = 0;
  // Only the owning thread calls enter()/leave(), but snapshotting
  // threads hold mu for spans anyway — guarding depth too keeps the
  // whole mutable state under one discipline at zero extra cost.
  std::uint32_t depth WCK_GUARDED_BY(mu) = 0;
};

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadStream& Tracer::stream_for_this_thread() {
  thread_local std::shared_ptr<ThreadStream> local;
  thread_local Tracer* local_owner = nullptr;
  if (!local || local_owner != this) {
    auto stream = std::make_shared<ThreadStream>();
    MutexLock lk(mu_);
    stream->tid = static_cast<std::uint32_t>(streams_.size());
    streams_.push_back(stream);
    local = std::move(stream);
    local_owner = this;
  }
  return *local;
}

void Tracer::record(std::string name, double start_us, double dur_us, std::uint32_t depth) {
  record(std::move(name), start_us, dur_us, depth, TraceContext{});
}

bool Tracer::reserve_slot() noexcept {
  std::size_t held = held_.load(std::memory_order_relaxed);
  do {
    if (held >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      WCK_COUNTER_ADD("trace.spans.dropped", 1);
      return false;
    }
  } while (!held_.compare_exchange_weak(held, held + 1, std::memory_order_relaxed));
  return true;
}

void Tracer::record(std::string name, double start_us, double dur_us, std::uint32_t depth,
                    const TraceContext& ctx) {
  if (!reserve_slot()) return;
  ThreadStream& s = stream_for_this_thread();
  MutexLock lk(s.mu);
  s.spans.push_back(SpanRecord{std::move(name), start_us, dur_us, depth, s.tid, ctx.trace_id,
                               ctx.span_id, ctx.parent_span_id});
}

std::uint32_t Tracer::enter() {
  ThreadStream& s = stream_for_this_thread();
  MutexLock lk(s.mu);
  return s.depth++;
}

void Tracer::leave() {
  ThreadStream& s = stream_for_this_thread();
  MutexLock lk(s.mu);
  if (s.depth > 0) --s.depth;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<std::shared_ptr<ThreadStream>> streams;
  {
    MutexLock lk(mu_);
    streams = streams_;
  }
  std::vector<SpanRecord> out;
  for (const auto& s : streams) {
    MutexLock lk(s->mu);
    out.insert(out.end(), s->spans.begin(), s->spans.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_us < b.start_us;
  });
  return out;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<ThreadStream>> streams;
  {
    MutexLock lk(mu_);
    streams = streams_;
  }
  for (const auto& s : streams) {
    MutexLock lk(s->mu);
    s->spans.clear();
  }
  held_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::chrome_trace_json() const {
  Json::Array events;
  for (const SpanRecord& span : snapshot()) {
    Json::Object e;
    e["name"] = span.name;
    e["ph"] = "X";
    e["ts"] = span.start_us;
    e["dur"] = span.dur_us;
    e["pid"] = 0;
    e["tid"] = static_cast<double>(span.tid);
    Json::Object args{{"depth", static_cast<double>(span.depth)}};
    // Ids go out as 16-digit hex strings: JSON numbers lose precision
    // above 2^53, and merge_traces.py matches them textually anyway.
    if (span.trace_id != 0) args["trace_id"] = trace_id_hex(span.trace_id);
    if (span.span_id != 0) args["span_id"] = trace_id_hex(span.span_id);
    if (span.parent_span_id != 0) args["parent_span_id"] = trace_id_hex(span.parent_span_id);
    e["args"] = std::move(args);
    events.emplace_back(std::move(e));
  }
  Json::Object doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return Json(std::move(doc)).dump(1);
}

Tracer& Tracer::global() {
  static auto* tracer = new Tracer();  // leaked: see MetricsRegistry::global
  return *tracer;
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  // Interior spans inherit the ambient trace (parented to the
  // enclosing RPC span) without drawing their own span id.
  ctx_ = TraceContext{t_ambient_ctx.trace_id, 0, t_ambient_ctx.span_id};
  Tracer& t = Tracer::global();
  depth_ = t.enter();
  start_us_ = t.now_us();
}

TraceSpan::TraceSpan(const char* name, const TraceContext& ctx) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  ctx_ = ctx;
  if (ctx.active()) {
    scoped_ = true;
    prev_ = exchange_ambient(ctx);
  }
  Tracer& t = Tracer::global();
  depth_ = t.enter();
  start_us_ = t.now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  Tracer& t = Tracer::global();
  const double end_us = t.now_us();
  t.record(name_, start_us_, end_us - start_us_, depth_, ctx_);
  t.leave();
  if (scoped_) exchange_ambient(prev_);
}

}  // namespace wck::telemetry
