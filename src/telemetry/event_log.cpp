#include "telemetry/event_log.hpp"

#include <algorithm>

#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"

namespace wck::telemetry {

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kCkptBegin: return "ckpt.begin";
    case EventKind::kCkptCommit: return "ckpt.commit";
    case EventKind::kCkptRetry: return "ckpt.retry";
    case EventKind::kCkptGiveup: return "ckpt.giveup";
    case EventKind::kCkptRotate: return "ckpt.rotate";
    case EventKind::kRestoreBegin: return "restore.begin";
    case EventKind::kRestoreFallback: return "restore.fallback";
    case EventKind::kRestoreDone: return "restore.done";
    case EventKind::kRestoreParity: return "restore.parity";
    case EventKind::kRestoreFailed: return "restore.failed";
    case EventKind::kScrubCorrupt: return "scrub.corrupt";
    case EventKind::kFaultInjected: return "fault.injected";
    case EventKind::kQueueBlock: return "queue.block";
    case EventKind::kQueueDropOldest: return "queue.drop_oldest";
    case EventKind::kQueueRejectNewest: return "queue.reject_newest";
    case EventKind::kWriterUnhealthy: return "writer.unhealthy";
    case EventKind::kSoakCycle: return "soak.cycle";
    case EventKind::kSoakVerifyFailed: return "soak.verify_failed";
    case EventKind::kQuotaRejected: return "quota.rejected";
    case EventKind::kServerStart: return "server.start";
    case EventKind::kServerStop: return "server.stop";
    case EventKind::kServerConnect: return "server.connect";
    case EventKind::kServerDisconnect: return "server.disconnect";
    case EventKind::kServerBusy: return "server.busy";
    case EventKind::kTmpSwept: return "ckpt.tmp_swept";
    case EventKind::kServerRecovery: return "server.recovery";
    case EventKind::kServerTimeout: return "server.timeout";
    case EventKind::kServerDrain: return "server.drain";
    case EventKind::kClientRetry: return "client.retry";
    case EventKind::kServerSlowRequest: return "server.slow_request";
    case EventKind::kClientSlowRequest: return "client.slow_request";
  }
  return "unknown";
}

EventLog::EventLog(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 64));
}

void EventLog::record(EventKind kind, std::uint64_t step, std::string detail) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lk(mu_);
  Event e;
  e.seq = total_;
  e.t_us = std::chrono::duration<double, std::micro>(now - epoch_).count();
  e.kind = kind;
  e.step = step;
  e.detail = std::move(detail);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[total_ % capacity_] = std::move(e);
  }
  ++total_;
}

std::vector<Event> EventLog::snapshot() const {
  MutexLock lk(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring is full: the oldest live event sits at the next write slot.
    const std::size_t head = total_ % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t EventLog::total() const {
  MutexLock lk(mu_);
  return total_;
}

std::uint64_t EventLog::dropped() const {
  MutexLock lk(mu_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
}

void EventLog::clear() {
  MutexLock lk(mu_);
  ring_.clear();
}

std::string event_to_json(const Event& e) {
  std::string out = "{\"seq\":";
  out += json_number(static_cast<double>(e.seq));
  out += ",\"t_us\":";
  out += json_number(e.t_us);
  out += ",\"kind\":";
  out += json_quote(event_kind_name(e.kind));
  out += ",\"step\":";
  out += json_number(static_cast<double>(e.step));
  out += ",\"detail\":";
  out += json_quote(e.detail);
  out += "}";
  return out;
}

std::string EventLog::to_jsonl(std::size_t max_events) const {
  std::vector<Event> events = snapshot();
  if (max_events != 0 && events.size() > max_events) {
    events.erase(events.begin(),
                 events.begin() + static_cast<std::ptrdiff_t>(events.size() - max_events));
  }
  std::string out;
  for (const Event& e : events) {
    out += event_to_json(e);
    out.push_back('\n');
  }
  return out;
}

std::string EventLog::to_jsonl_for(std::initializer_list<EventKind> kinds,
                                   std::size_t max_events) const {
  std::vector<Event> events = snapshot();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](const Event& e) {
                                return std::find(kinds.begin(), kinds.end(), e.kind) ==
                                       kinds.end();
                              }),
               events.end());
  if (max_events != 0 && events.size() > max_events) {
    events.erase(events.begin(),
                 events.begin() + static_cast<std::ptrdiff_t>(events.size() - max_events));
  }
  std::string out;
  for (const Event& e : events) {
    out += event_to_json(e);
    out.push_back('\n');
  }
  return out;
}

void EventLog::dump_to_file(const std::string& path, std::size_t max_events) const {
  write_text_file(path, to_jsonl(max_events));
}

EventLog& EventLog::global() {
  // Leaked intentionally: instrumented code may emit events from
  // detached threads during static destruction.
  static auto* log = new EventLog();
  return *log;
}

}  // namespace wck::telemetry
