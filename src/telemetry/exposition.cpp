#include "telemetry/exposition.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/event_log.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_report.hpp"

namespace wck::telemetry {
namespace {

bool is_prom_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_';
}

void append_sample(std::string& out, const std::string& name, double value) {
  out += name;
  out.push_back(' ');
  // Prometheus accepts +Inf/-Inf/NaN spellings, unlike JSON.
  if (std::isfinite(value)) {
    out += json_number(value);
  } else if (std::isnan(value)) {
    out += "NaN";
  } else {
    out += value > 0 ? "+Inf" : "-Inf";
  }
  out.push_back('\n');
}

bool write_file_best_effort(const std::filesystem::path& path, const std::string& text) {
  try {
    write_text_file(path.string(), text);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace

std::string prometheus_name(std::string_view metric) {
  std::string out = "wck_";
  out.reserve(out.size() + metric.size());
  for (const char c : metric) out.push_back(is_prom_char(c) ? c : '_');
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [metric, value] : snapshot.counters) {
    const std::string name = prometheus_name(metric);
    out += "# TYPE " + name + " counter\n";
    append_sample(out, name, static_cast<double>(value));
  }
  for (const auto& [metric, value] : snapshot.gauges) {
    const std::string name = prometheus_name(metric);
    out += "# TYPE " + name + " gauge\n";
    append_sample(out, name, value);
  }
  for (const auto& [metric, h] : snapshot.histograms) {
    const std::string name = prometheus_name(metric);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? json_number(h.bounds[i]) : std::string("+Inf");
      out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + json_number(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
    // Quantile estimates as companion gauges: a histogram TYPE must not
    // carry {quantile=...} series, so they get their own names.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", h.p50}, {"_p95", h.p95}, {"_p99", h.p99}}) {
      const std::string qname = name + suffix;
      out += "# TYPE " + qname + " gauge\n";
      append_sample(out, qname, q);
    }
  }
  return out;
}

bool write_exposition_snapshot(const std::filesystem::path& dir, std::size_t event_tail) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; writes report
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  bool ok = write_file_best_effort(dir / "metrics.prom", prometheus_text(snap));
  ok = write_file_best_effort(dir / "events.jsonl",
                              EventLog::global().to_jsonl(event_tail)) &&
       ok;
  ok = write_file_best_effort(
           dir / "slow-requests.jsonl",
           EventLog::global().to_jsonl_for(
               {EventKind::kServerSlowRequest, EventKind::kClientSlowRequest})) &&
       ok;
  return ok;
}

PeriodicSnapshotWriter::PeriodicSnapshotWriter(std::filesystem::path dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; write_once reports
}

PeriodicSnapshotWriter::~PeriodicSnapshotWriter() { stop(); }

bool PeriodicSnapshotWriter::write_once() {
  const bool ok = write_exposition_snapshot(dir_, options_.event_tail);
  writes_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void PeriodicSnapshotWriter::start() {
  MutexLock lk(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run(); });
}

void PeriodicSnapshotWriter::stop() {
  // Claim the thread handle under the lock and join the local copy:
  // with the handle itself guarded, two racing stop() calls can never
  // both reach join() on the same std::thread (which is undefined
  // behavior). The loser of the race sees started_ == false and leaves
  // the final dump to the winner.
  std::thread claimed;
  {
    MutexLock lk(mu_);
    if (!started_) return;
    started_ = false;
    stopping_ = true;
    claimed = std::move(thread_);
  }
  cv_.notify_all();
  if (claimed.joinable()) claimed.join();
  write_once();  // final state dump
}

void PeriodicSnapshotWriter::run() {
  MutexLock lk(mu_);
  while (!stopping_) {
    // Wait first so a stop() right after start() skips the initial dump
    // race; stop() performs the final write.
    if (cv_.wait_for(lk, options_.interval, [this] {
          mu_.assert_held();
          return stopping_;
        })) {
      break;
    }
    lk.unlock();
    write_once();
    lk.lock();
  }
}

}  // namespace wck::telemetry
