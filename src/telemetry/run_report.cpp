#include "telemetry/run_report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "telemetry/trace.hpp"

namespace wck::telemetry {
namespace {

constexpr const char* kStagePrefix = "stage.";
constexpr const char* kStageSuffix = ".seconds";

/// "stage.wavelet.seconds" -> "wavelet"; empty when not a stage metric.
std::string stage_name_of(const std::string& metric) {
  const std::string prefix(kStagePrefix);
  const std::string suffix(kStageSuffix);
  if (metric.size() <= prefix.size() + suffix.size()) return {};
  if (metric.compare(0, prefix.size(), prefix) != 0) return {};
  if (metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) != 0) return {};
  return metric.substr(prefix.size(), metric.size() - prefix.size() - suffix.size());
}

Json histogram_json(const MetricsSnapshot::HistogramStats& h) {
  Json::Object o;
  o["count"] = static_cast<double>(h.count);
  o["sum"] = h.sum;
  o["min"] = h.min;
  o["max"] = h.max;
  o["mean"] = h.mean;
  o["p50"] = h.p50;
  o["p95"] = h.p95;
  o["p99"] = h.p99;
  return Json(std::move(o));
}

MetricsSnapshot::HistogramStats histogram_from_json(const Json& j) {
  MetricsSnapshot::HistogramStats h;
  h.count = static_cast<std::uint64_t>(j.at("count").as_number());
  h.sum = j.at("sum").as_number();
  h.min = j.at("min").as_number();
  h.max = j.at("max").as_number();
  h.mean = j.at("mean").as_number();
  // Quantiles are additive (v1 reports written before them lack the
  // keys); tolerate their absence for round-tripping old artifacts.
  if (const Json* p = j.find("p50")) h.p50 = p->as_number();
  if (const Json* p = j.find("p95")) h.p95 = p->as_number();
  if (const Json* p = j.find("p99")) h.p99 = p->as_number();
  return h;
}

/// Non-finite doubles (ErrorSummary::psnr on exact reconstruction) have
/// no JSON number form; the schema represents them as null.
Json finite_or_null(double v) {
  return std::isfinite(v) ? Json(v) : Json();
}

}  // namespace

void RunReport::capture_global() {
  metrics = MetricsRegistry::global().snapshot();
  span_count = Tracer::global().span_count();
  for (const auto& [name, h] : metrics.histograms) {
    const std::string stage = stage_name_of(name);
    if (!stage.empty() && h.count > 0) stages_seconds[stage] = h.sum;
  }
}

Json RunReport::to_json() const {
  Json::Object doc;
  doc["schema"] = kSchemaName;
  doc["schema_version"] = kSchemaVersion;
  doc["tool"] = tool;

  Json::Object params_o;
  for (const auto& [k, v] : params) params_o[k] = v;
  doc["params"] = std::move(params_o);

  Json::Object stages_o;
  for (const auto& [k, v] : stages_seconds) stages_o[k] = v;
  doc["stages_seconds"] = std::move(stages_o);

  Json::Object bytes_o;
  bytes_o["original"] = static_cast<double>(original_bytes);
  bytes_o["compressed"] = static_cast<double>(compressed_bytes);
  bytes_o["payload"] = static_cast<double>(payload_bytes);
  doc["bytes"] = std::move(bytes_o);
  doc["compression_rate_percent"] = compression_rate_percent();

  if (has_error_metrics) {
    Json::Object err_o;
    err_o["mean_rel"] = error.mean_rel;
    err_o["max_rel"] = error.max_rel;
    err_o["max_abs"] = error.max_abs;
    err_o["rmse"] = error.rmse;
    err_o["psnr"] = finite_or_null(error.psnr);
    err_o["count"] = static_cast<double>(error.count);
    doc["error"] = std::move(err_o);
  }

  Json::Object counters_o;
  for (const auto& [k, v] : metrics.counters) counters_o[k] = static_cast<double>(v);
  Json::Object gauges_o;
  for (const auto& [k, v] : metrics.gauges) gauges_o[k] = v;
  Json::Object hists_o;
  for (const auto& [k, v] : metrics.histograms) hists_o[k] = histogram_json(v);
  Json::Object metrics_o;
  metrics_o["counters"] = std::move(counters_o);
  metrics_o["gauges"] = std::move(gauges_o);
  metrics_o["histograms"] = std::move(hists_o);
  doc["metrics"] = std::move(metrics_o);

  doc["span_count"] = static_cast<double>(span_count);
  if (!quality.is_null()) doc["quality"] = quality;
  return Json(std::move(doc));
}

std::string RunReport::to_json_text(int indent) const { return to_json().dump(indent); }

RunReport RunReport::from_json(const Json& doc) {
  if (doc.at("schema").as_string() != kSchemaName) {
    throw std::runtime_error("run report: unexpected schema " + doc.at("schema").as_string());
  }
  const int version = static_cast<int>(doc.at("schema_version").as_number());
  if (version != kSchemaVersion) {
    throw std::runtime_error("run report: unsupported schema version " +
                             std::to_string(version));
  }

  RunReport r;
  r.tool = doc.at("tool").as_string();
  for (const auto& [k, v] : doc.at("params").as_object()) r.params[k] = v.as_string();
  for (const auto& [k, v] : doc.at("stages_seconds").as_object()) {
    r.stages_seconds[k] = v.as_number();
  }
  const Json& bytes = doc.at("bytes");
  r.original_bytes = static_cast<std::uint64_t>(bytes.at("original").as_number());
  r.compressed_bytes = static_cast<std::uint64_t>(bytes.at("compressed").as_number());
  r.payload_bytes = static_cast<std::uint64_t>(bytes.at("payload").as_number());

  if (const Json* err = doc.find("error")) {
    r.has_error_metrics = true;
    r.error.mean_rel = err->at("mean_rel").as_number();
    r.error.max_rel = err->at("max_rel").as_number();
    r.error.max_abs = err->at("max_abs").as_number();
    r.error.rmse = err->at("rmse").as_number();
    if (const Json* psnr = err->find("psnr")) {
      r.error.psnr = psnr->is_null() ? std::numeric_limits<double>::infinity()
                                     : psnr->as_number();
    }
    r.error.count = static_cast<std::uint64_t>(err->at("count").as_number());
  }

  const Json& metrics = doc.at("metrics");
  for (const auto& [k, v] : metrics.at("counters").as_object()) {
    r.metrics.counters[k] = static_cast<std::uint64_t>(v.as_number());
  }
  for (const auto& [k, v] : metrics.at("gauges").as_object()) {
    r.metrics.gauges[k] = v.as_number();
  }
  for (const auto& [k, v] : metrics.at("histograms").as_object()) {
    r.metrics.histograms[k] = histogram_from_json(v);
  }
  r.span_count = static_cast<std::uint64_t>(doc.at("span_count").as_number());
  if (const Json* quality = doc.find("quality")) r.quality = *quality;
  return r;
}

std::string RunReport::to_text() const {
  std::string out;
  char buf[160];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
    out.push_back('\n');
  };
  line("%s", tool.c_str());
  for (const auto& [k, v] : params) line("  %-18s %s", k.c_str(), v.c_str());
  if (original_bytes != 0) {
    line("  %-18s %llu -> %llu bytes (compression rate %.2f %%)", "size",
         static_cast<unsigned long long>(original_bytes),
         static_cast<unsigned long long>(compressed_bytes), compression_rate_percent());
  }
  if (payload_bytes != 0) {
    line("  %-18s %llu bytes", "payload",
         static_cast<unsigned long long>(payload_bytes));
  }
  for (const auto& [stage, seconds] : stages_seconds) {
    line("  stage %-12s %10.3f ms", stage.c_str(), seconds * 1e3);
  }
  if (has_error_metrics) {
    line("  %-18s %.6f %%", "avg rel error", error.mean_rel * 100.0);
    line("  %-18s %.6f %%", "max rel error", error.max_rel * 100.0);
    line("  %-18s %.6g", "max abs error", error.max_abs);
    line("  %-18s %.6g", "rmse", error.rmse);
  }
  line("  %-18s %llu", "spans", static_cast<unsigned long long>(span_count));
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.flush();
  if (!f) throw std::runtime_error("write failed for " + path);
}

}  // namespace wck::telemetry
