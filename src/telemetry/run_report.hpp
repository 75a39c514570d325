// RunReport: one schema-versioned JSON document per run that snapshots
// everything the paper's evaluation reports — per-stage durations
// (Fig. 9), compression rate (Figs. 6-7), error metrics (Figs. 8/10) —
// plus the full metrics registry and span stream totals. The wckpt CLI
// (--telemetry / --json), the bench harness (BENCH_*.json), and the CI
// bench-smoke validator all speak this schema.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace wck::telemetry {

/// Error metrics mirror of stats/ErrorStats (plain doubles so the
/// telemetry layer stays dependency-free; call sites copy fields over).
struct ErrorSummary {
  double mean_rel = 0.0;
  double max_rel = 0.0;
  double max_abs = 0.0;
  double rmse = 0.0;
  double psnr = 0.0;  ///< dB; +inf (exact) serializes as JSON null
  std::uint64_t count = 0;
};

struct RunReport {
  /// Bump on any incompatible field change; consumers must check it.
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "wck-run-report";

  std::string tool;                            ///< e.g. "wckpt compress"
  std::map<std::string, std::string> params;   ///< codec/shape/flags
  std::map<std::string, double> stages_seconds;  ///< "wavelet", "quantize", ...
  std::uint64_t original_bytes = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t payload_bytes = 0;
  ErrorSummary error;
  bool has_error_metrics = false;
  MetricsSnapshot metrics;
  std::uint64_t span_count = 0;
  /// Optional quality-observability section (schema-versioned
  /// "wck-quality-report" document built by src/quality — the telemetry
  /// layer carries it opaquely so it stays dependency-free). Null when
  /// absent.
  Json quality;

  /// Eq. 5 (percent of original size; lower is better).
  [[nodiscard]] double compression_rate_percent() const noexcept {
    return original_bytes == 0 ? 0.0
                               : 100.0 * static_cast<double>(compressed_bytes) /
                                     static_cast<double>(original_bytes);
  }

  /// Fills stages_seconds / metrics / span_count from the global
  /// registry and tracer. Stage durations are the sums of every
  /// "stage.<name>.seconds" histogram that holds a sample.
  void capture_global();

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] std::string to_json_text(int indent = 1) const;
  [[nodiscard]] static RunReport from_json(const Json& doc);

  /// Human-readable rendering of the same data (the CLI text path).
  [[nodiscard]] std::string to_text() const;
};

/// Writes `text` to `path`; throws std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace wck::telemetry
