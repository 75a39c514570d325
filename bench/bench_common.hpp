// Shared utilities for the figure/table reproduction harnesses: a tiny
// --key=value flag parser, aligned table printing, and the common
// "climate state after N steps" workload setup.
//
// Every bench accepts --nx/--ny/--nz/--warmup-steps so the default quick
// run (~seconds) can be scaled up toward the paper's sizes
// (--nx=128 --ny=64 --nz=23 gives the paper's ~1.5 MB per array).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "climate/mini_climate.hpp"
#include "telemetry/telemetry.hpp"

namespace wck::bench {

/// Minimal --key=value / --flag parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        std::exit(2);
      }
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg)] = std::string("1");
      } else {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      }
    }
  }

  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

  [[nodiscard]] std::string get_str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// The common workload: a MiniClimate run to the paper's checkpoint
/// point (720 steps by default; one paper step simulates 1200 s of
/// climate).
struct ClimateWorkload {
  ClimateConfig config;
  std::uint64_t warmup_steps = 720;
};

[[nodiscard]] inline ClimateWorkload climate_workload_from_args(const Args& args) {
  ClimateWorkload w;
  w.config.nx = static_cast<std::size_t>(args.get_int("nx", 64));
  w.config.ny = static_cast<std::size_t>(args.get_int("ny", 32));
  w.config.nz = static_cast<std::size_t>(args.get_int("nz", 8));
  w.config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2015));
  w.warmup_steps = static_cast<std::uint64_t>(args.get_int("warmup-steps", 720));
  return w;
}

/// Prints a row of fixed-width columns.
inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline void print_header(const char* title, const char* paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper expectation: %s\n", paper_expectation);
  std::printf("==============================================================\n");
}

/// Mean seconds per call of one codec stage (its "stage.<name>.seconds"
/// histogram) in `snapshot`; 0 if it never ran.
[[nodiscard]] inline double stage_mean(const telemetry::MetricsSnapshot& snapshot,
                                       const std::string& stage) {
  const auto it = snapshot.histograms.find("stage." + stage + ".seconds");
  return it == snapshot.histograms.end() ? 0.0 : it->second.mean;
}

/// Wraps a RunReport in the BENCH_*.json schema (see EXPERIMENTS.md):
///
///   { "schema": "wck-bench-record", "schema_version": 1,
///     "bench": "<name>", "report": { <wck-run-report> } }
///
/// Every bench binary that calls maybe_emit_bench_json() with
/// --bench-json[=PATH] emits one such record with the full telemetry
/// snapshot of the run, seeding the repo's perf trajectory.
[[nodiscard]] inline std::string bench_record_json(const std::string& bench_name,
                                                   telemetry::RunReport report) {
  report.capture_global();
  telemetry::Json::Object doc;
  doc["schema"] = "wck-bench-record";
  doc["schema_version"] = 1;
  doc["bench"] = bench_name;
  doc["report"] = report.to_json();
  return telemetry::Json(std::move(doc)).dump(1) + "\n";
}

/// Writes BENCH_<name>.json (or the --bench-json=PATH override) when
/// the flag is present; no-op otherwise. `report` carries whatever the
/// bench filled in (tool/params/bytes/error); global metrics and spans
/// are snapshotted here.
inline void maybe_emit_bench_json(const Args& args, const std::string& bench_name,
                                  telemetry::RunReport report) {
  if (!args.has("bench-json")) return;
  report.tool = report.tool.empty() ? "bench/" + bench_name : report.tool;
  std::string path = args.get_str("bench-json", "");
  if (path.empty() || path == "1") path = "BENCH_" + bench_name + ".json";
  telemetry::write_text_file(path, bench_record_json(bench_name, std::move(report)));
  std::printf("\nwrote bench record %s\n", path.c_str());
}

}  // namespace wck::bench
