// Figure 9 reproduction: estimated overall checkpoint time at increasing
// parallelism, with the measured per-process compression breakdown
// (wavelet / quantization+encoding / temporary-file write / gzip /
// other) and the no-compression baseline.
//
// Methodology mirrors the paper's Sec. IV-D exactly: per-process
// compression stage times are *measured* on a 1.5 MB checkpoint array
// (the paper's per-process size, its exact 1156x82x2 shape by default);
// the shared-PFS I/O time is *modeled* as size*cr*P / 20 GB/s.
//
// Paper result: the with-compression line is flatter; crosspoint around
// P = 768; ~55 % cost reduction at P = 2048, approaching 81 % (=1-cr)
// asymptotically. Most compression time is gzip through temp files.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "iomodel/cost_model.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  // Default: the paper's exact per-process array shape (1.5 MB).
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const double bandwidth = args.get_double("bandwidth-gbs", 20.0) * 1e9;
  const int repeats = static_cast<int>(args.get_int("repeats", 5));
  // --threads=N runs the gzip stage's segments on N workers (0 defers
  // to WCK_THREADS, unset meaning 1 — see src/deflate/parallel.hpp).
  const int threads = static_cast<int>(args.get_int("threads", 0));

  print_header("Figure 9: overall checkpoint time vs parallelism",
               "flatter with-compression line; crosspoint ~768 procs; "
               "~55% reduction at P=2048; 81% asymptotic");

  // The whole point of this bench is the per-stage breakdown, which now
  // lives in the telemetry histograms — make sure they are recording.
  telemetry::set_enabled(true);

  const auto field = make_temperature_field(Shape{nx, ny, nz}, 2015);
  std::printf("per-process checkpoint: %zu bytes (%.2f MB), PFS %.0f GB/s\n\n",
              field.size_bytes(), static_cast<double>(field.size_bytes()) / 1e6,
              bandwidth / 1e9);

  // Measure per-process compression with the paper's implementation
  // (temp-file gzip); median-ish by averaging over repeats.
  CompressionParams params;
  params.quantizer.kind = QuantizerKind::kSpike;
  params.quantizer.divisions = 128;
  params.entropy = EntropyMode::kTempFileGzip;
  params.threads = threads;
  const WaveletCompressor compressor(params);

  double rate = 0.0;
  std::size_t compressed_bytes = 0;
  std::size_t payload_bytes = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto comp = compressor.compress(field);
    rate = comp.compression_rate_percent() / 100.0;
    compressed_bytes = comp.data.size();
    payload_bytes = comp.payload_bytes;
  }

  // Per-stage averages come straight from the telemetry histograms the
  // pipeline recorded (mean = sum over `repeats` calls / count). The
  // paper's five rows fold quantize + encode into one and call the
  // deflate stage gzip.
  const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
  const auto mean = [&snapshot](const char* stage) { return stage_mean(snapshot, stage); };
  const std::pair<const char*, double> breakdown[] = {
      {"wavelet", mean("wavelet")},
      {"quantize+encode", mean("quantize") + mean("encode")},
      {"temp file write", mean("temp_file_write")},
      {"gzip", mean("deflate")},
      {"other", mean("other")},
  };
  double total = 0.0;
  std::printf("measured per-process compression breakdown (avg of %d runs):\n", repeats);
  for (const auto& [stage, seconds] : breakdown) {
    std::printf("  %-18s %8.3f ms\n", stage, seconds * 1e3);
    total += seconds;
  }
  std::printf("  %-18s %8.3f ms\n", "total", total * 1e3);
  std::printf("measured compression rate: %.2f %% (paper: 19 %%)\n\n", rate * 100.0);

  const CheckpointCostModel model(static_cast<double>(field.size_bytes()), rate, total,
                                  StorageModel{bandwidth, 0.0});

  print_row({"P", "w/ comp [ms]", "w/o comp [ms]", "io w/ [ms]", "reduction"}, 15);
  for (std::size_t p = 256; p <= 2048; p += 256) {
    const auto rows = model.sweep({p});
    print_row({std::to_string(p), fmt("%.2f", rows[0].with_compression_s * 1e3),
               fmt("%.2f", rows[0].without_compression_s * 1e3),
               fmt("%.2f", rows[0].io_s * 1e3),
               fmt("%.1f%%", model.reduction_at(p) * 100.0)},
              15);
  }

  if (const auto cp = model.crosspoint()) {
    std::printf("\ncrosspoint: compression pays off above P = %.0f (paper: ~768)\n", *cp);
  }
  std::printf("asymptotic reduction: %.1f %% (paper: ~81 %%)\n",
              model.asymptotic_reduction() * 100.0);

  telemetry::RunReport report;
  report.tool = "bench/fig9_checkpoint_time";
  report.params["nx"] = std::to_string(nx);
  report.params["ny"] = std::to_string(ny);
  report.params["nz"] = std::to_string(nz);
  report.params["repeats"] = std::to_string(repeats);
  report.params["bandwidth_gbs"] = fmt("%.1f", bandwidth / 1e9);
  // A baseline recorded at another level then reads as a params
  // mismatch rather than a size or time regression.
  report.params["deflate_level"] = std::to_string(params.deflate_level);
  // Only stamp the param when it was given: the default run must keep
  // the exact baseline params the regression gate matches on.
  if (threads != 0) report.params["threads"] = std::to_string(threads);
  report.original_bytes = field.size_bytes();
  report.compressed_bytes = compressed_bytes;
  report.payload_bytes = payload_bytes;
  maybe_emit_bench_json(args, "fig9_checkpoint_time", std::move(report));
  return 0;
}
