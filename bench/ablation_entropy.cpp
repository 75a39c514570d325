// Ablation: the final entropy stage.
//
// Compares (a) no entropy coding, (b) in-memory deflate (the paper's
// Sec. IV-D suggested improvement: "this cost will be mostly eliminated
// by compressing the temporary checkpoint data with zlib in memory"),
// and (c) gzip through temporary files (the paper's implementation).
//
// Expectation: (b) and (c) produce nearly identical sizes; (c) pays a
// large extra time cost, dominating the compression breakdown as in
// Fig. 9.
#include <cstdio>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 5));

  print_header("Ablation: entropy stage (none / in-memory deflate / temp-file gzip)",
               "deflate ~= gzip size; temp-file path much slower (paper Sec. IV-D)");
  const auto field = make_temperature_field(Shape{nx, ny, nz}, 2015);
  std::printf("array: %zux%zux%zu (%.2f MB), %d repeats\n\n", nx, ny, nz,
              static_cast<double>(field.size_bytes()) / 1e6, repeats);

  // Stage times are read from the telemetry histograms, reset per mode.
  telemetry::set_enabled(true);
  print_row({"entropy mode", "rate [%]", "entropy time [ms]", "total time [ms]"}, 20);
  for (const auto mode : {EntropyMode::kNone, EntropyMode::kHuffmanOnly, EntropyMode::kDeflate,
                          EntropyMode::kTempFileGzip}) {
    CompressionParams p;
    p.quantizer.divisions = 128;
    p.entropy = mode;
    const WaveletCompressor c(p);

    telemetry::MetricsRegistry::global().reset();
    double rate = 0.0;
    for (int r = 0; r < repeats; ++r) {
      rate = c.compress(field).compression_rate_percent();
    }
    const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
    const double entropy_ms =
        (stage_mean(snapshot, "deflate") + stage_mean(snapshot, "temp_file_write")) * 1e3;
    // compress() times these six stages once each; they do not overlap.
    double total_ms = 0.0;
    for (const char* stage : {"other", "wavelet", "quantize", "encode", "temp_file_write",
                              "deflate"}) {
      total_ms += stage_mean(snapshot, stage) * 1e3;
    }
    const char* name = "temp-file gzip";
    if (mode == EntropyMode::kNone) name = "none";
    if (mode == EntropyMode::kHuffmanOnly) name = "huffman-only";
    if (mode == EntropyMode::kDeflate) name = "in-memory deflate";
    print_row({name, fmt("%.2f", rate), fmt("%.3f", entropy_ms), fmt("%.3f", total_ms)}, 20);
  }
  return 0;
}
