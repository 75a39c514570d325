// Quickstart: compress and decompress one floating-point mesh array.
//
//   $ ./quickstart
//
// Walks the public API end to end: build a smooth 3D field, compress it
// with the paper's pipeline (wavelet + proposed quantization + deflate),
// decompress, and report compression rate (Eq. 5) and relative errors
// (Eq. 6).
#include <cstdio>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace wck;

  // A temperature-like 3D array with the paper's NICAM shape
  // (1156 x 82 x 2 doubles, ~1.5 MB).
  const NdArray<double> field = make_temperature_field(Shape{1156, 82, 2}, /*seed=*/42);
  std::printf("input: %s doubles, %zu bytes\n", field.shape().to_string().c_str(),
              field.size_bytes());

  // Configure the paper's pipeline: 1-level Haar wavelet, proposed
  // (spike) quantization with n=128 divisions and d=64 spike partitions,
  // in-memory deflate as the final stage.
  CompressionParams params;
  params.quantizer.kind = QuantizerKind::kSpike;
  params.quantizer.divisions = 128;
  params.quantizer.spike_partitions = 64;
  params.entropy = EntropyMode::kDeflate;

  const WaveletCompressor compressor(params);
  const CompressedArray compressed = compressor.compress(field);
  std::printf("compressed: %zu bytes  (compression rate %.2f %%, lower is better)\n",
              compressed.data.size(), compressed.compression_rate_percent());
  std::printf("quantized %zu of %zu high-band coefficients to 1-byte indexes\n",
              compressed.quantized_count, compressed.high_count);

  // Each stage records its time into a "stage.<name>.seconds" telemetry
  // histogram (on unless WCK_TELEMETRY=off).
  std::printf("stage times:\n");
  telemetry::RunReport report;
  report.capture_global();
  for (const auto& [stage, seconds] : report.stages_seconds) {
    std::printf("  %-16s %8.3f ms\n", stage.c_str(), seconds * 1e3);
  }

  // Decompression needs no parameters: the stream is self-describing.
  const NdArray<double> restored = WaveletCompressor::decompress(compressed.data);
  const ErrorStats err = relative_error(field.values(), restored.values());
  std::printf("relative error: avg %.5f %%, max %.5f %% (paper reports ~1.2 %% avg "
              "across all NICAM variables)\n",
              err.mean_rel_percent(), err.max_rel_percent());
  return 0;
}
