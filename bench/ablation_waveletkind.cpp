// Ablation: wavelet family (Haar vs CDF 5/3 vs CDF 9/7).
//
// The paper uses Haar and motivates wavelets via JPEG 2000 (whose
// transforms are CDF 5/3 and 9/7); its future work asks for algorithm
// improvements. This bench answers: on climate checkpoint data, do the
// longer JPEG 2000 filters buy better rate/error than Haar, and at what
// transform cost?
#include <cstdio>

#include "bench_common.hpp"
#include "core/compressor.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto workload = climate_workload_from_args(args);
  const int n = static_cast<int>(args.get_int("n", 128));

  print_header("Ablation: wavelet family (paper: Haar; JPEG2000: CDF 5/3, 9/7)",
               "longer filters: lower high-band energy -> lower error at "
               "similar rate, at more transform time");
  MiniClimate model(workload.config);
  model.run(workload.warmup_steps);
  const auto& temp = model.temperature();

  // The transform time is read from its telemetry histogram.
  telemetry::set_enabled(true);
  print_row({"wavelet", "rate [%]", "avg err [%]", "max err [%]", "wavelet [ms]"}, 15);
  for (const auto kind : {WaveletKind::kHaar, WaveletKind::kCdf53, WaveletKind::kCdf97}) {
    CompressionParams p;
    p.quantizer.kind = QuantizerKind::kSpike;
    p.quantizer.divisions = n;
    p.wavelet = kind;
    const WaveletCompressor c(p);
    // Average the transform stage over a few runs.
    telemetry::MetricsRegistry::global().reset();
    WaveletCompressor::RoundTrip rt;
    for (int r = 0; r < 3; ++r) rt = c.round_trip(temp);
    const auto snapshot = telemetry::MetricsRegistry::global().snapshot();
    print_row({wavelet_kind_name(kind), fmt("%.2f", rt.compressed.compression_rate_percent()),
               fmt("%.4f", rt.error.mean_rel_percent()),
               fmt("%.4f", rt.error.max_rel_percent()),
               fmt("%.3f", stage_mean(snapshot, "wavelet") * 1e3)},
              15);
  }
  return 0;
}
