// What-if explorer for checkpoint compression at scale (the paper's
// Fig. 9 methodology as an interactive tool).
//
//   $ ./cost_model_explorer [--bandwidth-gbs=20] [--mb-per-process=1.5]
//                           [--max-procs=16384] [--n=128]
//
// Measures this machine's per-process compression cost on a checkpoint
// of the given size, then answers: at what parallelism does compression
// start paying off on a storage system with the given bandwidth, and how
// much does it save at scale?
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "iomodel/cost_model.hpp"
#include "util/timer.hpp"

using namespace wck;

namespace {

double arg_double(int argc, char** argv, const char* key, double fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::strtod(arg.c_str() + prefix.size(), nullptr);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const double bandwidth_gbs = arg_double(argc, argv, "bandwidth-gbs", 20.0);
  const double mb_per_process = arg_double(argc, argv, "mb-per-process", 1.5);
  const auto max_procs = static_cast<std::size_t>(arg_double(argc, argv, "max-procs", 16384));
  const int n = static_cast<int>(arg_double(argc, argv, "n", 128));

  // Build a per-process checkpoint of the requested size (paper-like 3D
  // aspect ratio) and measure compression on this machine.
  const auto elements = static_cast<std::size_t>(mb_per_process * 1e6 / sizeof(double));
  const std::size_t nx = std::max<std::size_t>(1, elements / (82 * 2));
  const auto field = make_temperature_field(Shape{nx, 82, 2}, 1);

  CompressionParams params;
  params.quantizer.divisions = n;
  params.entropy = EntropyMode::kDeflate;  // in-memory, the improved path
  const WallTimer timer;
  const auto comp = WaveletCompressor(params).compress(field);
  const double compress_s = timer.seconds();

  std::printf("per-process checkpoint: %.2f MB; measured compression %.2f ms; "
              "rate %.2f %%\n",
              static_cast<double>(field.size_bytes()) / 1e6, compress_s * 1e3,
              comp.compression_rate_percent());
  std::printf("storage: %.1f GB/s shared\n\n", bandwidth_gbs);

  const CheckpointCostModel model(static_cast<double>(field.size_bytes()),
                                  comp.compression_rate_percent() / 100.0, compress_s,
                                  StorageModel{bandwidth_gbs * 1e9, 0.0});

  std::printf("%-10s %-16s %-16s %-12s\n", "procs", "w/ comp [ms]", "w/o comp [ms]", "saving");
  for (std::size_t p = 64; p <= max_procs; p *= 2) {
    std::printf("%-10zu %-16.2f %-16.2f %.1f%%\n", p, model.time_with_compression(p) * 1e3,
                model.time_without_compression(p) * 1e3, model.reduction_at(p) * 100.0);
  }

  if (const auto cp = model.crosspoint()) {
    std::printf("\ncompression pays off above ~%.0f processes\n", *cp);
  } else {
    std::printf("\ncompression never pays off with these parameters\n");
  }
  std::printf("asymptotic saving: %.1f %%\n", model.asymptotic_reduction() * 100.0);
  return 0;
}
