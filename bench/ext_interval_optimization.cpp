// Extension: checkpoint-interval optimization with lossy compression —
// the paper's stated future work ("optimizing checkpoint frequency by
// checkpointing model for lossy compression").
//
// Measures this machine's checkpoint cost with three codecs (none /
// gzip / wavelet-lossy), scales the I/O component with the Fig. 9
// storage model at a chosen parallelism, then sweeps MTBF from a day
// down to the paper's projected exascale "few hours" [4] and reports
// the Young/Daly-optimal interval and machine efficiency per strategy.
//
// Expectation: as MTBF shrinks, the efficiency gap between lossy
// compression and no compression widens — lossy checkpointing keeps the
// machine useful where raw checkpointing wastes a large fraction.
#include <cstdio>

#include "bench_common.hpp"
#include "ckpt/codec.hpp"
#include "core/synthetic.hpp"
#include "iomodel/cost_model.hpp"
#include "multilevel/interval_model.hpp"
#include "util/timer.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto parallelism = static_cast<std::size_t>(args.get_int("procs", 2048));
  const double bandwidth = args.get_double("bandwidth-gbs", 20.0) * 1e9;
  // The paper's experiments were limited to 1.5 MB/process by the
  // available NICAM input data; production runs checkpoint most of the
  // node memory. Encode time is measured on a 1.5 MB array and scaled
  // linearly (the pipeline is O(n), verified by micro_stages).
  const double gb_per_process = args.get_double("gb-per-process", 1.5);

  print_header("Extension: optimal checkpoint interval vs MTBF per strategy",
               "lossy compression widens its efficiency lead as MTBF shrinks");

  const auto field = make_temperature_field(Shape{1156, 82, 2}, 1);
  const StorageModel storage{bandwidth, 0.0};
  const double scale = gb_per_process * 1e9 / static_cast<double>(field.size_bytes());

  auto strategy_for = [&](const Codec& codec, const std::string& name) {
    const WallTimer timer;
    const Bytes payload = codec.encode(field);
    const double encode_s = timer.seconds();
    const double rate = static_cast<double>(payload.size()) /
                        static_cast<double>(field.size_bytes());
    const CheckpointCostModel model(gb_per_process * 1e9, rate, encode_s * scale, storage);
    // Restart cost ~= read back + decode; approximate as symmetric.
    const double ckpt_s = model.time_with_compression(parallelism);
    const double restart_s = ckpt_s;
    std::printf("  %-14s rate %6.2f %%  checkpoint at P=%zu: %.1f s\n", name.c_str(),
                rate * 100.0, parallelism, ckpt_s);
    return Strategy{name, ckpt_s, restart_s};
  };

  std::printf("strategies (P = %zu, %.0f GB/s PFS, %.1f GB/process, encode time\n"
              "measured on 1.5 MB and scaled by O(n)):\n",
              parallelism, bandwidth / 1e9, gb_per_process);
  const NullCodec none;
  const GzipCodec gz;
  CompressionParams lossy_params;
  lossy_params.quantizer.divisions = 128;
  const WaveletLossyCodec lossy(lossy_params);
  std::vector<Strategy> strategies = {
      strategy_for(none, "none"),
      strategy_for(gz, "gzip"),
      strategy_for(lossy, "wavelet-lossy"),
  };
  // "none" pays no compression time at all, only I/O.
  strategies[0].checkpoint_seconds =
      gb_per_process * 1e9 * static_cast<double>(parallelism) / bandwidth;
  strategies[0].restart_seconds = strategies[0].checkpoint_seconds;

  const std::vector<double> mtbfs = {86400.0, 21600.0, 7200.0, 3600.0, 1800.0, 900.0};
  const auto rows = sweep_strategies(strategies, mtbfs);

  std::printf("\n%-12s", "MTBF");
  for (const auto& s : strategies) std::printf("%-26s", (s.name + " (tau, eff)").c_str());
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%-12s", fmt("%.1f h", row.mtbf_seconds / 3600.0).c_str());
    for (const auto& o : row.by_strategy) {
      std::printf("%-26s",
                  (fmt("%.0f s", o.interval_seconds) + ", " + fmt("%.1f%%", o.efficiency * 100))
                      .c_str());
    }
    std::printf("\n");
  }
  return 0;
}
