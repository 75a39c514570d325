// Extension: distributed per-rank checkpointing on the domain-
// decomposed MiniClimate — the paper's actual deployment model
// ("compression of checkpoints of each process can be done in an
// embarrassingly parallel fashion", Sec. IV-D), executed rather than
// assumed.
//
// R ranks run the distributed model (bit-identical to serial), each
// compressing and writing its own slab. Reports per-rank sizes/rates
// per codec, verifies a coordinated lossy restart, and measures the
// restart error against the unperturbed trajectory.
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "bench_common.hpp"
#include "ckpt/codec.hpp"
#include "climate/distributed.hpp"
#include "stats/error_metrics.hpp"
#include "util/timer.hpp"

using namespace wck;
using namespace wck::bench;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto ranks = static_cast<std::size_t>(args.get_int("ranks", 4));
  const auto warmup = static_cast<std::uint64_t>(args.get_int("warmup-steps", 200));
  const auto extra = static_cast<std::uint64_t>(args.get_int("extra-steps", 200));

  ClimateConfig config;
  config.nx = static_cast<std::size_t>(args.get_int("nx", 64));
  config.ny = static_cast<std::size_t>(args.get_int("ny", 32));
  config.nz = static_cast<std::size_t>(args.get_int("nz", 4));

  print_header("Extension: distributed per-rank checkpointing",
               "per-rank slabs compress independently at whole-field rates; "
               "coordinated lossy restart shows Fig. 10 behaviour");
  std::printf("grid %zux%zux%zu over %zu ranks; checkpoint at step %llu\n\n", config.nx,
              config.ny, config.nz, ranks, static_cast<unsigned long long>(warmup));

  const auto dir = std::filesystem::temp_directory_path() / "wck_dist_bench";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletLossyCodec lossy(params);
  const GzipCodec gzip_codec;

  World world(ranks);
  std::mutex print_mu;
  world.run([&](Comm& comm) {
    DistributedClimate model(config, comm);
    model.run(warmup);

    // Per-rank checkpoints with both codecs.
    const CheckpointInfo gz = model.write_local_checkpoint(dir, gzip_codec);
    const double gz_rate = gz.compression_rate_percent();
    const WallTimer lossy_timer;
    const CheckpointInfo lz = model.write_local_checkpoint(dir, lossy);
    const double lossy_s = lossy_timer.seconds();
    {
      std::lock_guard lk(print_mu);
      std::printf("rank %zu: slab %7zu B | gzip %6.2f %% | lossy %6.2f %% "
                  "(write %.1f ms)\n",
                  comm.rank(), gz.original_bytes, gz_rate, lz.compression_rate_percent(),
                  lossy_s * 1e3);
    }

    // Coordinated lossy restart: every rank reloads its slab, then the
    // restarted run is compared against an unperturbed twin.
    DistributedClimate twin(config, comm);
    twin.run(warmup);
    model.read_local_checkpoint(dir, warmup);
    model.run(extra);
    twin.run(extra);

    const auto mine = model.local_temperature();
    const auto ref = twin.local_temperature();
    const auto err = relative_error(ref.values(), mine.values());
    const double worst = comm.allreduce_max(err.mean_rel_percent());
    if (comm.rank() == 0) {
      std::lock_guard lk(print_mu);
      std::printf("\nafter %llu post-restart steps: worst per-rank avg error %.5f %%\n",
                  static_cast<unsigned long long>(extra), worst);
    }
  });

  std::filesystem::remove_all(dir);
  return 0;
}
