// Full application-level checkpoint/restart cycle on the MiniClimate
// model — the paper's Sec. IV-E scenario as a runnable program.
//
//   $ ./climate_checkpoint [--steps=400] [--ckpt-every=100] [--n=128]
//
// Runs the climate model, writes a lossy checkpoint every N steps
// (through the real file path), then simulates a failure: a second model
// instance restarts from the last checkpoint file and both runs continue
// side by side while we track how the restart error evolves.
#include <cstdio>
#include <filesystem>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "climate/mini_climate.hpp"
#include "stats/error_metrics.hpp"
#include "util/timer.hpp"

using namespace wck;

namespace {

long arg_int(int argc, char** argv, const char* key, long fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return std::strtol(arg.c_str() + prefix.size(), nullptr, 10);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const auto total_steps = static_cast<std::uint64_t>(arg_int(argc, argv, "steps", 400));
  const auto ckpt_every = static_cast<std::uint64_t>(arg_int(argc, argv, "ckpt-every", 100));
  const int n = static_cast<int>(arg_int(argc, argv, "n", 128));

  ClimateConfig config;
  config.nx = 64;
  config.ny = 32;
  config.nz = 4;
  MiniClimate model(config);

  // Register the prognostic state for checkpointing. Mutable working
  // copies are bound to the registry; the paper's approach also stores
  // diagnostic arrays (pressure, winds) — include them to measure
  // realistic whole-checkpoint compression rates.
  NdArray<double> ck_zeta;
  NdArray<double> ck_temp;
  CheckpointRegistry registry;
  registry.add("vorticity", &ck_zeta);
  registry.add("temperature", &ck_temp);

  CompressionParams params;
  params.quantizer.kind = QuantizerKind::kSpike;
  params.quantizer.divisions = n;
  const WaveletLossyCodec codec(params);

  const auto dir = std::filesystem::temp_directory_path() / "wck_example";
  std::filesystem::create_directories(dir);
  const auto ckpt_path = dir / "climate.wck";

  std::printf("running MiniClimate %zux%zux%zu for %llu steps, lossy checkpoint "
              "every %llu steps (n=%d)\n\n",
              config.nx, config.ny, config.nz,
              static_cast<unsigned long long>(total_steps),
              static_cast<unsigned long long>(ckpt_every), n);

  std::uint64_t last_ckpt_step = 0;
  for (std::uint64_t s = 0; s < total_steps; s += ckpt_every) {
    model.run(ckpt_every);
    ck_zeta = model.vorticity();
    ck_temp = model.temperature();
    const WallTimer write_timer;
    const CheckpointInfo info = write_checkpoint(ckpt_path, registry, codec, model.step_count());
    last_ckpt_step = info.step;
    std::printf("step %5llu: checkpoint %zu -> %zu bytes (rate %.2f %%), "
                "write time %.2f ms\n",
                static_cast<unsigned long long>(info.step), info.original_bytes,
                info.stored_bytes, info.compression_rate_percent(),
                write_timer.seconds() * 1e3);
  }

  // ---- simulated failure & restart ----
  std::printf("\nsimulating failure; restarting a fresh model instance from %s\n",
              ckpt_path.c_str());
  MiniClimate restarted(config);
  ck_zeta = NdArray<double>();
  ck_temp = NdArray<double>();
  const CheckpointInfo rinfo = read_checkpoint(ckpt_path, registry);
  restarted.restore(ck_zeta, ck_temp, rinfo.step);
  std::printf("restarted at step %llu\n\n", static_cast<unsigned long long>(rinfo.step));

  // The original (non-failed) model is our reference; both continue.
  std::printf("%-8s %-22s\n", "step", "avg rel error vs ref [%]");
  for (int chunk = 0; chunk < 5; ++chunk) {
    model.run(50);
    restarted.run(50);
    const auto err =
        relative_error(model.temperature().values(), restarted.temperature().values());
    std::printf("%-8llu %.6f\n", static_cast<unsigned long long>(model.step_count()),
                err.mean_rel_percent());
  }
  std::printf("\n(the restart error stays small and grows slowly — the paper's "
              "Fig. 10 behaviour; last checkpoint was at step %llu)\n",
              static_cast<unsigned long long>(last_ckpt_step));

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}
