// Deflate-engine throughput microbench: one zlib stream vs the segmented
// WCKP container at 1/2/4/8 workers, for both compression and
// decompression, plus the size of the container against that single
// stream (the CI gate holds the container at <= 2 % larger; cutting at
// the payload's homogeneous streams makes it smaller). Both are coded at
// the level the checkpoint path ships, CompressionParams{}.deflate_level,
// so the gate checks the production setting.
//
// The payload is the actual checkpoint hot-path input: the formatted
// (wavelet + quantize + encode) v3 payload WaveletCompressor writes for
// the paper's 1156x82x2 per-process array, cut at the stream ends
// encode_payload reports — compression ratio and speed are
// representative of what fig9's deflate stage sees.
//
// Emits a wck-bench-record (--bench-json[=PATH]) with throughput gauges
// (deflate.serial.compress.mbps, deflate.sharded.t<N>.compress.mbps,
// ...) and the serial/sharded byte sizes in report.params for the
// sharded-size gate of tools/check_bench.py.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"

using namespace wck;
using namespace wck::bench;

namespace {

/// The formatted pre-entropy payload for a field — what the compressor
/// hands to deflate, taken from WaveletCompressor with the entropy
/// stage off — and where its streams end.
Bytes formatted_payload(const NdArray<double>& input, std::vector<std::size_t>& stream_ends) {
  CompressionParams params;
  params.entropy = EntropyMode::kNone;
  const CompressedArray out = WaveletCompressor(params).compress(input);
  // Tag byte 0 (no entropy stage), then the payload as encoded.
  Bytes payload(out.data.begin() + 1, out.data.end());
  if (encode_payload(decode_payload(payload), &stream_ends) != payload) {
    std::fprintf(stderr, "FATAL: re-encoded payload differs from the compressor's\n");
    std::exit(1);
  }
  return payload;
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

/// Best-of-N wall time for fn() (best-of, not mean: throughput benches
/// want the least-disturbed run).
template <typename Fn>
double best_seconds(int repeats, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (r == 0 || dt < best) best = dt;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto nx = static_cast<std::size_t>(args.get_int("nx", 1156));
  const auto ny = static_cast<std::size_t>(args.get_int("ny", 82));
  const auto nz = static_cast<std::size_t>(args.get_int("nz", 2));
  const int repeats = static_cast<int>(args.get_int("repeats", 3));
  const auto block_size = static_cast<std::size_t>(
      args.get_int("block-size", static_cast<long>(kDefaultDeflateBlockSize)));
  const int level = CompressionParams{}.deflate_level;

  print_header("micro: deflate engine throughput, one zlib stream vs WCKP segments",
               "WCKP size within 2% of one zlib stream; compress MB/s "
               "rises ~1.25x from 1 to 2 workers and little beyond");
  telemetry::set_enabled(true);

  const auto field = make_temperature_field(Shape{nx, ny, nz}, 2015);
  std::vector<std::size_t> stream_ends;
  const Bytes payload = formatted_payload(field, stream_ends);
  std::printf("formatted payload: %zu bytes (from %zu raw), block size %zu, level %d\n\n",
              payload.size(), field.size_bytes(), block_size, level);

  telemetry::RunReport report;
  report.tool = "bench/micro_deflate";
  report.params["nx"] = std::to_string(nx);
  report.params["ny"] = std::to_string(ny);
  report.params["nz"] = std::to_string(nz);
  report.params["repeats"] = std::to_string(repeats);
  report.params["block_size"] = std::to_string(block_size);
  report.params["deflate_level"] = std::to_string(level);

  // --- single-stream baseline: zlib over the same payload.
  Bytes serial;
  const double serial_comp_s =
      best_seconds(repeats, [&] { serial = zlib_compress(payload, DeflateOptions{level}); });
  const double serial_decomp_s =
      best_seconds(repeats, [&] { (void)zlib_decompress(serial); });
  std::printf("%-22s %10.1f MB/s comp %10.1f MB/s decomp  (%zu bytes)\n", "serial zlib",
              mbps(payload.size(), serial_comp_s), mbps(payload.size(), serial_decomp_s),
              serial.size());
  WCK_GAUGE_SET("deflate.serial.compress.mbps", mbps(payload.size(), serial_comp_s));
  WCK_GAUGE_SET("deflate.serial.decompress.mbps", mbps(payload.size(), serial_decomp_s));

  // --- segmented engine at 1/2/4/8 workers. Identical output bytes at
  // every thread count (asserted), so size is reported once.
  Bytes sharded_reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    Bytes sharded;
    const double comp_s = best_seconds(
        repeats,
        [&] {
          sharded = sharded_deflate_compress(payload, {level, block_size, threads}, stream_ends);
        });
    const double decomp_s =
        best_seconds(repeats, [&] { (void)sharded_deflate_decompress(sharded, threads); });
    if (sharded_reference.empty()) {
      sharded_reference = sharded;
    } else if (sharded != sharded_reference) {
      std::fprintf(stderr, "FATAL: sharded output differs at %zu threads\n", threads);
      return 1;
    }
    const std::string label = "sharded t=" + std::to_string(threads);
    std::printf("%-22s %10.1f MB/s comp %10.1f MB/s decomp  (%zu bytes)\n", label.c_str(),
                mbps(payload.size(), comp_s), mbps(payload.size(), decomp_s), sharded.size());
    // Not WCK_GAUGE_SET: its per-call-site handle would bind every
    // worker count to the first name.
    auto& registry = telemetry::MetricsRegistry::global();
    const std::string prefix = "deflate.sharded.t" + std::to_string(threads);
    registry.gauge(prefix + ".compress.mbps").set(mbps(payload.size(), comp_s));
    registry.gauge(prefix + ".decompress.mbps").set(mbps(payload.size(), decomp_s));
  }

  const double drift =
      static_cast<double>(sharded_reference.size()) / static_cast<double>(serial.size()) - 1.0;
  std::printf("\nsharded vs serial size: %zu vs %zu bytes (%+.2f%%, gate: <= 2%%)\n",
              sharded_reference.size(), serial.size(), drift * 100.0);
  WCK_GAUGE_SET("deflate.sharded.size_drift", drift);

  // The regress gate reads these to hold the container within +2 % of
  // the single stream.
  report.params["serial_bytes"] = std::to_string(serial.size());
  report.params["sharded_bytes"] = std::to_string(sharded_reference.size());
  report.original_bytes = payload.size();
  report.compressed_bytes = sharded_reference.size();
  report.payload_bytes = payload.size();
  maybe_emit_bench_json(args, "micro_deflate", std::move(report));
  return 0;
}
