// SIMD kernel-layer throughput microbench: every src/simd/ kernel timed
// at the scalar reference level and at AVX2 when the CPU has it,
// reporting MB/s and the speedup of the level production dispatches
// (detected_best()) over scalar. That speedup reads below 1.0x when the
// vector variant loses, which is the signal to take a kernel out of the
// table and make it plain code at its caller.
//
// Before timing, the vector level's output is checked byte-identical
// to the scalar reference on the same input — the bench refuses to
// report a throughput number for a kernel that is not bit-exact.
//
// Emits a wck-bench-record (--bench-json[=PATH]) with per-level gauges
// (kernel.<name>.<level>.mbps) and per-kernel dispatched-over-scalar
// speedups in report.params (speedup_<name>). check_bench_regress.py treats a
// record carrying simd_best_level as self-baselining: on vector-capable
// hardware at least --simd-min-kernels kernels must clear
// --simd-speedup (default 2 kernels at >= 1.5x).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "simd/dispatch.hpp"

using namespace wck;
using namespace wck::bench;

namespace {

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

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

/// Inputs shared by every kernel: one realistic double buffer (smooth
/// field + spikes + denormals, like a wavelet high band) plus the
/// derived quantizer/bitmap/byte views.
struct Workload {
  std::vector<double> values;       // n doubles
  std::vector<unsigned char> bytes; // the n*8 bytes of values
  double lo = 0.0;
  double inv_width = 0.0;
  std::int32_t divisions = 256;
  std::vector<std::int32_t> cls;    // classification (>=0 quantized)
  std::vector<std::uint64_t> words; // packed bitmap of cls
  std::vector<double> averages;     // divisions bin centers
  std::vector<std::uint8_t> indices;
  std::vector<double> exact;
};

Workload make_workload(std::size_t n, std::uint64_t seed) {
  Workload w;
  w.values.resize(n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-1.0, 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.01 * noise(rng);  // narrow band, like wavelet detail
    const double roll = unit(rng);
    if (roll < 0.02) v = 50.0 * noise(rng);     // spike (exact-kept)
    if (roll > 0.999) v = 4.9e-324 * (1 + (i & 7));  // denormal
    w.values[i] = v;
  }

  const simd::KernelTable& scalar = simd::kernels_for(simd::Level::kScalar);
  w.bytes.resize(n * 8);
  if (n > 0) std::memcpy(w.bytes.data(), w.values.data(), n * 8);

  double mn = 0.0, mx = 0.0;
  if (n > 0) scalar.range_min_max(w.values.data(), n, &mn, &mx);
  // Quantize a narrow interior window so both quantized and clamped
  // classifications occur, as the spike quantizer produces.
  w.lo = -0.01;
  w.inv_width = static_cast<double>(w.divisions) / 0.02;
  w.cls.resize(n);
  if (n > 0) scalar.grid_index_batch(w.values.data(), n, w.lo, w.inv_width, w.divisions,
                                     w.cls.data());
  // Mark spikes unquantized so the bitmap/select kernels see a mixed map.
  for (std::size_t i = 0; i < n; ++i) {
    if (w.values[i] < w.lo || w.values[i] > w.lo + 0.02) w.cls[i] = -1;
  }
  w.words.resize((n + 63) / 64);
  if (n > 0) scalar.bitmap_pack_ge0(w.cls.data(), n, w.words.data());
  w.averages.resize(static_cast<std::size_t>(w.divisions));
  for (std::size_t i = 0; i < w.averages.size(); ++i) {
    w.averages[i] = w.lo + (static_cast<double>(i) + 0.5) / w.inv_width;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (w.cls[i] >= 0) {
      w.indices.push_back(static_cast<std::uint8_t>(w.cls[i]));
    } else {
      w.exact.push_back(w.values[i]);
    }
  }
  return w;
}

/// One timed kernel: run() executes a single pass over `bytes` of
/// input; identical(level) must return true before that level is timed.
struct KernelBench {
  std::string name;
  std::size_t bytes;
  std::function<void(const simd::KernelTable&)> run;
  std::function<bool(const simd::KernelTable&)> identical;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 1 << 20));
  const int repeats = static_cast<int>(args.get_int("repeats", 5));
  const int inner = static_cast<int>(args.get_int("inner", 8));

  print_header("micro: SIMD kernel throughput, scalar vs the dispatched level",
               "vector levels bit-identical to scalar; >= 1.5x speedup on "
               ">= 2 kernels on AVX2 hardware");
  telemetry::set_enabled(true);

  const Workload w = make_workload(n, 2015);
  const std::vector<simd::Level> levels = simd::available_levels();
  const simd::Level best = simd::detected_best();
  std::printf("n = %zu doubles (%zu MB), repeats = %d (best-of), inner = %d\n", n,
              n * 8 / (1u << 20), repeats, inner);
  std::printf("detected best level: %s, timing:", simd::to_string(best));
  for (const simd::Level lv : levels) std::printf(" %s", simd::to_string(lv));
  std::printf("\n\n");

  telemetry::RunReport report;
  report.tool = "bench/micro_kernels";
  report.params["n"] = std::to_string(n);
  report.params["repeats"] = std::to_string(repeats);
  report.params["inner"] = std::to_string(inner);
  report.params["simd_best_level"] = simd::to_string(best);

  const simd::KernelTable& ref = simd::kernels_for(simd::Level::kScalar);

  // Scratch shared by the run() lambdas (allocated once, outside timing).
  std::vector<double> dbl(n);
  std::vector<std::int32_t> idx(n);
  std::vector<std::uint64_t> words(w.words.size());
  std::vector<double> ref_dbl(n);

  std::vector<KernelBench> benches;
  benches.push_back(
      {"range_min_max", n * 8,
       [&](const simd::KernelTable& k) {
         double mn, mx;
         k.range_min_max(w.values.data(), n, &mn, &mx);
       },
       [&](const simd::KernelTable& k) {
         double mn1, mx1, mn2, mx2;
         ref.range_min_max(w.values.data(), n, &mn1, &mx1);
         k.range_min_max(w.values.data(), n, &mn2, &mx2);
         return std::memcmp(&mn1, &mn2, 8) == 0 && std::memcmp(&mx1, &mx2, 8) == 0;
       }});
  benches.push_back(
      {"grid_index", n * 8,
       [&](const simd::KernelTable& k) {
         k.grid_index_batch(w.values.data(), n, w.lo, w.inv_width, w.divisions, idx.data());
       },
       [&](const simd::KernelTable& k) {
         std::vector<std::int32_t> i2(n);
         ref.grid_index_batch(w.values.data(), n, w.lo, w.inv_width, w.divisions, i2.data());
         k.grid_index_batch(w.values.data(), n, w.lo, w.inv_width, w.divisions, idx.data());
         return std::memcmp(idx.data(), i2.data(), n * 4) == 0;
       }});
  benches.push_back(
      {"bitmap_pack", n * 4,
       [&](const simd::KernelTable& k) { k.bitmap_pack_ge0(w.cls.data(), n, words.data()); },
       [&](const simd::KernelTable& k) {
         std::vector<std::uint64_t> w2(words.size());
         ref.bitmap_pack_ge0(w.cls.data(), n, w2.data());
         k.bitmap_pack_ge0(w.cls.data(), n, words.data());
         return std::memcmp(words.data(), w2.data(), words.size() * 8) == 0;
       }});
  benches.push_back(
      {"bitmap_select", n * 8,
       [&](const simd::KernelTable& k) {
         k.bitmap_select(w.words.data(), n, w.averages.data(), w.indices.data(), w.exact.data(),
                         dbl.data());
       },
       [&](const simd::KernelTable& k) {
         ref.bitmap_select(w.words.data(), n, w.averages.data(), w.indices.data(),
                           w.exact.data(), ref_dbl.data());
         k.bitmap_select(w.words.data(), n, w.averages.data(), w.indices.data(), w.exact.data(),
                         dbl.data());
         return std::memcmp(dbl.data(), ref_dbl.data(), n * 8) == 0;
       }});
  benches.push_back(
      {"adler32", n * 8,
       [&](const simd::KernelTable& k) {
         std::uint32_t a = 1, b = 0;
         k.adler32_update(&a, &b, w.bytes.data(), w.bytes.size());
       },
       [&](const simd::KernelTable& k) {
         const unsigned char* p = w.bytes.data();
         std::uint32_t a1 = 1, b1 = 0, a2 = 1, b2 = 0;
         ref.adler32_update(&a1, &b1, p, w.bytes.size());
         k.adler32_update(&a2, &b2, p, w.bytes.size());
         return a1 == a2 && b1 == b2;
       }});

  std::printf("%-15s", "kernel");
  for (const simd::Level lv : levels)
    std::printf(" %12s", (std::string(simd::to_string(lv)) + " MB/s").c_str());
  std::printf(" %9s\n", "speedup");

  int fast_kernels = 0;
  for (const KernelBench& kb : benches) {
    std::printf("%-15s", kb.name.c_str());
    double scalar_mbps = 0.0, best_mbps = 0.0;  // best = the dispatched level
    for (const simd::Level lv : levels) {
      const simd::KernelTable& k = simd::kernels_for(lv);
      if (!kb.identical(k)) {
        std::fprintf(stderr, "\nFATAL: kernel %s at level %s is not bit-identical to scalar\n",
                     kb.name.c_str(), simd::to_string(lv));
        return 1;
      }
      const double secs = best_seconds(repeats, [&] {
                            for (int i = 0; i < inner; ++i) kb.run(k);
                          }) /
                          inner;
      const double rate = mbps(kb.bytes, secs);
      if (lv == simd::Level::kScalar) scalar_mbps = rate;
      if (lv == best) best_mbps = rate;
      std::printf(" %12.0f", rate);
      // Not WCK_GAUGE_SET: its per-call-site handle would bind every
      // kernel and level to the first name.
      telemetry::MetricsRegistry::global()
          .gauge("kernel." + kb.name + "." + simd::to_string(lv) + ".mbps")
          .set(rate);
    }
    const double speedup = scalar_mbps > 0.0 ? best_mbps / scalar_mbps : 0.0;
    std::printf(" %8.2fx\n", speedup);
    if (speedup >= 1.5) ++fast_kernels;
    report.params["speedup_" + kb.name] = fmt("%.3f", speedup);
  }
  std::printf("\n%d of %zu kernels at >= 1.5x over scalar (gate on %s hardware: >= 2)\n",
              fast_kernels, benches.size(), simd::to_string(best));

  report.original_bytes = n * 8;
  maybe_emit_bench_json(args, "micro_kernels", std::move(report));
  return 0;
}
