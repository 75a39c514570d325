// Bit-identity proofs for the SIMD kernel layer: every kernel, at every
// level available on this machine, against the scalar reference — on
// odd lengths, empty/1-element inputs, denormal/NaN/±0/±inf-bearing
// data — plus dispatch resolution (WCK_SIMD through the env cache) and
// end-to-end compressed-output equality across levels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/compressor.hpp"
#include "encode/bitmap.hpp"
#include "quantize/quantizer.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/metrics.hpp"
#include "util/checksum.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

using simd::KernelTable;
using simd::Level;

/// Non-scalar levels runnable here (kernels to compare against scalar).
std::vector<Level> vector_levels() {
  std::vector<Level> out;
  for (const Level lv : simd::available_levels()) {
    if (lv != Level::kScalar) out.push_back(lv);
  }
  return out;
}

const KernelTable& scalar() { return simd::kernels_for(Level::kScalar); }

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Deterministic doubles spanning magnitudes, denormals, and exact ties.
std::vector<double> mixed_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(-1e3, 1e3);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 7) {
      case 0:
        v[i] = uni(rng);
        break;
      case 1:
        v[i] = uni(rng) * 1e-300;  // subnormal after scaling
        break;
      case 2:
        v[i] = kDenorm * static_cast<double>(1 + i % 9);
        break;
      case 3:
        v[i] = (i % 2 == 1) ? -0.0 : 0.0;
        break;
      case 4:
        v[i] = uni(rng) * 1e100;
        break;
      default:
        v[i] = uni(rng);
        break;
    }
  }
  return v;
}

void expect_bits_equal(std::span<const double> got, std::span<const double> want,
                       const char* what, Level lv) {
  ASSERT_EQ(got.size(), want.size()) << what << " @ " << simd::to_string(lv);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << " lane " << i << " @ " << simd::to_string(lv) << ": got " << got[i]
        << ", want " << want[i];
  }
}

const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 63, 64, 65, 127, 1000, 1001};

TEST(SimdDispatch, ParseAndPrint) {
  EXPECT_EQ(simd::parse_level("scalar"), Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), Level::kAvx2);
  // `sse2` is not a level: it reads as an unknown value, i.e. auto.
  EXPECT_FALSE(simd::parse_level("sse2").has_value());
  EXPECT_FALSE(simd::parse_level("auto").has_value());
  EXPECT_FALSE(simd::parse_level("").has_value());
  EXPECT_FALSE(simd::parse_level("AVX2").has_value());
  EXPECT_STREQ(simd::to_string(Level::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(Level::kAvx2), "avx2");
  // The gauge values stay fixed across releases.
  EXPECT_EQ(static_cast<int>(Level::kScalar), 0);
  EXPECT_EQ(static_cast<int>(Level::kAvx2), 2);
}

TEST(SimdDispatch, AvailableLevelsStartAtScalarAndEndAtBest) {
  const auto levels = simd::available_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  EXPECT_EQ(levels.back(), simd::detected_best());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

TEST(SimdDispatch, EnvOverrideResolvesThroughEnvCache) {
  // The ambient environment may itself carry WCK_SIMD (CI's
  // forced-scalar leg runs this very test), so capture what it
  // resolves to before layering overrides on top.
  simd::reset_active_level_for_test();
  const Level ambient = simd::active_level();

  env::set_override("WCK_SIMD", "scalar");
  simd::reset_active_level_for_test();
  EXPECT_EQ(simd::active_level(), Level::kScalar);

  // Unknown values behave as auto.
  env::set_override("WCK_SIMD", "bogus");
  simd::reset_active_level_for_test();
  EXPECT_EQ(simd::active_level(), simd::detected_best());
  env::set_override("WCK_SIMD", "sse2");
  simd::reset_active_level_for_test();
  EXPECT_EQ(simd::active_level(), simd::detected_best());

  // A request above hardware support clamps down instead of failing.
  env::set_override("WCK_SIMD", "avx2");
  simd::reset_active_level_for_test();
  EXPECT_LE(static_cast<int>(simd::active_level()), static_cast<int>(simd::detected_best()));

  env::clear_override("WCK_SIMD");
  simd::reset_active_level_for_test();
  EXPECT_EQ(simd::active_level(), ambient);
}

TEST(SimdDispatch, ActiveLevelPublishesGauge) {
  simd::set_active_level_for_test(Level::kScalar);
  const auto snap = telemetry::MetricsRegistry::global().snapshot();
  const auto it = snap.gauges.find("simd.level");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 0.0);
  simd::reset_active_level_for_test();
}

TEST(SimdDispatch, KernelsForRejectsUnavailableLevel) {
  if (simd::detected_best() == Level::kAvx2) GTEST_SKIP() << "every level available here";
  EXPECT_THROW((void)simd::kernels_for(Level::kAvx2), InvalidArgumentError);
}

TEST(SimdKernels, RangeMinMaxBitIdentical) {
  for (const Level lv : vector_levels()) {
    const KernelTable& k = simd::kernels_for(lv);
    for (const std::size_t n : kLengths) {
      if (n == 0) continue;  // contract requires n > 0
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto v = mixed_values(n, seed * 31 + n);
        if (seed == 2 && n > 2) {
          v[1] = kNaN;  // NaN off the seed position: ignored
          v[n - 1] = kNaN;
        }
        if (seed == 3) {
          v[0] = kNaN;  // NaN seed: sticky at every level
        }
        double lo_ref = 1.0, hi_ref = -1.0, lo = 2.0, hi = -2.0;
        scalar().range_min_max(v.data(), n, &lo_ref, &hi_ref);
        k.range_min_max(v.data(), n, &lo, &hi);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lo), std::bit_cast<std::uint64_t>(lo_ref))
            << "min n=" << n << " seed=" << seed << " @ " << simd::to_string(lv);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(hi), std::bit_cast<std::uint64_t>(hi_ref))
            << "max n=" << n << " seed=" << seed << " @ " << simd::to_string(lv);
      }
    }
  }
}

TEST(SimdKernels, RangeMinMaxCanonicalizesNegativeZero) {
  // Whatever order lanes fold in, a zero extremum must come out +0.0.
  const std::vector<double> v = {-0.0, 0.0, -0.0, 0.0, -0.0, 5.0, -0.0, 0.0, -0.0};
  for (const Level lv : simd::available_levels()) {
    double lo = -1.0, hi = -1.0;
    simd::kernels_for(lv).range_min_max(v.data(), v.size(), &lo, &hi);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lo), std::bit_cast<std::uint64_t>(0.0))
        << simd::to_string(lv);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hi), std::bit_cast<std::uint64_t>(5.0))
        << simd::to_string(lv);
  }
}

TEST(SimdKernels, GridIndexBatchBitIdentical) {
  const double lo = -3.25;
  const double width = 7.5;
  for (const std::int32_t divisions : {1, 2, 7, 64, 256}) {
    const double inv = divisions / width;
    for (const Level lv : vector_levels()) {
      const KernelTable& k = simd::kernels_for(lv);
      for (const std::size_t n : kLengths) {
        auto v = mixed_values(n, 7 * n + static_cast<std::size_t>(divisions));
        if (n >= 8) {
          v[0] = kNaN;
          v[1] = kInf;
          v[2] = -kInf;
          v[3] = lo - 100.0;  // below range
          v[4] = lo + width + 100.0;  // above range
          v[5] = lo;
          v[6] = lo + width;
          v[7] = kDenorm;
        }
        std::vector<std::int32_t> ref(n, -7), got(n, -9);
        scalar().grid_index_batch(v.data(), n, lo, inv, divisions, ref.data());
        k.grid_index_batch(v.data(), n, lo, inv, divisions, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], ref[i]) << "i=" << i << " v=" << v[i] << " n=" << divisions << " @ "
                                    << simd::to_string(lv);
          // The scalar batch is itself defined by the one-value reference.
          ASSERT_EQ(ref[i], simd::grid_index_one(v[i], lo, inv, divisions));
          ASSERT_GE(ref[i], 0);
          ASSERT_LT(ref[i], divisions);
        }
      }
    }
  }
}

TEST(SimdKernels, BitmapPackGe0BitIdentical) {
  std::mt19937_64 rng(99);
  for (const Level lv : vector_levels()) {
    const KernelTable& k = simd::kernels_for(lv);
    for (const std::size_t n : kLengths) {
      std::vector<std::int32_t> idx(n);
      for (auto& x : idx) {
        x = (rng() % 3 == 0) ? -1 : static_cast<std::int32_t>(rng() % 256);
      }
      const std::size_t nwords = (n + 63) / 64;
      std::vector<std::uint64_t> ref(nwords, 0xDEADBEEFull), got(nwords, 0x12345678ull);
      scalar().bitmap_pack_ge0(idx.data(), n, ref.data());
      k.bitmap_pack_ge0(idx.data(), n, got.data());
      EXPECT_EQ(got, ref) << "n=" << n << " @ " << simd::to_string(lv);
      // Stale contents must be fully overwritten, padding bits cleared.
      if (n % 64 != 0 && nwords > 0) {
        EXPECT_EQ(ref.back() >> (n % 64), 0u);
      }
    }
  }
}

TEST(SimdKernels, BitmapSelectBitIdentical) {
  std::mt19937_64 rng(1234);
  for (const Level lv : vector_levels()) {
    const KernelTable& k = simd::kernels_for(lv);
    // Densities chosen to produce all-ones words, all-zeros words, and
    // mixed words (the three word-level paths).
    for (const double density : {0.0, 0.03, 0.5, 0.97, 1.0}) {
      for (const std::size_t n : kLengths) {
        std::vector<std::uint64_t> words((n + 63) / 64, 0);
        std::vector<std::uint8_t> indices;
        std::vector<double> exact;
        const auto averages = mixed_values(256, 5);
        std::uniform_real_distribution<double> uni(0.0, 1.0);
        for (std::size_t i = 0; i < n; ++i) {
          if (uni(rng) < density) {
            words[i / 64] |= 1ull << (i % 64);
            indices.push_back(static_cast<std::uint8_t>(rng() % 256));
          } else {
            exact.push_back(static_cast<double>(i) * 1.25 - 3.0);
          }
        }
        std::vector<double> ref(n, -1.0), got(n, -2.0);
        scalar().bitmap_select(words.data(), n, averages.data(), indices.data(), exact.data(),
                               ref.data());
        k.bitmap_select(words.data(), n, averages.data(), indices.data(), exact.data(),
                        got.data());
        expect_bits_equal(got, ref, "bitmap_select", lv);
      }
    }
  }
}

TEST(SimdKernels, Adler32BitIdenticalAndKnownVector) {
  // adler32("Wikipedia") from the algorithm's reference example.
  EXPECT_EQ(adler32("Wikipedia", 9), 0x11E60398u);

  std::mt19937_64 rng(4242);
  for (const Level lv : vector_levels()) {
    const KernelTable& k = simd::kernels_for(lv);
    // Sizes straddling the 16/32-byte vector width and the 5552-byte
    // modular-reduction block.
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
                                std::size_t{17}, std::size_t{31}, std::size_t{33},
                                std::size_t{5551}, std::size_t{5552}, std::size_t{5553},
                                std::size_t{100000}}) {
      std::vector<unsigned char> buf(n);
      for (auto& b : buf) b = static_cast<unsigned char>(rng());
      // All-0xFF stresses the worst-case accumulator growth.
      if (n == 5552) std::fill(buf.begin(), buf.end(), static_cast<unsigned char>(0xFF));
      std::uint32_t a_ref = 1, b_ref = 0, a = 1, b = 0;
      scalar().adler32_update(&a_ref, &b_ref, buf.data(), n);
      k.adler32_update(&a, &b, buf.data(), n);
      EXPECT_EQ(a, a_ref) << "n=" << n << " @ " << simd::to_string(lv);
      EXPECT_EQ(b, b_ref) << "n=" << n << " @ " << simd::to_string(lv);
      // Split updates continue the running pair.
      std::uint32_t a2 = 1, b2 = 0;
      const std::size_t cut = (n * 2) / 5;
      k.adler32_update(&a2, &b2, buf.data(), cut);
      k.adler32_update(&a2, &b2, buf.data() + cut, n - cut);
      EXPECT_EQ(a2, a_ref);
      EXPECT_EQ(b2, b_ref);
    }
  }
}

TEST(SimdQuantizer, AnalyzeClassesMatchClassifyAtEveryLevel) {
  // The classes analyze() fills from its table-building pass must equal
  // classify() of each value, NaN included, at every dispatch level.
  auto values = mixed_values(10007, 6);
  values[17] = kNaN;
  for (const Level lv : simd::available_levels()) {
    simd::set_active_level_for_test(lv);
    for (const QuantizerKind kind : {QuantizerKind::kSimple, QuantizerKind::kSpike}) {
      QuantizerConfig cfg;
      cfg.kind = kind;
      cfg.divisions = 128;
      std::vector<std::int32_t> classes(values.size(), 12345);
      const auto scheme = QuantizationScheme::analyze(values, cfg, nullptr, classes);
      // The classes do not change the scheme.
      expect_bits_equal(scheme.averages(), QuantizationScheme::analyze(values, cfg).averages(),
                        "averages", lv);
      for (std::size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(classes[i], scheme.classify(values[i]))
            << "i=" << i << " kind=" << static_cast<int>(kind) << " @ " << simd::to_string(lv);
      }
    }
  }
  simd::reset_active_level_for_test();
}

TEST(SimdQuantizer, AnalyzeClassesSizeMismatchThrows) {
  const auto values = mixed_values(64, 8);
  std::vector<std::int32_t> out(63);
  EXPECT_THROW((void)QuantizationScheme::analyze_simple(values, 16, nullptr, out),
               InvalidArgumentError);
  EXPECT_THROW((void)QuantizationScheme::analyze_spike(values, 16, 64, nullptr, out),
               InvalidArgumentError);
  EXPECT_THROW((void)QuantizationScheme::analyze_spike({}, 16, 64, nullptr, out),
               InvalidArgumentError);
  // An empty span asks for no classes.
  EXPECT_NO_THROW((void)QuantizationScheme::analyze_simple(values, 16, nullptr, {}));
}

TEST(SimdQuantizer, AnalyzeIsLevelInvariant) {
  // The whole scheme — averages table included — must not depend on the
  // dispatch level.
  auto values = mixed_values(20011, 12);
  std::vector<std::vector<double>> tables;
  for (const Level lv : simd::available_levels()) {
    simd::set_active_level_for_test(lv);
    QuantizerConfig cfg;  // spike defaults
    tables.push_back(QuantizationScheme::analyze(values, cfg).averages());
  }
  simd::reset_active_level_for_test();
  for (std::size_t i = 1; i < tables.size(); ++i) {
    expect_bits_equal(tables[i], tables[0], "averages", simd::available_levels()[i]);
  }
}

TEST(SimdEncode, BitmapFromClassificationMatchesSetLoop) {
  std::mt19937_64 rng(31337);
  for (const Level lv : simd::available_levels()) {
    simd::set_active_level_for_test(lv);
    for (const std::size_t n : kLengths) {
      std::vector<std::int32_t> cls(n);
      for (auto& c : cls) c = (rng() % 4 == 0) ? -1 : static_cast<std::int32_t>(rng() % 256);
      Bitmap expected(n);
      for (std::size_t i = 0; i < n; ++i) expected.set(i, cls[i] >= 0);
      EXPECT_EQ(Bitmap::from_classification(cls), expected)
          << "n=" << n << " @ " << simd::to_string(lv);
    }
  }
  simd::reset_active_level_for_test();
}

TEST(SimdEndToEnd, CompressedBytesIdenticalAcrossLevels) {
  const Shape shape{37, 29};
  NdArray<double> input(shape);
  auto vals = mixed_values(input.size(), 2026);
  std::copy(vals.begin(), vals.end(), input.values().begin());

  for (const EntropyMode entropy : {EntropyMode::kNone, EntropyMode::kDeflate}) {
    std::vector<Bytes> streams;
    for (const Level lv : simd::available_levels()) {
      simd::set_active_level_for_test(lv);
      CompressionParams params;
      params.entropy = entropy;
      const WaveletCompressor compressor(params);
      streams.push_back(compressor.compress(input).data);
    }
    simd::reset_active_level_for_test();
    for (std::size_t i = 1; i < streams.size(); ++i) {
      EXPECT_EQ(streams[i], streams[0])
          << "entropy=" << static_cast<int>(entropy) << " @ "
          << simd::to_string(simd::available_levels()[i]);
    }

    // Cross-level decode: a stream compressed at the best level must
    // reconstruct bit-identically when decompressed at scalar.
    simd::set_active_level_for_test(Level::kScalar);
    const NdArray<double> back = WaveletCompressor::decompress(streams.back());
    simd::reset_active_level_for_test();
    const NdArray<double> back_native = WaveletCompressor::decompress(streams.back());
    expect_bits_equal(back.values(), back_native.values(), "cross-level decompress",
                      simd::active_level());
  }
}

}  // namespace
}  // namespace wck
