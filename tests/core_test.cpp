// Integration tests for the full lossy compression pipeline (Fig. 1):
// wavelet -> quantization -> encoding -> formatting -> deflate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "wavelet/haar.hpp"

namespace wck {
namespace {

CompressionParams spike_params(int n, EntropyMode entropy = EntropyMode::kDeflate) {
  CompressionParams p;
  p.quantizer.kind = QuantizerKind::kSpike;
  p.quantizer.divisions = n;
  p.quantizer.spike_partitions = 64;
  p.entropy = entropy;
  return p;
}

CompressionParams simple_params(int n, EntropyMode entropy = EntropyMode::kDeflate) {
  CompressionParams p = spike_params(n, entropy);
  p.quantizer.kind = QuantizerKind::kSimple;
  return p;
}

TEST(Compressor, RoundTripShapeAndErrorSmall) {
  const auto field = make_smooth_field(Shape{64, 32, 4}, 1);
  const WaveletCompressor c(spike_params(128));
  const auto rt = c.round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  // Smooth data, n = 128, spike quantizer: mean relative error well
  // under 1 % (paper reports ~0.0056 % for temperature).
  EXPECT_LT(rt.error.mean_rel_percent(), 1.0);
  EXPECT_LT(rt.compressed.compression_rate_percent(), 60.0);
}

TEST(Compressor, LossyBeatsGzipOnSmoothFloats) {
  // The Fig. 6 claim in miniature: lossy compression achieves a far
  // smaller compression rate than straight deflate on FP mesh data.
  const auto field = make_temperature_field(Shape{96, 48, 4}, 2);
  const WaveletCompressor c(spike_params(128));
  const auto lossy = c.compress(field);

  // Lossless baseline: deflate over the raw array bytes.
  const auto raw = std::as_bytes(field.values());
  const Bytes gz = zlib_compress(raw);
  const double lossless_rate = 100.0 * static_cast<double>(gz.size()) /
                               static_cast<double>(field.size_bytes());
  EXPECT_LT(lossy.compression_rate_percent(), lossless_rate / 2.0)
      << "lossy=" << lossy.compression_rate_percent() << "% lossless=" << lossless_rate << "%";
}

TEST(Compressor, ErrorDecreasesWithDivisions) {
  // Fig. 8 trend.
  const auto field = make_smooth_field(Shape{64, 64}, 3);
  double prev = 1e300;
  for (const int n : {1, 4, 16, 64, 256}) {
    const WaveletCompressor c(simple_params(n));
    const auto rt = c.round_trip(field);
    EXPECT_LE(rt.error.mean_rel, prev * 1.05) << "n=" << n;
    prev = rt.error.mean_rel;
  }
}

TEST(Compressor, SpikeQuantizerLowerErrorThanSimple) {
  // Fig. 8: proposed quantization has lower error at every n.
  const auto field = make_temperature_field(Shape{64, 32, 4}, 4);
  for (const int n : {1, 16, 128}) {
    const auto simple = WaveletCompressor(simple_params(n)).round_trip(field);
    const auto spike = WaveletCompressor(spike_params(n)).round_trip(field);
    EXPECT_LT(spike.error.mean_rel, simple.error.mean_rel) << "n=" << n;
    EXPECT_LT(spike.error.max_rel, simple.error.max_rel) << "n=" << n;
  }
}

TEST(Compressor, SpikeQuantizerCostsModestlyMoreSpace) {
  // Fig. 7: proposed quantization's compression rate is larger (worse)
  // than simple, but in the same regime.
  const auto field = make_temperature_field(Shape{64, 32, 4}, 5);
  const auto simple = WaveletCompressor(simple_params(128)).compress(field);
  const auto spike = WaveletCompressor(spike_params(128)).compress(field);
  EXPECT_GE(spike.data.size(), simple.data.size());
  EXPECT_LT(spike.data.size(), simple.data.size() * 4);
}

TEST(Compressor, AllEntropyModesRoundTrip) {
  const auto field = make_smooth_field(Shape{32, 32}, 6);
  for (const auto mode :
       {EntropyMode::kNone, EntropyMode::kDeflate, EntropyMode::kTempFileGzip}) {
    const WaveletCompressor c(spike_params(64, mode));
    const auto rt = c.round_trip(field);
    EXPECT_EQ(rt.reconstructed.shape(), field.shape());
    EXPECT_LT(rt.error.mean_rel_percent(), 1.0);
  }
}

TEST(Compressor, EntropyStageShrinksPayload) {
  const auto field = make_smooth_field(Shape{64, 64}, 7);
  const auto none = WaveletCompressor(spike_params(64, EntropyMode::kNone)).compress(field);
  const auto defl = WaveletCompressor(spike_params(64, EntropyMode::kDeflate)).compress(field);
  EXPECT_LT(defl.data.size(), none.data.size());
}

TEST(Compressor, StreamIsSelfDescribing) {
  // Decompression needs no parameters: a differently-configured
  // decompressor call reads any stream.
  const auto field = make_smooth_field(Shape{16, 8, 4}, 8);
  const auto comp = WaveletCompressor(simple_params(16)).compress(field);
  const auto back = WaveletCompressor::decompress(comp.data);
  EXPECT_EQ(back.shape(), field.shape());
}

TEST(Compressor, MultiLevelTransformSupported) {
  const auto field = make_smooth_field(Shape{64, 64}, 9);
  CompressionParams p = spike_params(128);
  p.wavelet_levels = 3;
  const auto rt = WaveletCompressor(p).round_trip(field);
  EXPECT_LT(rt.error.mean_rel_percent(), 2.0);
}

TEST(Compressor, Rank1AndRank4Supported) {
  for (const Shape& shape : {Shape{1000}, Shape{8, 6, 5, 4}}) {
    const auto field = make_smooth_field(shape, 10 + shape.rank());
    const auto rt = WaveletCompressor(spike_params(64)).round_trip(field);
    EXPECT_EQ(rt.reconstructed.shape(), shape);
    EXPECT_LT(rt.error.mean_rel_percent(), 2.0);
  }
}

TEST(Compressor, PaperShapeNicamArray) {
  // The exact array shape the paper compresses: 1156 x 82 x 2 doubles.
  const auto field = make_temperature_field(Shape{1156, 82, 2}, 11);
  const auto rt = WaveletCompressor(spike_params(128)).round_trip(field);
  EXPECT_LT(rt.error.mean_rel_percent(), 0.5);
  EXPECT_LT(rt.compressed.compression_rate_percent(), 70.0);
}

// The stage vocabulary: one compress records exactly one sample into
// each "stage.<name>.seconds" histogram its entropy mode runs, and into
// no other stage histogram (no "gzip", no "quantize_encode").
struct StageCase {
  const char* name;  // names the ctest case
  EntropyMode mode;
  std::vector<std::string> stages;
};

// gtest_discover_tests names each case <suite>/<test>/<printed param>.
void PrintTo(const StageCase& c, std::ostream* os) { *os << c.name; }

const StageCase kStageCases[] = {
    {"None", EntropyMode::kNone, {"encode", "other", "quantize", "wavelet"}},
    {"Deflate", EntropyMode::kDeflate, {"deflate", "encode", "other", "quantize", "wavelet"}},
    {"TempFileGzip",
     EntropyMode::kTempFileGzip,
     {"deflate", "encode", "other", "quantize", "temp_file_write", "wavelet"}},
    {"HuffmanOnly",
     EntropyMode::kHuffmanOnly,
     {"deflate", "encode", "other", "quantize", "wavelet"}},
};

class StageHistograms : public ::testing::TestWithParam<StageCase> {};

TEST_P(StageHistograms, OneSamplePerStageCoveringTheCall) {
  const StageCase& c = GetParam();
  std::map<std::string, std::uint64_t> expected;
  for (const std::string& stage : c.stages) expected["stage." + stage + ".seconds"] = 1;
  telemetry::set_enabled(true);
  auto& registry = telemetry::MetricsRegistry::global();
  // The Fig. 9 field. The stages never overlap, so their sum stays
  // within the call; what falls between them (plans, result copies,
  // frees, temp-file names) must stay small. Wall time on a shared
  // host is noisy, so one attempt in five has to show that.
  const auto field = make_temperature_field(Shape{1156, 82, 2}, 2015);
  const WaveletCompressor compressor(spike_params(128, c.mode));
  double best_share = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    registry.reset();
    const WallTimer call;
    (void)compressor.compress(field);
    const double call_s = call.seconds();

    std::map<std::string, std::uint64_t> samples;
    double stage_s = 0.0;
    for (const auto& [name, h] : registry.snapshot().histograms) {
      if (name.rfind("stage.", 0) != 0 || h.count == 0) continue;
      samples[name] = h.count;
      stage_s += h.sum;
    }
    EXPECT_EQ(samples, expected);
    EXPECT_LE(stage_s, call_s);
    best_share = std::max(best_share, stage_s / call_s);
  }
  EXPECT_GE(best_share, 0.9);
}

INSTANTIATE_TEST_SUITE_P(CompressorStages, StageHistograms, ::testing::ValuesIn(kStageCases));

TEST(Compressor, RunReportListsOnlyDisjointStages) {
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry::global().reset();
  (void)WaveletCompressor().compress(make_temperature_field(Shape{64, 32, 2}, 12));
  telemetry::RunReport report;
  report.capture_global();
  std::vector<std::string> stages;
  for (const auto& [stage, seconds] : report.stages_seconds) stages.push_back(stage);
  EXPECT_EQ(stages,
            (std::vector<std::string>{"deflate", "encode", "other", "quantize", "wavelet"}));
}

TEST(Compressor, DiagnosticsConsistent) {
  const auto field = make_smooth_field(Shape{32, 32}, 13);
  const auto comp = WaveletCompressor(spike_params(64)).compress(field);
  EXPECT_EQ(comp.original_bytes, field.size_bytes());
  EXPECT_GT(comp.payload_bytes, 0u);
  EXPECT_LE(comp.quantized_count, comp.high_count);
  EXPECT_EQ(comp.high_count + WaveletPlan::create(field.shape(), 1).low_count(), field.size());
}

TEST(Compressor, EmptyAndInvalidInputsRejected) {
  EXPECT_THROW((void)WaveletCompressor(spike_params(0)), InvalidArgumentError);
  CompressionParams p = spike_params(64);
  p.wavelet_levels = 0;
  EXPECT_THROW(WaveletCompressor{p}, InvalidArgumentError);
  // A bad deflate level is refused at construction, not at the first
  // deflated segment, which may run on a pool worker.
  for (const int level : {0, 10}) {
    p = spike_params(64);
    p.deflate_level = level;
    EXPECT_THROW(WaveletCompressor{p}, InvalidArgumentError) << "level=" << level;
  }
  NdArray<double> empty;
  EXPECT_THROW((void)WaveletCompressor(spike_params(64)).compress(empty),
               InvalidArgumentError);
}

TEST(Compressor, CorruptedStreamRejected) {
  const auto field = make_smooth_field(Shape{32, 32}, 14);
  auto comp = WaveletCompressor(spike_params(64)).compress(field);
  comp.data[comp.data.size() / 2] ^= std::byte{0x10};
  EXPECT_THROW((void)WaveletCompressor::decompress(comp.data), Error);
  EXPECT_THROW((void)WaveletCompressor::decompress({}), FormatError);
}

TEST(Compressor, RandomDataStillRoundTrips) {
  // White noise: poor compression but correctness must hold.
  const auto field = make_random_field(Shape{40, 40}, 15);
  const auto rt = WaveletCompressor(spike_params(128)).round_trip(field);
  EXPECT_EQ(rt.reconstructed.shape(), field.shape());
  EXPECT_LT(rt.error.max_rel, 1.0);
}

TEST(ErrorBound, PicksSmallestSufficientN) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 16);
  const auto tight = compress_with_error_bound(field, 1e-4);
  EXPECT_TRUE(tight.met_bound);
  EXPECT_LE(tight.error.mean_rel, 1e-4);

  const auto loose = compress_with_error_bound(field, 1e-2);
  EXPECT_TRUE(loose.met_bound);
  EXPECT_LE(loose.chosen_divisions, tight.chosen_divisions);
}

TEST(ErrorBound, UnreachableBoundReportsBestEffort) {
  const auto field = make_random_field(Shape{64, 64}, 20);  // noise: hard
  const auto r = compress_with_error_bound(field, 1e-12);
  EXPECT_FALSE(r.met_bound);
  EXPECT_GT(r.chosen_divisions, 0);
  EXPECT_GT(r.error.mean_rel, 1e-12);
  // The stream is still valid and decompressible.
  EXPECT_EQ(WaveletCompressor::decompress(r.compressed.data).shape(), field.shape());
}

TEST(ErrorBound, InvalidBoundRejected) {
  const auto field = make_smooth_field(Shape{8, 8}, 17);
  EXPECT_THROW((void)compress_with_error_bound(field, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)compress_with_error_bound(field, -1.0), InvalidArgumentError);
}

TEST(Synthetic, SmoothFieldIsSmooth) {
  const auto field = make_smooth_field(Shape{256}, 18);
  double total_step = 0.0;
  double range_lo = field[0];
  double range_hi = field[0];
  for (std::size_t i = 1; i < field.size(); ++i) {
    total_step += std::abs(field[i] - field[i - 1]);
    range_lo = std::min(range_lo, field[i]);
    range_hi = std::max(range_hi, field[i]);
  }
  const double mean_step = total_step / static_cast<double>(field.size() - 1);
  EXPECT_LT(mean_step, (range_hi - range_lo) / 10.0);
}

TEST(Synthetic, DeterministicForSeed) {
  const auto a = make_smooth_field(Shape{32, 32}, 42);
  const auto b = make_smooth_field(Shape{32, 32}, 42);
  EXPECT_EQ(a, b);
  const auto c = make_smooth_field(Shape{32, 32}, 43);
  EXPECT_FALSE(a == c);
}

TEST(Synthetic, TemperatureHasLapseRateTrend) {
  const auto t = make_temperature_field(Shape{8, 8, 16}, 19);
  // Mean over the first vertical level must exceed the last.
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      first += t(i, j, 0);
      last += t(i, j, 15);
    }
  }
  EXPECT_GT(first, last);
}

}  // namespace
}  // namespace wck
