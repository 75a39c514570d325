// Tests for checkpoint codecs, the registry, the file format, restart
// semantics and failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "core/synthetic.hpp"
#include "io/io_backend.hpp"
#include "legacy_writers.hpp"
#include "stats/error_metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("wck_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(Codecs, NullCodecRoundTripIsExact) {
  const auto field = make_temperature_field(Shape{16, 8, 4}, 1);
  const NullCodec codec;
  const Bytes data = codec.encode(field);
  EXPECT_EQ(codec.decode(data), field);
  EXPECT_FALSE(codec.lossy());
  // Raw representation: shape header + doubles.
  EXPECT_GE(data.size(), field.size_bytes());
}

TEST(Codecs, GzipCodecRoundTripIsExact) {
  const auto field = make_temperature_field(Shape{32, 16, 2}, 2);
  const GzipCodec codec;
  const Bytes data = codec.encode(field);
  EXPECT_EQ(codec.decode(data), field);
  EXPECT_FALSE(codec.lossy());
}

TEST(Codecs, GzipOnFloatingPointCompressesPoorly) {
  // The paper's Fig. 6 observation: lossless gzip on FP mesh data leaves
  // the bulk of the size (they measured ~87 %).
  const auto field = make_temperature_field(Shape{64, 32, 4}, 3);
  const GzipCodec codec;
  const Bytes data = codec.encode(field);
  const double rate =
      100.0 * static_cast<double>(data.size()) / static_cast<double>(field.size_bytes());
  EXPECT_GT(rate, 50.0);
}

TEST(Codecs, LossyCodecRoundTripsWithSmallError) {
  const auto field = make_temperature_field(Shape{64, 32, 4}, 4);
  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletLossyCodec codec(params);
  EXPECT_TRUE(codec.lossy());
  const Bytes data = codec.encode(field);
  const auto back = codec.decode(data);
  const auto err = relative_error(field.values(), back.values());
  EXPECT_LT(err.mean_rel_percent(), 0.5);
  EXPECT_LT(data.size(), field.size_bytes() / 2);
}

TEST(Codecs, EachCodecTimesItsStagesOnce) {
  // Every codec records one sample per stage it runs into the
  // "stage.<name>.seconds" histograms; the related-work codecs have one
  // stage named after themselves.
  telemetry::set_enabled(true);
  auto& registry = telemetry::MetricsRegistry::global();
  const auto field = make_temperature_field(Shape{64, 32, 4}, 5);
  const NullCodec null_codec;
  const GzipCodec gzip;
  const WaveletLossyCodec lossy;
  const FpcCodec fpc;
  const SzLikeCodec szlike;
  const ZfpLikeCodec zfplike;
  const TruncationCodec truncation;
  const std::pair<const Codec*, std::vector<std::string>> cases[] = {
      {&null_codec, {"other"}},
      {&gzip, {"gzip", "other"}},
      {&lossy, {"deflate", "encode", "other", "quantize", "wavelet"}},
      {&fpc, {"fpc"}},
      {&szlike, {"szlike"}},
      {&zfplike, {"zfplike"}},
      {&truncation, {"truncation"}},
  };
  for (const auto& [codec, stages] : cases) {
    SCOPED_TRACE(codec->name());
    registry.reset();
    (void)codec->encode(field);
    std::map<std::string, std::uint64_t> samples;
    for (const auto& [name, h] : registry.snapshot().histograms) {
      if (name.rfind("stage.", 0) == 0 && h.count > 0) samples[name] = h.count;
    }
    std::map<std::string, std::uint64_t> expected;
    for (const std::string& stage : stages) expected["stage." + stage + ".seconds"] = 1;
    EXPECT_EQ(samples, expected);
  }
}

TEST(Codecs, DecoderRegistryResolvesNames) {
  for (const char* name :
       {"null", "gzip", "wavelet-lossy", "fpc", "truncation", "szlike", "zfplike"}) {
    EXPECT_EQ(codec_for_decoding(name).name(), name);
  }
  EXPECT_THROW((void)codec_for_decoding("bzip2"), FormatError);
}

TEST(Codecs, EveryLossyCodecRoundTripsThroughCheckpoints) {
  const auto field = make_temperature_field(Shape{32, 16, 2}, 20);
  NdArray<double> state = field;
  CheckpointRegistry reg;
  reg.add("state", &state);
  const WaveletLossyCodec wavelet;
  const SzLikeCodec szlike(1e-2);
  const ZfpLikeCodec zfplike(20);
  const TruncationCodec truncation(20);
  for (const Codec* codec :
       {static_cast<const Codec*>(&wavelet), static_cast<const Codec*>(&szlike),
        static_cast<const Codec*>(&zfplike), static_cast<const Codec*>(&truncation)}) {
    state = field;
    const Bytes data = serialize_checkpoint(reg, *codec, 1);
    state = NdArray<double>(field.shape(), 0.0);
    (void)restore_checkpoint(data, reg);
    const auto err = relative_error(field.values(), state.values());
    EXPECT_LT(err.mean_rel_percent(), 1.0) << codec->name();
  }
}

TEST(Registry, RejectsDuplicatesAndNulls) {
  NdArray<double> a(Shape{4});
  CheckpointRegistry reg;
  reg.add("a", &a);
  EXPECT_THROW(reg.add("a", &a), InvalidArgumentError);
  EXPECT_THROW(reg.add("b", nullptr), InvalidArgumentError);
  EXPECT_THROW(reg.add("", &a), InvalidArgumentError);
  EXPECT_EQ(reg.find("a"), &a);
  EXPECT_EQ(reg.find("missing"), nullptr);
  EXPECT_EQ(reg.total_bytes(), 4 * sizeof(double));
}

struct TwoFieldApp {
  NdArray<double> temp = make_temperature_field(Shape{24, 12, 2}, 7);
  NdArray<double> pressure = make_smooth_field(Shape{24, 12, 2}, 8);
  CheckpointRegistry registry;

  TwoFieldApp() {
    registry.add("temperature", &temp);
    registry.add("pressure", &pressure);
  }
};

TEST(Checkpoint, InMemoryRoundTripExactWithNullCodec) {
  TwoFieldApp app;
  CheckpointInfo winfo;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 720, &winfo);
  EXPECT_EQ(winfo.step, 720u);
  EXPECT_EQ(winfo.field_count, 2u);
  EXPECT_EQ(winfo.original_bytes, app.registry.total_bytes());

  TwoFieldApp other;
  other.temp = NdArray<double>(app.temp.shape(), 0.0);
  other.pressure = NdArray<double>(app.pressure.shape(), 0.0);
  const CheckpointInfo rinfo = restore_checkpoint(data, other.registry);
  EXPECT_EQ(rinfo.step, 720u);
  EXPECT_EQ(other.temp, app.temp);
  EXPECT_EQ(other.pressure, app.pressure);
}

TEST(Checkpoint, LossyRoundTripBoundsError) {
  TwoFieldApp app;
  CompressionParams params;
  params.quantizer.divisions = 128;
  const Bytes data = serialize_checkpoint(app.registry, WaveletLossyCodec{params}, 1);

  TwoFieldApp other;
  (void)restore_checkpoint(data, other.registry);
  const auto terr = relative_error(app.temp.values(), other.temp.values());
  EXPECT_GT(terr.mean_rel, 0.0);  // lossy
  EXPECT_LT(terr.mean_rel_percent(), 1.0);
}

TEST(Checkpoint, CompressionRateReported) {
  TwoFieldApp app;
  CheckpointInfo info;
  (void)serialize_checkpoint(app.registry, WaveletLossyCodec{}, 1, &info);
  EXPECT_GT(info.compression_rate_percent(), 0.0);
  EXPECT_LT(info.compression_rate_percent(), 100.0);

  CheckpointInfo raw_info;
  (void)serialize_checkpoint(app.registry, NullCodec{}, 1, &raw_info);
  EXPECT_GE(raw_info.compression_rate_percent(), 100.0);
}

TEST(Checkpoint, FileRoundTrip) {
  TempDir dir;
  TwoFieldApp app;
  const auto path = dir.path() / "state.wck";
  const CheckpointInfo winfo = write_checkpoint(path, app.registry, GzipCodec{}, 42);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(winfo.stored_bytes, 0u);

  TwoFieldApp other;
  other.temp = NdArray<double>(app.temp.shape(), 0.0);
  const CheckpointInfo rinfo = read_checkpoint(path, other.registry);
  EXPECT_EQ(rinfo.step, 42u);
  EXPECT_EQ(other.temp, app.temp);
  EXPECT_EQ(other.pressure, app.pressure);
}

TEST(Checkpoint, MissingFileThrowsIoError) {
  TwoFieldApp app;
  EXPECT_THROW((void)read_checkpoint("/nonexistent/dir/x.wck", app.registry), IoError);
  EXPECT_THROW((void)write_checkpoint("/nonexistent/dir/x.wck", app.registry, NullCodec{}, 0),
               IoError);
}

TEST(Checkpoint, UnregisteredFieldRejected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  CheckpointRegistry partial;
  NdArray<double> temp_only(app.temp.shape());
  partial.add("temperature", &temp_only);
  EXPECT_THROW((void)restore_checkpoint(data, partial), FormatError);
}

TEST(Checkpoint, ShapeMismatchRejected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  CheckpointRegistry reg;
  NdArray<double> temp(Shape{3, 3});  // wrong shape, nonempty
  NdArray<double> pressure(app.pressure.shape());
  reg.add("temperature", &temp);
  reg.add("pressure", &pressure);
  EXPECT_THROW((void)restore_checkpoint(data, reg), FormatError);
}

TEST(Checkpoint, CorruptionDetectedAnywhere) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, GzipCodec{}, 1);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 24; ++trial) {
    Bytes bad = data;
    bad[rng.bounded(bad.size())] ^= std::byte{0x08};
    TwoFieldApp other;
    EXPECT_THROW((void)restore_checkpoint(bad, other.registry), Error) << "trial " << trial;
  }
}

TEST(Checkpoint, TruncationDetected) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 1);
  for (const double frac : {0.1, 0.5, 0.95}) {
    Bytes cut(data.begin(),
              data.begin() + static_cast<std::ptrdiff_t>(static_cast<double>(data.size()) * frac));
    TwoFieldApp other;
    EXPECT_THROW((void)restore_checkpoint(cut, other.registry), Error);
  }
}

TEST(Checkpoint, TrailerKeepsAOneFieldGenerationItsV1Size) {
  // v2 trades a one-field generation's field CRC for the trailer: same
  // bytes stored, so stored ratios do not move.
  NdArray<double> state = make_smooth_field(Shape{16, 16}, 3);
  CheckpointRegistry reg;
  reg.add("state", &state);
  const Bytes payload = GzipCodec{}.encode(state);
  EXPECT_EQ(serialize_checkpoint(reg, GzipCodec{}, 9).size(),
            checkpoint_v1(9, {{"state", "gzip", payload}}).size());
}

TEST(Checkpoint, StepCheckRejectsAnotherStepsGeneration) {
  TwoFieldApp app;
  const Bytes data = serialize_checkpoint(app.registry, NullCodec{}, 5);
  TwoFieldApp other;
  other.temp = NdArray<double>(app.temp.shape(), 0.0);
  EXPECT_THROW((void)restore_checkpoint(data, other.registry, 6), CorruptDataError);
  EXPECT_THROW(verify_checkpoint(data, 6), CorruptDataError);
  EXPECT_EQ(other.temp[0], 0.0);  // rejected before any array changed
  EXPECT_NO_THROW(verify_checkpoint(data, 5));
  EXPECT_EQ(restore_checkpoint(data, other.registry, 5).step, 5u);
}

const std::filesystem::path kLegacyGeneration =
    std::filesystem::path(WCK_TEST_DATA_DIR) / "legacy" / "manager" / "ckpt.42.wck";

TEST(Checkpoint, LegacyWriterReproducesTheFixtureGeneration) {
  // checkpoint_v1 builds the v1 streams of the fuzz corpus and the
  // hostile-shape cases; pin it to a generation the old library wrote.
  const Bytes v1 = posix_backend().read_file(kLegacyGeneration);
  ByteReader r(v1);
  (void)r.u32();
  (void)r.u8();
  const std::uint64_t step = r.varint();
  std::vector<CheckpointV1Field> fields(r.varint());
  for (CheckpointV1Field& f : fields) {
    f.name = r.str();
    f.codec = r.str();
    const auto payload = r.raw(r.varint());
    f.payload.assign(payload.begin(), payload.end());
    (void)r.u32();
  }
  EXPECT_EQ(checkpoint_v1(step, fields), v1);
}

/// Two arrays registered under the field names of a checkpoint.
struct TwoTargets {
  NdArray<double> first;
  NdArray<double> second;
  CheckpointRegistry registry;

  TwoTargets(const char* a, const char* b) {
    registry.add(a, &first);
    registry.add(b, &second);
  }
};

/// Flips every bit of `data` in turn. Each mutant must either fail with a
/// typed error, leaving the arrays untouched, or restore exactly what the
/// unflipped bytes restore at `step`. Returns how many restored.
std::size_t flips_restored_exactly(Bytes data, const char* a, const char* b,
                                   std::uint64_t step) {
  TwoTargets want(a, b);
  EXPECT_EQ(restore_checkpoint(data, want.registry, step).step, step);
  std::size_t exact = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<std::byte>(1u << bit);
      TwoTargets got(a, b);
      try {
        EXPECT_EQ(restore_checkpoint(data, got.registry, step).step, step);
        EXPECT_TRUE(got.first == want.first && got.second == want.second)
            << "byte " << i << " bit " << bit;
        ++exact;
      } catch (const Error&) {
        EXPECT_EQ(got.first.size() + got.second.size(), 0u) << "byte " << i << " bit " << bit;
      }
      data[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
  return exact;
}

TEST(Checkpoint, EveryBitFlipOfALegacyGenerationIsRejected) {
  // v1 leaves its header unchecked, so only the step check rejects flips
  // of the step varint (byte 5), which decode as steps 10..106.
  const Bytes v1 = posix_backend().read_file(kLegacyGeneration);
  ASSERT_EQ(v1.size(), 4006u);
  EXPECT_EQ(flips_restored_exactly(v1, "temperature", "noise", 42), 0u);
}

TEST(Checkpoint, EveryBitFlipOfAV2GenerationIsRejected) {
  TwoFieldApp app;
  const Bytes v2 = serialize_checkpoint(app.registry, WaveletLossyCodec{}, 9);
  EXPECT_EQ(flips_restored_exactly(v2, "temperature", "pressure", 9), 0u);
}

TEST(Checkpoint, MixedCodecsAcrossCheckpointsDecodable) {
  // A restart may read checkpoints written with different codecs over
  // the application's lifetime; the codec name travels with the file.
  TwoFieldApp app;
  const Bytes lossless = serialize_checkpoint(app.registry, GzipCodec{}, 1);
  const Bytes lossy = serialize_checkpoint(app.registry, WaveletLossyCodec{}, 2);
  TwoFieldApp other;
  EXPECT_EQ(restore_checkpoint(lossless, other.registry).step, 1u);
  EXPECT_EQ(restore_checkpoint(lossy, other.registry).step, 2u);
}

}  // namespace
}  // namespace wck
