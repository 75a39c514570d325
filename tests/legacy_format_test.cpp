// Streams written by the library before payload v3 and WCKP v2 must keep
// restoring bit-identically. The fixtures under tests/data/legacy were
// written by that library from make_temperature_field({16, 12, 2}, 2015)
// at n = 128 (see tests/data/legacy/README.md):
//   tag1_zlib.wck      kDeflate, serial zlib container (tag 1), payload v2
//   tag2_gzip.wck      kTempFileGzip, serial gzip container (tag 2)
//   tag4_wckp_v1.wck   kDeflate, WCKP v1, threads = 2, block size 4096
//   manager/           one CheckpointManager generation (step 42) holding
//                      that field and make_random_field({16, 12}, 7)
// The digests are FNV-1a over the reconstructed doubles, recorded when
// the fixtures were written.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/manager.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "legacy_writers.hpp"

namespace wck {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kInputDigest = 0xf3065eec972aeb55ull;
constexpr std::uint64_t kTemperatureDigest = 0xc8bf1878d1bce5fbull;
constexpr std::uint64_t kNoiseDigest = 0x0b513d1f4a2d231full;

const fs::path kFixtures = fs::path(WCK_TEST_DATA_DIR) / "legacy";

std::uint64_t fnv1a64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const NdArray<double>& a) { return fnv1a64(std::as_bytes(a.values())); }

Bytes read_fixture(const std::string& name) {
  std::ifstream f(kFixtures / name, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing fixture " << name;
  const std::string bytes((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(bytes.data());
  return Bytes(p, p + bytes.size());
}

NdArray<double> fixture_field() { return make_temperature_field(Shape{16, 12, 2}, 2015); }

TEST(LegacyFormat, FixturesWereWrittenFromThisField) {
  EXPECT_EQ(digest(fixture_field()), kInputDigest);
}

TEST(LegacyFormat, EveryLegacyEntropyTagDecodesBitIdentically) {
  for (const auto& [name, tag] : {std::pair{"tag1_zlib.wck", 1}, std::pair{"tag2_gzip.wck", 2},
                                  std::pair{"tag4_wckp_v1.wck", 4}}) {
    SCOPED_TRACE(name);
    const Bytes stream = read_fixture(name);
    ASSERT_FALSE(stream.empty());
    EXPECT_EQ(WaveletCompressor::inspect(stream).entropy_tag, tag);
    const NdArray<double> restored = WaveletCompressor::decompress(stream);
    EXPECT_EQ(restored.shape(), (Shape{16, 12, 2}));
    EXPECT_EQ(digest(restored), kTemperatureDigest);
  }
}

TEST(LegacyFormat, CurrentWriterReconstructsTheSameField) {
  // The new layouts change stored bytes only: the same input and params
  // reconstruct to the recorded doubles, in every write mode.
  for (const EntropyMode mode :
       {EntropyMode::kDeflate, EntropyMode::kTempFileGzip, EntropyMode::kNone}) {
    CompressionParams params;
    params.quantizer.divisions = 128;
    params.entropy = mode;
    params.threads = 2;
    params.deflate_block_size = 4096;
    const Bytes stream = WaveletCompressor(params).compress(fixture_field()).data;
    EXPECT_EQ(digest(WaveletCompressor::decompress(stream)), kTemperatureDigest)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(LegacyFormat, TestWritersReproduceTheOldLibraryBytes) {
  // The test-local v2 and v1 writers (legacy_writers.hpp) are what the
  // rest of the suite uses to build old streams; pin them to the real
  // thing.
  const Bytes zlib_stream = read_fixture("tag1_zlib.wck");
  const Bytes v2 = zlib_decompress(std::span<const std::byte>(zlib_stream).subspan(1));
  EXPECT_EQ(encode_payload_v2(decode_payload(v2)), v2);

  const Bytes wckp_stream = read_fixture("tag4_wckp_v1.wck");
  const auto v1 = std::span<const std::byte>(wckp_stream).subspan(1);
  const Bytes payload = sharded_deflate_decompress(v1);
  EXPECT_EQ(payload, v2);
  const Bytes rebuilt = wckp_v1_container(payload, 4096);
  EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), v1.begin(), v1.end()));
}

TEST(LegacyFormat, ManagerGenerationRestores) {
  static std::atomic<int> counter{0};
  const fs::path dir = fs::temp_directory_path() / ("wck_legacy_" + std::to_string(::getpid()) +
                                                    "_" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::copy(kFixtures / "manager", dir, fs::copy_options::recursive);

  CompressionParams params;
  params.quantizer.divisions = 128;
  const WaveletLossyCodec codec(params);
  NdArray<double> temperature(Shape{16, 12, 2});
  NdArray<double> noise(Shape{16, 12});
  CheckpointRegistry registry;
  registry.add("temperature", &temperature);
  registry.add("noise", &noise);
  {
    CheckpointManager manager(dir, codec);
    const RestoreOutcome outcome = manager.restore(registry);
    EXPECT_EQ(outcome.step, 42u);
    EXPECT_EQ(outcome.source, RestoreSource::kPrimary);
  }
  EXPECT_EQ(digest(temperature), kTemperatureDigest);
  EXPECT_EQ(digest(noise), kNoiseDigest);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wck
