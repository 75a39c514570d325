// Tests for the segmented parallel deflate engine (src/deflate/parallel):
// round trips, bit-determinism across thread counts, the segment rule
// and the stored/deflate choice, frame-format robustness (truncation,
// CRC corruption, implausible headers) for both container versions, and
// the compressor integration (tag-4 streams, WCK_THREADS resolution,
// size against a single zlib stream).
#include "deflate/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "legacy_writers.hpp"
#include "parallel/rank_set.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

Bytes make_payload(std::size_t size, std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  Bytes data(size);
  // Mildly compressible: runs of a few repeated bytes.
  std::size_t i = 0;
  while (i < size) {
    const auto value = static_cast<std::byte>(rng() & 0xFF);
    const std::size_t run = 1 + (rng() % 8);
    for (std::size_t r = 0; r < run && i < size; ++r) data[i++] = value;
  }
  return data;
}

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes data(size);
  for (std::byte& b : data) b = static_cast<std::byte>(rng.bounded(256));
  return data;
}

/// `size` noise bytes followed by `size` bytes drawn from 16 letters:
/// the second half is what order-0 coding shrinks.
Bytes mixed_payload(std::size_t size) {
  Bytes data = random_bytes(size, 3);
  Xoshiro256 rng(4);
  for (std::size_t i = 0; i < size; ++i) data.push_back(static_cast<std::byte>('a' + rng.bounded(16)));
  return data;
}

/// The per-segment modes of a v2 container (0 stored, 1 deflate).
std::vector<int> segment_modes(const Bytes& container) {
  ByteReader r(container);
  (void)r.u32();
  EXPECT_EQ(r.u8(), 2);
  (void)r.u8();
  (void)r.varint();
  const std::uint64_t count = r.varint();
  std::vector<int> modes;
  for (std::uint64_t i = 0; i < count; ++i) {
    modes.push_back(r.u8());
    (void)r.varint();
    (void)r.varint();
    (void)r.u32();
  }
  return modes;
}

/// Scoped environment variable override (removed on destruction).
/// Production code reads WCK_* variables through the wck::env cache,
/// which memoizes the first real lookup — plain setenv would be masked
/// by the cache, so this goes through the cache's test override hook.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    env::set_override(name_, value == nullptr
                                 ? std::nullopt
                                 : std::optional<std::string>(value));
  }
  ~ScopedEnv() { env::clear_override(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
};

TEST(ShardedDeflate, RoundTripsAcrossSizes) {
  // Exercises: empty, sub-block, exact multiples, one-past boundaries.
  const std::size_t block = 1024;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{1023}, std::size_t{1024}, std::size_t{1025},
        std::size_t{4096}, std::size_t{10000}}) {
    const Bytes input = make_payload(size);
    const Bytes packed = sharded_deflate_compress(input, {6, block, 2});
    EXPECT_TRUE(is_sharded_deflate(packed));
    const Bytes restored = sharded_deflate_decompress(packed, 2);
    EXPECT_EQ(restored, input) << "size " << size;
  }
}

TEST(ShardedDeflate, EmptyInputYieldsValidZeroBlockContainer) {
  const Bytes packed = sharded_deflate_compress({}, {6, 4096, 4});
  EXPECT_TRUE(is_sharded_deflate(packed));
  const Bytes restored = sharded_deflate_decompress(packed);
  EXPECT_TRUE(restored.empty());
}

TEST(ShardedDeflate, BitDeterministicAcrossThreadCounts) {
  const Bytes input = mixed_payload(50 * 1024);
  const std::size_t ends[] = {50 * 1024, input.size()};
  const Bytes reference = sharded_deflate_compress(input, {6, 8192, 1}, ends);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Bytes packed = sharded_deflate_compress(input, {6, 8192, threads}, ends);
    EXPECT_EQ(packed, reference) << "threads=" << threads;
  }
}

TEST(ShardedDeflate, BlockSizeChangesBytesButNotContent) {
  const Bytes input = make_payload(64 * 1024);
  const Bytes a = sharded_deflate_compress(input, {6, 4096, 2});
  const Bytes b = sharded_deflate_compress(input, {6, 16384, 2});
  EXPECT_NE(a, b);  // different framing
  EXPECT_EQ(sharded_deflate_decompress(a), input);
  EXPECT_EQ(sharded_deflate_decompress(b), input);
}

TEST(ShardedDeflate, SizeWithinTwoPercentOfSerial) {
  // Splitting at the default segment length must not cost more than
  // 2 % against one zlib stream on a checkpoint-like input.
  const NdArray<double> field = make_temperature_field(Shape{256, 128}, 11);
  const auto raw = std::as_bytes(field.values());
  const Bytes serial = zlib_compress(raw, {});
  const Bytes sharded = sharded_deflate_compress(Bytes(raw.begin(), raw.end()), {});
  EXPECT_LE(static_cast<double>(sharded.size()),
            static_cast<double>(serial.size()) * 1.02)
      << "sharded " << sharded.size() << " vs serial " << serial.size();
}

TEST(ShardedDeflate, StoresWhatOrderZeroCodingCannotShrink) {
  const Bytes input = mixed_payload(32 * 1024);
  const std::size_t ends[] = {32 * 1024, input.size()};
  const Bytes packed = sharded_deflate_compress(input, {}, ends);
  EXPECT_EQ(segment_modes(packed), (std::vector<int>{0, 1}));
  EXPECT_LT(packed.size(), input.size());
  EXPECT_EQ(sharded_deflate_decompress(packed), input);
  // One noise stream alone is stored whole: the container costs only
  // its framing.
  const Bytes noise = random_bytes(20000, 9);
  const Bytes stored = sharded_deflate_compress(noise);
  EXPECT_EQ(segment_modes(stored), (std::vector<int>{0}));
  EXPECT_LE(stored.size(), noise.size() + 32);
}

TEST(SegmentEnds, MergesShortStreamsUntilTheMinimumSize) {
  const std::size_t k = kMinSegmentSize;
  // Streams of k/2, k/2, 2k, 3 bytes: the halves merge, the 2k stream
  // stands alone, and the 3-byte tail joins it.
  const std::size_t ends[] = {k / 2, k, 3 * k, 3 * k + 3};
  EXPECT_EQ(segment_ends(3 * k + 3, ends, 1 << 20), (std::vector<std::size_t>{k, 3 * k + 3}));
  // Nothing reaches the minimum: one segment.
  const std::size_t small[] = {10, 20, 30};
  EXPECT_EQ(segment_ends(30, small, 1 << 20), (std::vector<std::size_t>{30}));
  // Empty streams (repeated ends) are harmless, and no ends means one
  // stream.
  const std::size_t repeated[] = {0, 0, 2 * k, 2 * k, 2 * k};
  EXPECT_EQ(segment_ends(2 * k, repeated, 1 << 20), (std::vector<std::size_t>{2 * k}));
  EXPECT_EQ(segment_ends(5, {}, 1 << 20), (std::vector<std::size_t>{5}));
  EXPECT_TRUE(segment_ends(0, {}, 1 << 20).empty());
}

TEST(SegmentEnds, SplitsSegmentsLongerThanTheBlockSize) {
  const std::size_t ends[] = {100000, 100001};
  EXPECT_EQ(segment_ends(100001, ends, 40000),
            (std::vector<std::size_t>{40000, 80000, 100001}));
}

TEST(SegmentEnds, RejectsBadArguments) {
  const std::size_t decreasing[] = {20000, 10000};
  EXPECT_THROW((void)segment_ends(30000, decreasing, 4096), InvalidArgumentError);
  const std::size_t beyond[] = {40000};
  EXPECT_THROW((void)segment_ends(30000, beyond, 4096), InvalidArgumentError);
  EXPECT_THROW((void)segment_ends(30000, {}, 0), InvalidArgumentError);
}

TEST(ShardedDeflate, RejectsBadLevelBeforeCoding) {
  // Random bytes: every segment would be stored, so the level is never
  // needed, and a bad one must still be refused.
  const Bytes noise = random_bytes(50000, 12);
  for (const int level : {0, 10, 42, -1}) {
    EXPECT_THROW((void)sharded_deflate_compress(noise, {level, kDefaultDeflateBlockSize, 1}),
                 InvalidArgumentError)
        << "level=" << level;
  }
  EXPECT_THROW((void)sharded_deflate_compress({}, {0, kDefaultDeflateBlockSize, 1}),
               InvalidArgumentError);
}

TEST(ShardedDeflate, RejectsBadMagicAndVersion) {
  const Bytes packed = sharded_deflate_compress(make_payload(100), {6, 64, 1});
  Bytes bad_magic = packed;
  bad_magic[0] = static_cast<std::byte>(0x00);
  EXPECT_THROW((void)sharded_deflate_decompress(bad_magic), FormatError);
  Bytes bad_version = packed;
  bad_version[4] = static_cast<std::byte>(9);
  EXPECT_THROW((void)sharded_deflate_decompress(bad_version), FormatError);
  EXPECT_FALSE(is_sharded_deflate(bad_magic));
  EXPECT_FALSE(is_sharded_deflate({}));
}

TEST(ShardedDeflate, RejectsTruncatedFrames) {
  // Every proper prefix must fail loudly with a typed error, never
  // crash or return data: a v2 container with both segment modes and a
  // v1 container.
  const Bytes input = mixed_payload(kMinSegmentSize);
  const std::size_t ends[] = {kMinSegmentSize, input.size()};
  for (const Bytes& packed :
       {sharded_deflate_compress(input, {}, ends), wckp_v1_container(make_payload(5000), 1024)}) {
    for (std::size_t len = 0; len < packed.size(); ++len) {
      const std::span<const std::byte> prefix(packed.data(), len);
      EXPECT_THROW((void)sharded_deflate_decompress(prefix), Error) << "prefix " << len;
    }
  }
}

TEST(ShardedDeflate, RejectsCorruptedBlockCrc) {
  // Flip one byte in the last segment's body: frame parsing stays valid,
  // so the corruption must be caught by that segment's CRC-32 (a stored
  // noise segment, a deflated one, and a v1 block).
  const Bytes input = make_payload(8192);
  for (const Bytes& packed :
       {sharded_deflate_compress(random_bytes(8192, 5)), sharded_deflate_compress(input, {6, 1024, 2}),
        wckp_v1_container(input, 1024)}) {
    Bytes corrupt = packed;
    corrupt[corrupt.size() - 1] ^= static_cast<std::byte>(0x01);
    EXPECT_THROW((void)sharded_deflate_decompress(corrupt), Error);
  }
}

TEST(ShardedDeflate, LegacyV1ContainerDecodes) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{4096},
                                 std::size_t{10000}}) {
    const Bytes input = make_payload(size);
    EXPECT_EQ(sharded_deflate_decompress(wckp_v1_container(input, 1024), 2), input)
        << "size " << size;
  }
}

TEST(ShardedDeflate, RejectsImplausibleBlockCount) {
  // A hand-built v1 header claiming 2^40 output bytes from a tiny input
  // must be rejected before any allocation (allocation-bomb guard).
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(1);
  w.u8(0);
  w.varint(1024);                      // block_size
  w.varint(1ull << 40);                // total: absurd for a tiny container
  w.varint((1ull << 40) / 1024);       // matching block count
  EXPECT_THROW((void)sharded_deflate_decompress(w.buffer()), FormatError);
}

TEST(ShardedDeflate, RejectsBlockCountMismatch) {
  const Bytes packed = wckp_v1_container(make_payload(4096), 1024);
  // Rebuild the v1 header with an off-by-one block count; table/body
  // bytes no longer agree with the derived count.
  ByteReader r(packed);
  (void)r.u32();
  (void)r.u8();
  (void)r.u8();
  const std::uint64_t block_size = r.varint();
  const std::uint64_t total = r.varint();
  const std::uint64_t count = r.varint();
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(1);
  w.u8(0);
  w.varint(block_size);
  w.varint(total);
  w.varint(count + 1);
  w.raw(packed.data() + r.position(), packed.size() - r.position());
  EXPECT_THROW((void)sharded_deflate_decompress(w.buffer()), FormatError);
}

TEST(ShardedDeflate, RejectsTrailingBytes) {
  for (Bytes packed : {sharded_deflate_compress(make_payload(2048), {6, 512, 1}),
                       wckp_v1_container(make_payload(2048), 512)}) {
    packed.push_back(std::byte{0});
    EXPECT_THROW((void)sharded_deflate_decompress(packed), FormatError);
  }
}

TEST(ResolveDeflateSharding, ExplicitRequestWins) {
  const ScopedEnv env("WCK_THREADS", "8");
  EXPECT_EQ(resolve_deflate_sharding(3), std::size_t{3});
  EXPECT_EQ(resolve_deflate_sharding(1), std::size_t{1});
  EXPECT_EQ(resolve_deflate_sharding(-1), std::size_t{1});
}

TEST(ResolveDeflateSharding, EnvControlsDefault) {
  for (const char* one : {static_cast<const char*>(nullptr), "", "nonsense", "-2"}) {
    const ScopedEnv env("WCK_THREADS", one);
    EXPECT_EQ(resolve_deflate_sharding(0), std::size_t{1}) << (one ? one : "unset");
  }
  {
    const ScopedEnv env("WCK_THREADS", "4");
    EXPECT_EQ(resolve_deflate_sharding(0), std::size_t{4});
  }
  for (const char* hardware : {"max", "0"}) {
    const ScopedEnv env("WCK_THREADS", hardware);
    EXPECT_GE(resolve_deflate_sharding(0), std::size_t{1}) << hardware;
  }
}

TEST(CompressorSharded, RoundTripsWithTag4) {
  const NdArray<double> field = make_temperature_field(Shape{96, 64}, 5);
  CompressionParams p;
  p.threads = 2;
  p.deflate_block_size = 4096;  // small enough for several segments
  const WaveletCompressor compressor(p);
  const CompressedArray comp = compressor.compress(field);
  EXPECT_EQ(static_cast<std::uint8_t>(comp.data[0]), 4);  // WCKP
  EXPECT_EQ(WaveletCompressor::inspect(comp.data).entropy_tag, 4);

  // The entropy stage is lossless: the restore is bit-identical to the
  // restore of the bare payload (kNone).
  CompressionParams raw = p;
  raw.entropy = EntropyMode::kNone;
  const Bytes plain = WaveletCompressor(raw).compress(field).data;
  const NdArray<double> restored = WaveletCompressor::decompress(comp.data);
  const NdArray<double> reference = WaveletCompressor::decompress(plain);
  ASSERT_EQ(restored.shape(), reference.shape());
  EXPECT_TRUE(std::equal(restored.values().begin(), restored.values().end(),
                         reference.values().begin()));

  // And the container stays within 2 % of one zlib stream of the same
  // payload.
  const Bytes zlib = zlib_compress(std::span<const std::byte>(plain).subspan(1));
  EXPECT_LE(static_cast<double>(comp.data.size()), static_cast<double>(zlib.size()) * 1.02);
}

TEST(CompressorSharded, TempFileGzipModeShards) {
  const NdArray<double> field = make_temperature_field(Shape{48, 32}, 9);
  CompressionParams p;
  p.threads = 2;
  p.deflate_block_size = 4096;
  const Bytes in_memory = WaveletCompressor(p).compress(field).data;
  p.entropy = EntropyMode::kTempFileGzip;
  const CompressedArray comp = WaveletCompressor(p).compress(field);
  EXPECT_EQ(comp.data, in_memory);
  const NdArray<double> restored = WaveletCompressor::decompress(comp.data);
  EXPECT_EQ(restored.shape(), field.shape());
}

TEST(CompressorSharded, IdenticalStreamsForAnyWckThreadsValue) {
  // WCK_THREADS and params.threads only pick the worker count: unset,
  // explicit settings and out-of-range requests all produce
  // byte-identical streams (the acceptance criterion that lets
  // soak/fuzz/regression infra run under any matrix leg).
  const NdArray<double> field = make_temperature_field(Shape{160, 128}, 3);
  CompressionParams p;  // threads = 0: defer to environment
  p.deflate_block_size = 8192;
  std::vector<Bytes> streams;
  for (const char* value : {static_cast<const char*>(nullptr), "1", "2", "8"}) {
    const ScopedEnv env("WCK_THREADS", value);
    streams.push_back(WaveletCompressor(p).compress(field).data);
    EXPECT_EQ(static_cast<std::uint8_t>(streams.back()[0]), 4)
        << "WCK_THREADS=" << (value ? value : "unset");
  }
  for (const int threads : {-1, 3}) {
    CompressionParams explicit_threads = p;
    explicit_threads.threads = threads;
    streams.push_back(WaveletCompressor(explicit_threads).compress(field).data);
  }
  for (std::size_t i = 1; i < streams.size(); ++i) EXPECT_EQ(streams[i], streams[0]) << i;
}

TEST(CompressorSharded, ComposesWithRankSetWorkers) {
  // A threads = 2 compress running on another pool's workers, as
  // bench/ext_weak_scaling does through RankSet when WCK_THREADS > 1:
  // the engine's own pool nests under the caller's without deadlock,
  // writes the bytes an inline compress writes, and decodes on the
  // workers to the inline reconstruction.
  CompressionParams params;
  params.threads = 2;
  params.deflate_block_size = 2048;
  const WaveletCompressor compressor(params);
  constexpr std::size_t kRanks = 4;
  std::vector<NdArray<double>> fields;
  for (std::size_t r = 0; r < kRanks; ++r) {
    fields.push_back(make_temperature_field(Shape{64, 64}, 13 + r));
  }
  RankSet ranks(kRanks, 2);
  const std::vector<Bytes> streams =
      ranks.map<Bytes>([&](std::size_t r) { return compressor.compress(fields[r]).data; });
  const std::vector<NdArray<double>> restored = ranks.map<NdArray<double>>(
      [&](std::size_t r) { return WaveletCompressor::decompress(streams[r]); });
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(streams[r], compressor.compress(fields[r]).data) << "rank " << r;
    const NdArray<double> reference = WaveletCompressor::decompress(streams[r]);
    ASSERT_EQ(restored[r].shape(), fields[r].shape());
    EXPECT_TRUE(std::equal(restored[r].values().begin(), restored[r].values().end(),
                           reference.values().begin()))
        << "rank " << r;
  }
}

TEST(QuantizeFusion, PrecomputedRangeIsBitIdentical) {
  // The compressor now folds min/max during band collection and hands
  // the range to analyze(); both paths must produce identical schemes.
  Xoshiro256 rng(21);
  std::vector<double> values(10000);
  for (double& v : values) v = rng.uniform(-3.0, 5.0);
  double lo = values[0];
  double hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const ValueRange range{lo, hi};
  for (const QuantizerKind kind : {QuantizerKind::kSimple, QuantizerKind::kSpike}) {
    QuantizerConfig cfg;
    cfg.kind = kind;
    const QuantizationScheme with = QuantizationScheme::analyze(values, cfg, &range);
    const QuantizationScheme without = QuantizationScheme::analyze(values, cfg);
    EXPECT_EQ(with.averages(), without.averages());
    EXPECT_EQ(with.quant_min(), without.quant_min());
    EXPECT_EQ(with.quant_max(), without.quant_max());
    for (const double v : values) {
      ASSERT_EQ(with.classify(v), without.classify(v));
    }
  }
}

}  // namespace
}  // namespace wck
