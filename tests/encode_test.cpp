// Unit tests for the bitmap and the Fig. 5 payload serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "encode/bitmap.hpp"
#include "encode/payload.hpp"
#include "legacy_writers.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

TEST(BitmapTest, SetGetAcrossWordBoundaries) {
  Bitmap bm(130);
  bm.set(0, true);
  bm.set(63, true);
  bm.set(64, true);
  bm.set(129, true);
  EXPECT_TRUE(bm.get(0));
  EXPECT_FALSE(bm.get(1));
  EXPECT_TRUE(bm.get(63));
  EXPECT_TRUE(bm.get(64));
  EXPECT_TRUE(bm.get(129));
  EXPECT_EQ(bm.count(), 4u);
  bm.set(64, false);
  EXPECT_FALSE(bm.get(64));
  EXPECT_EQ(bm.count(), 3u);
}

TEST(BitmapTest, PushBackGrows) {
  Bitmap bm;
  for (int i = 0; i < 100; ++i) bm.push_back(i % 3 == 0);
  EXPECT_EQ(bm.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bm.get(static_cast<std::size_t>(i)), i % 3 == 0);
}

TEST(BitmapTest, SerializeDeserializeRoundTrip) {
  Xoshiro256 rng(1);
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    Bitmap bm(size);
    for (std::size_t i = 0; i < size; ++i) bm.set(i, rng.uniform() < 0.5);
    std::vector<std::byte> bytes;
    bm.serialize_to(bytes);
    EXPECT_EQ(bytes.size(), (size + 7) / 8);
    const Bitmap back = Bitmap::deserialize(bytes, size);
    EXPECT_EQ(back, bm) << "size=" << size;
  }
}

TEST(BitmapTest, DeserializeTruncatedRejected) {
  std::vector<std::byte> bytes(1);
  EXPECT_THROW((void)Bitmap::deserialize(bytes, 9), FormatError);
}

TEST(BitmapTest, OutOfRangeAccessRejected) {
  Bitmap bm(8);
  EXPECT_THROW((void)bm.get(8), InvalidArgumentError);
  EXPECT_THROW(bm.set(8, true), InvalidArgumentError);
}

LossyPayload sample_payload() {
  LossyPayload p;
  p.shape = Shape{4, 4};
  p.levels = 1;
  p.quantizer = QuantizerKind::kSpike;
  p.averages = {0.5, -0.5, 0.0};
  p.low_band = {1.0, 2.0, 3.0, 4.0};  // 2x2 low corner of a 4x4 array
  p.quantized = Bitmap(12);           // 16 - 4 high elements
  // Quantize elements 0, 2, 5; others exact.
  p.quantized.set(0, true);
  p.quantized.set(2, true);
  p.quantized.set(5, true);
  p.indices = {0, 2, 1};
  p.exact_values = {9.0, 8.0, 7.0, 6.0, 5.0, 4.5, 3.5, 2.5, 1.5};
  return p;
}

TEST(Payload, RoundTrip) {
  const LossyPayload p = sample_payload();
  const Bytes data = encode_payload(p);
  const LossyPayload q = decode_payload(data);
  EXPECT_EQ(q.shape, p.shape);
  EXPECT_EQ(q.levels, p.levels);
  EXPECT_EQ(q.quantizer, p.quantizer);
  EXPECT_EQ(q.averages, p.averages);
  EXPECT_EQ(q.low_band, p.low_band);
  EXPECT_EQ(q.quantized, p.quantized);
  EXPECT_EQ(q.indices, p.indices);
  EXPECT_EQ(q.exact_values, p.exact_values);
}

TEST(Payload, EncodeValidatesConsistency) {
  LossyPayload p = sample_payload();
  p.indices.push_back(0);  // one more index than set bits
  EXPECT_THROW((void)encode_payload(p), InvalidArgumentError);

  p = sample_payload();
  p.exact_values.pop_back();
  EXPECT_THROW((void)encode_payload(p), InvalidArgumentError);
}

TEST(Payload, CrcDetectsBitFlipAnywhere) {
  const Bytes data = encode_payload(sample_payload());
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes bad = data;
    bad[rng.bounded(bad.size())] ^= std::byte{0x40};
    EXPECT_THROW((void)decode_payload(bad), Error);
  }
}

TEST(Payload, TruncationRejected) {
  const Bytes data = encode_payload(sample_payload());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{10}, data.size() - 1}) {
    Bytes cut(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)decode_payload(cut), Error) << "keep=" << keep;
  }
}

TEST(Payload, BadMagicRejected) {
  Bytes data = encode_payload(sample_payload());
  data[0] = std::byte{0x00};
  EXPECT_THROW((void)decode_payload(data), Error);
}

TEST(Payload, IndexBeyondTableRejected) {
  LossyPayload p = sample_payload();
  p.indices[0] = 200;  // averages table has 3 entries
  const Bytes data = encode_payload(p);
  EXPECT_THROW((void)decode_payload(data), FormatError);
}

TEST(Payload, TrailingGarbageRejected) {
  // Valid payload + CRC, then junk: the CRC check fails because it now
  // covers the junk; the combined effect must be an error either way.
  Bytes data = encode_payload(sample_payload());
  data.push_back(std::byte{0xAA});
  data.push_back(std::byte{0xBB});
  EXPECT_THROW((void)decode_payload(data), Error);
}

/// Recomputes the trailing CRC-32 after a deliberate corruption, so the
/// decoder gets past the integrity check and its *structural* validation
/// paths are the ones under test.
Bytes resign(Bytes data) {
  const std::uint32_t crc =
      crc32(std::span<const std::byte>(data).subspan(0, data.size() - 4));
  for (int i = 0; i < 4; ++i) {
    data[data.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xFFu);
  }
  return data;
}

TEST(Payload, CorruptHeaderFieldsRejectedEvenWithValidCrc) {
  const Bytes good = encode_payload(sample_payload());
  // Header layout: magic(4) version(1) quantizer(1) wavelet(1) rank(1)
  // levels(1) extents... — corrupt each byte to an invalid value and
  // re-sign, so rejection comes from the field validator, not the CRC.
  const struct {
    std::size_t offset;
    std::uint8_t value;
    const char* what;
  } cases[] = {
      {4, 99, "unsupported version"}, {5, 7, "unknown quantizer kind"},
      {6, 9, "unknown wavelet kind"}, {7, 0, "rank zero"},
      {7, 200, "rank beyond kMaxRank"}, {8, 0, "zero transform depth"},
      {9, 0, "zero extent"},
  };
  for (const auto& c : cases) {
    Bytes bad = good;
    bad[c.offset] = static_cast<std::byte>(c.value);
    EXPECT_THROW((void)decode_payload(resign(std::move(bad))), FormatError) << c.what;
  }
}

TEST(Payload, CorruptCountFieldsRejectedEvenWithValidCrc) {
  // Count varints for sample_payload() (all < 128, 1 byte each) sit at
  // offsets 11..14: n_avg, n_low, n_high, n_idx.
  const Bytes good = encode_payload(sample_payload());
  const struct {
    std::size_t offset;
    std::uint8_t value;
    const char* what;
  } cases[] = {
      {11, 120, "averages count inflated past stream size"},
      {12, 3, "band sizes no longer sum to array size"},
      {13, 90, "high-band count inflated"},
      {14, 12, "more indexes than set bitmap bits"},
      {14, 0, "fewer indexes than set bitmap bits"},
  };
  for (const auto& c : cases) {
    Bytes bad = good;
    bad[c.offset] = static_cast<std::byte>(c.value);
    EXPECT_THROW((void)decode_payload(resign(std::move(bad))), FormatError) << c.what;
  }
}

TEST(Payload, EveryPrefixTruncationRejected) {
  const Bytes data = encode_payload(sample_payload());
  for (std::size_t keep = 0; keep < data.size(); ++keep) {
    Bytes cut(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)decode_payload(cut), Error) << "keep=" << keep;
  }
}

TEST(Payload, OversizedAveragesTableRejected) {
  LossyPayload p = sample_payload();
  p.averages.resize(300, 0.0);
  EXPECT_THROW((void)encode_payload(p), InvalidArgumentError);
}

TEST(Payload, BandSizesMustSumToArraySize) {
  LossyPayload p = sample_payload();
  p.low_band.push_back(5.0);  // 5 low + 12 high != 16
  const Bytes data = encode_payload(p);
  EXPECT_THROW((void)decode_payload(data), FormatError);
}

TEST(Payload, V3StoresDoublesAsBytePlanesAndReportsStreamEnds) {
  const LossyPayload p = sample_payload();
  std::vector<std::size_t> ends;
  const Bytes data = encode_payload(p, &ends);
  EXPECT_EQ(static_cast<int>(data[4]), 3);  // version
  // header + averages, 8 low planes, bitmap, indexes, 8 exact planes, CRC.
  ASSERT_EQ(ends.size(), 20u);
  EXPECT_EQ(ends.back(), data.size());
  EXPECT_TRUE(std::is_sorted(ends.begin(), ends.end()));
  const std::size_t header_end = 9 + 2 + 4;  // 2 extents, 4 counts: 1 byte each
  EXPECT_EQ(ends[0], header_end + 8 * p.averages.size());
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(ends[1 + k], ends[0] + (k + 1) * p.low_band.size());
    EXPECT_EQ(ends[11 + k], ends[10] + (k + 1) * p.exact_values.size());
    // Plane k holds byte k of every value (9 exact values: one group of
    // 8 plus a tail).
    for (std::size_t i = 0; i < p.low_band.size(); ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(p.low_band[i]);
      EXPECT_EQ(static_cast<std::uint8_t>(data[ends[k] + i]),
                static_cast<std::uint8_t>(bits >> (8 * k)));
    }
    for (std::size_t i = 0; i < p.exact_values.size(); ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(p.exact_values[i]);
      EXPECT_EQ(static_cast<std::uint8_t>(data[ends[10 + k] + i]),
                static_cast<std::uint8_t>(bits >> (8 * k)));
    }
  }
  EXPECT_EQ(ends[9], ends[8] + p.quantized.byte_size());
  EXPECT_EQ(ends[10], ends[9] + p.indices.size());
  EXPECT_EQ(ends[19], ends[18] + 4);
  // No out-parameter, same bytes.
  EXPECT_EQ(encode_payload(p), data);
}

TEST(Payload, V2LayoutStillDecodes) {
  const LossyPayload p = sample_payload();
  const LossyPayload q = decode_payload(encode_payload_v2(p));
  EXPECT_EQ(q.shape, p.shape);
  EXPECT_EQ(q.averages, p.averages);
  EXPECT_EQ(q.low_band, p.low_band);
  EXPECT_EQ(q.quantized, p.quantized);
  EXPECT_EQ(q.indices, p.indices);
  EXPECT_EQ(q.exact_values, p.exact_values);
}

TEST(Payload, EveryTruncationRejectedEvenWithValidCrc) {
  // Cut the body at every offset and re-sign it, so the structural
  // parser (not the CRC) must notice, in both layouts.
  for (const Bytes& data : {encode_payload(sample_payload()),
                            encode_payload_v2(sample_payload())}) {
    for (std::size_t keep = 0; keep + 4 < data.size(); ++keep) {
      Bytes cut(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(keep));
      cut.resize(keep + 4);
      EXPECT_THROW((void)decode_payload(resign(std::move(cut))), FormatError) << "keep=" << keep;
    }
  }
}

TEST(Payload, HugeCountsRejectedBeforeAllocation) {
  // Extents and counts claiming ~2^60 elements, re-signed: the size
  // check against the stream must fire before any vector is sized.
  ByteWriter w;
  w.u32(0x4C4B4357);
  w.u8(3);
  w.u8(1);
  w.u8(0);
  w.u8(1);  // rank
  w.u8(1);  // levels
  w.varint(1ull << 60);
  w.varint(0);
  w.varint(1ull << 59);
  w.varint(1ull << 59);
  w.varint(0);
  w.u32(0);
  EXPECT_THROW((void)decode_payload(resign(w.take())), FormatError);
}

}  // namespace
}  // namespace wck
