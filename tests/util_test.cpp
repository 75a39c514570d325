// Unit tests for the util subsystem: checksums, byte/bit I/O, RNG.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "util/backoff.hpp"
#include "util/bitio.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace wck {
namespace {

std::span<const std::byte> bytes_of(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* msg = "The quick brown fox jumps over the lazy dog";
  const auto all = bytes_of(msg);
  Crc32 inc;
  // Split at awkward boundaries to exercise the slice-by-8 remainder.
  inc.update(all.subspan(0, 1));
  inc.update(all.subspan(1, 6));
  inc.update(all.subspan(7));
  EXPECT_EQ(inc.value(), crc32(all));
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the
/// table-driven Crc32 must reproduce.
std::uint32_t crc32_bitwise(std::span<const std::byte> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReference) {
  Xoshiro256 rng(777);
  const auto random_bytes = [&rng](std::size_t n) {
    Bytes buf(n);
    for (std::byte& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
    return buf;
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(1000);
  lengths.push_back(65537);
  for (const std::size_t n : lengths) {
    const Bytes buf = random_bytes(n);
    const std::span<const std::byte> all(buf);
    const std::uint32_t want = crc32_bitwise(all);
    EXPECT_EQ(crc32(all), want) << "n=" << n;
    if (n > 64) continue;
    // An update split at any cut continues the same register.
    for (std::size_t cut = 0; cut <= n; ++cut) {
      Crc32 inc;
      inc.update(all.subspan(0, cut));
      inc.update(all.subspan(cut));
      EXPECT_EQ(inc.value(), want) << "n=" << n << " cut=" << cut;
    }
  }
}

TEST(Crc32, ResetRestartsState) {
  Crc32 c;
  c.update(bytes_of("garbage"));
  c.reset();
  c.update(bytes_of("123456789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Adler32, KnownVectors) {
  EXPECT_EQ(adler32(bytes_of("Wikipedia")), 0x11E60398u);
  EXPECT_EQ(adler32(bytes_of("")), 1u);  // initial state
}

TEST(Adler32, LargeInputModularReduction) {
  // > 5552 bytes forces the block-wise modular reduction path.
  std::vector<std::byte> big(100000, std::byte{0xAB});
  Adler32 inc;
  inc.update(std::span<const std::byte>(big).subspan(0, 12345));
  inc.update(std::span<const std::byte>(big).subspan(12345));
  EXPECT_EQ(inc.value(), adler32(std::span<const std::byte>(big)));
}

TEST(ByteWriterReader, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f32(2.5f);
  w.str("checkpoint");
  const Bytes buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_FLOAT_EQ(r.f32(), 2.5f);
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriterReader, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t cases[] = {0,          1,          127,        128,
                                 300,        16383,      16384,      ~0ull,
                                 1ull << 32, 1ull << 63, 0xDEADBEEFCAFEull};
  for (const auto v : cases) w.varint(v);
  const Bytes buf = w.take();
  ByteReader r(buf);
  for (const auto v : cases) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteWriterReader, F64ArrayRoundTrip) {
  // Bit patterns, not values: NaN payloads and the sign of zero must
  // survive, and each double is stored little-endian.
  const std::vector<std::uint64_t> bits = {
      std::bit_cast<std::uint64_t>(1.0),
      std::bit_cast<std::uint64_t>(-2.5),
      std::bit_cast<std::uint64_t>(1e300),
      std::bit_cast<std::uint64_t>(-1e-300),
      std::bit_cast<std::uint64_t>(0.0),
      std::bit_cast<std::uint64_t>(-0.0),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()),
      std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity()),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::denorm_min()),
      0x800FFFFFFFFFFFFFull,  // largest negative denormal
      0x7FF8000000000000ull,  // quiet NaN
      0x7FF0000000000001ull,  // signaling NaN, payload 1
      0xFFF8DEADBEEF0001ull,  // negative quiet NaN with a payload
  };
  std::vector<double> vals;
  for (const std::uint64_t b : bits) vals.push_back(std::bit_cast<double>(b));

  ByteWriter w;
  w.u8(0xAB);  // unaligned start
  w.f64_array(vals);
  w.f64_array(std::span<const double>());  // empty span writes nothing
  const Bytes buf = w.take();
  ASSERT_EQ(buf.size(), 1 + 8 * vals.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    for (std::size_t k = 0; k < 8; ++k) {
      ASSERT_EQ(static_cast<std::uint8_t>(buf[1 + 8 * i + k]), (bits[i] >> (8 * k)) & 0xFFu)
          << "value " << i << " byte " << k;
    }
  }

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  std::vector<double> back(vals.size());
  r.f64_array(back);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), bits[i]) << "value " << i;
  }
  r.f64_array(std::span<double>());  // empty span reads nothing
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.f64_array(back), FormatError);
}

TEST(ByteReader, F64VectorChecksCountBeforeAllocating) {
  ByteWriter w;
  w.f64_array(std::vector<double>{1.5, -3.25});
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW((void)r.f64_vector(3), FormatError);
  EXPECT_THROW((void)r.f64_vector(std::uint64_t{1} << 61), FormatError);
  EXPECT_THROW((void)r.f64_vector(~std::uint64_t{0}), FormatError);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.f64_vector(2), (std::vector<double>{1.5, -3.25}));
  EXPECT_TRUE(r.f64_vector(0).empty());
}

TEST(ByteReader, TruncationThrowsFormatError) {
  ByteWriter w;
  w.u16(7);
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_NO_THROW((void)r.u16());
  EXPECT_THROW((void)r.u8(), FormatError);
}

TEST(ByteReader, VarintOverflowRejected) {
  Bytes buf(11, std::byte{0xFF});  // 11 continuation bytes: > 64 bits
  ByteReader r(buf);
  EXPECT_THROW((void)r.varint(), FormatError);
}

TEST(ByteWriter, ExternalBufferAppends) {
  Bytes buf;
  buf.push_back(std::byte{0x01});
  ByteWriter w(buf);
  w.u8(0x02);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_THROW((void)w.take(), InvalidArgumentError);
}

TEST(BitIo, SingleBitsRoundTrip) {
  std::vector<std::byte> buf;
  BitWriter bw(buf);
  const int pattern[] = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (const int b : pattern) bw.put(static_cast<std::uint32_t>(b), 1);
  bw.align_to_byte();

  BitReader br(buf);
  for (const int b : pattern) EXPECT_EQ(br.get(1), static_cast<std::uint32_t>(b));
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  std::vector<std::byte> buf;
  BitWriter bw(buf);
  bw.put(0b101, 3);
  bw.put(0xFFFF, 16);
  bw.put(0, 0);  // zero-width write is a no-op
  bw.put(0x12345, 20);
  bw.align_to_byte();

  BitReader br(buf);
  EXPECT_EQ(br.get(3), 0b101u);
  EXPECT_EQ(br.get(16), 0xFFFFu);
  EXPECT_EQ(br.get(20), 0x12345u);
}

TEST(BitIo, PeekDoesNotConsume) {
  std::vector<std::byte> buf;
  BitWriter bw(buf);
  bw.put(0x5A, 8);
  bw.align_to_byte();
  BitReader br(buf);
  EXPECT_EQ(br.peek(4), 0xAu);
  EXPECT_EQ(br.peek(4), 0xAu);
  EXPECT_EQ(br.get(8), 0x5Au);
}

TEST(BitIo, ReverseBits) {
  EXPECT_EQ(BitWriter::reverse(0b1, 1), 0b1u);
  EXPECT_EQ(BitWriter::reverse(0b100, 3), 0b001u);
  EXPECT_EQ(BitWriter::reverse(0b1101, 4), 0b1011u);
}

TEST(BitIo, PutZeroCountWritesNothing) {
  Bytes buf;
  BitWriter bw(buf);
  // mask(0) is empty: the value operand must be ignored entirely.
  bw.put(0xFFFFFFFFu, 0);
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.put(0b101, 3);
  bw.put(0xDEADBEEFu, 0);
  bw.align_to_byte();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), 0b101u);
}

TEST(BitIo, PutFullWordRoundTrips) {
  Bytes buf;
  BitWriter bw(buf);
  bw.put(0xDEADBEEFu, 32);  // count == 32 must not overflow the mask
  bw.put(1, 1);             // force a non-aligned tail over the 32-bit put
  bw.put(0xCAFEBABEu, 32);
  bw.align_to_byte();
  BitReader br(buf);
  EXPECT_EQ(br.get(32), 0xDEADBEEFu);
  EXPECT_EQ(br.get(1), 1u);
  EXPECT_EQ(br.get(32), 0xCAFEBABEu);
}

TEST(BitIo, WriterRejectsCountOutOfRange) {
  Bytes buf;
  BitWriter bw(buf);
  EXPECT_THROW(bw.put(0, -1), InvalidArgumentError);
  EXPECT_THROW(bw.put(0, 33), InvalidArgumentError);
  EXPECT_THROW(bw.put(0, 64), InvalidArgumentError);
  // A rejected put must not have committed any bits.
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.put(0x7, 3);
  EXPECT_EQ(bw.bit_count(), 3u);
}

TEST(BitIo, ReaderRejectsCountOutOfRange) {
  const Bytes data(8, std::byte{0xFF});
  BitReader br(data);
  EXPECT_THROW((void)br.get(-1), InvalidArgumentError);
  EXPECT_THROW((void)br.get(33), InvalidArgumentError);
  EXPECT_THROW((void)br.peek(33), InvalidArgumentError);
  EXPECT_THROW(br.consume(-1), InvalidArgumentError);
  // The reader is still usable after a precondition failure.
  EXPECT_EQ(br.get(8), 0xFFu);
}

TEST(BitIo, TruncatedReadThrows) {
  std::vector<std::byte> buf = {std::byte{0xFF}};
  BitReader br(buf);
  EXPECT_EQ(br.get(8), 0xFFu);
  EXPECT_THROW((void)br.get(1), FormatError);
}

TEST(BitIo, AlignedRawReadAfterBits) {
  std::vector<std::byte> buf;
  BitWriter bw(buf);
  bw.put(0b1, 1);
  bw.align_to_byte();
  bw.put(0xAB, 8);
  bw.put(0xCD, 8);
  bw.align_to_byte();  // flushes the pending bytes

  BitReader br(buf);
  EXPECT_EQ(br.get(1), 1u);
  br.align_to_byte();
  std::byte out[2];
  br.read_aligned(out, 2);
  EXPECT_EQ(static_cast<unsigned>(out[0]), 0xABu);
  EXPECT_EQ(static_cast<unsigned>(out[1]), 0xCDu);
}

/// Random (value, width) fields, written with put() and read back with
/// get(), on buffers of every length up to 40 bytes: crosses the writer's
/// 64-bit flush at every offset and the reader's switch from whole-word
/// refills to the byte-wise tail.
TEST(BitIo, FieldsRoundTripAcrossWordAndTailBoundaries) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::pair<std::uint32_t, int>> fields;
    Bytes buf;
    BitWriter bw(buf);
    const std::size_t target_bits = rng.bounded(320);
    std::size_t bits = 0;
    while (bits < target_bits) {
      const int width = static_cast<int>(rng.bounded(33));
      const auto value = static_cast<std::uint32_t>(rng()) &
                         (width == 32 ? 0xFFFFFFFFu : (1u << width) - 1u);
      bw.put(value, width);
      fields.emplace_back(value, width);
      bits += static_cast<std::size_t>(width);
      ASSERT_EQ(bw.bit_count(), bits);
    }
    bw.align_to_byte();
    ASSERT_EQ(buf.size(), (bits + 7) / 8);

    BitReader br(buf);
    for (const auto& [value, width] : fields) ASSERT_EQ(br.get(width), value);
    EXPECT_LT(br.bits_remaining(), 8u);
    EXPECT_THROW((void)br.get(8), FormatError);
  }
}

TEST(BitIo, WriteAlignedMirrorsReadAligned) {
  Bytes buf;
  BitWriter bw(buf);
  bw.put(0b101, 3);
  const Bytes raw = {std::byte{0x11}, std::byte{0x22}, std::byte{0x33}};
  EXPECT_THROW(bw.write_aligned(raw), InvalidArgumentError);
  bw.align_to_byte();
  bw.put(0xBEEF, 16);
  bw.write_aligned(raw);
  bw.put(1, 1);
  bw.align_to_byte();
  ASSERT_EQ(buf.size(), 1u + 2u + 3u + 1u);

  BitReader br(buf);
  EXPECT_EQ(br.get(3), 0b101u);
  br.align_to_byte();
  EXPECT_EQ(br.get(16), 0xBEEFu);
  std::byte back[3];
  br.read_aligned(back, 3);
  EXPECT_EQ(Bytes(back, back + 3), raw);
  EXPECT_EQ(br.get(1), 1u);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(12345);
  Xoshiro256 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsPlausible) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Backoff, LadderDoublesAndCaps) {
  BackoffPolicy policy;
  policy.max_attempts = 100;  // the ladder, not the budget, under test
  policy.initial_backoff_seconds = 0.002;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.012;
  policy.sleep_between_attempts = false;
  Backoff backoff(policy);

  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.002);
  ASSERT_TRUE(backoff.try_again());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.004);
  ASSERT_TRUE(backoff.try_again());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.008);
  ASSERT_TRUE(backoff.try_again());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.012);  // capped
  ASSERT_TRUE(backoff.try_again());
  EXPECT_DOUBLE_EQ(backoff.next_delay_seconds(), 0.012);  // stays capped
  EXPECT_EQ(backoff.failures(), 4);
}

TEST(Backoff, BudgetCountsEveryAttempt) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_between_attempts = false;
  Backoff backoff(policy);

  // max_attempts = 3 means: first try, then two retries.
  EXPECT_TRUE(backoff.try_again());
  EXPECT_TRUE(backoff.try_again());
  EXPECT_FALSE(backoff.try_again());
  EXPECT_FALSE(backoff.try_again());  // exhausted stays exhausted
}

TEST(Backoff, SingleAttemptPolicyNeverRetries) {
  BackoffPolicy policy;
  policy.max_attempts = 1;
  policy.sleep_between_attempts = false;
  Backoff backoff(policy);
  EXPECT_FALSE(backoff.try_again());
}

TEST(Backoff, JitterIsDeterministicForSeed) {
  // Two cursors with the same (policy, seed) must walk identical
  // schedules — a soak's retry cadence is replayable.
  BackoffPolicy policy;
  policy.max_attempts = 10;
  policy.jitter_fraction = 0.25;
  policy.sleep_between_attempts = false;
  Backoff a(policy, 42);
  Backoff b(policy, 42);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.try_again(), b.try_again());
    EXPECT_DOUBLE_EQ(a.next_delay_seconds(), b.next_delay_seconds());
  }
}

TEST(Backoff, SleepsRoughlyTheConfiguredDelay) {
  BackoffPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_seconds = 0.02;
  Backoff backoff(policy);
  WallTimer timer;
  ASSERT_TRUE(backoff.try_again());  // sleeps ~20ms
  // Generous lower bound only: schedulers overshoot, never undershoot.
  EXPECT_GE(timer.seconds(), 0.015);
}

}  // namespace
}  // namespace wck
