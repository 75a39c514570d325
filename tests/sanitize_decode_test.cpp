// Decoder robustness under targeted corruption, designed to run under
// ASan/UBSan: every mutation of a valid stream must be rejected with a
// typed wck::Error (or, where checksums genuinely cannot see it, decoded
// to *some* valid result) — never an over-read, crash, or partial write
// into application state. Mutations come from util/mutate.hpp so each
// case replays deterministically from its seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/incremental.hpp"
#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "core/truncation.hpp"
#include "deflate/deflate.hpp"
#include "deflate/deflate_tables.hpp"
#include "deflate/huffman.hpp"
#include "deflate/parallel.hpp"
#include "encode/payload.hpp"
#include "fpc/fpc.hpp"
#include "legacy_writers.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "szlike/lorenzo.hpp"
#include "util/bitio.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/mutate.hpp"
#include "util/rng.hpp"
#include "zfplike/block_codec.hpp"

namespace wck {
namespace {

/// A hand-built, internally consistent Fig. 5 payload whose section
/// offsets we can compute exactly (shape 8x8 => 16 low + 48 high).
LossyPayload reference_payload() {
  LossyPayload p;
  p.shape = Shape{8, 8};
  p.levels = 1;
  p.wavelet = WaveletKind::kHaar;
  p.quantizer = QuantizerKind::kSpike;
  p.averages = {0.0, 0.5, -0.5, 1.25};
  p.low_band.resize(16);
  for (std::size_t i = 0; i < p.low_band.size(); ++i) {
    p.low_band[i] = 0.01 * static_cast<double>(i);
  }
  p.quantized = Bitmap(48);
  for (std::size_t i = 0; i < 48; i += 2) p.quantized.set(i, true);  // 24 set
  for (std::size_t i = 0; i < 24; ++i) {
    p.indices.push_back(static_cast<std::uint8_t>(i % p.averages.size()));
  }
  p.exact_values.resize(24, 3.5);
  return p;
}

/// Byte ranges of the Fig. 5 sections inside encode_payload() output.
struct PayloadLayout {
  std::size_t header_end;    // magic..count varints
  std::size_t averages_end;  // averages[] table
  std::size_t low_end;       // raw low band
  std::size_t bitmap_end;    // quantization bitmap
  std::size_t index_end;     // 1-byte indexes
  std::size_t exact_end;     // exact doubles (CRC follows)
};

PayloadLayout layout_of(const LossyPayload& p) {
  PayloadLayout l{};
  // magic(4) version(1) quantizer(1) wavelet(1) rank(1) levels(1) +
  // one varint byte per extent (extents < 128) + 4 count varints (< 128).
  l.header_end = 9 + p.shape.rank() + 4;
  l.averages_end = l.header_end + 8 * p.averages.size();
  l.low_end = l.averages_end + 8 * p.low_band.size();
  l.bitmap_end = l.low_end + p.quantized.byte_size();
  l.index_end = l.bitmap_end + p.indices.size();
  l.exact_end = l.index_end + 8 * p.exact_values.size();
  return l;
}

TEST(SanitizeDecode, PayloadLayoutMatchesEncoder) {
  const LossyPayload p = reference_payload();
  const Bytes enc = encode_payload(p);
  EXPECT_EQ(enc.size(), layout_of(p).exact_end + 4);  // + trailing CRC
  const LossyPayload back = decode_payload(enc);
  EXPECT_EQ(back.low_band, p.low_band);
  EXPECT_EQ(back.indices, p.indices);
}

/// Mutations restricted to each Fig. 5 section must all be detected:
/// the trailing CRC-32 covers every byte before it.
TEST(SanitizeDecode, PayloadSectionCorruptionAlwaysRejected) {
  const LossyPayload p = reference_payload();
  const Bytes enc = encode_payload(p);
  const PayloadLayout l = layout_of(p);
  const std::pair<std::size_t, std::size_t> sections[] = {
      {0, l.header_end},           {l.header_end, l.averages_end},
      {l.averages_end, l.low_end}, {l.low_end, l.bitmap_end},
      {l.bitmap_end, l.index_end}, {l.index_end, l.exact_end},
  };
  std::uint64_t seed = 1000;
  for (const auto& [lo, hi] : sections) {
    Xoshiro256 rng(seed++);
    for (int t = 0; t < 300; ++t) {
      Bytes bad = enc;
      const Mutation m = mutate(bad, rng, lo, hi);
      if (bad == enc) continue;  // some kinds can be no-ops (e.g. zeroing zeros)
      try {
        (void)decode_payload(bad);
        FAIL() << "accepted corrupt payload: " << describe(m) << " section [" << lo << "," << hi
               << ") seed " << seed - 1 << " trial " << t;
      } catch (const Error&) {
        // detected, as required
      }
    }
  }
}

TEST(SanitizeDecode, PayloadEveryPrefixRejected) {
  const Bytes enc = encode_payload(reference_payload());
  for (std::size_t n = 0; n < enc.size(); ++n) {
    const Bytes prefix(enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)decode_payload(prefix), Error) << "prefix length " << n;
  }
}

/// Applies 600 rounds of 1-3 seeded random mutations to a compressor
/// stream and decodes each mutant. Error or (rarely) a clean decode are
/// both fine; anything else is a defect. The container checksums
/// (per-segment CRC-32, Adler-32 or gzip CRC-32) and the payload CRC
/// make silent acceptance essentially impossible; a tiny residue covers
/// flips in reserved or ignored header bytes.
void expect_mutants_rejected(const Bytes& stream, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  int rejected = 0;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    Bytes bad = stream;
    const int n_mut = 1 + static_cast<int>(rng.bounded(3));
    Mutation last;
    for (int i = 0; i < n_mut; ++i) last = mutate(bad, rng);
    try {
      (void)WaveletCompressor::decompress(bad);
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "non-library exception after " << describe(last) << " trial " << t << ": "
             << e.what();
    }
  }
  EXPECT_GT(rejected, trials * 95 / 100);
}

/// Full compressed stream (payload + DEFLATE container): mutations land
/// in the entropy-coded bytes, exercising BitReader / HuffmanDecoder /
/// match-copy bounds.
TEST(SanitizeDecode, CompressorStreamMutationsNeverCrash) {
  const auto field = make_smooth_field(Shape{32, 24}, 77);
  CompressionParams params;
  params.quantizer.divisions = 64;
  expect_mutants_rejected(WaveletCompressor(params).compress(field).data, 2024);
}

/// Streams written by the previous library (tests/data/legacy), which
/// only the decode-only paths read: the tag-1 zlib and tag-2 gzip
/// containers, the WCKP v1 block table, and payload v2 behind each.
TEST(SanitizeDecode, LegacyStreamMutationsNeverCrash) {
  const std::filesystem::path dir = std::filesystem::path(WCK_TEST_DATA_DIR) / "legacy";
  std::uint64_t seed = 7070;
  for (const char* name : {"tag1_zlib.wck", "tag2_gzip.wck", "tag4_wckp_v1.wck"}) {
    SCOPED_TRACE(name);
    std::ifstream f(dir / name, std::ios::binary);
    ASSERT_TRUE(f.good()) << "missing fixture";
    const std::string bytes((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
    const auto* p = reinterpret_cast<const std::byte*>(bytes.data());
    const Bytes stream(p, p + bytes.size());
    ASSERT_NO_THROW((void)WaveletCompressor::decompress(stream));
    expect_mutants_rejected(stream, seed++);
  }
}

/// Raw DEFLATE (no container checksum): corrupt streams may decode to
/// garbage, but must never over-read or escape the typed-error contract.
TEST(SanitizeDecode, RawDeflateMutationsNeverCrash) {
  Bytes input(4096);
  Xoshiro256 fill(5);
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Compressible mix: long runs + noise, so all block types appear.
    input[i] = (i % 64 < 48) ? std::byte{0x41} : static_cast<std::byte>(fill.bounded(256));
  }
  for (const int level : {1, 6, 9}) {
    const Bytes stream = deflate_compress(input, DeflateOptions{level});
    Xoshiro256 rng(3000 + static_cast<std::uint64_t>(level));
    for (int t = 0; t < 400; ++t) {
      Bytes bad = stream;
      const Mutation m = mutate(bad, rng);
      try {
        (void)deflate_decompress(bad);
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << "level " << level << " trial " << t << " (" << describe(m)
               << "): " << e.what();
      }
    }
  }
}

/// The formatted (pre-entropy) payload of a Fig. 9 temperature field
/// with `nx` cells along the first axis, at production settings.
Bytes formatted_fig9_payload(std::size_t nx) {
  CompressionParams params;
  params.quantizer.divisions = 128;
  params.entropy = EntropyMode::kNone;
  const Bytes stream =
      WaveletCompressor(params).compress(make_temperature_field(Shape{nx, 82, 2}, 2015)).data;
  return Bytes(stream.begin() + 1, stream.end());  // drop the entropy tag
}

/// Every truncation of a valid zlib stream is rejected with a typed error.
/// Every single-bit flip is rejected with a typed error or decodes to
/// bytes whose Adler-32 matches the trailer. Adler-32 is weak on small
/// rearrangements, so a rare flip that decodes to other bytes with the
/// same checksum is format-legal (the system zlib accepts it too); such
/// flips are counted and must stay rare.
void check_every_truncation_and_flip(const Bytes& stream, const Bytes& original) {
  ASSERT_EQ(zlib_decompress(stream), original);
  for (std::size_t n = 0; n < stream.size(); ++n) {
    const Bytes prefix(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)zlib_decompress(prefix), Error) << "prefix length " << n;
  }
  Bytes bad = stream;
  std::size_t collisions = 0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bad[i] ^= static_cast<std::byte>(1u << bit);
      try {
        const Bytes out = zlib_decompress(bad);
        const auto* t = bad.data() + bad.size() - 4;
        const std::uint32_t trailer = (static_cast<std::uint32_t>(t[0]) << 24) |
                                      (static_cast<std::uint32_t>(t[1]) << 16) |
                                      (static_cast<std::uint32_t>(t[2]) << 8) |
                                      static_cast<std::uint32_t>(t[3]);
        EXPECT_EQ(adler32(out), trailer) << "flip at byte " << i << " bit " << bit;
        if (out != original) ++collisions;
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << "non-library exception, flip at byte " << i << " bit " << bit << ": "
               << e.what();
      }
      bad[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
  EXPECT_LE(collisions, bad.size() * 8 / 1000) << collisions << " Adler-32 collisions";
}

/// The inflate bit reader refills 64 bits at a time while 8 input bytes
/// remain and byte by byte after that. A level-6 stream of a (reduced)
/// Fig. 9 payload, cut at every offset and flipped at every bit, drives
/// both paths through every block structure deflate emits.
TEST(SanitizeDecode, Fig9InflateEveryTruncationAndBitFlip) {
  const Bytes payload = formatted_fig9_payload(12);
  check_every_truncation_and_flip(zlib_compress(payload, DeflateOptions{6}), payload);
}

/// A stored block at the very end of the stream: its LEN/NLEN and raw
/// bytes sit where the reader has just switched to byte-wise refills, and
/// part of them may already be in the bit buffer when the raw copy starts.
TEST(SanitizeDecode, StoredTailBlockEveryTruncationAndBitFlip) {
  const Bytes payload = formatted_fig9_payload(12);
  const Bytes head(payload.begin(), payload.begin() + 160);
  for (std::size_t tail_len = 0; tail_len <= 9; ++tail_len) {
    SCOPED_TRACE("stored tail of " + std::to_string(tail_len) + " bytes");
    Bytes original = head;
    for (std::size_t i = 0; i < tail_len; ++i) original.push_back(static_cast<std::byte>(0xA0 + i));

    Bytes stream = {std::byte{0x78}, std::byte{0x9C}};  // zlib header, 32 KiB window
    BitWriter bw(stream);
    // Block 1, fixed Huffman, not final: the head as literals.
    static const auto kFixedLit = deflate_tables::fixed_litlen_lengths();
    const auto fixed = CanonicalCode::from_lengths(std::span(kFixedLit));
    bw.put(0, 1);
    bw.put(0b01, 2);
    for (const std::byte b : head) fixed.emit(bw, static_cast<std::uint8_t>(b));
    fixed.emit(bw, deflate_tables::kEndOfBlock);
    // Block 2, stored, final: the tail.
    bw.put(1, 1);
    bw.put(0b00, 2);
    bw.align_to_byte();
    const auto len = static_cast<std::uint16_t>(tail_len);
    bw.put(len, 16);
    bw.put(static_cast<std::uint16_t>(~len), 16);
    bw.write_aligned(std::span(original).subspan(head.size()));
    const std::uint32_t adler = adler32(original);
    for (const int shift : {24, 16, 8, 0}) bw.put((adler >> shift) & 0xFFu, 8);
    bw.align_to_byte();

    check_every_truncation_and_flip(stream, original);
  }
}

/// A small WCKP v2 container with one stored and one deflated segment:
/// 512 bytes in which every byte value occurs equally often (order-0
/// coding cannot save anything), then 512 compressible bytes.
Bytes mixed_wckp_input() {
  Bytes input;
  Xoshiro256 rng(8080);
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<std::uint8_t> perm(256);
    for (int v = 0; v < 256; ++v) perm[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(v);
    for (std::size_t i = 255; i > 0; --i) std::swap(perm[i], perm[rng.bounded(i + 1)]);
    for (const std::uint8_t v : perm) input.push_back(static_cast<std::byte>(v));
  }
  for (std::size_t i = 0; i < 512; ++i) input.push_back(static_cast<std::byte>('a' + i % 7));
  return input;
}

/// Every truncation of a WCKP v2 container is rejected with a typed
/// error, and every single-bit flip is rejected or decodes to the
/// original bytes. Only bits nothing reads can do the latter: the
/// reserved flags byte and the padding after the last deflate block.
TEST(SanitizeDecode, WckpV2EveryTruncationAndBitFlip) {
  const Bytes input = mixed_wckp_input();
  const Bytes stream = sharded_deflate_compress(input, {6, 512, 1});
  ASSERT_EQ(sharded_deflate_decompress(stream), input);
  ASSERT_EQ(static_cast<std::uint8_t>(stream[9]), 0);  // segment 0: stored
  for (std::size_t n = 0; n < stream.size(); ++n) {
    const Bytes prefix(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)sharded_deflate_decompress(prefix), Error) << "prefix length " << n;
  }
  Bytes bad = stream;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bad[i] ^= static_cast<std::byte>(1u << bit);
      try {
        EXPECT_EQ(sharded_deflate_decompress(bad, 2), input) << "flip at byte " << i;
        ++accepted;
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << "non-library exception, flip at byte " << i << " bit " << bit << ": "
               << e.what();
      }
      bad[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
  EXPECT_GE(accepted, 8u);
  EXPECT_LE(accepted, 15u);
}

/// A hand-built v2 container: header, the given table entries, then
/// `body` bytes.
struct TableEntry {
  std::uint8_t mode;
  std::uint64_t raw;
  std::uint64_t coded;
};
Bytes wckp_v2(std::uint64_t total, std::uint64_t count, const std::vector<TableEntry>& entries,
              std::size_t body) {
  ByteWriter w;
  w.u32(0x504B4357);
  w.u8(2);
  w.u8(0);
  w.varint(total);
  w.varint(count);
  for (const TableEntry& e : entries) {
    w.u8(e.mode);
    w.varint(e.raw);
    w.varint(e.coded);
    w.u32(0);
  }
  w.buffer().resize(w.size() + body, std::byte{0x41});
  return w.take();
}

/// Hostile tables must be refused with a typed FormatError from the
/// table checks, before the output (sized from the claimed totals) is
/// allocated.
TEST(SanitizeDecode, WckpV2HostileTablesRejectedBeforeAllocation) {
  constexpr std::uint64_t kHuge = 1ull << 40;
  const struct {
    const char* what;
    Bytes container;
  } cases[] = {
      {"mode 2", wckp_v2(16, 1, {{2, 16, 16}}, 16)},
      {"mode 255", wckp_v2(16, 1, {{255, 16, 16}}, 16)},
      {"stored raw != coded", wckp_v2(32, 1, {{0, 32, 16}}, 16)},
      {"raw size past 2^63", wckp_v2(16, 1, {{0, ~0ull, ~0ull}}, 16)},
      {"raw sizes overflow the total", wckp_v2(16, 2, {{0, 16, 16}, {0, ~0ull - 8, 16}}, 32)},
      {"coded size beyond the input", wckp_v2(16, 1, {{1, 16, kHuge}}, 16)},
      {"coded sizes sum beyond the input", wckp_v2(32, 2, {{0, 16, 16}, {1, 16, 40}}, 20)},
      {"total beyond any expansion", wckp_v2(kHuge, 1, {{1, kHuge, 16}}, 16)},
      {"segment expansion beyond 1032:1", wckp_v2(8192, 1, {{1, 8192, 4}}, 4)},
      {"count above capacity", wckp_v2(16, kHuge, {{0, 16, 16}}, 16)},
      {"count one above the table", wckp_v2(16, 2, {{0, 16, 16}}, 16)},
      {"raw sizes short of the total", wckp_v2(32, 1, {{0, 16, 16}}, 16)},
      {"body longer than the table", wckp_v2(16, 1, {{0, 16, 16}}, 17)},
      {"body shorter than the table", wckp_v2(16, 1, {{0, 16, 16}}, 15)},
  };
  for (const auto& c : cases) {
    EXPECT_THROW((void)sharded_deflate_decompress(c.container), FormatError) << c.what;
  }
  // A well-formed table over a wrong body fails its CRC instead.
  EXPECT_THROW((void)sharded_deflate_decompress(wckp_v2(16, 1, {{0, 16, 16}}, 16)),
               CorruptDataError);
}

/// Sharded (WCKP) container: mutations land in the frame header, the
/// per-segment table, or the concatenated segment bodies — parallel
/// decode must reject them with a typed error (per-segment CRC-32
/// catches body corruption) or, where a flip is genuinely invisible
/// (reserved flags byte), decode cleanly. Never a crash, over-read, or
/// allocation bomb.
TEST(SanitizeDecode, ShardedContainerMutationsNeverCrash) {
  const auto field = make_smooth_field(Shape{48, 32}, 33);
  CompressionParams params;
  params.quantizer.divisions = 64;
  params.threads = 2;
  params.deflate_block_size = 2048;  // several segments
  const Bytes stream = WaveletCompressor(params).compress(field).data;
  ASSERT_EQ(static_cast<std::uint8_t>(stream[0]), 4);  // WCKP tag
  expect_mutants_rejected(stream, 6060);
}

/// Restores must be transactional: after a rejected checkpoint, every
/// registered array still holds its pre-restore contents — even when the
/// corruption hits a *later* field than the ones already decoded.
TEST(SanitizeDecode, CheckpointRestoreIsAtomicUnderCorruption) {
  NdArray<double> a = make_smooth_field(Shape{16, 16}, 1);
  NdArray<double> b = make_smooth_field(Shape{8, 8}, 2);
  CheckpointRegistry reg;
  reg.add("alpha", &a);
  reg.add("beta", &b);
  const Bytes good = serialize_checkpoint(reg, GzipCodec{}, 7);

  Xoshiro256 rng(4242);
  for (int t = 0; t < 400; ++t) {
    Bytes bad = good;
    const Mutation m = mutate(bad, rng);
    NdArray<double> ra(Shape{16, 16}, -1.0);
    NdArray<double> rb(Shape{8, 8}, -2.0);
    CheckpointRegistry rreg;
    rreg.add("alpha", &ra);
    rreg.add("beta", &rb);
    bool threw = false;
    try {
      (void)restore_checkpoint(bad, rreg);
    } catch (const Error&) {
      threw = true;
    } catch (const std::exception& e) {
      FAIL() << "non-library exception, trial " << t << " (" << describe(m) << "): " << e.what();
    }
    if (threw) {
      // No partial output: both targets untouched.
      EXPECT_EQ(ra[0], -1.0) << "partial restore, trial " << t << " (" << describe(m) << ")";
      EXPECT_EQ(rb[0], -2.0) << "partial restore, trial " << t << " (" << describe(m) << ")";
    }
  }
}

// ------------------------------------------------ hostile shape headers

constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;  // 2^32 x 2^32 wraps size_t to 0
constexpr std::uint64_t kTwo33 = std::uint64_t{1} << 33;
constexpr std::uint64_t kTwo40 = std::uint64_t{1} << 40;  // 8 TiB of doubles

/// u8 rank + varint extents, the shape header every raw stream uses.
void put_shape(ByteWriter& w, std::initializer_list<std::uint64_t> extents) {
  w.u8(static_cast<std::uint8_t>(extents.size()));
  for (const std::uint64_t e : extents) w.varint(e);
}

Bytes raw_stream(std::initializer_list<std::uint64_t> extents, std::size_t value_bytes = 0) {
  ByteWriter w;
  put_shape(w, extents);
  for (std::size_t i = 0; i < value_bytes; ++i) w.u8(0);
  return w.take();
}

/// An empty tag-0 wavelet stream (no averages, bands or indexes) whose
/// payload declares `extent` x `extent`, CRC included.
Bytes tag0_wavelet_stream(std::uint64_t extent) {
  ByteWriter w;
  w.u32(0x4C4B4357);  // payload magic "WCKL"
  w.u8(3);            // byte-plane layout
  w.u8(static_cast<std::uint8_t>(QuantizerKind::kSpike));
  w.u8(static_cast<std::uint8_t>(WaveletKind::kHaar));
  w.u8(2);  // rank
  w.u8(1);  // levels
  w.varint(extent);
  w.varint(extent);
  for (int i = 0; i < 4; ++i) w.varint(0);  // n_avg, n_low, n_high, n_idx
  Bytes payload = w.take();
  const std::uint32_t crc = crc32(std::span<const std::byte>(payload));
  ByteWriter tail(payload);
  tail.u32(crc);
  payload.insert(payload.begin(), std::byte{0});  // entropy tag 0: stored
  return payload;
}

/// A zfplike stream declaring `extents` followed by `zero_blocks`
/// all-zero blocks (kind 0).
Bytes zfplike_stream(std::initializer_list<std::uint64_t> extents, std::size_t zero_blocks) {
  ByteWriter w;
  w.u32(0x465A4B57);  // "WKZF"
  w.u8(1);
  put_shape(w, extents);
  w.u8(16);  // precision
  for (std::size_t b = 0; b < zero_blocks; ++b) w.u8(0);
  return zlib_compress(w.buffer(), {});
}

Bytes szlike_stream(std::initializer_list<std::uint64_t> extents, std::uint64_t n_exact,
                    std::size_t code_bytes) {
  ByteWriter w;
  w.u32(0x5A4C4B57);  // "WKLZ"
  w.u8(1);
  put_shape(w, extents);
  w.f64(0.5);  // error bound
  w.varint(n_exact);
  for (std::size_t i = 0; i < code_bytes; ++i) w.u8(0);
  return zlib_compress(w.buffer(), {});
}

Bytes truncation_stream(const Bytes& raw) {
  ByteWriter w;
  w.u32(0x54524B57);  // "WKRT"
  w.u8(20);           // kept mantissa bits
  const Bytes body = zlib_compress(raw, {});
  w.raw(body.data(), body.size());
  return w.take();
}

Bytes image_stream(std::initializer_list<std::uint64_t> extents, std::size_t value_bytes) {
  ByteWriter w;
  w.varint(1);  // one field
  w.str("state");
  for (const std::byte b : raw_stream(extents, value_bytes)) w.u8(static_cast<std::uint8_t>(b));
  return w.take();
}

net::Frame put_frame(std::initializer_list<std::uint64_t> extents) {
  ByteWriter w;
  w.str("tenant");
  w.u64(1);  // step
  w.u64(0);  // request id
  put_shape(w, extents);
  w.varint(0);  // value count
  return net::Frame{static_cast<std::uint8_t>(net::MessageType::kPut), w.take()};
}

net::Frame get_ok_frame(std::initializer_list<std::uint64_t> extents) {
  ByteWriter w;
  w.u64(1);  // step
  w.u8(0);   // source
  put_shape(w, extents);
  w.varint(0);  // value count
  return net::Frame{static_cast<std::uint8_t>(net::MessageType::kGetOk), w.take()};
}

/// The arrays a hostile image or checkpoint restores into. A rejected
/// restore leaves both as they were.
struct RestoreTargets {
  NdArray<double> empty;  // size 0: accepts any shape
  NdArray<double> live;
  CheckpointRegistry empty_registry;
  CheckpointRegistry live_registry;

  RestoreTargets() : live(Shape{4, 4}, 1.0) {
    empty_registry.add("state", &empty);
    live_registry.add("state", &live);
  }
  RestoreTargets(const RestoreTargets&) = delete;
  RestoreTargets& operator=(const RestoreTargets&) = delete;
};

struct HostileShapeCase {
  const char* name;  // names the ctest case
  const char* what;
  void (*decode)(RestoreTargets&);
};

// gtest_discover_tests names each case <suite>/<test>/<printed param>.
void PrintTo(const HostileShapeCase& c, std::ostream* os) { *os << c.name; }

const HostileShapeCase kHostileShapes[] = {
    {"NullWrapsToZeroValues", "null: 2^32 x 2^32 wraps to 0 values",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({kTwo32, kTwo32})); }},
    {"NullValuesPastEnd", "null: 2^40 values declared, 2 bytes present",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({kTwo40}, 2)); }},
    {"NullRank0", "null: rank 0",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({})); }},
    {"NullRank5", "null: rank 5",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({1, 1, 1, 1, 1}, 8)); }},
    {"NullZeroExtent", "null: zero extent",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({4, 0})); }},
    {"NullByteSizeOverflows", "null: 2^61 x 4 overflows the byte size",
     [](RestoreTargets&) { (void)NullCodec{}.decode(raw_stream({std::uint64_t{1} << 61, 4})); }},
    {"GzipWraps", "gzip: 2^32 x 2^32",
     [](RestoreTargets&) {
       (void)GzipCodec{}.decode(gzip_compress(raw_stream({kTwo32, kTwo32}), {}));
     }},
    {"FpcWrapsOverEmptyBody", "fpc: 2^32 x 2^32 over an empty body",
     [](RestoreTargets&) {
       Bytes s = raw_stream({kTwo32, kTwo32});
       const Bytes body = fpc_compress(std::vector<double>{});
       s.insert(s.end(), body.begin(), body.end());
       (void)FpcCodec{}.decode(s);
     }},
    {"FpcValueCountMismatch", "fpc: 3 values declared, 2 coded",
     [](RestoreTargets&) {
       Bytes s = raw_stream({3});
       const Bytes body = fpc_compress(std::vector<double>{1.0, 2.0});
       s.insert(s.end(), body.begin(), body.end());
       (void)FpcCodec{}.decode(s);
     }},
    {"WaveletTag0DecompressWraps", "wavelet tag 0: 2^33 x 2^33 decompress",
     [](RestoreTargets&) { (void)WaveletCompressor::decompress(tag0_wavelet_stream(kTwo33)); }},
    {"WaveletTag0InspectWraps", "wavelet tag 0: 2^33 x 2^33 inspect",
     [](RestoreTargets&) { (void)WaveletCompressor::inspect(tag0_wavelet_stream(kTwo33)); }},
    {"WaveletCodecWraps", "wavelet codec: 2^32 x 2^32",
     [](RestoreTargets&) { (void)WaveletLossyCodec{}.decode(tag0_wavelet_stream(kTwo32)); }},
    {"ZfpLikeCodecWraps", "zfplike: 2^33 x 2^33, one zero block",
     [](RestoreTargets&) {
       (void)ZfpLikeCodec{}.decode(zfplike_stream({kTwo33, kTwo33}, 1));
     }},
    {"ZfpLikeBlocksPastEnd", "zfplike: 2^20 x 2^20, one zero block",
     [](RestoreTargets&) { (void)zfplike_decompress(zfplike_stream({1u << 20, 1u << 20}, 1)); }},
    {"SzLikeCodecWraps", "szlike: 2^32 x 2^32",
     [](RestoreTargets&) {
       (void)SzLikeCodec{}.decode(szlike_stream({kTwo32, kTwo32}, 0, 0));
     }},
    {"SzLikeExactCountPastEnd", "szlike: 2^62 exact values declared",
     [](RestoreTargets&) {
       (void)szlike_decompress(szlike_stream({1}, std::uint64_t{1} << 62, 1));
     }},
    {"TruncationCodecWraps", "truncation: 2^32 x 2^32",
     [](RestoreTargets&) {
       (void)TruncationCodec{}.decode(truncation_stream(raw_stream({kTwo32, kTwo32})));
     }},
    {"TruncationValuesPastEnd", "truncation: 2^40 values declared, 8 bytes present",
     [](RestoreTargets&) {
       (void)truncation_decompress(truncation_stream(raw_stream({kTwo40}, 8)));
     }},
    {"ImageWraps", "image: 2^32 x 2^32",
     [](RestoreTargets& t) {
       scatter_image(image_stream({kTwo32, kTwo32}, 0), t.empty_registry);
     }},
    {"ImageValuesPastEnd", "image: 2^40 values declared, 8 bytes present",
     [](RestoreTargets& t) { scatter_image(image_stream({kTwo40}, 8), t.empty_registry); }},
    {"NetPutWraps", "net put: 2^32 x 2^32",
     [](RestoreTargets&) { (void)net::decode_message(put_frame({kTwo32, kTwo32})); }},
    {"NetGetOkWraps", "net get-ok: 2^32 x 2^32",
     [](RestoreTargets&) { (void)net::decode_message(get_ok_frame({kTwo32, kTwo32})); }},
    {"CheckpointZfpLikeFieldWraps", "checkpoint: zfplike field 2^33 x 2^33",
     [](RestoreTargets& t) {
       (void)restore_checkpoint(
           checkpoint_v1(3, {{"state", "zfplike", zfplike_stream({kTwo33, kTwo33}, 1)}}),
           t.live_registry);
     }},
    {"CheckpointNullFieldWraps", "checkpoint: null field 2^32 x 2^32 into an empty array",
     [](RestoreTargets& t) {
       (void)restore_checkpoint(checkpoint_v1(3, {{"state", "null", raw_stream({kTwo32, kTwo32})}}),
                                t.empty_registry);
     }},
};

class HostileShapeHeader : public ::testing::TestWithParam<HostileShapeCase> {};

TEST_P(HostileShapeHeader, IsFormatError) {
  // Every decoder reads rank + extents through read_shape/read_extents,
  // so a header whose element count wraps size_t, or whose values
  // cannot fit in the bytes left, is a FormatError before anything is
  // allocated or written — never a wrapped shape, a bad_alloc or a
  // write through an empty array. Each input is its own case, so a
  // decoder that crashes on its input (the zfplike one segfaulted before
  // the shape check) fails under its own name and hides no other result.
  const HostileShapeCase& c = GetParam();
  RestoreTargets targets;
  try {
    c.decode(targets);
    ADD_FAILURE() << c.what << ": decoded without an error";
  } catch (const FormatError&) {
    // expected
  } catch (const std::exception& e) {
    ADD_FAILURE() << c.what << ": not a FormatError: " << e.what();
  }
  EXPECT_EQ(targets.empty.size(), 0u);
  EXPECT_EQ(targets.live[0], 1.0);
}

INSTANTIATE_TEST_SUITE_P(SanitizeDecode, HostileShapeHeader, ::testing::ValuesIn(kHostileShapes));

}  // namespace
}  // namespace wck
