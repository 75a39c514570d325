// Unit and property tests for the from-scratch DEFLATE implementation,
// including cross-validation against the system zlib when available.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "core/compressor.hpp"
#include "core/synthetic.hpp"
#include "deflate/deflate.hpp"
#include "deflate/deflate_tables.hpp"
#include "deflate/huffman.hpp"
#include "deflate/huffman_only.hpp"
#include "deflate/lz77.hpp"
#include "encode/payload.hpp"
#include "legacy_writers.hpp"
#include "util/bitio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifdef WCK_HAVE_ZLIB
#include <zlib.h>
#endif

namespace wck {
namespace {

Bytes make_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::byte>(rng.bounded(256));
  return b;
}

/// Highly compressible data resembling formatted checkpoint payloads:
/// long runs, repeated structures, slowly varying values.
Bytes structured_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes b;
  b.reserve(n);
  while (b.size() < n) {
    const auto mode = rng.bounded(3);
    if (mode == 0) {
      const auto run = 4 + rng.bounded(64);
      const auto v = static_cast<std::byte>(rng.bounded(8));
      for (std::uint64_t i = 0; i < run && b.size() < n; ++i) b.push_back(v);
    } else if (mode == 1) {
      for (int i = 0; i < 16 && b.size() < n; ++i) {
        b.push_back(static_cast<std::byte>(i));
      }
    } else {
      b.push_back(static_cast<std::byte>(rng.bounded(256)));
    }
  }
  return b;
}

// ---------------------------------------------------------------------
// Huffman primitives
// ---------------------------------------------------------------------

TEST(Huffman, CodeLengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  const auto lengths = build_code_lengths(freqs, 15);
  double kraft = 0.0;
  for (const auto l : lengths) {
    ASSERT_GT(l, 0u);
    kraft += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(Huffman, OptimalForClassicExample) {
  // Frequencies from the textbook example; total cost must equal the
  // unrestricted Huffman optimum (224 bits here).
  std::vector<std::uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  const auto lengths = build_code_lengths(freqs, 15);
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < freqs.size(); ++i) cost += freqs[i] * lengths[i];
  EXPECT_EQ(cost, 45u * 1 + 13 * 3 + 12 * 3 + 16 * 3 + 9 * 4 + 5 * 4);
}

TEST(Huffman, LengthLimitRespected) {
  // Exponential frequencies force long codes without a limit.
  std::vector<std::uint64_t> freqs(12);
  std::uint64_t f = 1;
  for (auto& v : freqs) {
    v = f;
    f *= 3;
  }
  const auto lengths = build_code_lengths(freqs, 5);
  for (const auto l : lengths) {
    EXPECT_LE(l, 5u);
    EXPECT_GT(l, 0u);
  }
  double kraft = 0.0;
  for (const auto l : lengths) kraft += std::pow(2.0, -static_cast<double>(l));
  EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs = {0, 0, 42, 0};
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_EQ(lengths, (std::vector<std::uint8_t>{0, 0, 1, 0}));
}

TEST(Huffman, EmptyAlphabetAllZero) {
  std::vector<std::uint64_t> freqs = {0, 0, 0};
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_EQ(lengths, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(Huffman, TooSmallLimitRejected) {
  std::vector<std::uint64_t> freqs(9, 1);  // 9 symbols cannot fit 3 bits
  EXPECT_THROW((void)build_code_lengths(freqs, 3), InvalidArgumentError);
}

TEST(Huffman, CanonicalCodesAreRfc1951Example) {
  // RFC 1951 3.2.2 example: lengths (3,3,3,3,3,2,4,4) yield the listed
  // canonical codes.
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto cc = CanonicalCode::from_lengths(lengths);
  const std::vector<std::uint16_t> want = {0b010, 0b011, 0b100,  0b101,
                                           0b110, 0b00,  0b1110, 0b1111};
  EXPECT_EQ(cc.codes, want);
}

TEST(Huffman, EncodeDecodeRoundTripAllSymbols) {
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto cc = CanonicalCode::from_lengths(lengths);
  const HuffmanDecoder dec(lengths);

  std::vector<std::byte> buf;
  BitWriter bw(buf);
  for (int s = 0; s < 8; ++s) cc.emit(bw, s);
  bw.align_to_byte();

  BitReader br(buf);
  for (int s = 0; s < 8; ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, DecoderSlowPathForLongCodes) {
  // A skewed alphabet that produces codes longer than the fast-table
  // width when limited to 15.
  std::vector<std::uint64_t> freqs(20);
  std::uint64_t f = 1;
  for (auto& v : freqs) {
    v = f;
    f = f * 2 + 1;
  }
  const auto lengths = build_code_lengths(freqs, 15);
  EXPECT_GT(*std::max_element(lengths.begin(), lengths.end()), HuffmanDecoder::kFastBits);

  const auto cc = CanonicalCode::from_lengths(lengths);
  const HuffmanDecoder dec(lengths);
  std::vector<std::byte> buf;
  BitWriter bw(buf);
  for (int s = 0; s < 20; ++s) cc.emit(bw, s);
  bw.align_to_byte();
  BitReader br(buf);
  for (int s = 0; s < 20; ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, OversubscribedLengthsRejected) {
  const std::vector<std::uint8_t> lengths = {1, 1, 1};  // 3 codes of length 1
  EXPECT_THROW(HuffmanDecoder dec(lengths), FormatError);
}

TEST(Huffman, IncompleteCodeRejectedUnlessAllowed) {
  const std::vector<std::uint8_t> lengths = {2, 0, 0};  // only half the space
  EXPECT_THROW(HuffmanDecoder dec(lengths), FormatError);
  const std::vector<std::uint8_t> single = {1, 0, 0};
  EXPECT_NO_THROW(HuffmanDecoder dec(single, /*allow_incomplete=*/true));
}

// ---------------------------------------------------------------------
// Symbol tables
// ---------------------------------------------------------------------

TEST(DeflateTables, LengthCodeCoversFullRange) {
  namespace dt = deflate_tables;
  for (int len = dt::kMinMatch; len <= dt::kMaxMatch; ++len) {
    const int c = dt::length_to_code(len);
    ASSERT_GE(c, 0);
    ASSERT_LE(c, 28);
    const auto& e = dt::kLengthCodes[static_cast<std::size_t>(c)];
    EXPECT_GE(len, static_cast<int>(e.base));
    EXPECT_LT(len - e.base, 1 << e.extra) << "len=" << len;
  }
  EXPECT_EQ(dt::length_to_code(258), 28);
}

TEST(DeflateTables, DistCodeCoversFullRange) {
  namespace dt = deflate_tables;
  for (int dist = 1; dist <= dt::kWindowSize; ++dist) {
    const int c = dt::dist_to_code(dist);
    ASSERT_GE(c, 0);
    ASSERT_LE(c, 29);
    const auto& e = dt::kDistCodes[static_cast<std::size_t>(c)];
    EXPECT_GE(dist, static_cast<int>(e.base));
    EXPECT_LT(dist - e.base, 1 << e.extra) << "dist=" << dist;
  }
}

// ---------------------------------------------------------------------
// LZ77
// ---------------------------------------------------------------------

std::size_t reconstructed_size(const std::vector<Lz77Token>& tokens) {
  std::size_t n = 0;
  for (const auto& t : tokens) n += t.is_match() ? static_cast<std::size_t>(t.length()) : 1;
  return n;
}

Bytes reconstruct(const std::vector<Lz77Token>& tokens) {
  Bytes out;
  for (const auto& t : tokens) {
    if (t.is_match()) {
      const std::size_t start = out.size() - static_cast<std::size_t>(t.distance());
      for (int i = 0; i < t.length(); ++i) out.push_back(out[start + static_cast<std::size_t>(i)]);
    } else {
      out.push_back(static_cast<std::byte>(t.literal_byte()));
    }
  }
  return out;
}

class Lz77Levels : public ::testing::TestWithParam<int> {};

TEST_P(Lz77Levels, ParseReconstructsInput) {
  const auto params = lz77_params_for_level(GetParam());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Bytes input = structured_bytes(20000, seed);
    const auto tokens = lz77_parse(input, params);
    EXPECT_EQ(reconstruct(tokens), input) << "seed=" << seed;
  }
}

TEST_P(Lz77Levels, MatchesShrinkTokenCountOnRepetitiveData) {
  const Bytes input = make_bytes(std::string(5000, 'x'));
  const auto tokens = lz77_parse(input, lz77_params_for_level(GetParam()));
  EXPECT_EQ(reconstructed_size(tokens), input.size());
  EXPECT_LT(tokens.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, Lz77Levels, ::testing::Values(1, 3, 6, 9));

TEST(Lz77, TokenPackingLimits) {
  const auto lit = Lz77Token::literal(0xFF);
  EXPECT_FALSE(lit.is_match());
  EXPECT_EQ(lit.literal_byte(), 0xFF);

  const auto m = Lz77Token::match(258, 32768);
  EXPECT_TRUE(m.is_match());
  EXPECT_EQ(m.length(), 258);
  EXPECT_EQ(m.distance(), 32768);

  const auto m2 = Lz77Token::match(3, 1);
  EXPECT_EQ(m2.length(), 3);
  EXPECT_EQ(m2.distance(), 1);
}

TEST(Lz77, InvalidLevelRejected) {
  EXPECT_THROW((void)lz77_params_for_level(0), InvalidArgumentError);
  EXPECT_THROW((void)lz77_params_for_level(10), InvalidArgumentError);
  // deflate_compress checks the level before its empty-input shortcut.
  EXPECT_THROW((void)deflate_compress({}, DeflateOptions{0}), InvalidArgumentError);
}

TEST(Lz77, MatchesRespectWindow) {
  // Two identical 1 KiB blocks separated by > 32 KiB must not match
  // across the window.
  Bytes input = structured_bytes(1024, 5);
  const Bytes filler = random_bytes(40000, 6);
  input.insert(input.end(), filler.begin(), filler.end());
  const Bytes head = structured_bytes(1024, 5);
  input.insert(input.end(), head.begin(), head.end());
  const auto tokens = lz77_parse(input, lz77_params_for_level(6));
  for (const auto& t : tokens) {
    if (t.is_match()) {
      EXPECT_LE(t.distance(), 32768);
    }
  }
  EXPECT_EQ(reconstruct(tokens), input);
}

// ---------------------------------------------------------------------
// Reference matcher: the byte-at-a-time engine the word-wise matcher
// replaced (a chain link per input position, a byte-loop compare, a
// one-byte quick reject, the lazy step's next search repeated). Its token
// stream defines the output, so the engine must reproduce it exactly.
// ---------------------------------------------------------------------

class ReferenceMatcher {
 public:
  ReferenceMatcher(const std::uint8_t* data, std::size_t size, const Lz77Params& params)
      : data_(data), size_(size), params_(params), head_(1u << 15, -1), prev_(size, -1) {}

  void insert(std::size_t pos) {
    if (pos + 3 > size_) return;
    const std::uint32_t h = hash3(data_ + pos);
    prev_[pos] = head_[h];
    head_[h] = static_cast<std::int64_t>(pos);
  }

  int find(std::size_t pos, int* best_dist) const {
    namespace dt = deflate_tables;
    *best_dist = 0;
    if (pos + dt::kMinMatch > size_) return 0;
    const int limit = static_cast<int>(std::min<std::size_t>(dt::kMaxMatch, size_ - pos));
    const std::size_t window_start = pos > dt::kWindowSize ? pos - dt::kWindowSize : 0;
    int best_len = 0;
    std::int64_t cand = head_[hash3(data_ + pos)];
    int chain = params_.max_chain;
    while (cand >= 0 && static_cast<std::size_t>(cand) >= window_start && chain-- > 0) {
      const auto c = static_cast<std::size_t>(cand);
      if (c < pos && (best_len == 0 || data_[c + best_len] == data_[pos + best_len])) {
        int len = 0;
        while (len < limit && data_[c + len] == data_[pos + len]) ++len;
        if (len > best_len && len >= dt::kMinMatch) {
          best_len = len;
          *best_dist = static_cast<int>(pos - c);
          if (best_len >= params_.nice_length || best_len == limit) break;
        }
      }
      cand = prev_[c];
    }
    return best_len;
  }

 private:
  static std::uint32_t hash3(const std::uint8_t* p) {
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - 15);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  Lz77Params params_;
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> prev_;
};

std::vector<Lz77Token> reference_lz77_parse(std::span<const std::byte> input,
                                            const Lz77Params& params) {
  std::vector<Lz77Token> tokens;
  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::size_t size = input.size();
  ReferenceMatcher matcher(data, size, params);
  std::size_t pos = 0;
  while (pos < size) {
    int dist = 0;
    const int len = matcher.find(pos, &dist);
    if (len < 3) {
      tokens.push_back(Lz77Token::literal(data[pos]));
      matcher.insert(pos++);
      continue;
    }
    std::size_t insert_from = pos;
    if (len < params.lazy_threshold && pos + 1 < size) {
      matcher.insert(pos);
      int next_dist = 0;
      if (matcher.find(pos + 1, &next_dist) > len) {
        tokens.push_back(Lz77Token::literal(data[pos++]));
        continue;
      }
      insert_from = pos + 1;
    }
    tokens.push_back(Lz77Token::match(len, dist));
    for (std::size_t i = insert_from; i < pos + static_cast<std::size_t>(len); ++i) {
      matcher.insert(i);
    }
    pos += static_cast<std::size_t>(len);
  }
  return tokens;
}

/// Index of the first differing token, or -1 when the streams are equal.
std::ptrdiff_t first_token_difference(const std::vector<Lz77Token>& a,
                                      const std::vector<Lz77Token>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = a[i].is_match() == b[i].is_match() &&
                      (a[i].is_match() ? a[i].length() == b[i].length() &&
                                             a[i].distance() == b[i].distance()
                                       : a[i].literal_byte() == b[i].literal_byte());
    if (!same) return static_cast<std::ptrdiff_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<std::ptrdiff_t>(n);
}

/// `pattern` at offset 0 and again `gap` bytes later, random bytes
/// between and after: the repeat is reachable only while gap <= 32768.
Bytes repeat_at_distance(std::size_t gap) {
  const Bytes pattern = make_bytes("distance-probe-0123456789");
  Bytes b = random_bytes(gap + 4000, 77);
  std::copy(pattern.begin(), pattern.end(), b.begin());
  std::copy(pattern.begin(), pattern.end(), b.begin() + static_cast<std::ptrdiff_t>(gap));
  return b;
}

/// Edge inputs for the matcher: tiny inputs, a match ending on the last
/// byte, the window edge, runs past the maximum match, chains of
/// deferred (lazy) matches, and inputs long enough to wrap the chain ring.
std::vector<std::pair<std::string, Bytes>> matcher_edge_cases() {
  std::vector<std::pair<std::string, Bytes>> cases;
  cases.push_back({"len0", {}});
  cases.push_back({"len1", make_bytes("a")});
  cases.push_back({"len2", make_bytes("aa")});
  cases.push_back({"len3", make_bytes("aaa")});
  cases.push_back({"len4", make_bytes("aaaa")});
  cases.push_back({"len4_distinct", make_bytes("abab")});
  cases.push_back({"tail_match_short", make_bytes("abcdefgh-abcde")});
  cases.push_back({"tail_match_7", make_bytes("0123456789abcdefXY0123456")});
  cases.push_back({"tail_match_9", make_bytes("0123456789abcdefXY012345678")});
  cases.push_back({"distance_32768", repeat_at_distance(32768)});
  cases.push_back({"distance_32769", repeat_at_distance(32769)});
  cases.push_back({"run_1000", make_bytes(std::string(1000, 'r'))});
  cases.push_back({"run_259_then_text", make_bytes(std::string(259, 'q') + "qqxqq" +
                                                   std::string(600, 'q'))});
  cases.push_back({"lazy_chain", make_bytes("abc_bcde_cdefg_defghi_efghijk_abcdefghijk_"
                                            "abc_bcde_cdefg_abcdefghijk")});
  cases.push_back({"ring_wrap_structured", structured_bytes(200000, 31)});
  Bytes mixed = structured_bytes(40000, 32);
  const Bytes noise = random_bytes(50000, 33);
  mixed.insert(mixed.end(), noise.begin(), noise.end());
  const Bytes again = structured_bytes(40000, 32);
  mixed.insert(mixed.end(), again.begin(), again.end());
  cases.push_back({"ring_wrap_mixed", std::move(mixed)});
  return cases;
}

TEST(Lz77Reference, TokenStreamsEqualReferenceAtEveryLevel) {
  for (const auto& [name, data] : matcher_edge_cases()) {
    for (int level = 1; level <= 9; ++level) {
      SCOPED_TRACE(name + " level " + std::to_string(level));
      const auto params = lz77_params_for_level(level);
      const auto want = reference_lz77_parse(data, params);
      const auto got = lz77_parse(data, params);
      EXPECT_EQ(first_token_difference(want, got), -1);
    }
  }
}

TEST(Lz77Reference, EdgeCasesExerciseTheirEdges) {
  const auto p6 = lz77_params_for_level(6);
  auto has_match = [](const std::vector<Lz77Token>& tokens, auto pred) {
    return std::any_of(tokens.begin(), tokens.end(),
                       [&](const Lz77Token& t) { return t.is_match() && pred(t); });
  };
  // The window edge: distance 32768 is used, 32769 is out of reach.
  EXPECT_TRUE(has_match(lz77_parse(repeat_at_distance(32768), p6),
                        [](const Lz77Token& t) { return t.distance() == 32768; }));
  EXPECT_FALSE(has_match(lz77_parse(repeat_at_distance(32769), p6),
                         [](const Lz77Token& t) { return t.distance() > 32768; }));
  // A match that ends exactly on the last input byte, shorter than 8.
  const auto tail = lz77_parse(make_bytes("0123456789abcdefXY0123456"), p6);
  ASSERT_TRUE(tail.back().is_match());
  EXPECT_EQ(tail.back().length(), 7);
  // The lazy step defers four times in a row: at offsets 30..33 each
  // next position has a longer match, so they go out as literals and the
  // 8-byte match "efghijk_" starts at 34.
  const auto lazy = lz77_parse(make_bytes("abc_bcde_cdefg_defghi_efghijk_abcdefghijk_"), p6);
  std::size_t pos = 0;
  std::size_t i = 0;
  for (; i < lazy.size() && pos < 30; ++i) {
    pos += lazy[i].is_match() ? static_cast<std::size_t>(lazy[i].length()) : 1;
  }
  ASSERT_EQ(pos, 30u);
  ASSERT_GE(lazy.size(), i + 5);
  for (std::size_t k = i; k < i + 4; ++k) EXPECT_FALSE(lazy[k].is_match()) << k;
  EXPECT_TRUE(lazy[i + 4].is_match());
  EXPECT_EQ(lazy[i + 4].length(), 8);
}

// ---------------------------------------------------------------------
// DEFLATE round trips
// ---------------------------------------------------------------------

struct RoundTripCase {
  const char* name;
  Bytes data;
};

std::vector<RoundTripCase> round_trip_cases() {
  std::vector<RoundTripCase> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"one_byte", make_bytes("A")});
  cases.push_back({"short_text", make_bytes("hello, hello, hello world")});
  cases.push_back({"all_same", make_bytes(std::string(100000, 'z'))});
  cases.push_back({"random_small", random_bytes(500, 42)});
  cases.push_back({"random_large", random_bytes(300000, 43)});
  cases.push_back({"structured_large", structured_bytes(300000, 44)});
  // All 256 byte values, repeated (exercises 9-bit fixed codes).
  Bytes all;
  for (int r = 0; r < 40; ++r) {
    for (int v = 0; v < 256; ++v) all.push_back(static_cast<std::byte>(v));
  }
  cases.push_back({"all_byte_values", std::move(all)});
  return cases;
}

// ---------------------------------------------------------------------
// Golden output: deflate bytes are part of every stored checkpoint, so
// an engine change must reproduce them exactly at every level. The
// digests below were recorded from the byte-at-a-time reference engine
// over payload v2; the 24 entries whose token stream exceeds 16 Ki
// tokens were re-recorded when the Huffman block length went from 64 Ki
// to 16 Ki tokens, with the parse unchanged. The last six pin payload v3
// and the WCKP v2 container around it at levels 6 and 4, the level the
// production path writes. A mismatch prints the entry the current
// engine produces.
// ---------------------------------------------------------------------

/// FNV-1a 64-bit fingerprint of a byte stream.
std::uint64_t fnv1a64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The compressor's output for `field` at production settings and the
/// given deflate level, without the entropy tag: the v3 payload for
/// kNone, the WCKP v2 container for kDeflate.
Bytes compressed_body(const NdArray<double>& field, EntropyMode entropy,
                      int level = CompressionParams{}.deflate_level) {
  CompressionParams params;
  params.quantizer.divisions = 128;
  params.entropy = entropy;
  params.deflate_level = level;
  const Bytes stream = WaveletCompressor(params).compress(field).data;
  return Bytes(stream.begin() + 1, stream.end());
}

/// The formatted (pre-entropy) payload of `field` in the v2 layout the
/// engine digests below were recorded on.
Bytes formatted_payload(const NdArray<double>& field) {
  return encode_payload_v2(decode_payload(compressed_body(field, EntropyMode::kNone)));
}

struct GoldenEntry {
  const char* id;
  std::size_t size;
  std::uint64_t digest;
};

std::vector<std::pair<std::string, Bytes>> golden_outputs() {
  std::vector<std::pair<std::string, Bytes>> out;
  const std::vector<RoundTripCase> cases = round_trip_cases();
  for (const RoundTripCase& c : cases) {
    for (int level = 1; level <= 9; ++level) {
      out.emplace_back("deflate/" + std::string(c.name) + "/L" + std::to_string(level),
                       deflate_compress(c.data, DeflateOptions{level}));
    }
    out.emplace_back("huffman_only/" + std::string(c.name), huffman_only_compress(c.data));
  }
  const NdArray<double> fig9_field = make_temperature_field(Shape{1156, 82, 2}, 2015);
  const NdArray<double> noise_field = make_random_field(Shape{1156, 82, 2}, 2015);
  const Bytes fig9 = formatted_payload(fig9_field);
  const Bytes noise = formatted_payload(noise_field);
  for (const auto& [name, payload] : {std::pair{"fig9", &fig9}, std::pair{"noise", &noise}}) {
    out.emplace_back("payload/" + std::string(name), *payload);
    for (const int level : {1, 6, 9}) {
      out.emplace_back("deflate/" + std::string(name) + "/L" + std::to_string(level),
                       deflate_compress(*payload, DeflateOptions{level}));
    }
    out.emplace_back("zlib/" + std::string(name), zlib_compress(*payload));
    out.emplace_back("gzip/" + std::string(name), gzip_compress(*payload));
    out.emplace_back("huffman_only/" + std::string(name), huffman_only_compress(*payload));
  }
  out.emplace_back("zlib/structured_large", zlib_compress(cases[6].data));
  out.emplace_back("gzip/structured_large", gzip_compress(cases[6].data, DeflateOptions{9}));
  // The stored formats of the same two fields: payload v3 and the WCKP
  // v2 container the production path writes around it.
  for (const auto& [name, field] :
       {std::pair{"fig9", &fig9_field}, std::pair{"noise", &noise_field}}) {
    out.emplace_back("payload_v3/" + std::string(name), compressed_body(*field, EntropyMode::kNone));
    for (const int level : {6, 4}) {
      out.emplace_back("wckp_v2/" + std::string(name) + "/L" + std::to_string(level),
                       compressed_body(*field, EntropyMode::kDeflate, level));
    }
  }
  return out;
}

// clang-format off
constexpr GoldenEntry kGolden[] = {
  {"deflate/empty/L1", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L2", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L3", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L4", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L5", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L6", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L7", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L8", 5, 0xdb1da3aeaa761262ull},
  {"deflate/empty/L9", 5, 0xdb1da3aeaa761262ull},
  {"huffman_only/empty", 6, 0x8b890e658206844cull},
  {"deflate/one_byte/L1", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L2", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L3", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L4", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L5", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L6", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L7", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L8", 3, 0x81cb35195c827b16ull},
  {"deflate/one_byte/L9", 3, 0x81cb35195c827b16ull},
  {"huffman_only/one_byte", 7, 0x2910fc7bf5fa5d5cull},
  {"deflate/short_text/L1", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L2", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L3", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L4", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L5", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L6", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L7", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L8", 16, 0x0f9e7381ab3fc66full},
  {"deflate/short_text/L9", 16, 0x0f9e7381ab3fc66full},
  {"huffman_only/short_text", 31, 0x5c631b2cf4faaab3ull},
  {"deflate/all_same/L1", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L2", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L3", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L4", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L5", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L6", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L7", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L8", 113, 0xf650ea4809a2152cull},
  {"deflate/all_same/L9", 113, 0xf650ea4809a2152cull},
  {"huffman_only/all_same", 12636, 0x624ee99d1bfdfc3dull},
  {"deflate/random_small/L1", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L2", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L3", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L4", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L5", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L6", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L7", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L8", 505, 0x9810a375df7d5c4aull},
  {"deflate/random_small/L9", 505, 0x9810a375df7d5c4aull},
  {"huffman_only/random_small", 507, 0x564ac0636b7a4ca3ull},
  {"deflate/random_large/L1", 300095, 0x43e7b9ea8a23d9c2ull},
  {"deflate/random_large/L2", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L3", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L4", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L5", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L6", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L7", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L8", 300095, 0xa44f14c983ab8416ull},
  {"deflate/random_large/L9", 300095, 0xa44f14c983ab8416ull},
  {"huffman_only/random_large", 300008, 0xf522e126f8b863cbull},
  {"deflate/structured_large/L1", 29740, 0x0f88f9c2a0ace988ull},
  {"deflate/structured_large/L2", 29642, 0x535fbd852a944028ull},
  {"deflate/structured_large/L3", 27319, 0x5f992ca016a83e69ull},
  {"deflate/structured_large/L4", 29036, 0xe504547a5f24b910ull},
  {"deflate/structured_large/L5", 27266, 0x17bead4044512403ull},
  {"deflate/structured_large/L6", 24895, 0x8f4635564df3547full},
  {"deflate/structured_large/L7", 23528, 0x8b1dc38ec15f3c48ull},
  {"deflate/structured_large/L8", 22205, 0x8e7e97a3f900f154ull},
  {"deflate/structured_large/L9", 21852, 0xfbffab6c4110fa78ull},
  {"huffman_only/structured_large", 145740, 0x9f80266630e0adbbull},
  {"deflate/all_byte_values/L1", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L2", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L3", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L4", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L5", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L6", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L7", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L8", 349, 0xcc07a9e4237653ccull},
  {"deflate/all_byte_values/L9", 349, 0xcc07a9e4237653ccull},
  {"huffman_only/all_byte_values", 10247, 0x605ecd1e1b74bf74ull},
  {"payload/fig9", 544677, 0xa295bd1429b999d3ull},
  {"deflate/fig9/L1", 406886, 0x82cddd2465ba5f5dull},
  {"deflate/fig9/L6", 404469, 0x8640b9d7f2fc054full},
  {"deflate/fig9/L9", 403885, 0x5ff3315bce5fdc2bull},
  {"zlib/fig9", 404475, 0xc99476029926c5f0ull},
  {"gzip/fig9", 404487, 0xb7e34d2119cb2058ull},
  {"huffman_only/fig9", 477583, 0xaa2702ad20d33e77ull},
  {"payload/noise", 525189, 0x9eab79041e143474ull},
  {"deflate/noise/L1", 486030, 0x11c483e9597c0f92ull},
  {"deflate/noise/L6", 485703, 0xca4a1c70dc480d1aull},
  {"deflate/noise/L9", 485692, 0x17a43f8d5df84befull},
  {"zlib/noise", 485709, 0x72e57b964da0ef4eull},
  {"gzip/noise", 485721, 0x86ddbd5b8a855aedull},
  {"huffman_only/noise", 507419, 0x1a86a10f69ff0dd2ull},
  {"zlib/structured_large", 24901, 0xf95af0449350c51bull},
  {"gzip/structured_large", 21870, 0x29f832ed5bc51fe0ull},
  {"payload_v3/fig9", 544677, 0x33c96d6e1ac00179ull},
  {"wckp_v2/fig9/L6", 341216, 0xe430c7972aec507aull},
  {"wckp_v2/fig9/L4", 342985, 0x9667cd23dc78551aull},
  {"payload_v3/noise", 525189, 0x35974f74203011eaull},
  {"wckp_v2/noise/L6", 448596, 0x1176cf5dcbcc9ddfull},
  {"wckp_v2/noise/L4", 449148, 0xfc76a32366b5dd72ull},
};
// clang-format on

TEST(GoldenOutput, EncoderBytesUnchanged) {
  const auto outputs = golden_outputs();
  ASSERT_EQ(outputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const auto& [id, bytes] = outputs[i];
    const std::uint64_t digest = fnv1a64(bytes);
    char line[160];
    std::snprintf(line, sizeof(line), "{\"%s\", %zu, 0x%016llxull},", id.c_str(), bytes.size(),
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(id, kGolden[i].id) << line;
    EXPECT_EQ(bytes.size(), kGolden[i].size) << line;
    EXPECT_EQ(digest, kGolden[i].digest) << line;
  }
}

// ---------------------------------------------------------------------
// Golden payloads across ranks: the table above pins the payload of the
// 1156x82x2 field only. These pin encode_payload's output, and the
// doubles the decoder rebuilds from it, for ranks 1-4, odd extents,
// multi-level plans, the simple quantizer and the CDF 5/3 transform, so
// a change to the transform or to the band walks must reproduce them
// exactly.
// ---------------------------------------------------------------------

struct ShapeCase {
  const char* id;
  Shape shape;
  int levels;
  QuantizerKind quantizer;
  WaveletKind wavelet;
};

std::vector<ShapeCase> shape_cases() {
  return {
      {"rank1/1001", Shape{1001}, 1, QuantizerKind::kSpike, WaveletKind::kHaar},
      {"rank2/33x17", Shape{33, 17}, 1, QuantizerKind::kSpike, WaveletKind::kHaar},
      {"rank3/7x5x3/l2", Shape{7, 5, 3}, 2, QuantizerKind::kSpike, WaveletKind::kHaar},
      {"rank4/5x4x3x6/l3", Shape{5, 4, 3, 6}, 3, QuantizerKind::kSpike, WaveletKind::kHaar},
      {"simple/33x17", Shape{33, 17}, 1, QuantizerKind::kSimple, WaveletKind::kHaar},
      {"cdf53/7x5x3/l2", Shape{7, 5, 3}, 2, QuantizerKind::kSpike, WaveletKind::kCdf53},
  };
}

/// The tag-0 stream of a temperature field of `c.shape` at n = 128.
Bytes shape_case_stream(const ShapeCase& c) {
  CompressionParams params;
  params.quantizer.kind = c.quantizer;
  params.quantizer.divisions = 128;
  params.wavelet_levels = c.levels;
  params.wavelet = c.wavelet;
  params.entropy = EntropyMode::kNone;
  return WaveletCompressor(params).compress(make_temperature_field(c.shape, 2015)).data;
}

/// Checks `bytes` against one golden entry; a mismatch prints the entry
/// the current code produces.
void expect_golden(const std::string& id, std::span<const std::byte> bytes,
                   const GoldenEntry& want) {
  const std::uint64_t digest = fnv1a64(bytes);
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", %zu, 0x%016llxull},", id.c_str(), bytes.size(),
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(id, want.id) << line;
  EXPECT_EQ(bytes.size(), want.size) << line;
  EXPECT_EQ(digest, want.digest) << line;
}

// clang-format off
constexpr GoldenEntry kGoldenShapePayloads[] = {
  {"payload_v3/rank1/1001", 6339, 0x621aaebf13d3161eull},
  {"payload_v3/rank2/33x17", 3409, 0xab523319d26e6b29ull},
  {"payload_v3/rank3/7x5x3/l2", 1261, 0x83bf2b8352fe9853ull},
  {"payload_v3/rank4/5x4x3x6/l3", 1684, 0xd7d1439859ba056eull},
  {"payload_v3/simple/33x17", 2730, 0x151c8cdcc9ad5bf2ull},
  {"payload_v3/cdf53/7x5x3/l2", 1254, 0x55367dda0810f793ull},
};

constexpr GoldenEntry kGoldenShapeDecoded[] = {
  {"decoded/rank1/1001", 8008, 0x0ca97aa66791c88full},
  {"decoded/rank2/33x17", 4488, 0x51aaccd9c4bc4285ull},
  {"decoded/rank3/7x5x3/l2", 840, 0xf6cbc622763d761eull},
  {"decoded/rank4/5x4x3x6/l3", 2880, 0xaa1e519fcac881f9ull},
  {"decoded/simple/33x17", 4488, 0x454dc079fa3932dbull},
  {"decoded/cdf53/7x5x3/l2", 840, 0x53f0dd746e4a8092ull},
};
// clang-format on

TEST(GoldenOutput, PayloadBytesAcrossRanksUnchanged) {
  const auto cases = shape_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenShapePayloads));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Bytes stream = shape_case_stream(cases[i]);
    expect_golden("payload_v3/" + std::string(cases[i].id),
                  std::span<const std::byte>(stream).subspan(1), kGoldenShapePayloads[i]);
  }
}

TEST(GoldenOutput, DecodedValuesAcrossRanksUnchanged) {
  const auto cases = shape_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldenShapeDecoded));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const NdArray<double> back = WaveletCompressor::decompress(shape_case_stream(cases[i]));
    ASSERT_EQ(back.shape(), cases[i].shape) << cases[i].id;
    // Bit patterns, little-endian, so the digest does not depend on the host.
    ByteWriter w;
    for (const double v : back.values()) w.f64(v);
    expect_golden("decoded/" + std::string(cases[i].id), w.buffer(), kGoldenShapeDecoded[i]);
  }
}

TEST(Deflate, RoundTripAllCases) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    const Bytes comp = deflate_compress(c.data);
    const Bytes back = deflate_decompress(comp, c.data.size());
    EXPECT_EQ(back, c.data);
  }
}

TEST(Deflate, RoundTripAllLevels) {
  const Bytes data = structured_bytes(100000, 7);
  for (int level = 1; level <= 9; ++level) {
    SCOPED_TRACE(level);
    const Bytes comp = deflate_compress(data, DeflateOptions{level});
    EXPECT_EQ(deflate_decompress(comp), data);
  }
}

TEST(Deflate, HigherLevelNeverMuchWorse) {
  const Bytes data = structured_bytes(200000, 8);
  const auto size1 = deflate_compress(data, DeflateOptions{1}).size();
  const auto size9 = deflate_compress(data, DeflateOptions{9}).size();
  EXPECT_LE(size9, size1 + size1 / 10);
}

TEST(Deflate, IncompressibleDataFallsBackNearStored) {
  const Bytes data = random_bytes(100000, 9);
  const Bytes comp = deflate_compress(data);
  // Stored-block overhead is 5 bytes / 65535: expansion must be tiny.
  EXPECT_LE(comp.size(), data.size() + data.size() / 100 + 64);
  EXPECT_EQ(deflate_decompress(comp), data);
}

TEST(Deflate, CompressibleDataActuallyShrinks) {
  const Bytes data = make_bytes(std::string(65536, 'q'));
  const Bytes comp = deflate_compress(data);
  EXPECT_LT(comp.size(), data.size() / 100);
}

TEST(Deflate, MultiBlockInputs) {
  // > 16 Ki tokens of literals forces multiple blocks.
  const Bytes data = random_bytes(200000, 10);
  const Bytes comp = deflate_compress(data, DeflateOptions{1});
  EXPECT_EQ(deflate_decompress(comp), data);
}

TEST(Deflate, MalformedStreamsRejected) {
  EXPECT_THROW((void)deflate_decompress({}), FormatError);

  Bytes junk = random_bytes(64, 11);
  // Force reserved block type 11 in the first block header.
  junk[0] = static_cast<std::byte>(0x06);  // BFINAL=0, BTYPE=11
  EXPECT_THROW((void)deflate_decompress(junk), FormatError);
}

TEST(Deflate, TruncatedStreamRejected) {
  const Bytes data = structured_bytes(50000, 12);
  Bytes comp = deflate_compress(data);
  comp.resize(comp.size() / 2);
  EXPECT_THROW((void)deflate_decompress(comp), FormatError);
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

TEST(Gzip, RoundTrip) {
  const Bytes data = structured_bytes(80000, 13);
  const Bytes gz = gzip_compress(data);
  EXPECT_EQ(gzip_decompress(gz), data);
  // gzip magic.
  EXPECT_EQ(static_cast<unsigned>(gz[0]), 0x1Fu);
  EXPECT_EQ(static_cast<unsigned>(gz[1]), 0x8Bu);
}

TEST(Gzip, CorruptedBodyDetected) {
  const Bytes data = structured_bytes(50000, 14);
  Bytes gz = gzip_compress(data);
  gz[gz.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW((void)gzip_decompress(gz), Error);  // Format or Corrupt
}

TEST(Gzip, CorruptedCrcDetected) {
  const Bytes data = structured_bytes(50000, 15);
  Bytes gz = gzip_compress(data);
  gz[gz.size() - 5] ^= std::byte{0x01};  // inside the CRC field
  EXPECT_THROW((void)gzip_decompress(gz), CorruptDataError);
}

TEST(Gzip, BadMagicRejected) {
  Bytes junk = make_bytes("not a gzip stream at all");
  EXPECT_THROW((void)gzip_decompress(junk), FormatError);
}

TEST(Zlib, RoundTrip) {
  const Bytes data = structured_bytes(80000, 16);
  const Bytes z = zlib_compress(data);
  EXPECT_EQ(zlib_decompress(z), data);
  // CMF/FLG checksum property.
  EXPECT_EQ((static_cast<unsigned>(z[0]) * 256 + static_cast<unsigned>(z[1])) % 31, 0u);
}

TEST(Zlib, AdlerMismatchDetected) {
  const Bytes data = structured_bytes(50000, 17);
  Bytes z = zlib_compress(data);
  z[z.size() - 1] ^= std::byte{0x01};
  EXPECT_THROW((void)zlib_decompress(z), CorruptDataError);
}

// ---------------------------------------------------------------------
// Truncated / corrupt-header decode paths: each must reject with a typed
// error and produce no output — never over-read or return partial data.
// ---------------------------------------------------------------------

TEST(Gzip, EveryHeaderPrefixTruncationRejected) {
  const Bytes gz = gzip_compress(structured_bytes(5000, 18));
  // The fixed header is 10 bytes; also cut inside body and trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{9}, std::size_t{10},
        gz.size() / 2, gz.size() - 8, gz.size() - 4, gz.size() - 1}) {
    Bytes cut(gz.begin(), gz.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)gzip_decompress(cut), Error) << "keep=" << keep;
  }
}

TEST(Gzip, UnsupportedMethodAndFlagExtensionsHandled) {
  const Bytes gz = gzip_compress(structured_bytes(2000, 19));
  {
    Bytes bad = gz;
    bad[2] = std::byte{9};  // CM != 8 (deflate)
    EXPECT_THROW((void)gzip_decompress(bad), FormatError);
  }
  {
    // FNAME flag set but no NUL-terminated name present: the z-string
    // skipper must hit the bounds check, not walk off the buffer.
    Bytes bad(gz.begin(), gz.begin() + 10);
    bad[3] = std::byte{0x08};  // FLG = FNAME
    EXPECT_THROW((void)gzip_decompress(bad), Error);
  }
  {
    // FEXTRA with an XLEN that overruns the stream.
    Bytes bad = gz;
    bad[3] = std::byte{0x04};  // FLG = FEXTRA
    bad.resize(12);
    bad[10] = std::byte{0xFF};  // XLEN = 0xFFFF
    bad[11] = std::byte{0xFF};
    EXPECT_THROW((void)gzip_decompress(bad), Error);
  }
}

TEST(Zlib, CorruptHeaderRejected) {
  const Bytes z = zlib_compress(structured_bytes(2000, 20));
  {
    Bytes bad = z;
    bad[0] = std::byte{0x79};  // breaks the FCHECK divisibility
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  {
    Bytes bad = z;
    bad[0] = static_cast<std::byte>((static_cast<unsigned>(bad[0]) & 0xF0u) | 0x09u);  // CM=9
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  {
    // FDICT set (with FCHECK re-balanced): preset dictionaries are
    // unsupported and must be rejected, not misparsed.
    Bytes bad = z;
    std::uint8_t flg = static_cast<std::uint8_t>(bad[1]);
    flg = static_cast<std::uint8_t>(flg | 0x20u);
    flg = static_cast<std::uint8_t>(flg & ~0x1Fu);
    const int rem = (0x78 * 256 + flg) % 31;
    if (rem != 0) flg = static_cast<std::uint8_t>(flg + (31 - rem));
    bad[1] = static_cast<std::byte>(flg);
    EXPECT_THROW((void)zlib_decompress(bad), FormatError);
  }
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    Bytes cut(z.begin(), z.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)zlib_decompress(cut), Error) << "keep=" << keep;
  }
}

TEST(Deflate, CorruptBlockStructureRejected) {
  {
    // Reserved block type 11.
    Bytes bad;
    BitWriter bw(bad);
    bw.put(1, 1);     // BFINAL
    bw.put(0b11, 2);  // BTYPE = reserved
    bw.align_to_byte();
    EXPECT_THROW((void)deflate_decompress(bad), FormatError);
  }
  {
    // Stored block with LEN/NLEN mismatch.
    Bytes bad;
    BitWriter bw(bad);
    bw.put(1, 1);
    bw.put(0b00, 2);
    bw.align_to_byte();
    bw.put(0x0004, 16);  // LEN = 4
    bw.put(0x1234, 16);  // NLEN != ~LEN
    bw.align_to_byte();
    EXPECT_THROW((void)deflate_decompress(bad), FormatError);
  }
  {
    // Stored block whose LEN runs past the end of the stream.
    Bytes bad;
    BitWriter bw(bad);
    bw.put(1, 1);
    bw.put(0b00, 2);
    bw.align_to_byte();
    const std::uint16_t len = 1000;
    bw.put(len, 16);
    bw.put(static_cast<std::uint16_t>(~len), 16);
    bw.put(0xAB, 8);  // only 1 of the promised 1000 bytes
    bw.align_to_byte();
    EXPECT_THROW((void)deflate_decompress(bad), FormatError);
  }
  {
    // Dynamic block with HLIT beyond the 286-symbol alphabet.
    Bytes bad;
    BitWriter bw(bad);
    bw.put(1, 1);
    bw.put(0b10, 2);
    bw.put(31, 5);  // HLIT = 288 > 286
    bw.put(0, 5);
    bw.put(0, 4);
    bw.align_to_byte();
    EXPECT_THROW((void)deflate_decompress(bad), FormatError);
  }
  {
    // Truncated mid code-length tables.
    const Bytes comp = deflate_compress(structured_bytes(60000, 21));
    Bytes cut(comp.begin(), comp.begin() + 4);
    EXPECT_THROW((void)deflate_decompress(cut), FormatError);
  }
  {
    // Empty input: not even a block header.
    EXPECT_THROW((void)deflate_decompress(Bytes{}), FormatError);
  }
}

TEST(Deflate, MatchDistanceBeforeStreamStartRejected) {
  // Fixed-Huffman block whose first symbol is a match: the distance
  // necessarily reaches before the (empty) output. Symbol 257 (len 3) is
  // code 0b0000001 (7 bits); distance code 0 is 00000 (5 bits).
  Bytes bad;
  BitWriter bw(bad);
  bw.put(1, 1);
  bw.put(0b01, 2);
  bw.put_huffman(0b0000001, 7);  // litlen symbol 257: length 3
  bw.put_huffman(0b00000, 5);    // distance symbol 0: distance 1
  bw.align_to_byte();
  EXPECT_THROW((void)deflate_decompress(bad), FormatError);
}

// ---------------------------------------------------------------------
// Cross-validation against system zlib (reference implementation)
// ---------------------------------------------------------------------

#ifdef WCK_HAVE_ZLIB
Bytes zlib_ref_compress(std::span<const std::byte> input, int level) {
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  Bytes out(bound);
  EXPECT_EQ(compress2(reinterpret_cast<Bytef*>(out.data()), &bound,
                      reinterpret_cast<const Bytef*>(input.data()),
                      static_cast<uLong>(input.size()), level),
            Z_OK);
  out.resize(bound);
  return out;
}

Bytes zlib_ref_decompress(std::span<const std::byte> input, std::size_t expected) {
  Bytes out(expected);
  uLongf out_len = static_cast<uLongf>(expected);
  EXPECT_EQ(uncompress(reinterpret_cast<Bytef*>(out.data()), &out_len,
                       reinterpret_cast<const Bytef*>(input.data()),
                       static_cast<uLong>(input.size())),
            Z_OK);
  out.resize(out_len);
  return out;
}

TEST(ZlibInterop, ReferenceDecodesOurStreams) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    for (const int level : {1, 4, 6, 9}) {
      const Bytes ours = zlib_compress(c.data, DeflateOptions{level});
      EXPECT_EQ(zlib_ref_decompress(ours, c.data.size()), c.data) << "level=" << level;
    }
  }
}

TEST(ZlibInterop, WeDecodeReferenceStreams) {
  for (const auto& c : round_trip_cases()) {
    SCOPED_TRACE(c.name);
    for (const int level : {1, 6, 9}) {
      const Bytes theirs = zlib_ref_compress(c.data, level);
      EXPECT_EQ(zlib_decompress(theirs), c.data) << "level=" << level;
    }
  }
}

TEST(ZlibInterop, CompressionRatioCompetitive) {
  const Bytes data = structured_bytes(500000, 21);
  const auto ours = zlib_compress(data, DeflateOptions{6}).size();
  const auto theirs = zlib_ref_compress(data, 6).size();
  // We do not need to beat zlib, but we must be in the same league.
  EXPECT_LE(ours, theirs * 3 / 2) << "ours=" << ours << " theirs=" << theirs;
}
#endif  // WCK_HAVE_ZLIB

}  // namespace
}  // namespace wck
