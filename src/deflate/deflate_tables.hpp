// Static symbol tables of the DEFLATE format (RFC 1951 section 3.2.5):
// length-code and distance-code base values and extra-bit counts, the
// code-length-code permutation order, and the fixed Huffman code lengths.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace wck::deflate_tables {

/// Number of literal/length symbols (0..285 used; 286/287 reserved).
inline constexpr int kNumLitLen = 288;
/// Number of distance symbols (0..29 used).
inline constexpr int kNumDist = 30;
/// Number of code-length-code symbols.
inline constexpr int kNumClc = 19;
/// End-of-block symbol.
inline constexpr int kEndOfBlock = 256;
/// Maximum Huffman code length for literal/length and distance codes.
inline constexpr int kMaxCodeLen = 15;
/// Maximum Huffman code length for the code-length code.
inline constexpr int kMaxClcLen = 7;
/// LZ77 window and match limits.
inline constexpr int kWindowSize = 32768;
inline constexpr int kMinMatch = 3;
inline constexpr int kMaxMatch = 258;

/// Length codes 257..285: base match length and number of extra bits.
struct LengthCode {
  std::uint16_t base;
  std::uint8_t extra;
};
inline constexpr std::array<LengthCode, 29> kLengthCodes = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},   {9, 0},   {10, 0},
    {11, 1},  {13, 1},  {15, 1},  {17, 1},  {19, 2},  {23, 2},  {27, 2},  {31, 2},
    {35, 3},  {43, 3},  {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

/// Distance codes 0..29: base distance and number of extra bits.
struct DistCode {
  std::uint16_t base;
  std::uint8_t extra;
};
inline constexpr std::array<DistCode, 30> kDistCodes = {{
    {1, 0},     {2, 0},     {3, 0},      {4, 0},      {5, 1},     {7, 1},
    {9, 2},     {13, 2},    {17, 3},     {25, 3},     {33, 4},    {49, 4},
    {65, 5},    {97, 5},    {129, 6},    {193, 6},    {257, 7},   {385, 7},
    {513, 8},   {769, 8},   {1025, 9},   {1537, 9},   {2049, 10}, {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12},  {12289, 12}, {16385, 13}, {24577, 13},
}};

/// Transmission order of code-length-code lengths (RFC 1951 3.2.7).
inline constexpr std::array<std::uint8_t, kNumClc> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

namespace detail {

/// Scans for the length code of `len`; only used to build kLengthCodeLut.
constexpr int scan_length_code(int len) noexcept {
  for (int c = 28; c >= 0; --c) {
    if (len >= kLengthCodes[static_cast<std::size_t>(c)].base) {
      // Code 28 (length 258) has base 258 but code 27's range reaches 257.
      if (c == 28 && len != 258) continue;
      return c;
    }
  }
  return 0;
}

/// Scans for the distance code of `dist`; only used to build kDistCodeLut.
constexpr int scan_dist_code(int dist) noexcept {
  for (int c = 29; c >= 0; --c) {
    if (dist >= kDistCodes[static_cast<std::size_t>(c)].base) return c;
  }
  return 0;
}

/// Length code per match length, indexed by length - 3.
inline constexpr std::array<std::uint8_t, 256> kLengthCodeLut = [] {
  std::array<std::uint8_t, 256> t{};
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    t[static_cast<std::size_t>(len - kMinMatch)] = static_cast<std::uint8_t>(scan_length_code(len));
  }
  return t;
}();

/// zlib's 512-entry distance-code table: entry d-1 for d <= 256, entry
/// 256 + ((d-1) >> 7) above. Every code from 16 up starts at a base
/// with base-1 a multiple of 128, so the coarse half is exact.
inline constexpr std::array<std::uint8_t, 512> kDistCodeLut = [] {
  std::array<std::uint8_t, 512> t{};
  for (int d = 1; d <= 256; ++d) {
    t[static_cast<std::size_t>(d - 1)] = static_cast<std::uint8_t>(scan_dist_code(d));
  }
  for (int k = 0; k < 256; ++k) {
    t[static_cast<std::size_t>(256 + k)] = static_cast<std::uint8_t>(scan_dist_code(k * 128 + 1));
  }
  return t;
}();

}  // namespace detail

/// Maps a match length (3..258) to its length code index (0..28, i.e.
/// symbol 257+index).
[[nodiscard]] constexpr int length_to_code(int len) noexcept {
  return detail::kLengthCodeLut[static_cast<std::size_t>(len - kMinMatch)];
}

/// Maps a match distance (1..32768) to its distance code index (0..29).
[[nodiscard]] constexpr int dist_to_code(int dist) noexcept {
  const auto d = static_cast<std::size_t>(dist - 1);
  return detail::kDistCodeLut[d < 256 ? d : 256 + (d >> 7)];
}

/// Fixed Huffman literal/length code lengths (RFC 1951 3.2.6).
[[nodiscard]] constexpr std::array<std::uint8_t, kNumLitLen> fixed_litlen_lengths() noexcept {
  std::array<std::uint8_t, kNumLitLen> l{};
  for (int i = 0; i <= 143; ++i) l[static_cast<std::size_t>(i)] = 8;
  for (int i = 144; i <= 255; ++i) l[static_cast<std::size_t>(i)] = 9;
  for (int i = 256; i <= 279; ++i) l[static_cast<std::size_t>(i)] = 7;
  for (int i = 280; i <= 287; ++i) l[static_cast<std::size_t>(i)] = 8;
  return l;
}

/// Fixed Huffman distance code lengths: all 5 bits (32 codes, 30 used).
[[nodiscard]] constexpr std::array<std::uint8_t, 32> fixed_dist_lengths() noexcept {
  std::array<std::uint8_t, 32> l{};
  for (auto& v : l) v = 5;
  return l;
}

}  // namespace wck::deflate_tables
