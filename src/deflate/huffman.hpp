// Canonical Huffman coding: length-limited code construction
// (package-merge), canonical code assignment (RFC 1951 rules), and a
// table-accelerated decoder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitio.hpp"

namespace wck {

/// Computes optimal length-limited Huffman code lengths for the given
/// symbol frequencies using the package-merge algorithm.
///
/// Symbols with zero frequency get length 0 (absent). If exactly one
/// symbol has nonzero frequency it gets length 1. Throws
/// InvalidArgumentError if the alphabet cannot fit in `max_length` bits.
[[nodiscard]] std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                                           int max_length);

/// Canonical Huffman codes derived from code lengths, following the
/// RFC 1951 assignment (shorter codes first; ties broken by symbol order).
struct CanonicalCode {
  std::vector<std::uint16_t> codes;     ///< MSB-first code bits per symbol.
  std::vector<std::uint16_t> reversed;  ///< `codes` bit-reversed: stream order.
  std::vector<std::uint8_t> lengths;    ///< 0 = symbol absent.

  [[nodiscard]] static CanonicalCode from_lengths(std::span<const std::uint8_t> lengths);

  /// Writes the code for `symbol` (must be present) to the bit stream.
  void emit(BitWriter& bw, int symbol) const {
    const auto s = static_cast<std::size_t>(symbol);
    bw.put_bits(reversed[s], lengths[s]);
  }
};

/// Decodes canonical Huffman codes from an LSB-first DEFLATE bit stream.
///
/// Uses a single-level lookup table for codes up to kFastBits and a
/// canonical walk over the peeked bits for longer codes.
class HuffmanDecoder {
 public:
  static constexpr int kFastBits = 11;

  /// Builds a decoder from per-symbol code lengths.
  ///
  /// `allow_incomplete` permits under-full codes with at most one symbol
  /// (DEFLATE allows a degenerate distance code); otherwise a code that
  /// does not exactly fill the Kraft budget is rejected as FormatError.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths, bool allow_incomplete = false);

  /// Reads one symbol from the stream. Throws FormatError on an invalid
  /// code or truncated stream.
  [[nodiscard]] int decode(BitReader& br) const {
    const FastEntry fe = fast_[br.peek_bits(kFastBits)];
    if (fe.symbol >= 0) {
      br.drop_bits(fe.length);
      return fe.symbol;
    }
    return decode_slow(br);
  }

  [[nodiscard]] int max_length() const noexcept { return max_len_; }

 private:
  struct FastEntry {
    std::int16_t symbol = -1;  ///< -1: not decodable via fast table.
    std::uint8_t length = 0;
  };

  [[nodiscard]] int decode_slow(BitReader& br) const;

  std::vector<FastEntry> fast_;           ///< 2^kFastBits entries, even for an empty code.
  std::vector<std::uint16_t> sym_by_code_;  ///< symbols sorted by (len, symbol).
  std::uint32_t first_code_[16] = {};     ///< first canonical code of each length.
  std::uint32_t first_index_[16] = {};    ///< index into sym_by_code_ per length.
  std::uint32_t count_[16] = {};          ///< number of codes of each length.
  int max_len_ = 0;
};

}  // namespace wck
