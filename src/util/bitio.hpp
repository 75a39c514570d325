// LSB-first bit-level I/O, as required by the DEFLATE bitstream format
// (RFC 1951: data elements are packed starting with the least-significant
// bit of each byte).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace wck {

/// Writes bits LSB-first into a growing byte buffer. Bits collect in a
/// 64-bit accumulator that is appended to the buffer a whole word at a
/// time: up to 63 written bits are pending until align_to_byte() or
/// write_aligned() flushes them.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>& out) : out_(out) {}

  /// Appends the low `count` bits of `bits` (0 <= count <= 32),
  /// least-significant bit first. `count == 0` writes nothing; counts
  /// outside [0, 32] violate the precondition and throw — `bits & mask`
  /// with a negative or oversized shift would otherwise be undefined.
  void put(std::uint32_t bits, int count) {
    check_count(count);
    if (count == 0) return;
    put_bits(bits & mask(count), count);
  }

  /// put() without the range check, for encoder loops whose widths come
  /// from code tables. Preconditions: 0 <= count <= 32, bits < 2^count.
  void put_bits(std::uint32_t bits, int count) {
    acc_ |= static_cast<std::uint64_t>(bits) << nbits_;
    nbits_ += count;
    if (nbits_ >= 64) {
      append_word(acc_);
      nbits_ -= 64;
      // The bits that did not fit above bit 63; the shift is 1..32.
      acc_ = static_cast<std::uint64_t>(bits) >> (count - nbits_);
    }
  }

  /// Appends a Huffman code: DEFLATE stores Huffman codes MSB-first, so
  /// the code bits must be reversed before LSB-first packing.
  void put_huffman(std::uint32_t code, int length) { put(reverse(code, length), length); }

  /// Pads with zero bits to the next byte boundary and flushes every
  /// pending byte into the buffer.
  void align_to_byte() {
    nbits_ = (nbits_ + 7) & ~7;
    for (; nbits_ > 0; nbits_ -= 8) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFFu));
      acc_ >>= 8;
    }
    acc_ = 0;
  }

  /// Appends raw bytes; the stream must be byte-aligned. The write-side
  /// mirror of BitReader::read_aligned (DEFLATE stored blocks).
  void write_aligned(std::span<const std::byte> bytes) {
    if (nbits_ % 8 != 0) throw InvalidArgumentError("write_aligned while not byte-aligned");
    align_to_byte();
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  /// Number of bits written so far (including pending ones).
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return out_.size() * 8 + static_cast<std::size_t>(nbits_);
  }

  /// Reverses the low `length` bits of `v`.
  [[nodiscard]] static std::uint32_t reverse(std::uint32_t v, int length) noexcept {
    std::uint32_t r = 0;
    for (int i = 0; i < length; ++i) {
      r = (r << 1) | ((v >> i) & 1u);
    }
    return r;
  }

 private:
  static void check_count(int count) {
    if (count < 0 || count > 32) {
      throw InvalidArgumentError("BitWriter: bit count " + std::to_string(count) +
                                 " outside [0, 32]");
    }
  }

  /// Precondition: 1 <= count <= 32 (0 is handled before masking).
  [[nodiscard]] static std::uint32_t mask(int count) noexcept {
    return count >= 32 ? 0xFFFFFFFFu : ((1u << count) - 1u);
  }

  void append_word(std::uint64_t word) {
    std::byte bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::byte>((word >> (8 * i)) & 0xFFu);
    out_.insert(out_.end(), bytes, bytes + 8);
  }

  std::vector<std::byte>& out_;
  std::uint64_t acc_ = 0;  ///< pending bits; bits at and above nbits_ are zero
  int nbits_ = 0;          ///< 0..63
};

/// Reads bits LSB-first from a byte span. Throws FormatError past the end.
///
/// The bit buffer refills with one 64-bit load while at least 8 input
/// bytes remain and byte by byte over the tail, so no read ever touches
/// memory outside the span.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  /// Reads `count` bits (0 <= count <= 32), LSB-first.
  [[nodiscard]] std::uint32_t get(int count) {
    check_count(count);
    return get_bits(count);
  }

  /// Peeks up to `count` bits without consuming; if fewer remain, the
  /// missing high bits are zero. Used by table-driven Huffman decode.
  [[nodiscard]] std::uint32_t peek(int count) {
    check_count(count);
    return peek_bits(count);
  }

  /// Consumes `count` bits previously peeked. Throws if not available.
  void consume(int count) {
    check_count(count);
    drop_bits(count);
  }

  // get/peek/consume without the range check, for decoder loops whose
  // widths come from code tables. Precondition: 0 <= count <= 32.

  [[nodiscard]] std::uint32_t get_bits(int count) {
    const std::uint32_t v = peek_bits(count);
    drop_bits(count);
    return v;
  }

  [[nodiscard]] std::uint32_t peek_bits(int count) noexcept {
    if (nbits_ < count) refill();
    return static_cast<std::uint32_t>(acc_ & mask(count));
  }

  void drop_bits(int count) {
    if (nbits_ < count) throw FormatError("bit stream truncated");
    acc_ >>= count;
    nbits_ -= count;
  }

  /// Number of whole bits still available.
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return static_cast<std::size_t>(nbits_) + 8 * (data_.size() - pos_);
  }

  /// Discards buffered bits to realign on the next byte boundary.
  void align_to_byte() noexcept {
    const int drop = nbits_ % 8;
    acc_ >>= drop;
    nbits_ -= drop;
  }

  /// Copies `size` raw bytes (must be byte-aligned).
  void read_aligned(std::byte* out, std::size_t size) {
    if (nbits_ % 8 != 0) throw FormatError("read_aligned while not byte-aligned");
    while (nbits_ > 0 && size > 0) {
      *out++ = static_cast<std::byte>(acc_ & 0xFFu);
      acc_ >>= 8;
      nbits_ -= 8;
      --size;
    }
    if (size > data_.size() - pos_) throw FormatError("bit stream truncated (raw block)");
    if (size > 0) std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }

  /// Byte offset of the next unread byte (after align_to_byte()).
  [[nodiscard]] std::size_t byte_position() const noexcept {
    return pos_ - static_cast<std::size_t>(nbits_ / 8);
  }

 private:
  static void check_count(int count) {
    if (count < 0 || count > 32) {
      throw InvalidArgumentError("BitReader: bit count " + std::to_string(count) +
                                 " outside [0, 32]");
    }
  }

  /// Tops the buffer up to at least 56 bits, or to every remaining bit.
  void refill() noexcept {
    if (data_.size() >= 8 && pos_ <= data_.size() - 8) {
      std::uint64_t word;
      std::memcpy(&word, data_.data() + pos_, 8);
      if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
      acc_ |= word << nbits_;
      const int whole = (63 - nbits_) >> 3;  // bytes that fit entirely
      pos_ += static_cast<std::size_t>(whole);
      nbits_ += 8 * whole;
      acc_ &= mask(nbits_);  // drop the partial byte; it is reloaded next time
      return;
    }
    while (nbits_ < 56 && pos_ < data_.size()) {
      acc_ |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << nbits_;
      nbits_ += 8;
    }
  }

  [[nodiscard]] static std::uint64_t mask(int count) noexcept {
    return count >= 64 ? ~0ull : ((1ull << count) - 1ull);
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;  ///< buffered bits; bits at and above nbits_ are zero
  int nbits_ = 0;          ///< 0..63
};

}  // namespace wck
