// Little-endian byte-buffer serialization primitives.
//
// ByteWriter appends fixed-width integers, floating-point values and raw
// blobs to a growable buffer; ByteReader consumes them with bounds
// checking and throws FormatError on truncation. All multi-byte values
// are little-endian regardless of host order, so checkpoint payloads are
// portable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace wck {

using Bytes = std::vector<std::byte>;

/// Appends primitives to a byte vector (little-endian).
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into an external buffer (appending); the buffer must outlive
  /// the writer.
  explicit ByteWriter(Bytes& external) : buf_(&external) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { put_le(std::bit_cast<std::uint32_t>(v)); }

  /// Unsigned LEB128 (variable-length) integer.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    varint(s.size());
    raw(s.data(), s.size());
  }

  /// Raw blob, no length prefix.
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer().insert(buffer().end(), p, p + size);
  }
  void raw(std::span<const std::byte> data) { raw(data.data(), data.size()); }

  /// Raw span of doubles (little-endian each): one memcpy on
  /// little-endian hosts, a per-value loop otherwise.
  void f64_array(std::span<const double> v) {
    if (v.empty()) return;  // an empty span may carry a null base
    if constexpr (std::endian::native == std::endian::little) {
      raw(v.data(), v.size() * sizeof(double));
    } else {
      for (const double x : v) f64(x);
    }
  }

  [[nodiscard]] Bytes& buffer() noexcept { return buf_ ? *buf_ : owned_; }
  [[nodiscard]] const Bytes& buffer() const noexcept { return buf_ ? *buf_ : owned_; }
  [[nodiscard]] std::size_t size() const noexcept { return buffer().size(); }

  /// Moves the owned buffer out. Precondition: default-constructed writer.
  [[nodiscard]] Bytes take() {
    if (buf_ != nullptr) {
      throw InvalidArgumentError("ByteWriter::take on external buffer");
    }
    return std::move(owned_);
  }

 private:
  template <typename T>
  void put_le(T v) {
    std::byte tmp[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    }
    raw(tmp, sizeof(T));
  }

  Bytes owned_;
  Bytes* buf_ = nullptr;
};

/// Consumes primitives from a byte span (little-endian) with bounds
/// checking. Throws FormatError when the stream is shorter than a read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() { return get_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(get_le<std::uint64_t>()); }
  [[nodiscard]] float f32() { return std::bit_cast<float>(get_le<std::uint32_t>()); }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = u8();
      if (shift >= 63 && (b & 0x7Fu) > 1) {
        throw FormatError("varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
      shift += 7;
      if (shift > 63) throw FormatError("varint too long");
    }
  }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = varint();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Returns a view of the next `size` bytes and advances.
  [[nodiscard]] std::span<const std::byte> raw(std::size_t size) {
    need(size);
    auto out = data_.subspan(pos_, size);
    pos_ += size;
    return out;
  }

  /// Reads out.size() little-endian doubles into `out`: one memcpy on
  /// little-endian hosts, a per-value loop otherwise.
  void f64_array(std::span<double> out) {
    const auto bytes = raw(out.size() * sizeof(double));
    if (out.empty()) return;  // a null span base is UB to pass even for n == 0
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    } else {
      ByteReader values(bytes);
      for (double& x : out) x = values.f64();
    }
  }

  /// Reads `count` little-endian doubles into a new vector. The count is
  /// checked against the bytes left before anything is allocated, so a
  /// hostile count is a FormatError, not an allocation.
  [[nodiscard]] std::vector<double> f64_vector(std::uint64_t count) {
    if (count > remaining() / sizeof(double)) {
      throw FormatError("byte stream truncated: " + std::to_string(count) +
                        " doubles declared, " + std::to_string(remaining()) + " bytes left");
    }
    std::vector<double> out(static_cast<std::size_t>(count));
    f64_array(out);
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw FormatError("byte stream truncated: need " + std::to_string(n) + " bytes, have " +
                        std::to_string(remaining()));
    }
  }

  template <typename T>
  [[nodiscard]] T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Convenience: views any trivially-copyable vector as bytes.
template <typename T>
[[nodiscard]] inline std::span<const std::byte> as_bytes_span(const std::vector<T>& v) noexcept {
  return std::as_bytes(std::span<const T>(v));
}

}  // namespace wck
