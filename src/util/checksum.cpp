#include "util/checksum.hpp"

#include <array>

#include "simd/dispatch.hpp"

namespace wck {
namespace {

/// Slice-by-8 lookup tables for the reflected polynomial 0xEDB88320:
/// t[0] is the classic byte table, t[s][i] advances t[s-1][i] by one
/// more zero byte. Built at compile time, so no static-initialization
/// order can observe them empty.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  constexpr CrcTables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (std::size_t s = 1; s < t.size(); ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr CrcTables kCrcTables;

std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32::update(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& tb = kCrcTables.t;
  std::uint32_t c = state_;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = tb[7][lo & 0xFFu] ^ tb[6][(lo >> 8) & 0xFFu] ^ tb[5][(lo >> 16) & 0xFFu] ^
        tb[4][lo >> 24] ^ tb[3][hi & 0xFFu] ^ tb[2][(hi >> 8) & 0xFFu] ^
        tb[1][(hi >> 16) & 0xFFu] ^ tb[0][hi >> 24];
  }
  for (; size > 0; --size) c = tb[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

void Crc32::update(std::span<const std::byte> data) noexcept {
  update(data.data(), data.size());
}

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  Crc32 c;
  c.update(data, size);
  return c.value();
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32(data.data(), data.size());
}

void Adler32::update(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  simd::kernels().adler32_update(&a_, &b_, p, size);
}

void Adler32::update(std::span<const std::byte> data) noexcept {
  update(data.data(), data.size());
}

std::uint32_t adler32(const void* data, std::size_t size) noexcept {
  Adler32 a;
  a.update(data, size);
  return a.value();
}

std::uint32_t adler32(std::span<const std::byte> data) noexcept {
  return adler32(data.data(), data.size());
}

}  // namespace wck
