// Dense multi-dimensional shapes (rank 1..4), row-major.
//
// Checkpoint targets in the paper are 1D/2D/3D floating-point mesh arrays
// (e.g. NICAM's 1156 x 82 x 2 state variables); rank 4 is supported for
// time-stacked fields.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wck {

/// Maximum supported array rank.
inline constexpr std::size_t kMaxRank = 4;

/// Extents of a dense array. Axis 0 is the slowest-varying (row-major).
class Shape {
 public:
  Shape() = default;

  Shape(std::initializer_list<std::size_t> extents) {
    if (extents.size() == 0 || extents.size() > kMaxRank) {
      throw InvalidArgumentError("Shape rank must be 1.." + std::to_string(kMaxRank));
    }
    rank_ = extents.size();
    std::size_t i = 0;
    for (const std::size_t e : extents) ext_[i++] = e;
  }

  static Shape of_rank(std::size_t rank, std::size_t fill = 0) {
    if (rank == 0 || rank > kMaxRank) {
      throw InvalidArgumentError("Shape rank must be 1.." + std::to_string(kMaxRank));
    }
    Shape s;
    s.rank_ = rank;
    for (std::size_t i = 0; i < rank; ++i) s.ext_[i] = fill;
    return s;
  }

  [[nodiscard]] std::size_t rank() const noexcept { return rank_; }

  [[nodiscard]] std::size_t operator[](std::size_t axis) const noexcept { return ext_[axis]; }
  [[nodiscard]] std::size_t& operator[](std::size_t axis) noexcept { return ext_[axis]; }

  [[nodiscard]] std::size_t extent(std::size_t axis) const {
    if (axis >= rank_) throw InvalidArgumentError("Shape axis out of range");
    return ext_[axis];
  }

  /// Total number of elements.
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= ext_[i];
    return n;
  }

  [[nodiscard]] bool operator==(const Shape& o) const noexcept {
    if (rank_ != o.rank_) return false;
    for (std::size_t i = 0; i < rank_; ++i) {
      if (ext_[i] != o.ext_[i]) return false;
    }
    return true;
  }
  [[nodiscard]] bool operator!=(const Shape& o) const noexcept { return !(*this == o); }

  /// Row-major strides in elements.
  [[nodiscard]] std::array<std::size_t, kMaxRank> row_major_strides() const noexcept {
    std::array<std::size_t, kMaxRank> s{};
    std::size_t acc = 1;
    for (std::size_t i = rank_; i-- > 0;) {
      s[i] = acc;
      acc *= ext_[i];
    }
    return s;
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < rank_; ++i) {
      if (i) s += "x";
      s += std::to_string(ext_[i]);
    }
    return s + "]";
  }

 private:
  std::size_t rank_ = 0;
  std::array<std::size_t, kMaxRank> ext_{};
};

/// Reads `rank` varint extents of an untrusted stream and checks them:
/// rank 1..kMaxRank, every extent >= 1, and an element count whose size
/// in doubles fits in size_t, so size() and size_bytes() never wrap.
/// Every decoder reads its shape through here (or read_shape); a hostile
/// header is a FormatError prefixed with `what`. Decoders whose values
/// follow inline still check them against the bytes left before they
/// allocate (ByteReader::f64_vector does).
[[nodiscard]] inline Shape read_extents(ByteReader& r, std::size_t rank, std::string_view what) {
  if (rank < 1 || rank > kMaxRank) {
    throw FormatError(std::string(what) + ": rank " + std::to_string(rank) + " outside 1.." +
                      std::to_string(kMaxRank));
  }
  constexpr std::size_t kMaxElements = std::numeric_limits<std::size_t>::max() / sizeof(double);
  Shape shape = Shape::of_rank(rank);
  std::size_t count = 1;
  for (std::size_t a = 0; a < rank; ++a) {
    const std::uint64_t ext = r.varint();
    if (ext == 0) throw FormatError(std::string(what) + ": zero extent");
    if (ext > kMaxElements / count) {
      throw FormatError(std::string(what) + ": element count overflows");
    }
    shape[a] = static_cast<std::size_t>(ext);
    count *= shape[a];
  }
  return shape;
}

/// Reads a u8 rank followed by its extents (see read_extents).
[[nodiscard]] inline Shape read_shape(ByteReader& r, std::string_view what) {
  const std::size_t rank = r.u8();
  return read_extents(r, rank, what);
}

}  // namespace wck
