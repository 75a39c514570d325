// Haar wavelet transformation (paper Sec. III-A).
//
// The 1D transform splits an array A into a low-frequency band
// L[i] = (A[2i] + A[2i+1]) / 2 and a high-frequency band
// H[i] = (A[2i] - A[2i+1]) / 2 (paper Eq. 2, 3), stored [L | H]. Odd-
// length lines keep their unpaired last element in L. Multi-dimensional
// arrays are transformed separably along every axis (Fig. 3), producing
// one low corner block (LL.., the averages) and 2^rank - 1 high bands.
// Multi-level transforms recurse into the low corner block.
//
// The transform is the identity's inverse up to floating-point rounding:
// A[2i] = L[i] + H[i], A[2i+1] = L[i] - H[i]. Exactly invertible when
// (A[2i] + A[2i+1]) / 2 is representable (e.g. both values share an
// exponent neighbourhood), which tests exploit with dyadic data.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "ndarray/shape.hpp"

namespace wck {

/// Band geometry of a `levels`-deep Haar transform of `shape`.
class WaveletPlan {
 public:
  /// Throws InvalidArgumentError unless levels >= 1.
  static WaveletPlan create(const Shape& shape, int levels);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] int levels() const noexcept { return levels_; }

  /// Extents of the low corner block after `level + 1` transform levels
  /// (level in [0, levels)).
  [[nodiscard]] const Shape& low_extents(int level) const { return lows_.at(level); }

  /// Extents of the final low corner block.
  [[nodiscard]] const Shape& final_low_extents() const { return lows_.back(); }

  /// Number of elements in the final low corner (kept as raw doubles).
  [[nodiscard]] std::size_t low_count() const noexcept { return lows_.back().size(); }

  /// Number of high-frequency-band elements (quantization candidates).
  [[nodiscard]] std::size_t high_count() const noexcept {
    return shape_.size() - low_count();
  }

 private:
  Shape shape_;
  int levels_ = 0;
  std::vector<Shape> lows_;
};

/// In-place forward Haar transform of `a`, `levels` deep. Each level
/// makes one pass per axis over whole rows: viewing a dense block as
/// [outer][n][inner], the row pair (2i, 2i+1) of `inner` values becomes
/// row i of L and row ceil(n/2) + i of H. A strided view (a sub-block,
/// or the low corner from level 2 on) is transformed on a dense copy.
/// Every value gets the same two IEEE operations in the same axis order
/// as a line-at-a-time transform, so the result is bit-identical to it.
void haar_forward(NdSpan<double> a, int levels = 1);

/// In-place inverse Haar transform (exactly undoes haar_forward's band
/// layout; values recover up to FP rounding).
void haar_inverse(NdSpan<double> a, int levels = 1);

namespace detail {

/// Walks a row-major array of `shape` against the low corner `low`
/// from axis `ax` on, at flat offset `off` (every earlier index lies
/// inside the corner). Each row of the corner along the last axis goes
/// to lo(offset, count); the rest of each axis's range is one dense
/// piece that goes to hi(offset, count). Pieces come in row-major order.
template <typename Lo, typename Hi>
void band_pieces(const Shape& shape, const Shape& low,
                 const std::array<std::size_t, kMaxRank>& stride, std::size_t ax,
                 std::size_t off, Lo& lo, Hi& hi) {
  const std::size_t in_low = std::min(low[ax], shape[ax]);
  if (ax + 1 == shape.rank()) {
    lo(off, in_low);
  } else {
    for (std::size_t i = 0; i < in_low; ++i) {
      band_pieces(shape, low, stride, ax + 1, off + i * stride[ax], lo, hi);
    }
  }
  hi(off + in_low * stride[ax], (shape[ax] - in_low) * stride[ax]);
}

/// Joins adjacent pieces into maximal runs before passing them on.
template <typename Fn>
class RunJoiner {
 public:
  explicit RunJoiner(Fn& fn) : fn_(fn) {}
  void operator()(std::size_t off, std::size_t count) {
    if (count == 0) return;
    if (count_ != 0 && off_ + count_ == off) {
      count_ += count;
      return;
    }
    flush();
    off_ = off;
    count_ = count;
  }
  void flush() {
    if (count_ != 0) fn_(off_, count_);
    count_ = 0;
  }

 private:
  Fn& fn_;
  std::size_t off_ = 0;
  std::size_t count_ = 0;
};

/// Element `flat` (a row-major index of the view's shape) of `a`.
template <typename T>
[[nodiscard]] T& element(const NdSpan<T>& a, bool contiguous, std::size_t flat) noexcept {
  if (contiguous) return a.data()[flat];
  std::size_t off = 0;
  for (std::size_t ax = a.rank(); ax-- > 0;) {
    off += (flat % a.shape()[ax]) * a.stride(ax);
    flat /= a.shape()[ax];
  }
  return a.data()[off];
}

}  // namespace detail

/// Yields the high-frequency bands (all positions outside the final low
/// corner `low`) of a row-major array of `shape` as maximal runs of
/// consecutive flat offsets: fn(offset, count), in row-major order. This
/// order is part of the serialization contract: compression gathers the
/// coefficients along it and decompression scatters them back.
template <typename Fn>
void for_each_high_run(const Shape& shape, const Shape& low, Fn&& fn) {
  if (shape.size() == 0) return;
  const auto stride = shape.row_major_strides();
  detail::RunJoiner<Fn> runs(fn);
  const auto skip = [](std::size_t, std::size_t) {};
  detail::band_pieces(shape, low, stride, 0, 0, skip, runs);
  runs.flush();
}

/// Yields the final low corner of a row-major array of `shape` as
/// maximal runs, fn(offset, count), in row-major order.
template <typename Fn>
void for_each_low_run(const Shape& shape, const Shape& low, Fn&& fn) {
  if (shape.size() == 0) return;
  const auto stride = shape.row_major_strides();
  detail::RunJoiner<Fn> runs(fn);
  const auto skip = [](std::size_t, std::size_t) {};
  detail::band_pieces(shape, low, stride, 0, 0, runs, skip);
  runs.flush();
}

/// Visits every element of the high-frequency bands (all positions
/// outside the final low corner) in row-major order of the full array,
/// along for_each_high_run.
template <typename T, typename Fn>
void for_each_high_band(NdSpan<T> a, const Shape& low_corner, Fn&& fn) {
  const bool contiguous = a.is_contiguous();
  for_each_high_run(a.shape(), low_corner, [&](std::size_t off, std::size_t count) {
    for (std::size_t i = off; i < off + count; ++i) fn(detail::element(a, contiguous, i));
  });
}

/// Canonical display name of a high band: "l<level>.<axis letters>",
/// e.g. "l1.HL" (level 1, high along axis 0, low along axis 1). Bit ax
/// of `axis_mask` set means the element lies in the high half of axis
/// ax at that level.
[[nodiscard]] std::string band_name(int level, unsigned axis_mask, std::size_t rank);

/// Enumerates the band identity of every high-band element in the SAME
/// row-major order as for_each_high_band, so the two walks can be
/// zipped: fn(ordinal, level, axis_mask) with ordinal counting high
/// elements from 0, level 1-based (level 1 = first transform), and
/// axis_mask as in band_name(). Pure geometry — no array needed, only
/// the plan. A rank-r transform has up to 2^r - 1 high bands per level
/// (bands vanish on axes already reduced to extent 1).
template <typename Fn>
void for_each_high_band_id(const WaveletPlan& plan, Fn&& fn) {
  const Shape& shape = plan.shape();
  const std::size_t r = shape.rank();
  if (shape.size() == 0) return;
  std::array<std::size_t, kMaxRank> idx{};
  std::size_t ordinal = 0;
  for (;;) {
    // Count how many nested low corners contain idx; the first one that
    // does not determines the element's level and its axis mask.
    int inside = 0;
    while (inside < plan.levels()) {
      const Shape& low = plan.low_extents(inside);
      bool in = true;
      for (std::size_t ax = 0; ax < r; ++ax) {
        if (idx[ax] >= low[ax]) {
          in = false;
          break;
        }
      }
      if (!in) break;
      ++inside;
    }
    if (inside < plan.levels()) {
      const Shape& low = plan.low_extents(inside);
      unsigned mask = 0;
      for (std::size_t ax = 0; ax < r; ++ax) {
        if (idx[ax] >= low[ax]) mask |= 1u << ax;
      }
      fn(ordinal++, inside + 1, mask);
    }
    bool done = true;
    for (std::size_t ax = r; ax-- > 0;) {
      if (++idx[ax] < shape[ax]) {
        done = false;
        break;
      }
      idx[ax] = 0;
    }
    if (done) return;
  }
}

/// Visits every element of the final low corner in row-major order,
/// along for_each_low_run.
template <typename T, typename Fn>
void for_each_low_band(NdSpan<T> a, const Shape& low_corner, Fn&& fn) {
  const bool contiguous = a.is_contiguous();
  for_each_low_run(a.shape(), low_corner, [&](std::size_t off, std::size_t count) {
    for (std::size_t i = off; i < off + count; ++i) fn(detail::element(a, contiguous, i));
  });
}

}  // namespace wck
