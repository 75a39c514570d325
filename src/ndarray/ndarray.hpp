// Owning dense arrays and non-owning strided views.
//
// NdArray<T> owns contiguous row-major storage. NdSpan<T> is a mutable
// strided window into another array (used by the multi-level wavelet
// transform to recurse into the low-frequency corner block without
// copying). Both expose for_each_line(), which visits every 1D line
// along a chosen axis — the access pattern of separable transforms.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "ndarray/shape.hpp"
#include "util/error.hpp"

namespace wck {

/// A 1D line inside a (possibly strided) array: `count` elements starting
/// at `base`, `stride` elements apart.
template <typename T>
struct Line {
  T* base;
  std::size_t count;
  std::ptrdiff_t stride;

  [[nodiscard]] T& operator[](std::size_t i) const noexcept {
    return base[static_cast<std::ptrdiff_t>(i) * stride];
  }
};

/// Non-owning mutable strided view over rank 1..4 data.
template <typename T>
class NdSpan {
 public:
  NdSpan() = default;

  NdSpan(T* data, const Shape& shape, const std::array<std::size_t, kMaxRank>& strides) noexcept
      : data_(data), shape_(shape), strides_(strides) {}

  /// Contiguous row-major view.
  NdSpan(T* data, const Shape& shape) noexcept
      : data_(data), shape_(shape), strides_(shape.row_major_strides()) {}

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.rank(); }
  [[nodiscard]] std::size_t extent(std::size_t axis) const { return shape_.extent(axis); }
  [[nodiscard]] std::size_t size() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t stride(std::size_t axis) const noexcept { return strides_[axis]; }
  [[nodiscard]] T* data() const noexcept { return data_; }

  /// True when the view is dense row-major storage of its shape, so
  /// element `flat` is data()[flat]. Strides of extent-1 axes never
  /// matter and are ignored.
  [[nodiscard]] bool is_contiguous() const noexcept {
    const auto dense = shape_.row_major_strides();
    for (std::size_t a = 0; a < rank(); ++a) {
      if (shape_[a] > 1 && strides_[a] != dense[a]) return false;
    }
    return true;
  }

  [[nodiscard]] T& operator()(std::size_t i) const noexcept { return data_[i * strides_[0]]; }
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * strides_[0] + j * strides_[1]];
  }
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j, std::size_t k) const noexcept {
    return data_[i * strides_[0] + j * strides_[1] + k * strides_[2]];
  }
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j, std::size_t k,
                              std::size_t l) const noexcept {
    return data_[i * strides_[0] + j * strides_[1] + k * strides_[2] + l * strides_[3]];
  }

  /// Element access by multi-index array (rank-generic).
  [[nodiscard]] T& at(std::span<const std::size_t> idx) const {
    if (idx.size() != rank()) throw InvalidArgumentError("NdSpan::at rank mismatch");
    std::size_t off = 0;
    for (std::size_t a = 0; a < rank(); ++a) {
      if (idx[a] >= shape_[a]) throw InvalidArgumentError("NdSpan::at index out of range");
      off += idx[a] * strides_[a];
    }
    return data_[off];
  }

  /// Sub-block view: `offsets[a] .. offsets[a]+extents[a]` along each axis.
  [[nodiscard]] NdSpan subblock(std::span<const std::size_t> offsets,
                                std::span<const std::size_t> extents) const {
    if (offsets.size() != rank() || extents.size() != rank()) {
      throw InvalidArgumentError("NdSpan::subblock rank mismatch");
    }
    std::size_t off = 0;
    Shape sub = Shape::of_rank(rank());
    for (std::size_t a = 0; a < rank(); ++a) {
      if (offsets[a] + extents[a] > shape_[a]) {
        throw InvalidArgumentError("NdSpan::subblock out of range");
      }
      off += offsets[a] * strides_[a];
      sub[a] = extents[a];
    }
    return NdSpan(data_ + off, sub, strides_);
  }

  /// Visits every 1D line along `axis`. `fn` receives a Line<T>.
  template <typename Fn>
  void for_each_line(std::size_t axis, Fn&& fn) const {
    if (axis >= rank()) throw InvalidArgumentError("for_each_line axis out of range");
    if (size() == 0) return;
    // Odometer over the outer product of all axes except `axis`.
    std::array<std::size_t, kMaxRank> other{};
    std::size_t n_other = 0;
    for (std::size_t a = 0; a < rank(); ++a) {
      if (a != axis) other[n_other++] = a;
    }
    std::array<std::size_t, kMaxRank> idx{};
    for (;;) {
      std::size_t off = 0;
      for (std::size_t t = 0; t < n_other; ++t) off += idx[t] * strides_[other[t]];
      fn(Line<T>{data_ + off, shape_[axis], static_cast<std::ptrdiff_t>(strides_[axis])});
      bool done = true;
      for (std::size_t t = n_other; t-- > 0;) {
        if (++idx[t] < shape_[other[t]]) {
          done = false;
          break;
        }
        idx[t] = 0;
      }
      if (done) return;
    }
  }

  /// Copies this (possibly strided) view into a contiguous buffer.
  void copy_to(std::span<T> out) const {
    if (out.size() != size()) throw InvalidArgumentError("copy_to size mismatch");
    std::size_t pos = 0;
    visit_row_major([&](T& v) { out[pos++] = v; });
  }

  /// Fills this view from a contiguous row-major buffer.
  void copy_from(std::span<const T> in) const {
    if (in.size() != size()) throw InvalidArgumentError("copy_from size mismatch");
    std::size_t pos = 0;
    visit_row_major([&](T& v) { v = in[pos++]; });
  }

  /// Visits elements in row-major order.
  template <typename Fn>
  void visit_row_major(Fn&& fn) const {
    std::array<std::size_t, kMaxRank> idx{};
    const std::size_t r = rank();
    if (size() == 0) return;
    for (;;) {
      std::size_t off = 0;
      for (std::size_t a = 0; a < r; ++a) off += idx[a] * strides_[a];
      fn(data_[off]);
      std::size_t a = r;
      bool done = true;
      while (a-- > 0) {
        if (++idx[a] < shape_[a]) {
          done = false;
          break;
        }
        idx[a] = 0;
      }
      if (done) return;
    }
  }

 private:
  T* data_ = nullptr;
  Shape shape_;
  std::array<std::size_t, kMaxRank> strides_{};
};

/// Owning contiguous row-major dense array.
template <typename T>
class NdArray {
 public:
  NdArray() = default;

  explicit NdArray(const Shape& shape, T fill = T{}) : shape_(shape), data_(shape.size(), fill) {}

  NdArray(const Shape& shape, std::vector<T> data) : shape_(shape), data_(std::move(data)) {
    if (data_.size() != shape_.size()) {
      throw InvalidArgumentError("NdArray data size does not match shape " + shape_.to_string());
    }
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.rank(); }
  [[nodiscard]] std::size_t extent(std::size_t axis) const { return shape_.extent(axis); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return data_.size() * sizeof(T); }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> values() noexcept { return data_; }
  [[nodiscard]] std::span<const T> values() const noexcept { return data_; }

  [[nodiscard]] T& operator[](std::size_t flat) noexcept { return data_[flat]; }
  [[nodiscard]] const T& operator[](std::size_t flat) const noexcept { return data_[flat]; }

  [[nodiscard]] T& operator()(std::size_t i) noexcept { return view()(i); }
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) noexcept { return view()(i, j); }
  [[nodiscard]] T& operator()(std::size_t i, std::size_t j, std::size_t k) noexcept {
    return view()(i, j, k);
  }
  [[nodiscard]] const T& operator()(std::size_t i) const noexcept { return cview()(i); }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const noexcept {
    return cview()(i, j);
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j, std::size_t k) const noexcept {
    return cview()(i, j, k);
  }

  [[nodiscard]] NdSpan<T> view() noexcept { return NdSpan<T>(data_.data(), shape_); }
  [[nodiscard]] NdSpan<const T> cview() const noexcept {
    return NdSpan<const T>(data_.data(), shape_);
  }

  [[nodiscard]] bool operator==(const NdArray& o) const noexcept {
    return shape_ == o.shape_ && data_ == o.data_;
  }

 private:
  Shape shape_;
  std::vector<T> data_;
};

}  // namespace wck
