#include "wavelet/haar.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace wck {
namespace {

/// Scratch budget of one axis pass: 32 Ki doubles (256 KiB).
constexpr std::size_t kScratchDoubles = std::size_t{1} << 15;

/// One axis of a dense row-major block, seen as [outer][n][inner]:
/// `outer` slabs of `n` rows, each row `inner` consecutive values.
struct AxisRows {
  std::size_t outer = 1;
  std::size_t n = 1;
  std::size_t inner = 1;
};

AxisRows axis_rows(const Shape& shape, std::size_t ax) {
  AxisRows v;
  for (std::size_t a = 0; a < ax; ++a) v.outer *= shape[a];
  v.n = shape[ax];
  for (std::size_t a = ax + 1; a < shape.rank(); ++a) v.inner *= shape[a];
  return v;
}

/// Columns per chunk of a slab so one chunk's H rows fit the scratch
/// budget; one column when a single column's H half is larger.
std::size_t chunk_width(const AxisRows& v) {
  return std::clamp<std::size_t>(kScratchDoubles / (v.n / 2), 1, v.inner);
}

/// Copies `rows` rows of `w` values between row strides `src_stride`
/// and `dst_stride`: one copy when both sides are dense.
void copy_rows(const double* src, std::size_t src_stride, double* dst, std::size_t dst_stride,
               std::size_t rows, std::size_t w) {
  if (src_stride == w && dst_stride == w) {
    std::copy_n(src, rows * w, dst);
    return;
  }
  for (std::size_t i = 0; i < rows; ++i) std::copy_n(src + i * src_stride, w, dst + i * dst_stride);
}

/// Forward pass along one axis of the dense block at `data`: row pair
/// (2i, 2i+1) becomes L row i, written in place (row i is already
/// consumed), and H row i, kept in `scratch` until the L rows are done
/// and then copied to row nl + i. An odd n's last row joins L. With
/// n == 2 both rows are written in place.
void forward_axis(double* data, const AxisRows& v, std::vector<double>& scratch) {
  const std::size_t n = v.n;
  const std::size_t inner = v.inner;
  if (n < 2) return;
  if (n == 2) {
    for (std::size_t o = 0; o < v.outer; ++o) {
      double* r0 = data + o * 2 * inner;
      double* r1 = r0 + inner;
      for (std::size_t k = 0; k < inner; ++k) {
        const double a = r0[k];
        const double b = r1[k];
        r0[k] = (a + b) / 2.0;  // L (Eq. 2)
        r1[k] = (a - b) / 2.0;  // H (Eq. 3)
      }
    }
    return;
  }
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;  // ceil(n/2): averages + odd leftover
  const std::size_t width = chunk_width(v);
  scratch.resize(pairs * width);
  for (std::size_t o = 0; o < v.outer; ++o) {
    double* slab = data + o * n * inner;
    for (std::size_t c0 = 0; c0 < inner; c0 += width) {
      const std::size_t w = std::min(width, inner - c0);
      double* cols = slab + c0;
      for (std::size_t i = 0; i < pairs; ++i) {
        const double* ra = cols + 2 * i * inner;
        const double* rb = ra + inner;
        double* lo = cols + i * inner;
        double* hi = scratch.data() + i * w;
        for (std::size_t k = 0; k < w; ++k) {
          const double a = ra[k];
          const double b = rb[k];
          lo[k] = (a + b) / 2.0;  // L (Eq. 2)
          hi[k] = (a - b) / 2.0;  // H (Eq. 3)
        }
      }
      if (n % 2 != 0) {
        std::copy_n(cols + (n - 1) * inner, w, cols + pairs * inner);  // unpaired row joins L
      }
      copy_rows(scratch.data(), w, cols + nl * inner, inner, pairs, w);
    }
  }
}

/// Inverse of forward_axis: the H rows go to `scratch` first, an odd
/// n's last L row moves to the end, then rows 2i and 2i+1 are rebuilt
/// from L row i and H row i from the last pair down, so no L row is
/// overwritten before it is read.
void inverse_axis(double* data, const AxisRows& v, std::vector<double>& scratch) {
  const std::size_t n = v.n;
  const std::size_t inner = v.inner;
  if (n < 2) return;
  if (n == 2) {
    for (std::size_t o = 0; o < v.outer; ++o) {
      double* r0 = data + o * 2 * inner;
      double* r1 = r0 + inner;
      for (std::size_t k = 0; k < inner; ++k) {
        const double lo = r0[k];
        const double hi = r1[k];
        r0[k] = lo + hi;
        r1[k] = lo - hi;
      }
    }
    return;
  }
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;
  const std::size_t width = chunk_width(v);
  scratch.resize(pairs * width);
  for (std::size_t o = 0; o < v.outer; ++o) {
    double* slab = data + o * n * inner;
    for (std::size_t c0 = 0; c0 < inner; c0 += width) {
      const std::size_t w = std::min(width, inner - c0);
      double* cols = slab + c0;
      copy_rows(cols + nl * inner, inner, scratch.data(), w, pairs, w);
      if (n % 2 != 0) std::copy_n(cols + pairs * inner, w, cols + (n - 1) * inner);
      for (std::size_t i = pairs; i-- > 0;) {
        const double* lo = cols + i * inner;
        const double* hi = scratch.data() + i * w;
        double* ra = cols + 2 * i * inner;
        double* rb = ra + inner;
        for (std::size_t k = 0; k < w; ++k) {
          const double l = lo[k];
          const double h = hi[k];
          ra[k] = l + h;
          rb[k] = l - h;
        }
      }
    }
  }
}

/// Runs `pass(data, shape)` on `block` itself when it is dense, else on
/// a dense copy that is written back afterwards.
template <typename Pass>
void on_dense(NdSpan<double> block, Pass&& pass) {
  if (block.is_contiguous()) {
    pass(block.data(), block.shape());
    return;
  }
  std::vector<double> copy(block.size());
  block.copy_to(copy);
  pass(copy.data(), block.shape());
  block.copy_from(copy);
}

[[nodiscard]] Shape halved(const Shape& s) {
  Shape h = s;
  for (std::size_t ax = 0; ax < s.rank(); ++ax) h[ax] = (s[ax] + 1) / 2;
  return h;
}

[[nodiscard]] NdSpan<double> low_block(NdSpan<double> a, const Shape& low) {
  std::array<std::size_t, kMaxRank> offs{};
  std::array<std::size_t, kMaxRank> exts{};
  for (std::size_t ax = 0; ax < a.rank(); ++ax) exts[ax] = low[ax];
  return a.subblock(std::span(offs.data(), a.rank()), std::span(exts.data(), a.rank()));
}

}  // namespace

WaveletPlan WaveletPlan::create(const Shape& shape, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  WaveletPlan p;
  p.shape_ = shape;
  p.levels_ = levels;
  Shape cur = shape;
  for (int l = 0; l < levels; ++l) {
    cur = halved(cur);
    p.lows_.push_back(cur);
  }
  return p;
}

void haar_forward(NdSpan<double> a, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  std::vector<double> scratch;
  NdSpan<double> block = a;
  for (int l = 0; l < levels; ++l) {
    on_dense(block, [&scratch](double* data, const Shape& shape) {
      for (std::size_t ax = 0; ax < shape.rank(); ++ax) {
        forward_axis(data, axis_rows(shape, ax), scratch);
      }
    });
    block = low_block(block, halved(block.shape()));
  }
}

std::string band_name(int level, unsigned axis_mask, std::size_t rank) {
  std::string name = "l" + std::to_string(level) + ".";
  for (std::size_t ax = 0; ax < rank; ++ax) {
    name.push_back((axis_mask & (1u << ax)) != 0 ? 'H' : 'L');
  }
  return name;
}

void haar_inverse(NdSpan<double> a, int levels) {
  if (levels < 1) throw InvalidArgumentError("wavelet levels must be >= 1");
  // Reconstruct the chain of low blocks, then unwind from the deepest.
  std::vector<NdSpan<double>> blocks;
  blocks.reserve(static_cast<std::size_t>(levels));
  NdSpan<double> block = a;
  for (int l = 0; l < levels; ++l) {
    blocks.push_back(block);
    block = low_block(block, halved(block.shape()));
  }
  std::vector<double> scratch;
  for (int l = levels; l-- > 0;) {
    on_dense(blocks[static_cast<std::size_t>(l)], [&scratch](double* data, const Shape& shape) {
      for (std::size_t ax = shape.rank(); ax-- > 0;) {
        inverse_axis(data, axis_rows(shape, ax), scratch);
      }
    });
  }
}

}  // namespace wck
