#include "wavelet/haar.hpp"

#include <array>
#include <string>

#include "util/error.hpp"

namespace wck {
namespace {

/// Forward transform of one line into [L | H] layout.
void line_forward(const Line<double>& ln, std::vector<double>& scratch) {
  const std::size_t n = ln.count;
  if (n < 2) return;
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;  // ceil(n/2): averages + odd leftover
  scratch.resize(n);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double a = ln[2 * i];
    const double b = ln[2 * i + 1];
    scratch[i] = (a + b) / 2.0;       // L (Eq. 2)
    scratch[nl + i] = (a - b) / 2.0;  // H (Eq. 3)
  }
  if (n % 2 != 0) scratch[pairs] = ln[n - 1];  // unpaired element joins L
  for (std::size_t i = 0; i < n; ++i) ln[i] = scratch[i];
}

/// Inverse of line_forward.
void line_inverse(const Line<double>& ln, std::vector<double>& scratch) {
  const std::size_t n = ln.count;
  if (n < 2) return;
  const std::size_t pairs = n / 2;
  const std::size_t nl = n - pairs;
  scratch.resize(n);
  for (std::size_t i = 0; i < pairs; ++i) {
    const double lo = ln[i];
    const double hi = ln[nl + i];
    scratch[2 * i] = lo + hi;
    scratch[2 * i + 1] = lo - hi;
  }
  if (n % 2 != 0) scratch[n - 1] = ln[pairs];
  for (std::size_t i = 0; i < n; ++i) ln[i] = scratch[i];
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
    for (std::size_t ax = 0; ax < block.rank(); ++ax) {
      block.for_each_line(ax, [&scratch](const Line<double>& ln) { line_forward(ln, scratch); });
    }
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
    NdSpan<double> b = blocks[static_cast<std::size_t>(l)];
    for (std::size_t ax = b.rank(); ax-- > 0;) {
      b.for_each_line(ax, [&scratch](const Line<double>& ln) { line_inverse(ln, scratch); });
    }
  }
}

}  // namespace wck
