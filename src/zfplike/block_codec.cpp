#include "zfplike/block_codec.hpp"

#include <array>
#include <cmath>
#include <cstdint>

#include "deflate/deflate.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x465A4B57;  // "WKZF" little-endian
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kBlockSide = 4;

void check_options(const ZfpLikeOptions& o) {
  if (o.precision < 8 || o.precision > 30) {
    throw InvalidArgumentError("zfplike precision must be in 8..30");
  }
}

/// zfp's forward 4-point integer lifting transform (shift-add
/// approximation of an orthogonal transform).
void fwd_lift(std::int64_t& x, std::int64_t& y, std::int64_t& z, std::int64_t& w) noexcept {
  x += w;
  x >>= 1;
  w -= x;
  z += y;
  z >>= 1;
  y -= z;
  x += z;
  x >>= 1;
  z -= x;
  w += y;
  w >>= 1;
  y -= w;
  w += y >> 1;
  y -= w >> 1;
}

/// Approximate inverse of fwd_lift (exact up to the bits the forward
/// shifts discard).
void inv_lift(std::int64_t& x, std::int64_t& y, std::int64_t& z, std::int64_t& w) noexcept {
  y += w >> 1;
  w -= y >> 1;
  y += w;
  w <<= 1;
  w -= y;
  z += x;
  x <<= 1;
  x -= z;
  y += z;
  z <<= 1;
  z -= y;
  w += x;
  x <<= 1;
  x -= w;
}

/// Applies the 4-point lift along every axis line of a 4^rank block.
template <typename LiftFn>
void transform_block(std::span<std::int64_t> block, std::size_t rank, LiftFn&& lift) {
  const std::size_t n = block.size();
  // Strides of the 4^rank cube: axis a has stride 4^(rank-1-a).
  for (std::size_t a = 0; a < rank; ++a) {
    std::size_t stride = 1;
    for (std::size_t b = a + 1; b < rank; ++b) stride *= kBlockSide;
    const std::size_t line_span = stride * kBlockSide;
    for (std::size_t base = 0; base < n; base += line_span) {
      for (std::size_t off = 0; off < stride; ++off) {
        const std::size_t i = base + off;
        lift(block[i], block[i + stride], block[i + 2 * stride], block[i + 3 * stride]);
      }
    }
  }
}

std::size_t blocks_along(std::size_t extent) {
  return (extent + kBlockSide - 1) / kBlockSide;
}

}  // namespace

Bytes zfplike_compress(const NdArray<double>& array, const ZfpLikeOptions& options) {
  check_options(options);
  if (array.size() == 0) throw InvalidArgumentError("zfplike: empty array");

  const std::size_t r = array.rank();
  std::size_t block_count = 1;
  std::array<std::size_t, kMaxRank> nblocks{};
  std::size_t block_elems = 1;
  for (std::size_t a = 0; a < r; ++a) {
    nblocks[a] = blocks_along(array.extent(a));
    block_count *= nblocks[a];
    block_elems *= kBlockSide;
  }

  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(r));
  for (std::size_t a = 0; a < r; ++a) w.varint(array.extent(a));
  w.u8(static_cast<std::uint8_t>(options.precision));

  std::vector<double> vals(block_elems);
  std::vector<std::int64_t> q(block_elems);
  std::array<std::size_t, kMaxRank> bidx{};
  const auto view = array.cview();

  for (std::size_t b = 0; b < block_count; ++b) {
    // Gather the block with replicate padding at the edges.
    std::array<std::size_t, kMaxRank> idx{};
    for (std::size_t e = 0; e < block_elems; ++e) {
      std::size_t rem = e;
      std::array<std::size_t, kMaxRank> gi{};
      for (std::size_t a = r; a-- > 0;) {
        gi[a] = bidx[a] * kBlockSide + rem % kBlockSide;
        rem /= kBlockSide;
        if (gi[a] >= array.extent(a)) gi[a] = array.extent(a) - 1;
      }
      vals[e] = view.at(std::span(gi.data(), r));
    }
    (void)idx;

    // Block-floating-point: common exponent of the max magnitude.
    double amax = 0.0;
    for (const double v : vals) amax = std::max(amax, std::abs(v));
    if (amax == 0.0 || !std::isfinite(amax)) {
      // All-zero (or non-finite: store raw) block.
      if (amax == 0.0) {
        w.u8(0);  // kind: zero block
      } else {
        w.u8(2);  // kind: raw block
        w.f64_array(vals);
      }
    } else {
      int e = 0;
      (void)std::frexp(amax, &e);  // amax = m * 2^e, m in [0.5, 1)
      const double scale = std::ldexp(1.0, options.precision - e);
      for (std::size_t i = 0; i < block_elems; ++i) {
        q[i] = static_cast<std::int64_t>(std::nearbyint(vals[i] * scale));
      }
      transform_block(std::span(q), r, fwd_lift);
      w.u8(1);  // kind: coded block
      w.u16(static_cast<std::uint16_t>(e + 1024));
      for (const std::int64_t c : q) {
        // Zigzag varint: small coefficients cost one byte.
        const auto zz = static_cast<std::uint64_t>((c << 1) ^ (c >> 63));
        w.varint(zz);
      }
    }

    for (std::size_t a = r; a-- > 0;) {
      if (++bidx[a] < nblocks[a]) break;
      bidx[a] = 0;
    }
  }
  return zlib_compress(w.buffer(), DeflateOptions{options.deflate_level});
}

NdArray<double> zfplike_decompress(std::span<const std::byte> data) {
  const Bytes raw = zlib_decompress(data);
  ByteReader rd(raw);
  if (rd.u32() != kMagic) throw FormatError("zfplike: bad magic");
  if (rd.u8() != kVersion) throw FormatError("zfplike: unsupported version");
  const Shape shape = read_shape(rd, "zfplike");
  const std::size_t r = shape.rank();
  const int precision = rd.u8();
  check_options(ZfpLikeOptions{precision, 6});

  std::size_t block_count = 1;
  std::array<std::size_t, kMaxRank> nblocks{};
  std::size_t block_elems = 1;
  for (std::size_t a = 0; a < r; ++a) {
    nblocks[a] = blocks_along(shape[a]);
    block_count *= nblocks[a];
    block_elems *= kBlockSide;
  }
  // Every block costs at least its kind byte: a header promising more
  // blocks than the stream has bytes is rejected before the allocation.
  if (block_count > rd.remaining()) throw FormatError("zfplike: fewer bytes than blocks");

  NdArray<double> out(shape);
  auto view = out.view();
  std::vector<double> vals(block_elems);
  std::vector<std::int64_t> q(block_elems);
  std::array<std::size_t, kMaxRank> bidx{};

  for (std::size_t b = 0; b < block_count; ++b) {
    const std::uint8_t kind = rd.u8();
    if (kind == 0) {
      std::fill(vals.begin(), vals.end(), 0.0);
    } else if (kind == 2) {
      rd.f64_array(vals);
    } else if (kind == 1) {
      const int e = static_cast<int>(rd.u16()) - 1024;
      for (std::size_t i = 0; i < block_elems; ++i) {
        const std::uint64_t zz = rd.varint();
        q[i] = static_cast<std::int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
      }
      transform_block(std::span(q), r, inv_lift);
      const double inv_scale = std::ldexp(1.0, e - precision);
      for (std::size_t i = 0; i < block_elems; ++i) {
        vals[i] = static_cast<double>(q[i]) * inv_scale;
      }
    } else {
      throw FormatError("zfplike: unknown block kind");
    }

    // Scatter owned elements (padding discarded).
    for (std::size_t e2 = 0; e2 < block_elems; ++e2) {
      std::size_t rem = e2;
      std::array<std::size_t, kMaxRank> gi{};
      bool owned = true;
      for (std::size_t a = r; a-- > 0;) {
        gi[a] = bidx[a] * kBlockSide + rem % kBlockSide;
        rem /= kBlockSide;
        if (gi[a] >= shape[a]) owned = false;
      }
      if (owned) view.at(std::span(gi.data(), r)) = vals[e2];
    }

    for (std::size_t a = r; a-- > 0;) {
      if (++bidx[a] < nblocks[a]) break;
      bidx[a] = 0;
    }
  }
  if (!rd.exhausted()) throw FormatError("zfplike: trailing bytes");
  return out;
}

}  // namespace wck
