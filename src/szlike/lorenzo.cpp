#include "szlike/lorenzo.hpp"

#include <array>
#include <bit>
#include <cmath>

#include "deflate/deflate.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr std::uint32_t kMagic = 0x5A4C4B57;  // "WKLZ" little-endian
constexpr std::uint8_t kVersion = 1;
constexpr int kEscape = 255;  // code byte marking an exactly-stored value
constexpr int kCodeOffset = 127;  // stored byte = code + offset, codes in [-127, 127]

/// Lorenzo prediction at `idx` from the reconstructed field: the
/// inclusion-exclusion sum over the 2^rank - 1 corner neighbours of the
/// unit hypercube behind idx; out-of-range neighbours count as 0.
double lorenzo_predict(const NdArray<double>& recon, std::span<const std::size_t> idx) {
  const std::size_t r = recon.rank();
  double pred = 0.0;
  std::array<std::size_t, kMaxRank> nb{};
  // Enumerate nonempty subsets of axes to step back along.
  for (std::uint32_t mask = 1; mask < (1u << r); ++mask) {
    bool in_range = true;
    for (std::size_t a = 0; a < r; ++a) {
      if (mask & (1u << a)) {
        if (idx[a] == 0) {
          in_range = false;
          break;
        }
        nb[a] = idx[a] - 1;
      } else {
        nb[a] = idx[a];
      }
    }
    if (!in_range) continue;  // neighbour outside: contributes 0
    const double sign = (std::popcount(mask) % 2 == 1) ? 1.0 : -1.0;
    pred += sign * recon.cview().at(std::span(nb.data(), r));
  }
  return pred;
}

}  // namespace

Bytes szlike_compress(const NdArray<double>& array, const SzLikeOptions& options) {
  if (array.size() == 0) throw InvalidArgumentError("szlike: empty array");
  if (!(options.error_bound > 0.0)) {
    throw InvalidArgumentError("szlike: error bound must be positive");
  }

  const double step = 2.0 * options.error_bound;
  NdArray<double> recon(array.shape());
  Bytes codes;
  codes.reserve(array.size());
  std::vector<double> exact;

  std::array<std::size_t, kMaxRank> idx{};
  const std::size_t r = array.rank();
  for (std::size_t flat = 0; flat < array.size(); ++flat) {
    const double pred = lorenzo_predict(recon, std::span(idx.data(), r));
    const double v = array[flat];
    const double q = std::nearbyint((v - pred) / step);
    double rec = pred + q * step;
    if (std::abs(q) <= kCodeOffset && std::abs(rec - v) <= options.error_bound &&
        std::isfinite(rec)) {
      codes.push_back(static_cast<std::byte>(static_cast<int>(q) + kCodeOffset));
    } else {
      codes.push_back(static_cast<std::byte>(kEscape));
      exact.push_back(v);
      rec = v;
    }
    recon[flat] = rec;
    for (std::size_t a = r; a-- > 0;) {
      if (++idx[a] < array.extent(a)) break;
      idx[a] = 0;
    }
  }

  ByteWriter w;
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(r));
  for (std::size_t a = 0; a < r; ++a) w.varint(array.extent(a));
  w.f64(options.error_bound);
  w.varint(exact.size());
  w.raw(codes.data(), codes.size());
  w.f64_array(exact);
  return zlib_compress(w.buffer(), DeflateOptions{options.deflate_level});
}

NdArray<double> szlike_decompress(std::span<const std::byte> data) {
  const Bytes raw = zlib_decompress(data);
  ByteReader rd(raw);
  if (rd.u32() != kMagic) throw FormatError("szlike: bad magic");
  if (rd.u8() != kVersion) throw FormatError("szlike: unsupported version");
  const Shape shape = read_shape(rd, "szlike");
  const std::size_t rank = shape.rank();
  const double eb = rd.f64();
  if (!(eb > 0.0)) throw FormatError("szlike: invalid error bound");
  const std::uint64_t n_exact = rd.varint();
  const auto codes = rd.raw(shape.size());
  const std::vector<double> exact = rd.f64_vector(n_exact);
  if (!rd.exhausted()) throw FormatError("szlike: trailing bytes");

  const double step = 2.0 * eb;
  NdArray<double> recon(shape);
  std::array<std::size_t, kMaxRank> idx{};
  std::size_t ei = 0;
  for (std::size_t flat = 0; flat < recon.size(); ++flat) {
    const auto code = static_cast<int>(codes[flat]);
    if (code == kEscape) {
      if (ei >= exact.size()) throw FormatError("szlike: escape without exact value");
      recon[flat] = exact[ei++];
    } else {
      const double pred = lorenzo_predict(recon, std::span(idx.data(), rank));
      recon[flat] = pred + (code - kCodeOffset) * step;
    }
    for (std::size_t a = rank; a-- > 0;) {
      if (++idx[a] < shape[a]) break;
      idx[a] = 0;
    }
  }
  if (ei != exact.size()) throw FormatError("szlike: unused exact values");
  return recon;
}

}  // namespace wck
