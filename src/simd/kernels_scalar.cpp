// Portable scalar reference kernels. The AVX2 level is tested
// bit-identical against these; behavioral questions (NaN ordering, ±0
// canonicalization, clamping) are settled here and the vector TU
// mirrors the answers.
#include "simd/kernels.hpp"

namespace wck::simd::detail {
namespace {

void range_min_max(const double* v, std::size_t n, double* lo, double* hi) {
  double mn = v[0];
  double mx = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = (v[i] < mn) ? v[i] : mn;
    mx = (mx < v[i]) ? v[i] : mx;
  }
  // A ±0.0 extremum depends on encounter order; canonicalize so every
  // dispatch level agrees. (NaN != 0.0, so a sticky NaN passes through.)
  if (mn == 0.0) mn = 0.0;
  if (mx == 0.0) mx = 0.0;
  *lo = mn;
  *hi = mx;
}

void grid_index_batch(const double* v, std::size_t n, double lo, double inv_width,
                      std::int32_t divisions, std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = grid_index_one(v[i], lo, inv_width, divisions);
  }
}

void bitmap_pack_ge0(const std::int32_t* idx, std::size_t n, std::uint64_t* words) {
  const std::size_t nwords = (n + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) words[w] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= 0) words[i / 64] |= 1ull << (i % 64);
  }
}

void bitmap_select(const std::uint64_t* words, std::size_t n, const double* averages,
                   const std::uint8_t* indices, const double* exact, double* out) {
  std::size_t qi = 0;
  std::size_t ei = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool quantized = (words[i / 64] >> (i % 64)) & 1ull;
    out[i] = quantized ? averages[indices[qi++]] : exact[ei++];
  }
}

void adler32_update(std::uint32_t* a, std::uint32_t* b, const unsigned char* p, std::size_t n) {
  constexpr std::uint32_t kMod = 65521;
  // Largest n such that 255*n*(n+1)/2 + (n+1)*(kMod-1) fits in 32 bits.
  constexpr std::size_t kBlock = 5552;
  std::uint32_t ra = *a;
  std::uint32_t rb = *b;
  while (n > 0) {
    const std::size_t chunk = n < kBlock ? n : kBlock;
    adler32_tail(ra, rb, p, chunk);
    ra %= kMod;
    rb %= kMod;
    p += chunk;
    n -= chunk;
  }
  *a = ra;
  *b = rb;
}

constexpr KernelTable kScalarTable{
    range_min_max, grid_index_batch, bitmap_pack_ge0, bitmap_select, adler32_update,
};

}  // namespace

const KernelTable* scalar_table() noexcept { return &kScalarTable; }

}  // namespace wck::simd::detail
