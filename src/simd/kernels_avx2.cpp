// AVX2 kernels. This TU is the only one compiled with -mavx2 (and
// nothing more: no FMA — fused contraction would break bit-identity of
// separately rounded subtract-then-multiply sequences).
//
// Bit-identity notes, mirrored in tests/simd_test.cpp:
//  * _mm256_min_pd(x, acc) computes (x < acc) ? x : acc and returns the
//    second operand when either is NaN — exactly the scalar fold
//    `mn = (v < mn) ? v : mn`: NaN inputs are ignored, a NaN seed is
//    sticky. Seeding every lane with v[0] (not the first vector) keeps
//    the NaN-seed semantics identical to the sequential fold.
//  * grid index: clamping x into [0, divisions-1] in the double domain
//    and then truncating equals floor-then-clamp for every input the
//    contract defines (truncation == floor once x >= 1; max_pd(x, 0)
//    maps NaN and negatives to 0, its second operand winning on NaN;
//    min_pd clamps +inf and overflow).
//  * bitmap select and the bitmap pack are pure data movement; Adler-32
//    sums non-negative terms in uint32 with no wrap inside a 5552-byte
//    chunk, so the vector totals equal the sequential loop's.
#include "simd/kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace wck::simd::detail {
namespace {

void range_min_max(const double* v, std::size_t n, double* lo, double* hi) {
  __m256d vmn = _mm256_set1_pd(v[0]);
  __m256d vmx = vmn;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    vmn = _mm256_min_pd(x, vmn);
    vmx = _mm256_max_pd(x, vmx);
  }
  alignas(32) double lmn[4];
  alignas(32) double lmx[4];
  _mm256_store_pd(lmn, vmn);
  _mm256_store_pd(lmx, vmx);
  double mn = lmn[0];
  double mx = lmx[0];
  for (int k = 1; k < 4; ++k) {
    mn = (lmn[k] < mn) ? lmn[k] : mn;
    mx = (mx < lmx[k]) ? lmx[k] : mx;
  }
  for (; i < n; ++i) {
    mn = (v[i] < mn) ? v[i] : mn;
    mx = (mx < v[i]) ? v[i] : mx;
  }
  if (mn == 0.0) mn = 0.0;
  if (mx == 0.0) mx = 0.0;
  *lo = mn;
  *hi = mx;
}

void grid_index_batch(const double* v, std::size_t n, double lo, double inv_width,
                      std::int32_t divisions, std::int32_t* out) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vinv = _mm256_set1_pd(inv_width);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vtop = _mm256_set1_pd(static_cast<double>(divisions - 1));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), vlo), vinv);
    const __m256d y = _mm256_min_pd(_mm256_max_pd(x, vzero), vtop);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm256_cvttpd_epi32(y));
  }
  for (; i < n; ++i) {
    out[i] = grid_index_one(v[i], lo, inv_width, divisions);
  }
}

void bitmap_pack_ge0(const std::int32_t* idx, std::size_t n, std::uint64_t* words) {
  const std::size_t full = n / 64;
  for (std::size_t w = 0; w < full; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + w * 64 + 8 * k));
      const int m = _mm256_movemask_ps(_mm256_castsi256_ps(q));
      bits |= static_cast<std::uint64_t>(~m & 0xFF) << (8 * k);
    }
    words[w] = bits;
  }
  if (n % 64 != 0) {
    std::uint64_t bits = 0;
    for (std::size_t i = full * 64; i < n; ++i) {
      if (idx[i] >= 0) bits |= 1ull << (i % 64);
    }
    words[full] = bits;
  }
}

void bitmap_select(const std::uint64_t* words, std::size_t n, const double* averages,
                   const std::uint8_t* indices, const double* exact, double* out) {
  std::size_t qi = 0;
  std::size_t ei = 0;
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const std::uint64_t w = words[i / 64];
    if (w == ~0ull) {
      // Masked form with an explicit zero source: the plain
      // _mm256_i32gather_pd expands through _mm256_undefined_pd, which
      // GCC flags -Wmaybe-uninitialized.
      const __m256d src = _mm256_setzero_pd();
      const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
      for (std::size_t k = 0; k < 64; k += 4) {
        std::uint32_t quad;
        std::memcpy(&quad, indices + qi + k, sizeof(quad));
        const __m128i idx4 = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(quad)));
        _mm256_storeu_pd(out + i + k, _mm256_mask_i32gather_pd(src, averages, idx4, all, 8));
      }
      qi += 64;
    } else if (w == 0) {
      std::memcpy(out + i, exact + ei, 64 * sizeof(double));
      ei += 64;
    } else {
      for (std::size_t k = 0; k < 64; ++k) {
        out[i + k] = ((w >> k) & 1ull) != 0 ? averages[indices[qi++]] : exact[ei++];
      }
    }
  }
  for (; i < n; ++i) {
    const bool quantized = (words[i / 64] >> (i % 64)) & 1ull;
    out[i] = quantized ? averages[indices[qi++]] : exact[ei++];
  }
}

void adler32_update(std::uint32_t* pa, std::uint32_t* pb, const unsigned char* p, std::size_t n) {
  constexpr std::uint32_t kMod = 65521;
  constexpr std::size_t kBlock = 5552;
  std::uint32_t a = *pa;
  std::uint32_t b = *pb;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones16 = _mm256_set1_epi16(1);
  // Weight of byte i within a 32-byte group is 32 - i (setr lists byte 0
  // first). maddubs pairs fit int16: max 255*32 + 255*31 < 32768.
  const __m256i wts = _mm256_setr_epi8(32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19,
                                       18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3,
                                       2, 1);
  while (n > 0) {
    std::size_t chunk = n < kBlock ? n : kBlock;
    n -= chunk;
    for (; chunk >= 32; chunk -= 32, p += 32) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i sad = _mm256_sad_epu8(v, zero);
      const __m256i w32 = _mm256_madd_epi16(_mm256_maddubs_epi16(v, wts), ones16);
      __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(sad), _mm256_extracti128_si256(sad, 1));
      s4 = _mm_add_epi32(s4, _mm_srli_si128(s4, 8));
      __m128i w4 = _mm_add_epi32(_mm256_castsi256_si128(w32), _mm256_extracti128_si256(w32, 1));
      w4 = _mm_add_epi32(w4, _mm_srli_si128(w4, 8));
      w4 = _mm_add_epi32(w4, _mm_srli_si128(w4, 4));
      b += 32 * a + static_cast<std::uint32_t>(_mm_cvtsi128_si32(w4));
      a += static_cast<std::uint32_t>(_mm_cvtsi128_si32(s4));
    }
    adler32_tail(a, b, p, chunk);
    p += chunk;
    a %= kMod;
    b %= kMod;
  }
  *pa = a;
  *pb = b;
}

constexpr KernelTable kAvx2Table{
    range_min_max, grid_index_batch, bitmap_pack_ge0, bitmap_select, adler32_update,
};

}  // namespace

const KernelTable* avx2_table() noexcept { return &kAvx2Table; }

}  // namespace wck::simd::detail

#else  // built without AVX2 support: level not available

namespace wck::simd::detail {
const KernelTable* avx2_table() noexcept { return nullptr; }
}  // namespace wck::simd::detail

#endif
