// Internal glue between dispatch.cpp and the per-level kernel TUs.
// Only src/simd/ may include this header.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace wck::simd::detail {

/// Per-level tables. scalar_table() always exists; avx2_table() returns
/// nullptr when its translation unit was built without AVX2 (non-x86
/// targets, or a compiler without -mavx2 support).
[[nodiscard]] const KernelTable* scalar_table() noexcept;
[[nodiscard]] const KernelTable* avx2_table() noexcept;

// Kernel tail loops use wck::simd::grid_index_one (dispatch.hpp) so the
// single-value reference lives in exactly one place.

/// Adler-32 scalar tail shared by both levels: the plain
/// `a += p[i]; b += a` loop with NO modular reduction (the caller
/// reduces once per <= 5552-byte chunk).
inline void adler32_tail(std::uint32_t& a, std::uint32_t& b, const unsigned char* p,
                         std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    a += p[i];
    b += a;
  }
}

}  // namespace wck::simd::detail
