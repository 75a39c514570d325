// Runtime-dispatched SIMD kernel layer for the numeric hot path.
//
// Every kernel exists at two levels, portable scalar and AVX2, and both
// are bit-identical: the vector paths are restricted to operations whose
// IEEE-754 results match the scalar reference exactly (min/max with
// explicit NaN ordering, separately rounded subtract-then-multiply,
// integer arithmetic, pure data movement). Callers fetch a KernelTable once per
// batch via kernels() and never include intrinsics headers themselves
// (wck_lint rule "raw-simd" enforces this: intrinsics live only under
// src/simd/).
//
// A kernel enters the table only when bench/micro_kernels shows its AVX2
// variant beating scalar; otherwise it is plain code at its one caller.
//
// Level selection: AVX2 when both the build and the CPU (CPUID at first
// use) support it, else scalar; overridable with WCK_SIMD=scalar|avx2|auto
// through the wck::env cache. A request above what the CPU supports
// clamps down; unknown values behave as "auto". The resolved level is
// cached for the process lifetime and published as the "simd.level"
// telemetry gauge (0 scalar, 2 avx2) so bench records are comparable
// across machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace wck::simd {

/// Dispatch levels, ordered weakest to strongest. The values are the
/// published gauge values and stay fixed across releases.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 2,
};

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Parses "scalar" / "avx2". Anything else (including "auto") returns
/// nullopt.
[[nodiscard]] std::optional<Level> parse_level(std::string_view s) noexcept;

/// One function pointer per kernel. Both levels compute bit-identical
/// results; only throughput differs.
struct KernelTable {
  /// Min/max over v[0..n). Matches the sequential fold
  /// `lo = (v < lo) ? v : lo` seeded with v[0] (NaN seed is sticky,
  /// later NaNs are ignored), except that a ±0.0 result is canonicalized
  /// to +0.0 so lane order cannot leak into the output. n must be > 0.
  void (*range_min_max)(const double* v, std::size_t n, double* lo, double* hi);
  /// Equal-width partition index of each v[i] over [lo, lo + n/inv_width),
  /// clamped to [0, divisions-1]. NaN and -inf map to 0, +inf to
  /// divisions-1.
  void (*grid_index_batch)(const double* v, std::size_t n, double lo, double inv_width,
                           std::int32_t divisions, std::int32_t* out);
  /// words[i/64] bit (i%64) := (idx[i] >= 0). Overwrites all
  /// (n + 63) / 64 words including padding bits (cleared).
  void (*bitmap_pack_ge0)(const std::int32_t* idx, std::size_t n, std::uint64_t* words);
  /// out[i] = bit i set ? averages[indices[qi++]] : exact[ei++]; pure
  /// selection, no arithmetic. The caller guarantees popcount(words) ==
  /// #indices, n - popcount == #exact, and every index < #averages.
  void (*bitmap_select)(const std::uint64_t* words, std::size_t n, const double* averages,
                        const std::uint8_t* indices, const double* exact, double* out);
  /// Adler-32 accumulator step over p[0..n): a += p[i]; b += a, both
  /// reduced mod 65521 at least every 5552 bytes.
  void (*adler32_update)(std::uint32_t* a, std::uint32_t* b, const unsigned char* p,
                         std::size_t n);
};

/// Strongest level supported by this build AND this CPU.
[[nodiscard]] Level detected_best() noexcept;

/// Every level runnable on this machine: kScalar, then kAvx2 if
/// detected_best() is kAvx2.
[[nodiscard]] std::vector<Level> available_levels();

/// The process-wide level: WCK_SIMD-resolved on first call, then cached.
[[nodiscard]] Level active_level();

/// Kernels for active_level().
[[nodiscard]] const KernelTable& kernels();

/// Kernels for a specific level; throws InvalidArgumentError if `level`
/// is not in available_levels().
[[nodiscard]] const KernelTable& kernels_for(Level level);

/// Test hooks: force / re-resolve the cached active level. The forced
/// level must be available. Not for production use — call sites cache
/// the table per batch, so flipping mid-batch is a test-only concept.
void set_active_level_for_test(Level level);
void reset_active_level_for_test();

/// Single-value reference of the grid_index_batch contract; the
/// quantizer's per-value classify() and every kernel tail loop call
/// this exact function so the definition lives in one place.
/// Equivalent to floor((v - lo) * inv_width) clamped to
/// [0, divisions - 1], with NaN and -inf mapping to 0 and +inf to
/// divisions - 1 (truncation equals floor once x >= 1).
[[nodiscard]] inline std::int32_t grid_index_one(double v, double lo, double inv_width,
                                                 std::int32_t divisions) noexcept {
  const double x = (v - lo) * inv_width;
  if (!(x >= 1.0)) return 0;  // also catches NaN
  if (x >= static_cast<double>(divisions)) return divisions - 1;
  return static_cast<std::int32_t>(x);
}

}  // namespace wck::simd
