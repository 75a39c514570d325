#include "simd/dispatch.hpp"

#include <atomic>
#include <string>

#include "simd/kernels.hpp"
#include "telemetry/metrics.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace wck::simd {
namespace {

/// Cached resolved level; -1 = not resolved yet. Written once (or by
/// the test hooks); call sites fetch the table once per batch, so a
/// relaxed read is enough.
std::atomic<int> g_active{-1};

const KernelTable* table_for(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return detail::scalar_table();
    case Level::kAvx2:
      return detail::avx2_table();
  }
  return nullptr;
}

Level resolve_from_env() {
  const Level best = detected_best();
  const auto raw = env::get("WCK_SIMD");
  if (!raw || raw->empty() || *raw == "auto") return best;
  const auto parsed = parse_level(*raw);
  if (!parsed) return best;  // unknown value behaves as "auto"
  // A request above what the machine supports clamps down rather than
  // failing: WCK_SIMD=avx2 on a CPU without AVX2 still runs, scalar.
  return static_cast<int>(*parsed) < static_cast<int>(best) ? *parsed : best;
}

void publish_gauge(Level level) {
  WCK_GAUGE_SET("simd.level", static_cast<double>(static_cast<int>(level)));
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Level> parse_level(std::string_view s) noexcept {
  if (s == "scalar") return Level::kScalar;
  if (s == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level detected_best() noexcept {
#if defined(__x86_64__)
  if (detail::avx2_table() != nullptr && __builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

std::vector<Level> available_levels() {
  std::vector<Level> out{Level::kScalar};
  if (detected_best() == Level::kAvx2) out.push_back(Level::kAvx2);
  return out;
}

Level active_level() {
  const int cached = g_active.load(std::memory_order_relaxed);
  if (cached >= 0) return static_cast<Level>(cached);
  const Level resolved = resolve_from_env();
  int expected = -1;
  if (g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                       std::memory_order_relaxed)) {
    publish_gauge(resolved);
    return resolved;
  }
  return static_cast<Level>(expected);  // another thread resolved first
}

const KernelTable& kernels() { return *table_for(active_level()); }

const KernelTable& kernels_for(Level level) {
  if (static_cast<int>(level) > static_cast<int>(detected_best())) {
    throw InvalidArgumentError(std::string("SIMD level not available on this machine: ") +
                               to_string(level));
  }
  return *table_for(level);
}

void set_active_level_for_test(Level level) {
  if (static_cast<int>(level) > static_cast<int>(detected_best())) {
    throw InvalidArgumentError(std::string("SIMD level not available on this machine: ") +
                               to_string(level));
  }
  g_active.store(static_cast<int>(level), std::memory_order_relaxed);
  publish_gauge(level);
}

void reset_active_level_for_test() { g_active.store(-1, std::memory_order_relaxed); }

}  // namespace wck::simd
