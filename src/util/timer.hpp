// Wall-clock stopwatch used by the benchmark harnesses and by the
// compression pipeline's per-stage instrumentation: each codec stage
// times itself with a WallTimer and records the interval into its
// "stage.<name>.seconds" telemetry histogram (paper Fig. 9 reports a
// stage-by-stage breakdown of compression time).
#pragma once

#include <chrono>

namespace wck {

/// A simple monotonic wall-clock stopwatch measuring seconds.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last restart().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wck
