#pragma once
// Wall-clock timing for experiment runtime columns (Table IV, Fig. 5).

#include <chrono>

namespace mth {

/// Monotonic wall-clock stopwatch; starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last restart.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mth
