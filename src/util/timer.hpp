// Monotonic wall-clock stopwatch: the runner's wall_seconds, the store's
// encode clock and the microbenches.
#pragma once

#include <chrono>

namespace specdag {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace specdag
