#pragma once

#include <chrono>

namespace scod {

/// Monotonic wall-clock stopwatch used by the phase-timing instrumentation
/// (Section V-C1 of the paper reports per-phase relative time consumption).
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

  /// seconds() followed by restart(), with one clock read: splits a loop
  /// into consecutive phases.
  double lap() {
    const clock::time_point now = clock::now();
    const double elapsed = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return elapsed;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace scod
