#ifndef MIP_COMMON_STOPWATCH_H_
#define MIP_COMMON_STOPWATCH_H_

#include <chrono>

namespace mip {

/// \brief Monotonic wall-clock timer used by the benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction / last Reset.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mip

#endif  // MIP_COMMON_STOPWATCH_H_
