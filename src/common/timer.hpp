#pragma once
// Wall-clock timing for the benchmark harness.

#include <ctime>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <vector>

namespace atalib {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID). Unlike Timer,
/// this does not advance while the thread is descheduled, so it measures a
/// simulated rank's busy time correctly even when many rank threads
/// oversubscribe few cores.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

/// Run `fn` `reps` times and return the *minimum* wall time in seconds.
/// Minimum-of-reps is the standard noise-rejection estimator for
/// compute-bound kernels (noise is strictly additive).
template <typename Fn>
double min_time_of(Fn&& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Per-call seconds of each callable, timed interleaved: sample r of every
/// column comes from rep r, and each rep starts from a different column, so
/// host drift and the cache state one column leaves behind land on every
/// column alike instead of deciding a comparison between them. Paired
/// samples (the same r across columns) were taken back to back. With
/// min_sample > 0, one untimed warm-up call and one timed call per column
/// size each sample to at least min_sample seconds of back-to-back calls,
/// so sub-millisecond calls are not decided by timer jitter; min_sample = 0
/// times one call per sample and adds no calls.
template <typename... Fn>
std::array<std::vector<double>, sizeof...(Fn)> interleaved_samples(int reps, double min_sample,
                                                                   Fn&&... fns) {
  constexpr std::size_t kCols = sizeof...(Fn);
  std::array<std::function<void()>, kCols> col{std::function<void()>(fns)...};
  std::array<int, kCols> calls;
  calls.fill(1);
  if (min_sample > 0) {
    for (std::size_t i = 0; i < kCols; ++i) {
      col[i]();
      const double once = std::max(min_time_of(col[i], 1), 1e-9);
      calls[i] = std::max(1, static_cast<int>(std::ceil(min_sample / once)));
    }
  }
  std::array<std::vector<double>, kCols> samples;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t s = 0; s < kCols; ++s) {
      const std::size_t i = (s + static_cast<std::size_t>(r)) % kCols;
      Timer t;
      for (int c = 0; c < calls[i]; ++c) col[i]();
      samples[i].push_back(t.seconds() / calls[i]);
    }
  }
  return samples;
}

/// Smallest sample (the min-of-reps estimator of min_time_of).
inline double min_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
}

}  // namespace atalib
