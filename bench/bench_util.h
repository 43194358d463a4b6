#ifndef BIGDAWG_BENCH_BENCH_UTIL_H_
#define BIGDAWG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace bigdawg::bench {

/// Runs `fn` `trials` times and returns the median wall time in ms.
inline double MedianMs(int trials, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    Stopwatch timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The median of a sample with its distribution-free 95% confidence
/// interval, from order statistics of Binomial(n, 1/2): the summary
/// interleaved A/B trials are judged on. A median of paired ratios
/// cancels the noise both sides share, and the interval says whether the
/// trials can tell the median from a bound at all.
struct MedianCi {
  double low = 0;
  double median = 0;
  double high = 0;
};

inline MedianCi MedianWithCi(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double median = (samples[(n - 1) / 2] + samples[n / 2]) / 2;
  // Largest rank r with P(X < r) <= 2.5%, X ~ Binomial(n, 1/2); the
  // interval [x_(r), x_(n+1-r)] then covers the median with >= 95%.
  size_t r = 0;
  double below = 0;                                    // P(X < r)
  double pmf = std::ldexp(1.0, -static_cast<int>(n));  // P(X = r)
  while (r < n / 2 && below + pmf <= 0.025) {
    below += pmf;
    ++r;
    pmf *= static_cast<double>(n - r + 1) / static_cast<double>(r);
  }
  r = std::max<size_t>(r, 1);
  return {samples[r - 1], median, samples[n - r]};
}

inline void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

}  // namespace bigdawg::bench

#endif  // BIGDAWG_BENCH_BENCH_UTIL_H_
