// Order statistics for the benchmark's reported timings.
//
// Percentiles use the nearest-rank definition on the sorted samples.  A
// reported tail percentile must keep at least kMinBeyond samples above it
// (a p99 over 200 samples is two data points, not a percentile), so
// tail() lowers the requested percentile until that holds and says which
// percentile it reached.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// Nearest-rank percentile of `sorted` (ascending, non-empty), q in [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

struct Tail {
  bool ok = false;    // false when fewer than kMinBeyond + 1 samples
  double q = 0;       // the percentile reached, <= the one requested
  double value = 0;
  std::size_t beyond = 0;  // samples strictly ranked above `value`
};

// The highest percentile <= `want` whose nearest-rank index leaves at
// least kMinBeyond samples above it.
Tail tail(const std::vector<double>& sorted, double want);

// Median of an unsorted sample (mean of the two middle values when the
// count is even); 0 for an empty sample.
double median(std::vector<double> v);

}  // namespace perfbench
