#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_index(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  const auto idx = r < 1 ? std::size_t{0} : static_cast<std::size_t>(r) - 1;
  return std::min(idx, n - 1);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[rank_index(sorted.size(), q)];
}

Tail tail(const std::vector<double>& sorted, double want) {
  Tail t;
  const std::size_t n = sorted.size();
  if (n < kMinBeyond + 1) return t;
  const std::size_t max_idx = n - 1 - kMinBeyond;
  std::size_t idx = rank_index(n, want);
  double q = want;
  if (idx > max_idx) {
    idx = max_idx;
    q = static_cast<double>(idx + 1) / static_cast<double>(n);
  }
  t.ok = true;
  t.q = q;
  t.value = sorted[idx];
  t.beyond = n - 1 - idx;
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
