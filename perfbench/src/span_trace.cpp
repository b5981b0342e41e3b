#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

SpanBuffer::SpanBuffer(std::size_t capacity) : spans_(capacity) {}

void SpanBuffer::record(const Span& s) {
  const std::size_t slot = used_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = s;
}

std::size_t SpanBuffer::size() const {
  return std::min(used_.load(std::memory_order_relaxed), spans_.size());
}

bool SpanBuffer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::size_t n = size();
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || spans_[i].start_ns < t0) t0 = spans_[i].start_ns;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i ? "," : "", s.name, s.tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%zu}}\n",
               dropped());
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
