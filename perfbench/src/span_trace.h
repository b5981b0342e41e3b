// In-memory span recording for the benchmark's traced runs.
//
// Spans come only from the benchmark's own code, around its calls into the
// program's layers.  They go into a buffer allocated once up front; a
// recording thread claims a slot with one atomic increment, and spans past
// the capacity are counted and dropped rather than growing memory during a
// timed run.  The buffer is written out as Chrome trace-event JSON (opens
// in Perfetto or chrome://tracing) after the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   // static string
  std::uint64_t id = 0;    // unique within the buffer, never 0
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;  // steady_clock
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;   // small per-thread number, for the trace viewer
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small stable number for the calling thread (first caller gets 1).
std::uint32_t thread_number();

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity);

  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  // A fresh span id.  Thread-safe.
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Stores `s`, or counts it as dropped when the buffer is full.
  // Thread-safe; slots are only read after every recorder has stopped.
  void record(const Span& s);

  std::size_t size() const;
  std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const Span& at(std::size_t i) const { return spans_[i]; }

  // Writes the recorded spans as Chrome trace-event "X" events, times in
  // microseconds relative to the earliest span.  False on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
};

// Self time of spans[i]: its duration minus the part of its interval that
// its direct children (spans whose parent is spans[i].id) cover.  Children
// are clipped to the parent's interval and overlapping children count
// once.  Returns one value per input span, in nanoseconds.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
