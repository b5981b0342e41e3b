#include "serve/serve_api.h"

#include <algorithm>
#include <utility>

namespace ppgnn::serve {

const char* serve_status_name(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kDraining:
      return "draining";
    case ServeStatus::kShed:
      return "shed";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kError:
      return "error";
    case ServeStatus::kQuotaExceeded:
      return "quota_exceeded";
  }
  return "?";
}

ServeStatus worse_status(ServeStatus a, ServeStatus b) {
  // Severity rank, decoupled from the enum's numeric (wire) order:
  // kQuotaExceeded appended after kError for wire stability but ranks
  // between kShed and kDeadlineExceeded in badness.
  static constexpr std::uint8_t rank[] = {
      /*kOk*/ 0, /*kDraining*/ 1, /*kShed*/ 2,
      /*kDeadlineExceeded*/ 4, /*kError*/ 5, /*kQuotaExceeded*/ 3};
  return rank[static_cast<std::uint8_t>(a)] >=
                 rank[static_cast<std::uint8_t>(b)]
             ? a
             : b;
}

std::vector<TopKEntry> topk_of_row(const float* row, std::size_t n,
                                   std::size_t k) {
  std::vector<TopKEntry> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i].cls = static_cast<std::int32_t>(i);
    all[i].score = row[i];
  }
  const std::size_t take = std::min(k, n);
  // Scores descending; the lower class id wins ties so the ordering is a
  // pure function of the logits.
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const TopKEntry& a, const TopKEntry& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.cls < b.cls;
                    });
  all.resize(take);
  return all;
}

void CompletionQueue::deliver(ServeResponse&& r) {
  if (cb_) {
    // Callback mode: hand off on the finishing dispatcher's thread.  The
    // count ticks AFTER the callback returns, so a caller that observes
    // delivered() == submitted knows every callback has fully run — the
    // completeness signal drive loops spin on.
    cb_(std::move(r));
    std::lock_guard<std::mutex> lk(mu_);
    ++delivered_;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(r));
    ++delivered_;
    // Notify UNDER the lock: a consumer that pops this (final) response
    // may destroy the queue the moment its pop returns, and its pop
    // cannot re-acquire mu_ until we are fully done with cv_ — the
    // post-unlock notify would race the destructor instead.
    cv_.notify_one();
  }
}

bool CompletionQueue::poll(ServeResponse* out) {
  std::lock_guard<std::mutex> lk(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool CompletionQueue::wait_for(ServeResponse* out,
                               std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, timeout, [this] { return !queue_.empty(); })) {
    return false;
  }
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

std::size_t CompletionQueue::ready() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::size_t CompletionQueue::delivered() const {
  std::lock_guard<std::mutex> lk(mu_);
  return delivered_;
}

RequestState::RequestState(ServeRequest req, CompletionQueue* cq)
    : req_(std::move(req)), cq_(cq), remaining_(req_.nodes.size()) {
  resp_.id = req_.id;
  resp_.logits.resize(req_.nodes.size());
  if (req_.mode == ResultMode::kTopK) resp_.topk.resize(req_.nodes.size());
}

void RequestState::finish_part(std::size_t slot, ServeStatus status,
                               const float* row, std::size_t cols,
                               const StageTimings& t,
                               std::exception_ptr error) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (row != nullptr) {
      if (req_.mode == ResultMode::kTopK) {
        resp_.topk[slot] = topk_of_row(row, cols, req_.topk);
      } else {
        resp_.logits[slot].assign(row, row + cols);
      }
    }
    resp_.status = worse_status(resp_.status, status);
    if (error && !resp_.error) resp_.error = error;
    // Parts complete in parallel across replicas: the envelope's stage
    // profile is the slowest part's (critical path), per stage.
    resp_.timings.admission_wait_us =
        std::max(resp_.timings.admission_wait_us, t.admission_wait_us);
    resp_.timings.dispatch_delay_us =
        std::max(resp_.timings.dispatch_delay_us, t.dispatch_delay_us);
    resp_.timings.compute_us = std::max(resp_.timings.compute_us, t.compute_us);
    last = --remaining_ == 0;
  }
  if (!last) return;
  // Last part delivers.  No lock held: the queue has its own
  // synchronization, and nothing can race us — every part is finished.
  if (req_.mode == ResultMode::kTopK) resp_.logits.clear();
  cq_->deliver(std::move(resp_));
}

}  // namespace ppgnn::serve
