// The serving API: the ServeRequest / ServeResponse envelope and the
// completion-queue delivery model.
//
//  * ServeRequest carries a caller-chosen id, one or more node ids (the
//    FleetManager splits them into ring-consistent sub-batches per
//    replica and merges the parts back), a priority class, an absolute
//    DEADLINE (steady_clock; the admission layer sheds work that can no
//    longer make it instead of computing answers nobody will read), and
//    a result mode — full logits or top-k (class, score) pairs.
//
//  * ServeResponse carries a per-request status (Ok / Shed /
//    DeadlineExceeded / Draining / Error / QuotaExceeded), the results,
//    and per-stage timings (admission wait, dispatch delay, compute) so a
//    slow answer is attributable to a stage, not just "the server".
//
//  * Delivery goes through a caller-owned CompletionQueue — poll/wait or
//    a callback.  The batcher's hot path holds one shared RequestState
//    per ENVELOPE: an n-node request costs one allocation.
//
// CompletionQueue lifetime rule: the queue must outlive every request
// submitted against it — responses are delivered from replica dispatcher
// threads, so destroy the queue only after the fleet/batcher is stopped
// or every submitted request has been reaped.  (The fleet's drain-on-stop
// makes "stop, then destroy" always safe.)
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

namespace ppgnn::serve {

// Two classes are enough for the canonical split: interactive traffic that
// must be answered (kHigh) vs. sheddable background traffic — prefetch,
// retries, speculative requests (kLow).  Classes take effect only with a
// shed budget: in backpressure mode there is no drop policy to back a
// strict-priority drain (queued kLow could starve forever under sustained
// kHigh load), so admission collapses to one FIFO.
enum class Priority : std::uint8_t { kHigh = 0, kLow = 1 };

// Per-request outcome.  kOk answered in time; kShed refused or dropped by
// admission control (retriable — back off and resubmit); kDeadlineExceeded
// missed the caller's deadline (shed before compute, or answered late — a
// late answer still carries results, a pre-compute shed does not); kDraining
// submitted to a fleet that is stopped or empty (re-route at a higher
// level); kError a backend failure (bad node id etc.), `error` holds it;
// kQuotaExceeded refused by the tenant's own token-bucket contract
// (src/tenancy/) — DISTINCT from kShed: shed means the fleet is out of
// capacity (scale up / back off briefly), quota-refused means the caller is
// out of contract (immediate resubmit will be refused again until the
// bucket refills).  New values append at the end: the numeric value is the
// wire encoding (rpc/wire.h) and existing values must never renumber.
enum class ServeStatus : std::uint8_t {
  kOk,
  kDraining,
  kShed,
  kDeadlineExceeded,
  kError,
  kQuotaExceeded
};
const char* serve_status_name(ServeStatus s);
// Envelope status merge: when parts disagree, the worst part wins by
// SEVERITY (kOk < kDraining < kShed < kQuotaExceeded < kDeadlineExceeded
// < kError) — an explicit rank, no longer the enum's numeric order, since
// kQuotaExceeded appended after kError for wire stability.
ServeStatus worse_status(ServeStatus a, ServeStatus b);

enum class ResultMode : std::uint8_t { kFullLogits, kTopK };

struct TopKEntry {
  std::int32_t cls = 0;
  float score = 0.f;
};

// Top-k (class, score) pairs of one logits row, scores descending, ties
// broken toward the lower class id.  Deterministic, so top-k answers are
// as reproducible as the logits they summarize.
std::vector<TopKEntry> topk_of_row(const float* row, std::size_t n,
                                   std::size_t k);

struct ServeRequest {
  // Caller-chosen correlation id, echoed in the response.
  std::uint64_t id = 0;
  // One or more node ids; the fleet splits them into per-replica
  // sub-batches (ring-consistent under cache_affinity) and merges.
  std::vector<std::int64_t> nodes;
  Priority priority = Priority::kHigh;
  // Which tenant this request is billed to (src/tenancy/).  0 — the
  // default tenant — keeps untenanted callers on the pre-tenancy behavior.
  // Travels on the wire and through traces/fleetsim.
  std::uint32_t tenant = 0;
  // Absolute deadline; max() (the default) means none.  Use deadline_in()
  // for the common "now + budget" form.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  ResultMode mode = ResultMode::kFullLogits;
  std::size_t topk = 3;  // kTopK only

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

inline std::chrono::steady_clock::time_point deadline_in(
    std::chrono::steady_clock::duration budget) {
  return std::chrono::steady_clock::now() + budget;
}

// Where one answer's time went.  For a multi-node envelope each field is
// the max over parts — the critical path, since parts complete in
// parallel across replicas.  A part shed before dispatch reports its
// admission wait and zeros elsewhere (time spent queued is real latency
// even when the answer never happened — see ServerStats).
struct StageTimings {
  double admission_wait_us = 0;  // enqueue -> picked into a batch
  double dispatch_delay_us = 0;  // batch close -> compute starts
  double compute_us = 0;         // feature gather + forward
  double total_us() const {
    return admission_wait_us + dispatch_delay_us + compute_us;
  }
};

struct ServeResponse {
  std::uint64_t id = 0;
  ServeStatus status = ServeStatus::kOk;
  // kFullLogits: logits[i] is nodes[i]'s row; empty for parts that were
  // shed.  kTopK: topk[i] likewise.
  std::vector<std::vector<float>> logits;
  std::vector<std::vector<TopKEntry>> topk;
  StageTimings timings;
  // kError only: the backend exception, preserved so callers can rethrow
  // it with its real type.
  std::exception_ptr error;
};

// Caller-owned delivery endpoint.  Two modes, fixed at construction:
//
//  * poll/wait (default): responses queue internally; drain them with
//    poll() (non-blocking) or wait_for().
//  * callback: each response is handed to the callback on the replica
//    dispatcher thread that finished its last part.  Keep callbacks tiny
//    (counters, handoff) — they run inside the serving hot path — and
//    never call back into the fleet from one (self-deadlock).
//
// Thread-safe on both sides.  See the header comment for the lifetime
// rule (outlive every submitted request).
class CompletionQueue {
 public:
  using Callback = std::function<void(ServeResponse&&)>;

  CompletionQueue() = default;
  explicit CompletionQueue(Callback cb) : cb_(std::move(cb)) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  // Producer side (RequestState).
  void deliver(ServeResponse&& r);

  // Non-blocking pop; false when nothing is ready.
  bool poll(ServeResponse* out);
  // Blocking pop with timeout; false on timeout.
  bool wait_for(ServeResponse* out, std::chrono::milliseconds timeout);

  std::size_t ready() const;      // responses queued, not yet popped
  std::size_t delivered() const;  // responses ever delivered

 private:
  Callback cb_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ServeResponse> queue_;
  std::size_t delivered_ = 0;
};

// Shared merge/delivery state of one in-flight envelope: the single
// allocation the hot path makes per request.  Each queued part holds a
// shared_ptr to it; finish_part() folds the part's result/status/timings
// in, and the LAST part to finish delivers the merged response — so parts
// may complete on different replica dispatchers in any order.
class RequestState {
 public:
  // Delivers to a caller-owned queue, which must outlive delivery.
  RequestState(ServeRequest req, CompletionQueue* cq);

  const ServeRequest& request() const { return req_; }
  Priority priority() const { return req_.priority; }
  std::chrono::steady_clock::time_point deadline() const {
    return req_.deadline;
  }
  std::size_t parts() const { return req_.nodes.size(); }

  // Resolves part `slot` (index into request().nodes).  `row` may be null
  // for failed parts; a kDeadlineExceeded part WITH a row is a late
  // answer (results kept, miss flagged).  Thread-safe; each slot must be
  // finished exactly once.
  void finish_part(std::size_t slot, ServeStatus status, const float* row,
                   std::size_t cols, const StageTimings& t,
                   std::exception_ptr error = nullptr);

 private:
  ServeRequest req_;
  CompletionQueue* cq_ = nullptr;
  std::mutex mu_;
  ServeResponse resp_;
  std::size_t remaining_;
};

}  // namespace ppgnn::serve
