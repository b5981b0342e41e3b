// Dynamic micro-batching: coalesce concurrent requests into model-sized
// batches — with admission control, priority classes, and deadline-aware
// shedding over envelope parts.
//
// One forward over b rows costs far less than b forwards over one row (the
// GEMM amortizes weight traffic and the thread-pool fan-out), so the
// classic serving trade applies: hold a request for up to max_delay hoping
// peers arrive, dispatch early when max_batch_size fills.  A single
// dispatcher thread owns the model; intra-batch parallelism comes from the
// kernels' global thread pool (tensor/parallel), so results are
// deterministic regardless of how requests interleave — test_serve proves
// batched output is bit-identical to single-request inference.
//
// The unit of admission is an envelope PART: one (node, slot) of a
// ServeRequest (serve_api.h).  A part carries a shared RequestState — one
// allocation per envelope, not one promise per node — and delivery goes
// through the caller's CompletionQueue when the envelope's last part
// resolves.
//
// Overload is handled in one of two modes:
//
//  * shed_budget == 0 (default): the admission queue is bounded
//    (queue_capacity) and submission blocks when full — callers feel
//    backpressure instead of the server melting.
//
//  * shed_budget > 0: explicit load shedding.  Queue delay — how long the
//    oldest queued request has already waited — is the live overload
//    signal.  Past the budget, arrivals are refused with a retriable
//    verdict instead of queued behind a deadline they can't make, and
//    queued kLow parts that have outlived their EFFECTIVE deadline —
//    min(explicit request deadline, enqueue time + budget) — are dropped
//    from the queue.  Under sustained overload the kLow queue drains to
//    zero and kHigh arrivals are refused too, so the sheddable class
//    absorbs the overload first but the budget binds for everyone.
//
// Deadlines (cfg.deadline_aware, default on) add two behaviors:
//
//  * Dispatch-time shed: a part whose explicit deadline is already blown
//    when its batch is assembled is shed BEFORE compute (status
//    kDeadlineExceeded) instead of burning a batch slot on an answer
//    nobody will read.  This applies to both classes — an explicit client
//    deadline outranks the class contract, which only governs *eviction*
//    (admitted kHigh is still never evicted from the queue).
//
//  * Slack-ordered eviction: when admission must drop a queued kLow part
//    (budget restore, or making room for a kHigh arrival), the victim is
//    the one with the LEAST slack — nearest effective deadline — rather
//    than the FIFO head.  With no explicit deadlines the two orders
//    coincide (enqueue + budget is monotone in enqueue time); with mixed
//    deadlines FIFO evicts requests that could still make it while
//    keeping doomed ones.  bench_serving_latency section 6 measures the
//    difference at 2x saturation.
//
// The shed/eviction decisions are pure functions of (entries, now, budget)
// — see effective_deadline / least_slack_index — so test_serve_api replays
// staged synthetic-clock traces and asserts exact victims.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/inference_session.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"
#include "tenancy/fair_share.h"
#include "tenancy/tenant.h"

namespace ppgnn::serve {

struct MicroBatchConfig {
  std::size_t max_batch_size = 64;
  // Longest a request may wait for peers before its batch dispatches.
  std::chrono::microseconds max_delay{200};
  // Admission bound on queued (not yet dispatched) parts.
  std::size_t queue_capacity = 8192;
  // Queue-delay budget for load shedding; zero disables shedding and keeps
  // the blocking-backpressure behavior.
  std::chrono::microseconds shed_budget{0};
  // Off = the FIFO baseline: eviction in FIFO order, no dispatch-time
  // deadline shed (blown deadlines still complete and are *counted* as
  // misses — the bench's comparison arm).
  bool deadline_aware = true;
  // Time source for admission stamps, window closes and stage timings;
  // null = the real steady clock (serve/clock.h).  The dispatcher's
  // condition-variable waits stay real-time regardless — see clock.h for
  // why a sim-clocked batcher dispatches eagerly.
  const Clock* clock = nullptr;
  // Tenant contract table for fair-share batch composition (src/tenancy/).
  // When set, each priority class drains its per-tenant sub-queues by
  // deficit-weighted round-robin using the registry's weights; null (the
  // default) leaves every tenant at weight 1, which for a single-tenant
  // stream is exactly the old global FIFO.  Quota enforcement does NOT
  // live here — that's the fleet front's TenantAdmission; the batcher only
  // arbitrates order among already-admitted parts.
  const tenancy::TenantRegistry* tenants = nullptr;
};

struct BatchCounters {
  std::size_t requests = 0;  // parts dispatched into batches
  std::size_t batches = 0;
  std::size_t max_batch_observed = 0;
  // Admission verdicts, maintained by the batcher itself so they exist
  // even when no ServerStats sink is attached.
  AdmissionCounters admission;
  double mean_batch_size() const {
    return batches ? static_cast<double>(requests) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

// Why try_submit_parts refused a sub-batch.  kOverload is the admission
// verdict proper (queue-delay budget or capacity — the client should back
// off); kDeadline means the request's deadline had already passed at
// submit time.  kDraining is a lifecycle artifact: the replica is being
// retired and was already removed from the routing membership; the
// submitter raced a stale snapshot and should re-route against a fresh
// one (the FleetManager does this transparently).  Draining refusals are
// therefore NOT counted as rejections — the request is not lost, just
// re-homed — so they cannot pollute the shed-rate signal the autoscaler
// watches.
enum class RejectReason : std::uint8_t {
  kNone,
  kOverload,
  kDeadline,
  kDraining
};

// --- Pure slack policy -----------------------------------------------------
// Clock-injected and side-effect free, so the eviction order is testable
// deterministically (test_serve_api stages traces with synthetic
// time_points).

struct SlackView {
  std::chrono::steady_clock::time_point enqueued{};
  // Explicit request deadline; time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

// The deadline the shed policy orders on: the explicit one when given,
// capped by enqueue + budget (the implicit client patience the queue-delay
// budget has always modeled).  With budget <= 0 only the explicit deadline
// binds.
std::chrono::steady_clock::time_point effective_deadline(
    const SlackView& e, std::chrono::steady_clock::duration budget);

// Index of the least-slack entry — nearest effective deadline, ties to the
// lowest index (oldest first under FIFO enqueue order) — or SIZE_MAX when
// empty.  This is the eviction victim order; with no explicit deadlines it
// degenerates to drop-head FIFO.
std::size_t least_slack_index(const std::vector<SlackView>& entries,
                              std::chrono::steady_clock::duration budget);

class MicroBatcher {
 public:
  // stats may be null; when given, per-part latency (submit -> completion),
  // per-batch sizes, admission verdicts, deadline misses and per-stage
  // timings are recorded.
  MicroBatcher(InferenceSession& session, const MicroBatchConfig& cfg,
               ServerStats* stats = nullptr);
  ~MicroBatcher();  // stop() + join

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Admits parts `slots[0..n)` of `state`'s request as one sub-batch,
  // all-or-nothing.  Returns kNone when admitted.  On every TERMINAL
  // refusal (kOverload -> parts finished kShed; kDeadline -> parts
  // finished kDeadlineExceeded) the batcher resolves the parts itself —
  // delivery happens through the envelope's queue as usual.  Only
  // kDraining leaves the parts untouched: the caller re-routes them
  // against a fresh membership snapshot.  With shedding disabled this
  // blocks for queue space (backpressure) and only refuses on draining —
  // except a sub-batch larger than queue_capacity, which can never be
  // admitted and is refused kOverload in either mode (never blocks,
  // never throws: the exactly-one-response contract holds even for a
  // misconfigured giant envelope).  Throws std::runtime_error after
  // stop().
  RejectReason try_submit_parts(const std::shared_ptr<RequestState>& state,
                                const std::uint32_t* slots, std::size_t n);

  // Enters draining: every subsequent submission returns kDraining
  // immediately (blocked backpressure waiters wake and return the same),
  // while everything already admitted — kHigh and kLow alike — still
  // dispatches and completes.  The first step of replica retirement: the
  // fleet unpublishes the replica, calls begin_drain() to bounce racing
  // submitters onto a fresh snapshot, then stop() to finish the queue.
  // Idempotent.
  void begin_drain();
  bool draining() const;

  // Drains everything already admitted, then joins the dispatcher.
  // Idempotent.
  void stop();

  BatchCounters counters() const;
  // Parts admitted but not yet answered: queued (both classes) plus the
  // batch currently in service.  The least-loaded router's load signal —
  // counting the in-service batch is what lets a replica stuck on a slow
  // batch (cold cache, page-cache miss) stop receiving new work.
  std::size_t queue_depth() const;
  // Queued only, in-service excluded — the autoscaler's idle signal.  A
  // healthy replica at moderate load keeps a batch in service almost
  // continuously, so queue_depth() > 0 nearly always; what distinguishes
  // over-provisioning is work *waiting* behind the current batch.
  std::size_t queued() const;

 private:
  // One envelope part in the queue.  enqueued/deadline/tenant are
  // duplicated out of the shared state so the shed policy never chases the
  // pointer.
  struct Pending {
    std::int64_t node = 0;
    std::uint32_t slot = 0;
    std::uint32_t tenant = 0;
    std::shared_ptr<RequestState> state;
    std::chrono::steady_clock::time_point enqueued{};
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  // One priority class's admission queue: FIFO per tenant, tenants
  // arbitrated by DWRR at pop time.  std::map keeps tenant iteration
  // deterministic (sweeps, eviction scans, expiry recomputes all walk
  // tenants in ascending id order — same order every run).  `size` is
  // maintained on every push/pop/erase so queued_locked() stays O(1).
  struct ClassQueue {
    std::map<std::uint32_t, std::deque<Pending>> by_tenant;
    tenancy::DwrrScheduler sched;
    std::size_t size = 0;
    bool empty() const { return size == 0; }
  };

  void dispatcher_loop();
  // Pops up to max_batch_size parts once the batch window closes, kHigh
  // strictly before kLow; deadline-blown parts (deadline_aware) are moved
  // to `expired` instead of the batch.  Returns an empty batch only when
  // stopping with an empty queue.  `pop_time` is when the batch closed.
  std::vector<Pending> next_batch(std::vector<Pending>* expired,
                                  std::chrono::steady_clock::time_point* pop_time);

  std::size_t queued_locked() const {
    return queues_[0].size + queues_[1].size;
  }
  // Appends `p` to its tenant's sub-queue in class `cq`, arming the tenant
  // in the DWRR ring if its queue was empty.
  static void push_locked(ClassQueue& cq, Pending&& p);
  // Pops the next part per the class's DWRR order; `weight_of` maps tenant
  // id -> weight.  Requires a non-empty class.
  template <typename WeightFn>
  Pending pop_next_locked(ClassQueue& cq, WeightFn&& weight_of);
  // Enqueue time of the oldest queued part (either class); only valid
  // when queued_locked() > 0.
  std::chrono::steady_clock::time_point oldest_enqueued_locked() const;
  bool over_budget_locked(std::chrono::steady_clock::time_point now) const;
  // Removes expired kLow parts (effective deadline passed) into *victims.
  // Cheap when nothing expired: gated on low_next_expiry_.
  void sweep_expired_low_locked(std::chrono::steady_clock::time_point now,
                                std::vector<Pending>* victims);
  // Removes the GLOBALLY least-slack (deadline_aware) or globally oldest
  // (FIFO) kLow part — scanned across every tenant sub-queue, never just
  // one tenant's head — into *victims.  Requires a non-empty kLow class.
  void evict_one_low_locked(std::vector<Pending>* victims);
  void recompute_low_expiry_locked();
  // Resolves shed parts (outside the lock) and records the stats — the
  // admission wait of a shed part is recorded too, so the shed-latency
  // column is honest, not zero.
  void finish_shed(std::vector<Pending>& victims,
                   std::chrono::steady_clock::time_point now);

  InferenceSession& session_;
  MicroBatchConfig cfg_;
  ServerStats* stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_arrival_;  // queue became non-empty / stop
  std::condition_variable cv_space_;    // queue has room again
  ClassQueue queues_[2];                // indexed by Priority
  // Earliest effective deadline among queued kLow parts; max() when none.
  // Lets the arrival path skip the expiry sweep in O(1) when nothing can
  // have expired yet.
  std::chrono::steady_clock::time_point low_next_expiry_ =
      std::chrono::steady_clock::time_point::max();
  std::size_t in_service_ = 0;  // size of the batch being served
  BatchCounters counters_;
  bool stop_ = false;
  bool draining_ = false;

  std::thread dispatcher_;
};

}  // namespace ppgnn::serve
