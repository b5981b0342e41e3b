// Single-node clients for the serving tests: one node per ServeRequest,
// answered through the one request API (serve/serve_api.h) — a fleet's
// blocking infer_request, or a MicroBatcher's try_submit_parts into a
// private CompletionQueue.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "serve/micro_batcher.h"
#include "serve/replica_set.h"
#include "serve/serve_api.h"

namespace ppgnn::serve::test {

// Blocking single-node inference through a fleet: the node's logits row,
// or an empty row when the envelope was not answered kOk.
inline std::vector<float> infer_node(FleetManager& fleet, std::int64_t node) {
  ServeRequest req;
  req.nodes = {node};
  ServeResponse r = fleet.infer_request(std::move(req));
  if (r.status != ServeStatus::kOk) return {};
  return std::move(r.logits[0]);
}

// Single-node envelopes submitted straight to one MicroBatcher.  The
// caller names each envelope's id; answers (refusals included — the
// batcher resolves those itself) are collected by id.  The destructor
// waits for every submitted envelope's answer, so the private queue
// always outlives its requests.
class BatcherClient {
 public:
  explicit BatcherClient(MicroBatcher& batcher) : batcher_(batcher) {}
  ~BatcherClient() {
    while (cq_.delivered() < submitted_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  BatcherClient(const BatcherClient&) = delete;
  BatcherClient& operator=(const BatcherClient&) = delete;

  RejectReason submit(std::uint64_t id, std::int64_t node,
                      Priority pri = Priority::kHigh) {
    ServeRequest req;
    req.id = id;
    req.nodes = {node};
    req.priority = pri;
    auto state = std::make_shared<RequestState>(std::move(req), &cq_);
    const std::uint32_t slot = 0;
    const RejectReason reason = batcher_.try_submit_parts(state, &slot, 1);
    // A draining bounce leaves the part unresolved (the caller re-routes);
    // every other outcome is answered through the queue.
    if (reason != RejectReason::kDraining) ++submitted_;
    return reason;
  }

  // Blocks until envelope `id` is answered.
  const ServeResponse& await(std::uint64_t id) {
    for (;;) {
      const auto it = answered_.find(id);
      if (it != answered_.end()) return it->second;
      ServeResponse r;
      if (!cq_.wait_for(&r, std::chrono::seconds(60))) {
        throw std::runtime_error("BatcherClient: envelope never answered");
      }
      const std::uint64_t got = r.id;
      answered_[got] = std::move(r);
    }
  }

  // submit + await under a fresh id: the blocking closed-loop call.
  ServeResponse infer(std::int64_t node) {
    const std::uint64_t id = next_id_++;
    submit(id, node);
    ServeResponse r = await(id);
    answered_.erase(id);
    return r;
  }

 private:
  MicroBatcher& batcher_;
  CompletionQueue cq_;
  std::size_t submitted_ = 0;
  std::uint64_t next_id_ = 1ull << 63;  // clear of caller-chosen ids
  std::map<std::uint64_t, ServeResponse> answered_;
};

}  // namespace ppgnn::serve::test
