// Serving API v2 (src/serve/serve_api.h): the ServeRequest/ServeResponse
// envelope, CompletionQueue delivery, multi-node split/merge, and the
// deadline-aware admission layer behind them.
//
// Determinism strategy mirrors test_autoscale: the shed/eviction POLICY is
// pure and clock-injected (effective_deadline / least_slack_index), so its
// tests replay staged synthetic-clock traces and assert exact victims; the
// runtime tests stage queues with a SlowSource and generous sleep margins
// (sanitizer slowdown must not flip outcomes) or assert completion counts
// and bit-identity rather than timings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/precompute.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/serve_api.h"
#include "serve/server_stats.h"

namespace ppgnn::serve {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Decorator that makes every gather take `delay` of wall time, so a
// dispatched batch occupies the replica long enough for the test to build
// queue state behind it.
class SlowSource : public FeatureSource {
 public:
  SlowSource(std::unique_ptr<FeatureSource> inner,
             std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}
  std::size_t num_rows() const override { return inner_->num_rows(); }
  std::size_t row_dim() const override { return inner_->row_dim(); }
  void gather(const std::vector<std::int64_t>& rows, Tensor& out) override {
    std::this_thread::sleep_for(delay_);
    inner_->gather(rows, out);
  }
  const char* kind() const override { return "slow"; }

 private:
  std::unique_ptr<FeatureSource> inner_;
  std::chrono::milliseconds delay_;
};

struct Fixture {
  graph::Dataset ds;
  core::Preprocessed pre;

  explicit Fixture(double scale = 0.02, std::size_t hops = 2)
      : ds(graph::make_dataset(graph::DatasetName::kPokecSim, scale)) {
    core::PrecomputeConfig pc;
    pc.hops = hops;
    pre = core::precompute(ds.graph, ds.features, pc);
  }

  std::unique_ptr<core::PpModel> make_model(std::uint64_t seed = 7) const {
    Rng rng(seed);
    core::SignConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = pre.num_hops();
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;
    return std::make_unique<core::Sign>(cfg, rng);
  }

  FleetBuilder builder(const std::string& ckpt) const {
    return FleetBuilder(
        ckpt, [this](std::size_t i) { return make_model(100 + i); },
        [this](std::size_t) { return std::make_unique<MemorySource>(pre); });
  }

  std::string deploy(const char* name) const {
    const std::string ckpt = tmp_path(name);
    auto trained = make_model(21);
    save_deployed_model(*trained, ckpt);
    return ckpt;
  }

  std::unique_ptr<InferenceSession> make_slow_session(
      std::chrono::milliseconds delay) const {
    return std::make_unique<InferenceSession>(
        make_model(), std::make_unique<SlowSource>(
                          std::make_unique<MemorySource>(pre), delay));
  }
};

// --- Pure pieces ----------------------------------------------------------

TEST(ServeApi, TopKOrderedByScoreTiesToLowerClass) {
  const float row[] = {0.5f, 2.0f, -1.0f, 2.0f, 1.0f};
  const auto top = topk_of_row(row, 5, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].cls, 1);  // 2.0, lower id wins the tie with class 3
  EXPECT_EQ(top[1].cls, 3);  // 2.0
  EXPECT_EQ(top[2].cls, 4);  // 1.0
  EXPECT_FLOAT_EQ(top[0].score, 2.0f);
  // k > n clamps.
  EXPECT_EQ(topk_of_row(row, 5, 99).size(), 5u);
}

TEST(ServeApi, WorseStatusTakesTheWorstPart) {
  EXPECT_EQ(worse_status(ServeStatus::kOk, ServeStatus::kShed),
            ServeStatus::kShed);
  EXPECT_EQ(worse_status(ServeStatus::kDeadlineExceeded, ServeStatus::kShed),
            ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(worse_status(ServeStatus::kOk, ServeStatus::kOk),
            ServeStatus::kOk);
  EXPECT_EQ(worse_status(ServeStatus::kDraining, ServeStatus::kError),
            ServeStatus::kError);
}

// The shed policy is a pure function of (entries, now, budget): replay a
// staged synthetic-clock trace and assert the exact victim order — the
// determinism the deadline-shed machinery inherits.
TEST(SlackPolicy, StagedSyntheticClockTraceOrdersBySlackNotFifo) {
  using tp = std::chrono::steady_clock::time_point;
  using ms = std::chrono::milliseconds;
  const tp t0{};  // synthetic epoch
  const auto budget = ms(10);
  // Staged queue, enqueue order e0..e3 (FIFO order), deadlines out of
  // order:
  //   e0: enqueued 0ms, no explicit deadline  -> effective 10ms
  //   e1: enqueued 2ms, deadline 6ms          -> effective  6ms
  //   e2: enqueued 4ms, deadline 30ms         -> effective 14ms
  //   e3: enqueued 5ms, no explicit deadline  -> effective 15ms
  std::vector<SlackView> q{{t0, tp::max()},
                           {t0 + ms(2), t0 + ms(6)},
                           {t0 + ms(4), t0 + ms(30)},
                           {t0 + ms(5), tp::max()}};
  EXPECT_EQ(effective_deadline(q[0], budget), t0 + ms(10));
  EXPECT_EQ(effective_deadline(q[1], budget), t0 + ms(6));
  EXPECT_EQ(effective_deadline(q[2], budget), t0 + ms(14));
  EXPECT_EQ(effective_deadline(q[3], budget), t0 + ms(15));
  // Eviction order: e1 (6ms) first — FIFO would have killed e0, which
  // still has 10ms of life.  Then e0, e2, e3.
  EXPECT_EQ(least_slack_index(q, budget), 1u);
  q.erase(q.begin() + 1);
  EXPECT_EQ(least_slack_index(q, budget), 0u);  // e0
  q.erase(q.begin());
  EXPECT_EQ(least_slack_index(q, budget), 0u);  // e2 (14 < 15)
  q.erase(q.begin());
  EXPECT_EQ(least_slack_index(q, budget), 0u);  // e3 last
  // Zero budget: only explicit deadlines bind.
  std::vector<SlackView> open{{t0, tp::max()}, {t0 + ms(1), t0 + ms(4)}};
  EXPECT_EQ(effective_deadline(open[0], ms(0)), tp::max());
  EXPECT_EQ(least_slack_index(open, ms(0)), 1u);
  // No explicit deadlines at all: slack order degenerates to drop-head
  // FIFO (oldest entry has the nearest aged deadline; ties keep index 0).
  std::vector<SlackView> fifo{{t0, tp::max()},
                              {t0 + ms(1), tp::max()},
                              {t0 + ms(2), tp::max()}};
  EXPECT_EQ(least_slack_index(fifo, budget), 0u);
  EXPECT_EQ(least_slack_index({}, budget), SIZE_MAX);
}

TEST(ServeApi, SplitByRingGroupsSlotsByHome) {
  const HashRing ring({10, 11, 12});
  std::vector<std::int64_t> nodes{0, 1, 2, 3, 4, 5, 0, 1};
  std::vector<std::uint32_t> slots(nodes.size());
  for (std::uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
  const auto groups = split_by_ring(nodes, slots, ring);
  std::size_t total = 0;
  for (const auto& g : groups) {
    ASSERT_LT(g.member, 3u);
    for (const auto slot : g.slots) {
      // Every slot lands on its node's ring home — the cache_affinity
      // invariant the envelope split must preserve.
      EXPECT_EQ(g.member, ring.lookup(nodes[slot])) << "slot " << slot;
      ++total;
    }
  }
  EXPECT_EQ(total, nodes.size());
  // Pure function of (nodes, slots, ring): identical call, identical split.
  const auto again = split_by_ring(nodes, slots, ring);
  ASSERT_EQ(again.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(again[g].member, groups[g].member);
    EXPECT_EQ(again[g].slots, groups[g].slots);
  }
}

TEST(CompletionQueue, PollWaitAndCallbackModes) {
  CompletionQueue polled;
  ServeResponse r;
  EXPECT_FALSE(polled.poll(&r));
  {
    ServeResponse in;
    in.id = 42;
    polled.deliver(std::move(in));
  }
  EXPECT_EQ(polled.ready(), 1u);
  ASSERT_TRUE(polled.poll(&r));
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(polled.delivered(), 1u);
  EXPECT_FALSE(polled.wait_for(&r, std::chrono::milliseconds(1)));

  std::atomic<std::uint64_t> seen{0};
  CompletionQueue cb([&seen](ServeResponse&& resp) { seen = resp.id; });
  ServeResponse in;
  in.id = 7;
  cb.deliver(std::move(in));
  EXPECT_EQ(seen.load(), 7u);
  EXPECT_EQ(cb.delivered(), 1u);
  EXPECT_EQ(cb.ready(), 0u);  // callback mode never queues
}

// --- ServerStats: per-stage gauges + the shed-wait honesty fix ------------

TEST(ServerStats, StageGaugesRecordShedWaitAndSurviveMergeOnce) {
  ServerStats a;
  a.record_stages(100.0, 10.0, 50.0);
  a.record_stages(300.0, 30.0, 150.0);
  // The bugfix under test: a request shed before dispatch still records
  // the admission wait its client paid — the shed-latency column must not
  // read zero.
  a.record_shed_wait(2000.0);
  a.record_deadline_miss();

  ServerStats pooled;
  EXPECT_TRUE(pooled.merge_once(a, 3));
  EXPECT_FALSE(pooled.merge_once(a, 3));  // idempotent per generation
  const StageGauges s = pooled.stages();
  EXPECT_EQ(s.dispatched, 2u);
  EXPECT_DOUBLE_EQ(s.mean_admission_us(), 200.0);
  EXPECT_DOUBLE_EQ(s.mean_dispatch_us(), 20.0);
  EXPECT_DOUBLE_EQ(s.mean_compute_us(), 100.0);
  EXPECT_EQ(s.shed_waits, 1u);
  EXPECT_DOUBLE_EQ(s.mean_shed_wait_us(), 2000.0);
  EXPECT_EQ(pooled.deadline_missed(), 1u);
  const auto json = s.to_json();
  EXPECT_NE(json.find("\"shed_wait_us\":2000.0"), std::string::npos) << json;
}

// --- Envelope answers: split/merge bit-identity ---------------------------

TEST(ServeApi, MultiNodeEnvelopeBitIdenticalToInferNodesPerPolicy) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_envelope.ckpt");
  auto ref_model = fx.make_model(99);
  load_deployed_model(*ref_model, ckpt);
  InferenceSession reference(std::move(ref_model),
                             std::make_unique<MemorySource>(fx.pre));

  for (const auto policy : {RoutingPolicy::kRoundRobin,
                            RoutingPolicy::kLeastLoaded,
                            RoutingPolicy::kCacheAffinity}) {
    FleetConfig fc;
    fc.policy = policy;
    fc.batch.max_delay = std::chrono::microseconds(100);
    FleetManager fleet(fx.builder(ckpt), 3, fc);
    for (std::uint64_t id = 0; id < 12; ++id) {
      // Envelopes span shards and repeat nodes — the split must merge
      // every slot back into request order.
      ServeRequest req;
      req.id = id;
      const auto base = static_cast<std::int64_t>(id * 3);
      req.nodes = {base, base + 7, base + 1, base};
      const Tensor want = reference.infer_nodes(req.nodes);
      const ServeResponse r = fleet.infer_request(std::move(req));
      EXPECT_EQ(r.id, id);
      ASSERT_EQ(r.status, ServeStatus::kOk) << serve_status_name(r.status);
      ASSERT_EQ(r.logits.size(), 4u);
      for (std::size_t i = 0; i < r.logits.size(); ++i) {
        ASSERT_EQ(r.logits[i].size(), want.cols());
        for (std::size_t j = 0; j < want.cols(); ++j) {
          EXPECT_EQ(r.logits[i][j], want.at(i, j))
              << policy_name(policy) << " envelope " << id << " slot " << i
              << " logit " << j;
        }
      }
      // Answered requests report a real stage profile.
      EXPECT_GT(r.timings.compute_us, 0.0);
      EXPECT_GE(r.timings.admission_wait_us, 0.0);
    }
    fleet.stop();
  }
}

TEST(ServeApi, TopKModeMatchesArgmaxOfFullLogits) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_topk.ckpt");
  auto ref_model = fx.make_model(99);
  load_deployed_model(*ref_model, ckpt);
  InferenceSession reference(std::move(ref_model),
                             std::make_unique<MemorySource>(fx.pre));

  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 2, fc);
  ServeRequest req;
  req.nodes = {3, 11, 5};
  req.mode = ResultMode::kTopK;
  req.topk = 2;
  const ServeResponse r = fleet.infer_request(std::move(req));
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(r.logits.empty());  // top-k mode ships no full rows
  ASSERT_EQ(r.topk.size(), 3u);
  const std::vector<std::int64_t> nodes{3, 11, 5};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto full = reference.infer_one(nodes[i]);
    const auto want = topk_of_row(full.data(), full.size(), 2);
    ASSERT_EQ(r.topk[i].size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(r.topk[i][k].cls, want[k].cls) << "slot " << i;
      EXPECT_EQ(r.topk[i][k].score, want[k].score) << "slot " << i;
    }
  }
  fleet.stop();
}

// --- Deadlines ------------------------------------------------------------

TEST(ServeApi, PreBlownDeadlineRefusedWithoutCompute) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_blown.ckpt");
  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 1, fc);
  ServeRequest req;
  req.nodes = {0, 1};
  req.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const ServeResponse r = fleet.infer_request(std::move(req));
  EXPECT_EQ(r.status, ServeStatus::kDeadlineExceeded);
  for (const auto& row : r.logits) EXPECT_TRUE(row.empty());
  EXPECT_EQ(fleet.aggregate_deadline_missed(), 2u);  // both parts
  // The fleet still answers in-budget work afterwards.
  ServeRequest ok;
  ok.nodes = {0};
  EXPECT_EQ(fleet.infer_request(std::move(ok)).status, ServeStatus::kOk);
  fleet.stop();
}

TEST(ServeApi, BlownDeadlineShedAtDispatchRecordsWaitNotCompute) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1;  // A dispatches alone; B waits behind it
  cfg.max_delay = std::chrono::microseconds(100);
  ServerStats stats;
  MicroBatcher batcher(*session, cfg, &stats);

  CompletionQueue cq;
  // A: no deadline, holds the replica in service for ~60ms.
  auto a = std::make_shared<RequestState>(
      [] {
        ServeRequest r;
        r.nodes = {0};
        return r;
      }(),
      &cq);
  const std::uint32_t slot0 = 0;
  ASSERT_EQ(batcher.try_submit_parts(a, &slot0, 1), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // A in service
  // B: live at admission (20ms of slack) but blown by the time A's 60ms
  // batch releases the dispatcher, so B's batch slot must be shed BEFORE
  // compute.
  auto b = std::make_shared<RequestState>(
      [] {
        ServeRequest r;
        r.id = 1;
        r.nodes = {1};
        r.deadline = deadline_in(std::chrono::milliseconds(20));
        return r;
      }(),
      &cq);
  ASSERT_EQ(batcher.try_submit_parts(b, &slot0, 1), RejectReason::kNone);

  ServeResponse first, second;
  ASSERT_TRUE(cq.wait_for(&first, std::chrono::milliseconds(5000)));
  ASSERT_TRUE(cq.wait_for(&second, std::chrono::milliseconds(5000)));
  const ServeResponse& rb = first.id == 1 ? first : second;
  const ServeResponse& ra = first.id == 1 ? second : first;
  EXPECT_EQ(ra.status, ServeStatus::kOk);
  EXPECT_EQ(rb.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(rb.logits[0].empty());  // shed pre-compute: no results
  // The honest shed column: B's admission wait (>= its 10ms deadline) is
  // recorded, not zero — both in its own response and in the gauges.
  EXPECT_GT(rb.timings.admission_wait_us, 0.0);
  EXPECT_DOUBLE_EQ(rb.timings.compute_us, 0.0);
  const StageGauges gauges = stats.stages();
  EXPECT_EQ(gauges.shed_waits, 1u);
  EXPECT_GT(gauges.mean_shed_wait_us(), 0.0);
  EXPECT_EQ(stats.deadline_missed(), 1u);
  EXPECT_EQ(batcher.counters().admission.shed, 1u);
  batcher.stop();
}

TEST(ServeApi, OversizedSubBatchRefusedNotThrownOrBlocked) {
  const Fixture fx;
  auto model = fx.make_model();
  InferenceSession session(std::move(model),
                           std::make_unique<MemorySource>(fx.pre));
  for (const long budget_us : {0L, 5000L}) {  // backpressure and shedding
    MicroBatchConfig cfg;
    cfg.max_delay = std::chrono::microseconds(100);
    cfg.queue_capacity = 4;
    cfg.shed_budget = std::chrono::microseconds(budget_us);
    MicroBatcher batcher(session, cfg);
    CompletionQueue cq;
    ServeRequest req;
    for (std::int64_t i = 0; i < 6; ++i) req.nodes.push_back(i);
    auto state = std::make_shared<RequestState>(std::move(req), &cq);
    std::vector<std::uint32_t> slots{0, 1, 2, 3, 4, 5};
    // 6 parts can never fit a 4-slot queue: a permanent overload refusal
    // in either mode — it must neither block the backpressure wait
    // forever nor throw out of the exactly-one-response contract.
    EXPECT_EQ(batcher.try_submit_parts(state, slots.data(), slots.size()),
              RejectReason::kOverload);
    ServeResponse r;
    ASSERT_TRUE(cq.wait_for(&r, std::chrono::milliseconds(1000)));
    EXPECT_EQ(r.status, ServeStatus::kShed);
    EXPECT_EQ(batcher.counters().admission.rejected, 6u);
    batcher.stop();
  }
}

TEST(ServeApi, HighSubBatchDoesNotEvictLowItCannotBeAdmittedOver) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1;  // first part dispatches alone, rest queue
  cfg.max_delay = std::chrono::microseconds(100);
  cfg.queue_capacity = 4;
  cfg.shed_budget = std::chrono::seconds(10);  // never binds
  MicroBatcher batcher(*session, cfg);
  CompletionQueue cq;
  const auto envelope = [&](std::initializer_list<std::int64_t> nodes,
                            Priority pri) {
    ServeRequest r;
    r.nodes = nodes;
    r.priority = pri;
    return std::make_shared<RequestState>(std::move(r), &cq);
  };
  // One kHigh in service, then 3 kHigh + 1 kLow queued: the queue is
  // full with only one sheddable slot.
  auto serving = envelope({0}, Priority::kHigh);
  const std::uint32_t slot0 = 0;
  ASSERT_EQ(batcher.try_submit_parts(serving, &slot0, 1),
            RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto high3 = envelope({1, 2, 3}, Priority::kHigh);
  const std::uint32_t s3[] = {0, 1, 2};
  ASSERT_EQ(batcher.try_submit_parts(high3, s3, 3), RejectReason::kNone);
  auto low1 = envelope({4}, Priority::kLow);
  ASSERT_EQ(batcher.try_submit_parts(low1, &slot0, 1), RejectReason::kNone);
  // A 2-part kHigh arrival needs 2 slots but only 1 kLow is evictable:
  // the admission cannot succeed, so the servable kLow must NOT be
  // killed for it — refuse the kHigh and keep the kLow.
  auto high2 = envelope({5, 6}, Priority::kHigh);
  const std::uint32_t s2[] = {0, 1};
  EXPECT_EQ(batcher.try_submit_parts(high2, s2, 2),
            RejectReason::kOverload);
  EXPECT_EQ(batcher.counters().admission.shed, 0u);  // kLow survived
  // A 1-part kHigh still evicts the kLow, exactly as PR 2 did.
  auto high1 = envelope({7}, Priority::kHigh);
  EXPECT_EQ(batcher.try_submit_parts(high1, &slot0, 1),
            RejectReason::kNone);
  EXPECT_EQ(batcher.counters().admission.shed, 1u);
  batcher.stop();
  // Drain every response: 5 envelopes in total — serving, high3 and
  // high1 answer kOk; high2 (refused) and low1 (evicted) come back shed.
  std::size_t ok = 0, shed = 0;
  ServeResponse r;
  while (cq.delivered() < 5 || cq.ready() > 0) {
    if (!cq.wait_for(&r, std::chrono::milliseconds(1000))) break;
    (r.status == ServeStatus::kOk ? ok : shed)++;
  }
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(shed, 2u);
}

TEST(ServeApi, StoppedFleetAnswersDrainingInsteadOfThrowing) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_stopped.ckpt");
  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 1, fc);
  fleet.stop();
  CompletionQueue cq;
  ServeRequest req;
  req.nodes = {0, 1, 2};
  fleet.submit(std::move(req), cq);
  ServeResponse r;
  ASSERT_TRUE(cq.wait_for(&r, std::chrono::milliseconds(1000)));
  EXPECT_EQ(r.status, ServeStatus::kDraining);
}

// --- One node per envelope vs many ----------------------------------------

TEST(ServeApi, SingleNodeEnvelopesBitIdenticalToOneMultiNodeEnvelope) {
  // Round robin spreads the single-node envelopes over both replicas and
  // batches them alone; the 20-node envelope lands whole on one replica
  // in one batch.  Neither the replica nor the batch composition may
  // change a single bit of any answer.
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_shapes.ckpt");
  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 2, fc);
  ServeRequest all;
  for (std::int64_t node = 0; node < 20; ++node) all.nodes.push_back(node);
  const ServeResponse whole = fleet.infer_request(all);
  ASSERT_EQ(whole.status, ServeStatus::kOk);
  for (std::int64_t node = 0; node < 20; ++node) {
    ServeRequest req;
    req.nodes = {node};
    const ServeResponse r = fleet.infer_request(std::move(req));
    ASSERT_EQ(r.status, ServeStatus::kOk);
    const auto& want = whole.logits[static_cast<std::size_t>(node)];
    ASSERT_EQ(r.logits[0].size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(r.logits[0][j], want[j]) << "node " << node;
    }
  }
  fleet.stop();
}

// --- No completion lost across resizes ------------------------------------

TEST(ServeApi, EightThreadHammerLosesNoCompletionsAcrossResizes) {
  const Fixture fx;
  const std::string ckpt = fx.deploy("api_hammer.ckpt");
  FleetConfig fc;
  fc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager fleet(fx.builder(ckpt), 2, fc);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  std::atomic<std::size_t> ok{0}, not_ok{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      CompletionQueue cq;  // caller-owned; outlives its requests
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // Multi-node envelopes in backpressure mode: every part must be
        // admitted somewhere and merged back — a resize mid-flight may
        // bounce a sub-batch off a draining replica, but the re-route
        // must land it.
        ServeRequest req;
        req.id = t * kPerThread + i;
        const auto base = static_cast<std::int64_t>((t * 37 + i) % 90);
        req.nodes = {base, base + 5, base + 9};
        fleet.submit(std::move(req), cq);
        ServeResponse r;
        while (cq.poll(&r)) {
          (r.status == ServeStatus::kOk ? ok : not_ok).fetch_add(1);
        }
      }
      // Drain the tail: exactly kPerThread responses in total.
      ServeResponse r;
      while (cq.delivered() < kPerThread) {
        if (cq.wait_for(&r, std::chrono::milliseconds(100))) {
          (r.status == ServeStatus::kOk ? ok : not_ok).fetch_add(1);
        }
      }
      while (cq.poll(&r)) {
        (r.status == ServeStatus::kOk ? ok : not_ok).fetch_add(1);
      }
    });
  }
  go.store(true);
  // Resize storm concurrent with the hammer: grow to 4, shrink to 1,
  // repeatedly — every transition publishes a new epoch.
  for (int cycle = 0; cycle < 3; ++cycle) {
    fleet.scale_up();
    fleet.scale_up();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet.scale_down();
    fleet.scale_down();
    fleet.scale_down();  // down to 1
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet.scale_up();  // back to 2 for the next cycle
  }
  for (auto& c : clients) c.join();

  // Zero completions lost through the CompletionQueue, and in
  // backpressure mode every one of them answered.
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(not_ok.load(), 0u);
  // Admissions across all generations account for every PART exactly
  // once: draining bounces are re-routes, not losses or double counts.
  EXPECT_EQ(fleet.aggregate_admission().admitted, kThreads * kPerThread * 3);
  EXPECT_EQ(fleet.aggregate_latency().count, kThreads * kPerThread * 3);
  fleet.stop();
}

}  // namespace
}  // namespace ppgnn::serve
