// Replication, routing and admission control (src/serve/replica_set.h,
// router.h, and the MicroBatcher shed path).
//
// The shedding tests stage overload deterministically instead of racing
// real load: a SlowSource pins each dispatch in service for tens of
// milliseconds while the test arranges the queue it wants, then asserts
// exact admission verdicts.  Sleeps are generous multiples of the staged
// budgets so sanitizer slowdown (ASan ~2x) doesn't flip outcomes.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/precompute.h"
#include "core/sign.h"
#include "graph/dataset.h"
#include "serve/feature_source.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/replica_set.h"
#include "serve/router.h"
#include "serve/server_stats.h"
#include "serve_client.h"

namespace ppgnn::serve {
namespace {

using test::BatcherClient;
using test::infer_node;

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

  std::unique_ptr<InferenceSession> make_slow_session(
      std::chrono::milliseconds delay) const {
    return std::make_unique<InferenceSession>(
        make_model(), std::make_unique<SlowSource>(
                          std::make_unique<MemorySource>(pre), delay));
  }

  // The deployment recipe every fleet here is stamped from.
  FleetBuilder builder(const std::string& ckpt,
                       Precision precision = Precision::kFp32) const {
    return FleetBuilder(
        ckpt, [this](std::size_t i) { return make_model(100 + i); },
        [this](std::size_t) { return std::make_unique<MemorySource>(pre); },
        precision);
  }
};

// --- Router policies ------------------------------------------------------

RouteTargets targets_of(std::size_t count, const QueueDepthFn* depth,
                        const HashRing* ring) {
  RouteTargets t;
  t.count = count;
  t.queue_depth = depth;
  t.ring = ring;
  return t;
}

TEST(Router, RoundRobinCycles) {
  auto r = make_router(RoutingPolicy::kRoundRobin);
  const QueueDepthFn poison = [](std::size_t) -> std::size_t {
    ADD_FAILURE() << "round_robin must not read load";
    return 0;
  };
  const RouteTargets t = targets_of(3, &poison, nullptr);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(r->route(/*node=*/99, t), 0u);
    EXPECT_EQ(r->route(99, t), 1u);
    EXPECT_EQ(r->route(99, t), 2u);
  }
}

TEST(Router, RoundRobinStaysInRangeAcrossResizes) {
  auto r = make_router(RoutingPolicy::kRoundRobin);
  const QueueDepthFn none = [](std::size_t) { return std::size_t{0}; };
  // The shared counter survives snapshot changes; only the modulus moves.
  for (const std::size_t count : {3u, 5u, 2u, 4u}) {
    const RouteTargets t = targets_of(count, &none, nullptr);
    for (int i = 0; i < 10; ++i) EXPECT_LT(r->route(0, t), count);
  }
}

TEST(Router, LeastLoadedPicksShallowestLowIndexOnTies) {
  auto r = make_router(RoutingPolicy::kLeastLoaded);
  const std::vector<std::size_t> depths{5, 2, 7};
  const QueueDepthFn by_table = [&](std::size_t i) { return depths[i]; };
  EXPECT_EQ(r->route(0, targets_of(3, &by_table, nullptr)), 1u);
  const QueueDepthFn flat = [](std::size_t) { return std::size_t{3}; };
  EXPECT_EQ(r->route(0, targets_of(3, &flat, nullptr)), 0u);
}

TEST(Router, CacheAffinityIsDeterministicPerNodeId) {
  auto a = make_router(RoutingPolicy::kCacheAffinity);
  auto b = make_router(RoutingPolicy::kCacheAffinity);
  const HashRing ring({10, 11, 12, 13});  // generation ids, any values
  const RouteTargets t = targets_of(4, nullptr, &ring);
  std::vector<std::size_t> hits(4, 0);
  for (std::int64_t node = 0; node < 1000; ++node) {
    const std::size_t want = ring.lookup(node);
    // Stable across repeated calls and across independent router
    // instances — the property a cache warmer relies on.
    EXPECT_EQ(a->route(node, t), want);
    EXPECT_EQ(a->route(node, t), want);
    EXPECT_EQ(b->route(node, t), want);
    ++hits[want];
  }
  // The ring spreads the key space: no replica starves or hogs.
  for (const auto h : hits) {
    EXPECT_GT(h, 150u);
    EXPECT_LT(h, 350u);
  }
}

TEST(Router, ParsePolicyNamesRoundTrip) {
  for (const auto p : {RoutingPolicy::kRoundRobin, RoutingPolicy::kLeastLoaded,
                       RoutingPolicy::kCacheAffinity}) {
    RoutingPolicy got;
    ASSERT_TRUE(parse_policy(policy_name(p), &got));
    EXPECT_EQ(got, p);
  }
  RoutingPolicy got;
  EXPECT_FALSE(parse_policy("power_of_two", &got));
}

// --- Admission control ----------------------------------------------------

TEST(Shedding, QueuedLowSheddedPastDelayBudgetWithRetriableStatus) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 2;
  cfg.max_delay = std::chrono::microseconds(1000);
  cfg.shed_budget = std::chrono::microseconds(5000);  // 5ms
  ServerStats stats;
  MicroBatcher batcher(*session, cfg, &stats);
  BatcherClient client(batcher);  // envelope id = node below

  // A dispatches alone (1ms window elapses before B/C arrive) and holds
  // the replica in service for 60ms.
  ASSERT_EQ(client.submit(0, 0, Priority::kLow), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(client.submit(1, 1, Priority::kLow), RejectReason::kNone);
  ASSERT_EQ(client.submit(2, 2, Priority::kLow), RejectReason::kNone);
  // Let B age far past the 5ms budget while A is still in service.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // D's arrival finds the queue head over budget: drop-head sheds B and C,
  // which empties the low queue, so D itself is admitted.
  EXPECT_EQ(client.submit(3, 3, Priority::kLow), RejectReason::kNone);

  EXPECT_EQ(client.await(0).status, ServeStatus::kOk);
  // Shed requests answer kShed — the retriable status — not a data error.
  EXPECT_EQ(client.await(1).status, ServeStatus::kShed);
  EXPECT_EQ(client.await(2).status, ServeStatus::kShed);
  EXPECT_EQ(client.await(3).status, ServeStatus::kOk);

  const auto counters = batcher.counters();
  EXPECT_EQ(counters.admission.admitted, 4u);
  EXPECT_EQ(counters.admission.shed, 2u);
  EXPECT_EQ(counters.admission.rejected, 0u);
  const auto adm = stats.admission();
  EXPECT_EQ(adm.admitted, 4u);
  EXPECT_EQ(adm.shed, 2u);
  EXPECT_DOUBLE_EQ(adm.reject_rate(), 0.0);
  EXPECT_NEAR(adm.shed_rate(), 0.5, 1e-9);
}

TEST(Shedding, ArrivalsRejectedWhenHeadOfLineExceedsBudget) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1;
  cfg.max_delay = std::chrono::microseconds(100);
  cfg.shed_budget = std::chrono::microseconds(5000);
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);

  // A is dispatched alone; B queues behind it.
  ASSERT_EQ(client.submit(0, 0, Priority::kHigh), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(client.submit(1, 1, Priority::kHigh), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // B has waited 20ms > budget and there is no kLow to shed: the batcher
  // refuses new work of either class rather than queueing behind a
  // deadline it cannot meet — answered at once, with the retriable kShed.
  for (const auto& [id, pri] : {std::pair{2, Priority::kHigh},
                                std::pair{3, Priority::kLow},
                                std::pair{4, Priority::kHigh}}) {
    EXPECT_EQ(client.submit(id, id, pri), RejectReason::kOverload)
        << "envelope " << id;
    EXPECT_EQ(client.await(id).status, ServeStatus::kShed)
        << "envelope " << id;
  }
  EXPECT_EQ(client.await(0).status, ServeStatus::kOk);
  EXPECT_EQ(client.await(1).status, ServeStatus::kOk);
  EXPECT_EQ(batcher.counters().admission.rejected, 3u);
}

TEST(Shedding, HighPrioritySurvivesWhereQueuedLowIsShed) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1;
  cfg.max_delay = std::chrono::microseconds(100);
  cfg.shed_budget = std::chrono::microseconds(5000);
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);

  // A is in service; then two kLow (1, 2) and one kHigh (3) queue.
  ASSERT_EQ(client.submit(0, 0, Priority::kLow), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(client.submit(1, 1, Priority::kLow), RejectReason::kNone);
  ASSERT_EQ(client.submit(2, 2, Priority::kLow), RejectReason::kNone);
  ASSERT_EQ(client.submit(3, 3, Priority::kHigh), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Everything queued is over budget.  The shed pass drops only the kLow
  // entries; the queued kHigh request keeps its slot and is answered.
  // Head-of-line is now kHigh, still over budget -> the kLow arrival is
  // refused.
  EXPECT_EQ(client.submit(4, 4, Priority::kLow), RejectReason::kOverload);
  EXPECT_EQ(client.await(1).status, ServeStatus::kShed);
  EXPECT_EQ(client.await(2).status, ServeStatus::kShed);
  EXPECT_EQ(client.await(3).status, ServeStatus::kOk);
  EXPECT_EQ(client.await(0).status, ServeStatus::kOk);
  const auto counters = batcher.counters();
  EXPECT_EQ(counters.admission.shed, 2u);
  EXPECT_EQ(counters.admission.rejected, 1u);
}

TEST(Shedding, FullQueueEvictsLowToAdmitHighAndDispatchesHighFirst) {
  const Fixture fx;
  auto session = fx.make_slow_session(std::chrono::milliseconds(60));
  MicroBatchConfig cfg;
  cfg.max_batch_size = 1;
  cfg.max_delay = std::chrono::microseconds(100);
  cfg.queue_capacity = 2;
  cfg.shed_budget = std::chrono::seconds(10);  // shedding on, budget never
                                               // binds — isolates capacity
  MicroBatcher batcher(*session, cfg);
  BatcherClient client(batcher);

  ASSERT_EQ(client.submit(0, 0, Priority::kLow), RejectReason::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // A in service
  ASSERT_EQ(client.submit(1, 1, Priority::kLow), RejectReason::kNone);
  ASSERT_EQ(client.submit(2, 2, Priority::kLow),
            RejectReason::kNone);  // queue now full
  // A kLow arrival bounces off the full queue...
  EXPECT_EQ(client.submit(3, 3, Priority::kLow), RejectReason::kOverload);
  // ...but a kHigh arrival evicts the oldest queued kLow instead.
  EXPECT_EQ(client.submit(4, 4, Priority::kHigh), RejectReason::kNone);
  EXPECT_EQ(client.await(1).status, ServeStatus::kShed);
  EXPECT_EQ(client.await(4).status, ServeStatus::kOk);
  EXPECT_EQ(client.await(2).status, ServeStatus::kOk);
  EXPECT_EQ(client.await(0).status, ServeStatus::kOk);
  const auto counters = batcher.counters();
  EXPECT_EQ(counters.admission.shed, 1u);
  EXPECT_EQ(counters.admission.rejected, 1u);
  EXPECT_EQ(counters.admission.admitted, 4u);
}

// --- Fixed fleets ---------------------------------------------------------

TEST(FixedFleet, NReplicaResultsBitIdenticalToSingleSession) {
  const Fixture fx;
  const std::string ckpt = tmp_path("replica_deploy.ckpt");
  {
    auto trained = fx.make_model(21);
    save_deployed_model(*trained, ckpt);
  }
  // Reference: one session, same checkpoint.
  auto ref_model = fx.make_model(99);  // different init, overwritten by load
  load_deployed_model(*ref_model, ckpt);
  InferenceSession reference(std::move(ref_model),
                             std::make_unique<MemorySource>(fx.pre));

  for (const auto policy : {RoutingPolicy::kRoundRobin,
                            RoutingPolicy::kLeastLoaded,
                            RoutingPolicy::kCacheAffinity}) {
    FleetConfig rc;
    rc.policy = policy;
    rc.batch.max_delay = std::chrono::microseconds(100);
    FleetManager set(fx.builder(ckpt).build_n(3), rc);
    for (std::int64_t node = 0; node < 40; ++node) {
      const auto got = infer_node(set, node);
      const auto want = reference.infer_one(node);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j], want[j])
            << "policy " << policy_name(policy) << " node " << node
            << " logit " << j;
      }
    }
  }
}

// The ROADMAP's INT8 relaxation: at Precision::kInt8 exact bit-identity
// against the *fp32* reference is replaced by a quantization-error bound —
// but the fleet itself must still be deterministic: every int8 replica
// shares one immutable quantized weight block, so replica answers match
// each other bit for bit, and the whole fleet matches a single int8
// session bit for bit.  fp32 fleets keep the exact test above.
TEST(FixedFleet, Int8FleetDeterministicAndWithinQuantizationBoundOfFp32) {
  const Fixture fx;
  const std::string ckpt = tmp_path("replica_int8.ckpt");
  {
    auto trained = fx.make_model(21);
    save_deployed_model(*trained, ckpt, Precision::kInt8);
  }
  // fp32 reference over the same deployed weights.
  auto ref_model = fx.make_model(99);
  load_deployed_model(*ref_model, ckpt);
  InferenceSession reference(std::move(ref_model),
                             std::make_unique<MemorySource>(fx.pre));
  // Single int8 session: the determinism baseline for the fleet.
  auto single_sessions = fx.builder(ckpt, Precision::kInt8).build_n(1);
  InferenceSession& single = *single_sessions[0];

  FleetConfig rc;
  rc.precision = Precision::kInt8;
  rc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager set(fx.builder(ckpt, Precision::kInt8).build_n(3), rc);
  EXPECT_EQ(set.precision(), Precision::kInt8);

  std::size_t agree = 0;
  const std::int64_t n_nodes = 60;
  for (std::int64_t node = 0; node < n_nodes; ++node) {
    const auto got = infer_node(set, node);
    const auto int8_want = single.infer_one(node);
    const auto fp32_want = reference.infer_one(node);
    ASSERT_EQ(got.size(), fp32_want.size());
    std::size_t got_top = 0, want_top = 0;
    for (std::size_t j = 0; j < got.size(); ++j) {
      // Deterministic: whichever replica answered, bit-equal to the
      // single int8 session.
      EXPECT_EQ(got[j], int8_want[j]) << "node " << node << " logit " << j;
      // Relaxed vs fp32: bounded error, not equality.
      EXPECT_NEAR(got[j], fp32_want[j], 0.1) << "node " << node;
      if (got[j] > got[got_top]) got_top = j;
      if (fp32_want[j] > fp32_want[want_top]) want_top = j;
    }
    if (got_top == want_top) ++agree;
  }
  // Top-1 agreement bound (untrained random model — the serving gate runs
  // the trained-model version of this at >= 99%).
  EXPECT_GE(agree * 10, static_cast<std::size_t>(n_nodes) * 9);
}

TEST(FixedFleet, RejectsPrecisionMismatchBetweenSessionsAndConfig) {
  const Fixture fx;
  const std::string ckpt = tmp_path("replica_mismatch.ckpt");
  {
    auto trained = fx.make_model(5);
    save_deployed_model(*trained, ckpt);
  }
  FleetConfig rc;
  rc.precision = Precision::kInt8;  // but the sessions below are fp32
  auto sessions = fx.builder(ckpt).build_n(2);
  EXPECT_THROW(FleetManager(std::move(sessions), rc), std::invalid_argument);
}

TEST(FixedFleet, RoundRobinSpreadsAndAggregatesAdmission) {
  const Fixture fx;
  const std::string ckpt = tmp_path("replica_rr.ckpt");
  {
    auto trained = fx.make_model(5);
    save_deployed_model(*trained, ckpt);
  }
  FleetConfig rc;
  rc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager set(fx.builder(ckpt).build_n(2), rc);
  for (std::int64_t node = 0; node < 10; ++node) infer_node(set, node);
  EXPECT_EQ(set.replica_snapshot(0).routed, 5u);
  EXPECT_EQ(set.replica_snapshot(1).routed, 5u);
  const auto adm = set.aggregate_admission();
  EXPECT_EQ(adm.admitted, 10u);
  EXPECT_EQ(adm.rejected + adm.shed, 0u);
  EXPECT_EQ(set.aggregate_latency().count, 10u);
  EXPECT_GT(set.aggregate_batches(), 0u);
}

TEST(FixedFleet, CacheAffinityPinsANodeToOneReplica) {
  const Fixture fx;
  const std::string ckpt = tmp_path("replica_aff.ckpt");
  {
    auto trained = fx.make_model(5);
    save_deployed_model(*trained, ckpt);
  }
  FleetConfig rc;
  rc.policy = RoutingPolicy::kCacheAffinity;
  rc.batch.max_delay = std::chrono::microseconds(100);
  FleetManager set(fx.builder(ckpt).build_n(3), rc);
  constexpr std::int64_t kNode = 42;
  for (int i = 0; i < 5; ++i) infer_node(set, kNode);
  const std::size_t home = set.home_replica(kNode);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(set.replica_snapshot(i).routed, i == home ? 5u : 0u);
  }
}

// --- ServerStats extensions -----------------------------------------------

TEST(ServerStats, MergePoolsSamplesAndAdmissionCounters) {
  ServerStats a, b;
  for (int i = 1; i <= 50; ++i) a.record(static_cast<double>(i));
  for (int i = 51; i <= 100; ++i) b.record(static_cast<double>(i));
  a.record_admitted();
  a.record_rejected();
  b.record_admitted();
  b.record_shed();

  ServerStats pooled;
  pooled.merge(a);
  pooled.merge(b);
  const auto s = pooled.summary();
  // Percentiles come from the union of raw samples, not from averaging
  // per-shard percentiles.
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  const auto adm = pooled.admission();
  EXPECT_EQ(adm.admitted, 2u);
  EXPECT_EQ(adm.rejected, 1u);
  EXPECT_EQ(adm.shed, 1u);
  EXPECT_DOUBLE_EQ(adm.reject_rate(), 1.0 / 3.0);
  const auto json = adm.to_json();
  EXPECT_NE(json.find("\"shed\":1"), std::string::npos) << json;
}

}  // namespace
}  // namespace ppgnn::serve
